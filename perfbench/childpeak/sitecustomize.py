"""Report this interpreter's peak memory when it exits.

The benchmark puts this directory on PYTHONPATH for the ``python -m
pascalinv`` commands it times, so that each command, run unchanged, writes
its peak resident set less file-backed pages (``VmHWM - RssFile``, in kB)
to the file named by PERFBENCH_PEAK_FILE.  File-backed pages are left out
because how many of them are resident depends on the host's page cache.
"""
import atexit
import os


def _report(path):
    try:
        with open("/proc/self/status") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        peak_kb = int(fields["VmHWM"].split()[0]) - int(fields["RssFile"].split()[0])
    except (OSError, KeyError, ValueError):
        return
    with open(path, "w") as fh:
        fh.write(str(peak_kb))


if os.environ.get("PERFBENCH_PEAK_FILE"):
    atexit.register(_report, os.environ["PERFBENCH_PEAK_FILE"])
