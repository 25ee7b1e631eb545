import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "size_report.py"
spec = importlib.util.spec_from_file_location("size_report", TOOL)
size_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(size_report)

# eight branch nodes inside functions; the module-level If and comprehension
# do not count, and nodes of a nested function or lambda count once
SNIPPET = """import os
if os.name:
    names = [n for n in range(3)]


def f(xs):
    if xs and len(xs) > 1:
        return [y for y in xs if y]
    for x in xs:
        while x:
            x -= 1
    try:
        pass
    except ValueError:
        pass
    g = lambda v: v if v else 0

    def h():
        return 1 if g else 2

    return h
"""


def test_branch_nodes_count_each_kind_inside_functions_once():
    assert size_report.branch_nodes(SNIPPET) == 8
    assert size_report.branch_nodes("x = 1 if True else 2\n") == 0


def test_report_gives_lines_and_branches_per_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("def f(x):\n    return x or 1\n")
    assert size_report.report(tmp_path) == [("a", 21, 8), ("b", 2, 1)]
    assert size_report.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module | lines | branch nodes", "a | 21 | 8", "b | 2 | 1", "total | 23 | 9",
    ]


def test_report_fails_on_a_directory_without_modules(tmp_path):
    assert size_report.main([str(tmp_path)]) == 1
