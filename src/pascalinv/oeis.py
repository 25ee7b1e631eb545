"""OEIS search client with a verbatim response cache and offline fixtures.

The client is an optional convenience: nothing else in the library imports
it, and every other feature works with networking disabled.  Raw responses
are cached byte for byte, keyed by the normalised integer prefix; a fixture
directory can serve pre-recorded responses read-only.  A file is named after
its key, or after the key's SHA-256 digest when the key is too long for a file
name.
"""
from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from pathlib import Path

from .errors import CacheMissError, NetworkError, NonIntegerSequenceError, Record
from .scalars import QuadExt
from .sequences import Seq, prefix

SEARCH_URL = "https://oeis.org/search"
CACHE_ENV = "PASCALINV_OEIS_CACHE"
FIXTURE_ENV = "PASCALINV_OEIS_FIXTURES"
_RETRIES = 3
_BACKOFF_S = 0.5
# the longest file name most file systems take, in bytes
_NAME_MAX = 255


class LookupResult(Record):
    _fields = ("query_prefix", "matches", "source")

    def __init__(self, query_prefix: list, matches: list, source: str):
        # source is "network", "cache" or "fixture"
        vars(self).update(query_prefix=query_prefix, matches=matches, source=source)


def _as_int(value) -> int:
    if isinstance(value, QuadExt):
        value = value.to_fraction()
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise NonIntegerSequenceError(f"non-integer term {value}")
        return value.numerator
    if isinstance(value, int):
        return value
    raise NonIntegerSequenceError(f"non-integer term {value!r}")


def integer_prefix(seq: Seq, depth: int) -> list:
    try:
        return [_as_int(t) for t in prefix(seq, depth)]
    except ValueError as exc:  # irrational QuadExt
        raise NonIntegerSequenceError(str(exc)) from exc


def _cache_dir(explicit) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pascalinv" / "oeis"


def _key(terms) -> str:
    return ",".join(str(t) for t in terms)


def _stem(key: str) -> str:
    """The file name stem of a key: the key itself while ``key.json`` fits in
    one path component, its SHA-256 hex digest past that."""
    if len(key) + len(".json") <= _NAME_MAX:
        return key
    # imported here: hashlib loads OpenSSL, which no short key needs
    import hashlib

    return hashlib.sha256(key.encode()).hexdigest()


def _parse_matches(raw: bytes) -> list:
    obj = json.loads(raw.decode("utf-8"))
    results = obj.get("results") if isinstance(obj, dict) else obj
    matches = []
    for entry in results or []:
        number = entry.get("number")
        ident = f"A{number:06d}" if isinstance(number, int) else str(number)
        matches.append((ident, entry.get("name", "")))
    return matches


def _fetch(query: str) -> bytes:
    # imported here: urllib.request loads http.client, email and ssl, a cost
    # every CLI start would otherwise pay for a feature few invocations use
    import urllib.parse
    import urllib.request

    url = f"{SEARCH_URL}?{urllib.parse.urlencode({'q': query, 'fmt': 'json'})}"
    last = None
    for attempt in range(_RETRIES):
        try:
            # urlopen raises HTTPError on any non-2xx status
            with urllib.request.urlopen(url, timeout=10) as resp:
                return resp.read()
        except Exception as exc:  # noqa: BLE001 - wrap any transport failure
            last = exc
            if attempt + 1 < _RETRIES:
                time.sleep(_BACKOFF_S * 2**attempt)
    raise NetworkError(f"search failed after {_RETRIES} attempts: {last}")


def lookup(
    seq: Seq,
    depth: int,
    offline: bool = False,
    cache_dir=None,
    fixture_dir=None,
) -> LookupResult:
    """Identify an integer sequence prefix against the OEIS search service.

    Cached responses are consulted first, then the read-only fixture
    directory, then (unless ``offline``) the network.  Fresh responses are
    cached verbatim alongside a parsed index.
    """
    terms = integer_prefix(seq, depth)
    key = _key(terms)
    stem = _stem(key)
    cdir = _cache_dir(cache_dir)
    raw_path = cdir / f"{stem}.raw"
    if raw_path.exists():
        return LookupResult(terms, _parse_matches(raw_path.read_bytes()), "cache")

    fdir = fixture_dir if fixture_dir is not None else os.environ.get(FIXTURE_ENV)
    if fdir is not None:
        fix_path = Path(fdir) / f"{stem}.raw"
        if fix_path.exists():
            return LookupResult(terms, _parse_matches(fix_path.read_bytes()), "fixture")

    if offline:
        raise CacheMissError(f"no cached response for prefix {key}")

    raw = _fetch(key)
    matches = _parse_matches(raw)  # parse before caching: reject garbage early
    cdir.mkdir(parents=True, exist_ok=True)
    raw_path.write_bytes(raw)
    (cdir / f"{stem}.json").write_text(
        json.dumps({"prefix": terms, "matches": matches}, indent=2)
    )
    return LookupResult(terms, matches, "network")
