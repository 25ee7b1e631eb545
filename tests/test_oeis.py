import hashlib
import json
from pathlib import Path

import pytest

import pascalinv.oeis as oeis
from pascalinv.sequences import KSeq, fibonacci, lucas, unit

FIXTURES = Path(__file__).parent / "fixtures"


def test_integer_prefix_rejects_fractions():
    with pytest.raises(oeis.NonIntegerSequenceError):
        oeis.integer_prefix(KSeq(), 10)
    assert oeis.integer_prefix(lucas(), 6) == [2, 1, 3, 4, 7, 11]


def test_lookup_from_fixture(tmp_path):
    result = oeis.lookup(
        lucas(), 10, offline=True, cache_dir=tmp_path, fixture_dir=FIXTURES
    )
    assert result.source == "fixture"
    assert result.query_prefix == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76]
    assert ("A000032", result.matches[0][1]) == result.matches[0]
    assert "Lucas" in result.matches[0][1]


def test_lookup_fixture_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(oeis.FIXTURE_ENV, str(FIXTURES))
    monkeypatch.setenv(oeis.CACHE_ENV, str(tmp_path))
    result = oeis.lookup(fibonacci(), 10, offline=True)
    assert result.source == "fixture"
    assert result.matches[0][0] == "A000045"


def test_offline_miss_raises(tmp_path):
    with pytest.raises(oeis.CacheMissError):
        oeis.lookup(unit(3), 8, offline=True, cache_dir=tmp_path, fixture_dir=None)


def test_cache_round_trip(tmp_path, monkeypatch):
    calls = []
    canned = json.dumps(
        {"count": 1, "results": [{"number": 45, "name": "Fibonacci numbers"}]}
    ).encode()

    def fake_fetch(query):
        calls.append(query)
        return canned

    monkeypatch.setattr(oeis, "_fetch", fake_fetch)
    first = oeis.lookup(fibonacci(), 10, cache_dir=tmp_path, fixture_dir=None)
    assert first.source == "network"
    assert first.matches == [("A000045", "Fibonacci numbers")]
    assert len(calls) == 1
    # raw bytes cached verbatim next to a parsed index
    key = ",".join(str(t) for t in first.query_prefix)
    assert (tmp_path / f"{key}.raw").read_bytes() == canned
    parsed = json.loads((tmp_path / f"{key}.json").read_text())
    assert parsed["matches"] == [["A000045", "Fibonacci numbers"]]

    second = oeis.lookup(fibonacci(), 10, cache_dir=tmp_path, fixture_dir=None)
    assert second.source == "cache"
    assert second.matches == first.matches
    assert len(calls) == 1  # no second network hit


def test_long_key_is_cached_under_its_digest(tmp_path, monkeypatch):
    canned = json.dumps({"count": 1, "results": [{"number": 32, "name": "Lucas"}]}).encode()
    calls = []
    monkeypatch.setattr(oeis, "_fetch", lambda query: calls.append(query) or canned)
    first = oeis.lookup(lucas(), 100, cache_dir=tmp_path, fixture_dir=None)
    key = ",".join(str(t) for t in first.query_prefix)
    assert len(key) > 255 and calls == [key]
    digest = hashlib.sha256(key.encode()).hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{digest}.json", f"{digest}.raw"]
    assert (tmp_path / f"{digest}.raw").read_bytes() == canned

    second = oeis.lookup(lucas(), 100, cache_dir=tmp_path, fixture_dir=None)
    assert (second.source, second.matches) == ("cache", [("A000032", "Lucas")])
    assert len(calls) == 1


def test_network_failure_wrapped(tmp_path, monkeypatch):
    def broken(query):
        raise oeis.NetworkError("search failed after 3 attempts: boom")

    monkeypatch.setattr(oeis, "_fetch", broken)
    with pytest.raises(oeis.NetworkError):
        oeis.lookup(unit(2), 6, cache_dir=tmp_path, fixture_dir=None)


def test_parse_matches_tolerates_empty_results():
    assert oeis._parse_matches(b'{"count": 0, "results": null}') == []
    assert oeis._parse_matches(b"[]") == []


def test_cli_oeis_offline(tmp_path, capsys, monkeypatch):
    from pascalinv.cli import main

    monkeypatch.setenv(oeis.FIXTURE_ENV, str(FIXTURES))
    code = main(
        ["oeis", "lucas", "--depth", "10", "--offline", "--cache-dir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "source: fixture" in out
    assert "A000032" in out

    code = main(
        ["oeis", "kseq", "--depth", "10", "--offline", "--cache-dir", str(tmp_path)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "non-integer" in err


def test_cli_network_error_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    from pascalinv.cli import main

    def unreachable(query):
        raise oeis.NetworkError("search failed after 3 attempts: unreachable")

    monkeypatch.setattr(oeis, "_fetch", unreachable)
    monkeypatch.delenv(oeis.FIXTURE_ENV, raising=False)
    code = main(["oeis", "lucas", "--cache-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: search failed after 3 attempts: unreachable\n"


def test_fetch_retries_then_wraps_transport_failure(monkeypatch):
    import urllib.request

    attempts = []

    def refuse(url, timeout):
        attempts.append(url)
        raise OSError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    monkeypatch.setattr(oeis, "_BACKOFF_S", 0)
    with pytest.raises(oeis.NetworkError, match="connection refused"):
        oeis._fetch("2,1,3,4")
    assert len(attempts) == oeis._RETRIES
    assert attempts[0] == oeis.SEARCH_URL + "?q=2%2C1%2C3%2C4&fmt=json"
