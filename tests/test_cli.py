import functools
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from hyperreguli import census as census_mod
from hyperreguli import covers as covers_mod
from hyperreguli.cli import main, parse_prime_power


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def strip_runtimes(obj):
    if isinstance(obj, dict):
        return {k: strip_runtimes(v) for k, v in obj.items() if k != "runtime_seconds"}
    if isinstance(obj, list):
        return [strip_runtimes(v) for v in obj]
    return obj


def test_parse_prime_power():
    assert parse_prime_power(8) == (2, 3)
    assert parse_prime_power(9) == (3, 2)
    with pytest.raises(ValueError):
        parse_prime_power(6)
    with pytest.raises(ValueError):
        parse_prime_power(1)


def test_verify_q2_passes(capsys):
    code, report = run_json(capsys, ["verify", "--q", "2"])
    assert code == 0
    assert report["schema"] == 1 and report["q"] == 2
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["covers_total"]["actual"] == 36
    assert by_name["census_count_b"]["actual"] == 504
    assert by_name["transversals_exact"]["actual"]["planes_each"] == 14
    assert all(c["pass"] for c in report["checks"])
    assert report["data"]["census"]["count_a"] == 9


def test_verify_rejects_non_prime_power(capsys):
    assert main(["verify", "--q", "6"]) == 2
    assert "not a prime power" in capsys.readouterr().err


def test_verify_rejects_capacity_overflow(capsys):
    assert main(["verify", "--q", "17"]) == 2
    assert "capacity" in capsys.readouterr().err


def test_verify_rejects_bad_flags(capsys):
    assert main(["verify", "--q", "2", "--jobs", "0"]) == 2
    assert main(["verify", "--q", "2", "--sample", "0"]) == 2
    assert main(["verify", "--q", "2", "--cubic-modulus", "1,1,1"]) == 2
    assert main(["verify", "--q", "2", "--cubic-modulus", "0,0,0,1"]) == 2
    capsys.readouterr()


def test_verify_with_modulus_override(capsys):
    code, report = run_json(capsys, ["verify", "--q", "2", "--cubic-modulus", "1,0,1,1"])
    assert code == 0
    assert all(c["pass"] for c in report["checks"])


def test_covers_list_q2(capsys):
    code, report = run_json(capsys, ["covers", "--q", "2", "--list"])
    assert code == 0
    covers = report["data"]["covers"]
    assert len(covers) == 36
    assert all(len(c) == 7 for c in covers)
    assert any("inf" in c for c in covers)
    assert covers[0] == [1, 2, 3, 4, 5, 6, 7]


def test_census_q2_mirrors_report_fields(capsys):
    code, report = run_json(capsys, ["census", "--q", "2"])
    assert code == 0
    data = report["data"]
    assert set(data) == {"q", "count_a", "count_b", "count_c", "total",
                         "covers_total", "identity_x_eq_y", "trace_check",
                         "runtime_seconds"}
    assert data["count_c"] == 882
    assert data["trace_check"] == {"checked": True, "matched": True,
                                   "multiplicity_ok": True}


def test_transversals_kind1(capsys):
    code, report = run_json(
        capsys, ["transversals", "--q", "2", "--kind", "1", "--a", "0", "--f", "1"])
    assert code == 0
    planes = report["data"]["planes"]
    assert len(planes) == 14
    assert all(len(k) == 36 for k in planes)  # 18 bytes hex-encoded


def test_transversals_kind2_and_brute(capsys):
    code, report = run_json(
        capsys, ["transversals", "--q", "2", "--kind", "2",
                 "--a", "0", "--b", "1", "--f", "1"])
    assert code == 0
    code2, report2 = run_json(
        capsys, ["transversals", "--q", "2", "--kind", "2",
                 "--a", "0", "--b", "1", "--f", "1", "--method", "brute"])
    assert code2 == 0
    assert report["data"]["planes"] == report2["data"]["planes"]


def test_transversals_kind2_requires_b(capsys):
    assert main(["transversals", "--q", "2", "--kind", "2", "--a", "0", "--f", "1"]) == 2
    capsys.readouterr()


def test_switching_union_matches_transversals(capsys):
    code, report = run_json(capsys, ["switching", "--q", "3", "--a", "0", "--f", "1"])
    assert code == 0
    assert len(report["data"]["y"]) == 13 and len(report["data"]["z"]) == 13
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["union_equals_transversals"]["pass"]

    code2, tv = run_json(
        capsys, ["transversals", "--q", "3", "--kind", "1", "--a", "0", "--f", "1"])
    union = sorted(report["data"]["y"] + report["data"]["z"])
    assert union == tv["data"]["planes"]


def test_json_reports_are_byte_stable(capsys):
    main(["covers", "--q", "3", "--list", "--format", "json"])
    first = capsys.readouterr().out
    main(["covers", "--q", "3", "--list", "--format", "json"])
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    assert json.dumps(strip_runtimes(a)) == json.dumps(strip_runtimes(b))


def test_text_format_table(capsys):
    code = main(["census", "--q", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  census_count_a" in out
    assert "checks passed" in out


def test_exit_one_on_check_failure(capsys, monkeypatch):
    monkeypatch.setattr(census_mod, "type_b_count", lambda q: 1)
    assert main(["census", "--q", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_jobs_flag_runs(capsys):
    code, report = run_json(capsys, ["census", "--q", "2", "--jobs", "2"])
    assert code == 0
    assert report["data"]["count_b"] == 504


def test_verify_enumerates_the_covers_once(capsys, monkeypatch):
    """The census reuses the CoverSet that verify enumerated and audited."""
    real = covers_mod.enumerate_covers
    calls = []

    def counting(ctx, check_dedup=False):
        calls.append(check_dedup)
        return real(ctx, check_dedup)

    monkeypatch.setattr(covers_mod, "enumerate_covers", counting)
    monkeypatch.setattr(census_mod, "enumerate_covers", counting)
    code, report = run_json(capsys, ["verify", "--q", "2"])
    assert code == 0 and all(c["pass"] for c in report["checks"])
    assert calls == [True]


def _crash_worker(chunk):
    os._exit(1)


def test_crashed_worker_is_an_infrastructure_failure(capsys, monkeypatch):
    """A census worker that dies gives exit 3 and no report, not a mismatch."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(census_mod, "ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor, mp_context=fork))
    monkeypatch.setattr(census_mod, "_pool_chunk", _crash_worker)
    assert main(["census", "--q", "2", "--jobs", "2", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "infrastructure failure" in captured.err
