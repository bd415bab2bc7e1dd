import functools
import hashlib
import json
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from hyperreguli import census as census_mod
from hyperreguli import covers as covers_mod
from hyperreguli import hyperreg as hyperreg_mod
from hyperreguli.cli import DEFAULT_SAMPLE, _sample_covers, main, parse_prime_power
from hyperreguli.covers import cover_type2
from hyperreguli.gf import make_field
from hyperreguli.hyperreg import hyper_regulus
from hyperreguli.pg5 import count_planes
from hyperreguli.spread import build_spread

from helpers import transversals_brute

RESULTS = Path(__file__).resolve().parent.parent / "results"


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


@pytest.mark.parametrize("argv", [
    ["covers", "--q", "2", "--seed", "1"],
    ["census", "--q", "2", "--sample", "3"],
    ["switching", "--q", "2", "--a", "0", "--f", "1", "--jobs", "2"],
    ["transversals", "--q", "2", "--kind", "1", "--a", "0", "--f", "1", "--method", "span"],
    ["transversals", "--q", "2", "--kind", "1", "--a", "0", "--f", "1", "--method", "brute"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    """--jobs belongs to verify and census, --sample and --seed to verify;
    transversals has one search and no --method."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    ctx = make_field(2)
    spread = build_spread(ctx)
    brute = transversals_brute(spread, hyper_regulus(spread, cover_type2(ctx, 0, 1, 1)))
    assert report["data"]["planes"] == [pl.key.hex() for pl in brute]


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


def test_switching_reports_a_broken_pair(capsys, monkeypatch):
    """A Z plane replaced by its Y plane: exit 1 with a report whose
    switching check fails with the error text."""
    graph = hyperreg_mod._graph_plane
    monkeypatch.setattr(hyperreg_mod, "_graph_plane",
                        lambda ctx, a, m, power: graph(ctx, a, m, 1 if m == 1 else power))
    code, report = run_json(capsys, ["switching", "--q", "3", "--a", "0", "--f", "1"])
    assert code == 1
    (check,) = report["checks"]
    assert check["name"] == "switching_property_verified" and not check["pass"]
    assert "planes of the set" in check["actual"]
    assert report["data"] == {}


def test_verify_reports_a_broken_spread(capsys, broken_spread):
    code, report = run_json(capsys, ["verify", "--q", "2"])
    assert code == 1
    check = report["checks"][-1]
    assert check["name"] == "spread_partition" and not check["pass"]
    assert "of element 0 locates to" in check["actual"]
    assert all(c["pass"] for c in report["checks"][:-1])


@pytest.mark.parametrize("argv", [
    ["census"],
    ["transversals", "--kind", "1", "--a", "0", "--f", "1"],
    ["switching", "--a", "0", "--f", "1"],
], ids=lambda argv: argv[0])
def test_subcommands_report_a_broken_spread(capsys, broken_spread, argv):
    """census, transversals and switching build the spread as verify does:
    a spread that fails its check gives a report whose one check is the
    failing spread_partition with the witness, no data, and exit 1."""
    code, report = run_json(capsys, [argv[0], "--q", "2", *argv[1:]])
    assert code == 1
    (check,) = report["checks"]
    assert check["name"] == "spread_partition" and not check["pass"]
    assert "of element 0 locates to" in check["actual"]
    assert report["data"] == {}


def test_json_reports_are_byte_stable(capsys):
    main(["covers", "--q", "3", "--list", "--format", "json"])
    first = capsys.readouterr().out
    main(["covers", "--q", "3", "--list", "--format", "json"])
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    assert json.dumps(strip_runtimes(a)) == json.dumps(strip_runtimes(b))


# sha256 of json.dumps(strip_runtimes(report)).  These reports are pinned
# byte for byte: any reordering or relabelling of the covers fails here.
GOLDEN_DIGESTS = {
    ("covers", "--q", "3", "--list"):
        "2c20274b20d295840bb5fc89ba8de8843674eeb90b89767c864d69217b4ee918",
    ("verify", "--q", "3"):
        "def5065e0ef7fb2c63e83c81515d07ba271534684918d78954843e66e7374d45",
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS), ids=" ".join)
def test_json_reports_match_golden_digests(capsys, argv):
    code, report = run_json(capsys, list(argv))
    assert code == 0
    text = json.dumps(strip_runtimes(report))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[argv]


@pytest.mark.parametrize("q", [7, 8, 9, 11])
def test_committed_verify_report_passes(q):
    """results/verify-q<q>.json, the runtime-stripped report of the exhaustive
    `verify --q <q> --jobs 2` run, passes every check at the closed forms."""
    report = json.loads((RESULTS / f"verify-q{q}.json").read_text())
    assert report["q"] == q and report["subcommand"] == "verify"
    assert "runtime_seconds" not in json.dumps(report)
    assert report["checks"] and all(c["pass"] for c in report["checks"])
    census = report["data"]["census"]
    assert (census["count_a"], census["count_b"], census["count_c"], census["total"]) == (
        census_mod.type_a_count(q), census_mod.type_b_count(q),
        census_mod.type_c_count(q), count_planes(q))
    assert census["covers_total"] == covers_mod.total_count(q)


@pytest.mark.skipif(os.environ.get("HYPERREGULI_SLOW") != "1",
                    reason="about 21 minutes on 2 vCPUs: about 3 for q = 7 (2 and 3 "
                           "jobs), 8 and 9, and 18 for q = 11; set HYPERREGULI_SLOW=1")
@pytest.mark.parametrize("q, jobs", [(7, 2), (8, 2), (9, 2), (11, 2), (7, 3)])
def test_verify_reproduces_committed_report(capsys, q, jobs):
    """The exhaustive verify reproduces results/verify-q<q>.json byte for
    byte, runtimes stripped; the report was made with 2 jobs, so a run with
    3 shows that it does not depend on how the census is shared."""
    code, report = run_json(capsys, ["verify", "--q", str(q), "--jobs", str(jobs)])
    assert code == 0
    text = json.dumps(strip_runtimes(report), indent=2) + "\n"
    committed = (RESULTS / f"verify-q{q}.json").read_bytes()
    assert hashlib.sha256(text.encode()).hexdigest() == hashlib.sha256(committed).hexdigest()


@pytest.mark.parametrize("seed", [0, 7])
def test_sample_covers_matches_filter_then_sample(ctx4, seed):
    """Sampling row indices per kind picks what sampling the filtered lists did."""
    cover_set = covers_mod.enumerate_covers(ctx4)
    kind1 = [c for c in cover_set.covers if c.kind == 1]
    kind2 = [c for c in cover_set.covers if c.kind == 2]
    rng = random.Random(seed)
    n1 = min(len(kind1), max(1, DEFAULT_SAMPLE // 2))
    n2 = min(len(kind2), DEFAULT_SAMPLE - n1)
    want = rng.sample(kind1, n1) + rng.sample(kind2, n2)
    got = _sample_covers(cover_set, DEFAULT_SAMPLE, seed)
    assert [(c.kind, c.a, c.b, c.f) for c in got] == [(c.kind, c.a, c.b, c.f) for c in want]
    assert got == want


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


def crash_workers(monkeypatch):
    """Make every census pool worker die on its share."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(census_mod, "ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor, mp_context=fork))
    monkeypatch.setattr(census_mod, "_pool_share", _crash_worker)


def test_crashed_worker_is_an_infrastructure_failure(capsys, monkeypatch):
    """A census worker that dies gives exit 3 and no report, not a mismatch,
    beside the main process alone (two jobs) and beside a second worker
    (three jobs)."""
    crash_workers(monkeypatch)
    for jobs in ("2", "3"):
        assert main(["census", "--q", "2", "--jobs", jobs, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "infrastructure failure" in captured.err


def test_memory_exhaustion_is_an_infrastructure_failure(capsys, monkeypatch):
    """A census that runs out of memory gives exit 3 and no report, not the
    exit 1 of a failed check."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(census_mod, "run_census", exhausted)
    assert main(["census", "--q", "2", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "infrastructure failure: out of memory\n"


def test_verify_keeps_its_checks_when_the_census_raises(capsys, monkeypatch):
    """A RuntimeError in the census, such as a plane of no class, ends the
    report with a failing census_completed check that carries the message
    and its witness, after every check made before it; the exit is 1 and
    the data {}."""
    code, want = run_json(capsys, ["verify", "--q", "2"])
    assert code == 0
    witness = ("inconsistent intersection tally for plane basis [[1, 0, 0, 0, 0, 0]] "
               "(pivot pattern (0, 1, 2), odometer index 7): labels [0, 0, 1, 2, 3, 4, 5]")

    def broken(*args, **kwargs):
        raise RuntimeError(witness)

    monkeypatch.setattr(census_mod, "run_census", broken)
    code, report = run_json(capsys, ["verify", "--q", "2"])
    assert code == 1 and report["data"] == {}
    names = [c["name"] for c in want["checks"]]
    earlier = want["checks"][: names.index("census_count_a")]
    assert report["checks"][:-1] == earlier and earlier[-1]["name"] == "covers_dedup_exact"
    assert report["checks"][-1] == {"name": "census_completed", "expected": True,
                                    "actual": witness, "pass": False}


def test_verify_names_the_stage_that_raised(capsys, monkeypatch):
    """A RuntimeError of the cover enumeration or of the span search is
    reported as the failing check of its stage."""
    def broken(*args, **kwargs):
        raise RuntimeError("table bug")

    for owner, name, stage in ((covers_mod, "enumerate_covers", "covers"),
                               (hyperreg_mod, "transversal_planes", "transversals")):
        with monkeypatch.context() as m:
            m.setattr(owner, name, broken)
            code, report = run_json(capsys, ["verify", "--q", "2"])
        assert code == 1 and report["data"] == {}
        assert report["checks"][-1] == {"name": f"{stage}_completed", "expected": True,
                                        "actual": "table bug", "pass": False}
        assert all(c["pass"] for c in report["checks"][:-1])


def test_verify_with_a_crashed_worker_is_still_an_infrastructure_failure(capsys, monkeypatch):
    """BrokenProcessPool is a RuntimeError, but verify does not report it
    as a failing check: exit 3 and no report, with two jobs and with three."""
    crash_workers(monkeypatch)
    for jobs in ("2", "3"):
        assert main(["verify", "--q", "2", "--jobs", jobs, "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "infrastructure failure" in captured.err
