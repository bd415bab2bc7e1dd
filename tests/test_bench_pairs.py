"""tools/bench_pairs.py: the alternating order of a pair, the claim rule and
the no-regression bound."""

import importlib.util
import json
import os
from argparse import Namespace
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        info = {"nproc": 2, "python": "3", "numpy": "2", "source_sha256": checkout}
        return info, {"norm_cpu_s": 1.0 if checkout == "p" else 0.9}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    args = Namespace(parent="p", change="c", seeds=[7, 8, 9], seconds=1.0)
    hosts = {}
    pairs = bench_pairs.run_pairs(args, "verify-q4", 0, hosts)
    assert len(pairs) == bench_pairs.PAIRS == 10
    assert calls[:8] == [("p", 7), ("c", 7), ("c", 8), ("p", 8), ("p", 9), ("c", 9), ("c", 7), ("p", 7)]
    assert [p["first"] for p in pairs] == ["parent", "change"] * 5
    assert [p["seed"] for p in pairs] == [7, 8, 9] * 3 + [7]
    assert hosts["parent"]["source_sha256"] == "p" and hosts["change"]["source_sha256"] == "c"


def _pairs(parent, change):
    return [{"parent": {"m": a}, "change": {"m": b}} for a, b in zip(parent, change)]


def test_compare_counts_wins_and_the_parent_spread():
    pairs = _pairs([1.0, 1.1, 0.9, 1.0, 1.2], [0.7, 0.7, 0.95, 0.6, 1.2])
    lower = bench_pairs.compare(pairs, "m", "lower")
    assert lower["change_wins"] == 3  # 0.95 > 0.9 loses and the tie counts for neither
    assert lower["parent_summary"]["median"] == 1.0
    assert lower["gap_exceeds_parent_iqr"]  # gap 0.3 against quartiles 0.95 and 1.15
    higher = bench_pairs.compare(pairs, "m", "higher")
    assert higher["change_wins"] == 1 and not higher["gap_exceeds_parent_iqr"]
    assert bench_pairs.parse_seeds("1-3,9001") == [1, 2, 3, 9001]


def test_compare_checks_the_no_regression_bound():
    """within_bound holds while the change's median is at most bound times the
    parent's median worse; resolved holds when the parent's IQR is within
    bound times its median, or when every change run beats every parent run.
    Without a bound neither field is recorded."""
    parent = [1.0, 1.0, 1.0, 1.0, 1.0]
    worse = bench_pairs.compare(_pairs(parent, [1.2] * 5), "m", "lower", 0.25)
    assert worse["bound"] == 0.25 and worse["within_bound"] and worse["resolved"]
    worse = bench_pairs.compare(_pairs(parent, [1.3] * 5), "m", "lower", 0.25)
    assert not worse["within_bound"] and worse["resolved"]
    higher = bench_pairs.compare(_pairs(parent, [0.8] * 5), "m", "higher", 0.25)
    assert higher["within_bound"]
    higher = bench_pairs.compare(_pairs(parent, [0.7] * 5), "m", "higher", 0.25)
    assert not higher["within_bound"]
    # quartiles 0.65 and 1.35 of the parent: an IQR of 0.7 against a slack of 0.1
    noisy = [0.5, 0.8, 1.0, 1.2, 1.5]
    assert not bench_pairs.compare(_pairs(noisy, [1.0] * 5), "m", "lower", 0.1)["resolved"]
    beats = bench_pairs.compare(_pairs(noisy, [0.4] * 5), "m", "lower", 0.1)
    assert beats["resolved"] and beats["within_bound"]
    beats = bench_pairs.compare(_pairs(noisy, [1.6] * 5), "m", "higher", 0.1)
    assert beats["resolved"] and beats["within_bound"]
    tie = bench_pairs.compare(_pairs(noisy, [1.5] * 5), "m", "higher", 0.1)
    assert not tie["resolved"]  # 1.5 ties the parent's best run, so it does not beat it
    assert "within_bound" not in bench_pairs.compare(_pairs(noisy, noisy), "m", "lower")


def test_every_run_gets_a_fresh_empty_bytecode_cache(monkeypatch):
    """run_once gives each run.py process its own new, empty
    PYTHONPYCACHEPREFIX with bytecode writing on, and removes it after."""
    seen = []

    def fake_subprocess_run(cmd, **kwargs):
        env = kwargs["env"]
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((prefix, prefix.is_dir() and not any(prefix.iterdir()),
                     "PYTHONDONTWRITEBYTECODE" in env, env.get("PATH"), kwargs["cwd"]))
        info = {"info": {"nproc": 2}}
        result = {"correct": True, "metrics": {"norm_cpu_s": {"value": 1.0}}}
        return Namespace(returncode=0, stdout=f"{json.dumps(info)}\n{json.dumps(result)}\n",
                         stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    for checkout in ("p", "c"):
        info, metrics = bench_pairs.run_once(checkout, "covers-q7", 1, 1.0, 0)
        assert info == {"nproc": 2} and metrics == {"norm_cpu_s": 1.0}
    assert [s[1:] for s in seen] == [(True, False, os.environ.get("PATH"), "p"),
                                     (True, False, os.environ.get("PATH"), "c")]
    assert seen[0][0] != seen[1][0]
    assert not any(prefix.exists() for prefix, *_ in seen)
