"""tools/bench_pairs.py: the alternating order of a pair and the claim rule."""

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
