#!/usr/bin/env python3
"""Time two checkouts of the repository against each other in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . --seeds 1-10 \\
        --json BENCH_18.json --label pairs

Each of PAIRS pairs runs `perfbench/run.py --trace 0` for BENCHMARK.json's
run_seconds once in each checkout, one right after the other, and the order
flips from pair to pair, so a drift of the host's speed falls on both sides
alike.  Pair i uses the i-th seed, cycling through them when there are fewer
seeds than pairs.  Every run gets a fresh, empty PYTHONPYCACHEPREFIX with
bytecode writing on, so each checkout compiles its own sources once per run
and neither reads the `__pycache__` directories it carries.  For every
workload and end-to-end metric in BENCHMARK.json the output gives the values
of each pair, each side's median and quartiles (as
`statistics.quantiles(values, n=4)` gives them), the number of pairs the change
wins, and whether the median gap exceeds the parent's interquartile range;
each end-to-end metric also gets the no-regression verdict of its bound
(compare).
With --trace, each pair is also run once traced in each checkout, and the
per-layer metrics named there are summarised the same way.  The exit status
is 1 when any run failed its correctness gate or crashed.  The summary is
printed, and with --json stored under --label in that file, beside the labels
already there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest that a claimed gain may rest on

# Recorded with every result until perfbench/speed.py is mended (ROADMAP item 6).
SAMPLER_CAVEAT = (
    "perfbench/speed.py times its sampler with time.process_time() inside the "
    "SIGPROF handler; on some hosts it under-subtracts its own CPU, which biases "
    "norm_cpu_s by about 1% on both sides of a pair alike."
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# The bytecode each run reads, recorded with every result.
BYTECODE_CACHE = (
    "fresh and empty per run: PYTHONPYCACHEPREFIX is a new directory and "
    "PYTHONDONTWRITEBYTECODE is unset, so the run's first process compiles "
    "every module it imports and the later ones (the set-up probes) read those "
    "files; no __pycache__ of either checkout is read."
)


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One fresh run.py process in checkout; returns its info line and its
    result line's metric values."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=checkout, timeout=1800,
            env={**env, "PYTHONPYCACHEPREFIX": pycache},
        )
    try:
        *_, info, result = map(json.loads, proc.stdout.strip().splitlines())
    except ValueError:
        info, result = {}, {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return info["info"], {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def compare(pairs: list[dict], name: str, better: str, bound: float | None = None) -> dict:
    """Per-pair values of one metric and the verdict of the claim rule; with
    the metric's no-regression bound, also that rule's verdict:
    within_bound when the change's median is no worse than the parent's by
    more than bound times the parent's median, and resolved when the
    parent's interquartile range is within bound times its median or every
    change run beats every parent run."""
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    sign = 1 if better == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    verdict = {}
    if bound is not None:
        slack = bound * abs(p["median"])
        verdict = {
            "bound": bound,
            "within_bound": sign * (c["median"] - p["median"]) <= slack,
            "resolved": p["q3"] - p["q1"] <= slack
            or all(sign * (a - b) > 0 for a in parent for b in change),
        }
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_summary": p,
        "change_summary": c,
        "median_change_ratio": c["median"] / p["median"] - 1 if p["median"] else 0.0,
        "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "gap_exceeds_parent_iqr": sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
        **verdict,
    }


def run_pairs(args, workload: str, trace: int, hosts: dict) -> list[dict]:
    """The pairs of one workload; hosts gets each side's machine and source hash."""
    pairs = []
    for i in range(PAIRS):
        seed = args.seeds[i % len(args.seeds)]
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": sides[0]}
        for side in sides:
            info, pair[side] = run_once(getattr(args, side), workload, seed, args.seconds, trace)
            hosts[side] = {k: info[k] for k in ("nproc", "python", "numpy", "source_sha256")}
        print(f"{workload} trace={trace} pair {i + 1}/{PAIRS} seed {seed} done",
              file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload in BENCHMARK.json)")
    parser.add_argument("--trace", default="",
                        help="comma-separated per-layer metrics to compare in traced pairs")
    parser.add_argument("--json", type=Path, default=None)
    parser.add_argument("--label", default="pairs", help="the summary's key in --json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    per_layer = {m["name"]: m["better"] for m in bench["per_layer"]}
    traced = [m for m in args.trace.split(",") if m]

    hosts = {}
    out = {"checkouts": hosts, "seconds": args.seconds,
           "seeds": [args.seeds[i % len(args.seeds)] for i in range(PAIRS)],
           "sampler_caveat": SAMPLER_CAVEAT, "bytecode_cache": BYTECODE_CACHE,
           "workloads": {}}
    status = 0
    for workload in names:
        entry = out["workloads"][workload] = {}
        try:
            pairs = run_pairs(args, workload, 0, hosts)
            entry["end_to_end"] = {m["name"]: compare(pairs, m["name"], m["better"], m["bound"])
                                   for m in bench["end_to_end"]}
            if traced:
                pairs = run_pairs(args, workload, 1, hosts)
                entry["per_layer"] = {name: compare(pairs, name, per_layer[name])
                                      for name in traced}
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            entry["error"] = str(exc)
            status = 1
    print(json.dumps(out, indent=1))
    if args.json is not None:
        doc = json.loads(args.json.read_text()) if args.json.exists() else {}
        doc[args.label] = out
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
