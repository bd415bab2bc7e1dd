#!/usr/bin/env python3
"""Run every workload over several seeds, then once traced, and print every metric.

    python3 perfbench/suite.py                                  # seeds 1-3
    python3 perfbench/suite.py --seeds 1-10 --json perfbench/out/suite.json

Each run is a fresh `run.py` process that measures for BENCHMARK.json's
run_seconds.  For each end-to-end metric the table gives its unit, the median
over the seeds, the quartiles (as `statistics.quantiles(values, n=4)` gives
them), the spread (q3 - q1) / median and the bound from BENCHMARK.json.  The
traced run's per-layer metrics follow, with its wall time against the untraced
runs' median wall time.  The exit status is 1 when any run failed its
correctness gate or crashed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One fresh run.py process; returns its info and result, or the error."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    return {"seed": seed, "info": info, "result": result}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def report_workload(name: str, runs: list[dict], traced: dict, spec: dict) -> dict:
    ok = [r for r in runs if "result" in r and r["result"]["metrics"]]
    attempted = sum(r["result"]["attempted"] for r in runs if "result" in r)
    failed = sum(r["result"]["failed"] for r in runs if "result" in r)
    crashed = sum(1 for r in runs if "error" in r)
    print(f"\n== {name}: {len(runs)} runs, seeds {[r['seed'] for r in runs]} ==")
    print(f"  failed_ratio  {failed}/{attempted} repetitions failed, {crashed} runs crashed")
    out = {"attempted": attempted, "failed": failed, "crashed": crashed, "end_to_end": {}}
    print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in ok
                  if m["name"] in r["result"]["metrics"]]
        if not values:
            print(f"  {m['name']:<14} {m['unit']:<6} (no value)")
            continue
        s = summarize(values)
        out["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], **s}
        print(f"  {m['name']:<14} {m['unit']:<6} {s['median']:>12.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {s['spread']:>8.2%} {m['bound']:>6}")
    per_item = [r["info"]["per_item"] for r in ok if "per_item" in r["info"]]
    if per_item:
        p = per_item[0]
        print(f"  per {ok[0]['info']['item'][:-1]}: p50 {statistics.median(x['p50_s'] for x in per_item):.4g} s, "
              f"p{p['tail_percentile']} {statistics.median(x['tail_s'] for x in per_item):.4g} s "
              f"({p['samples']} samples per run, medians over runs)")
    out["traced"] = traced
    if "error" in traced:
        print(f"  traced run crashed: {traced['error']}")
        return out
    metrics = traced["result"]["metrics"]
    walls = [r["info"]["wall_s"] for r in ok]
    wall = statistics.median(walls) if walls else None
    if metrics and wall:
        tw = metrics["trace.wall_s"]["value"]
        print(f"  traced (seed {traced['seed']}): wall {tw:.4g} s against untraced "
              f"{wall:.4g} s, overhead {tw / wall - 1:+.2%}; tracer bookkeeping "
              f"{metrics['trace.overhead_s']['value']:.3g} s per repetition")
    for m in spec["per_layer"]:
        v = metrics.get(m["name"])
        shown = f"{v['value']:.6g}" if v else "(missing)"
        print(f"    {m['name']:<28} {shown:>14} {m['unit']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-3", help="e.g. 1-10 or 3,7,9001")
    parser.add_argument("--json", default=None, help="also write the summary here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    summary, bad = {"seeds": seeds, "seconds": seconds, "workloads": {}}, False
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, s, seconds, 0) for s in seeds]
        traced = run_once(name, seeds[0], seconds, 1)
        summary["workloads"][name] = out = report_workload(name, runs, traced, spec)
        out["runs"] = runs
        if any(r.get("info") for r in runs):
            summary.setdefault("machine", next(r["info"] for r in runs if r.get("info")))
        bad |= (out["failed"] > 0 or out["crashed"] > 0
                or "error" in traced or not traced["result"]["correct"])
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(summary, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
