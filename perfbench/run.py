#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload census-q5 --seed 1 --seconds 5 --trace 0

The run repeats the workload's unit of work until --seconds have passed
and the workload's minimum number of repetitions is done, checks every
answer, and prints two JSON lines: an `info` object (machine, versions,
seed, sample sizes, wall times) and the result
`{"correct", "attempted", "failed", "metrics"}`.  With --trace 0 the
metrics are the end-to-end ones, with CPU times scaled to a nominal host
speed by a reference kernel timed through each repetition (speed.py); the
raw times are in the info line.  With --trace 1 the same repetitions run
with every layer call wrapped in a span, and the metrics are the per-layer
ones.  The exit status is 0 only when every repetition passed its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
PRE_SAMPLES = 5  # reference samples taken before each repetition
LAYERS = ("gf", "pg5", "spread", "covers", "census", "hyperreg", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Fresh-process set-up: import, make_field, numpy mirrors, checked spread, in
# CPU seconds (see workloads.cpu_clock).  Interpreter start is excluded: the
# clock is read before the package import.  The probe then times the
# host-speed reference (speed.py) in the same process, to normalise its
# set-up time.
SETUP_CODE = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import workloads
ctx = workloads.gf.make_field(*workloads.prime_power(int(sys.argv[3])))
workloads.np_mirrors(ctx)
workloads.spread_mod.build_spread(ctx, check=True)
setup = time.process_time() - t0
print(setup, workloads.speed.reference_s(15))
"""


def cap_threads() -> None:
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(min(n, nproc))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine_info() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "threads_cap": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def tail_percentile(values: list[float]) -> tuple[float, int]:
    """The value with ten samples beyond it and its percentile (the maximum,
    at 100, when there are fewer than eleven samples)."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100
    return s[-11], (100 * (len(s) - 10)) // len(s)


def setup_seconds(q: int, probes: int) -> list[tuple[float, float]]:
    """(set-up CPU seconds, reference seconds) of `probes` fresh processes."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), str(q)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, ref = proc.stdout.split()[-2:]
        times.append((float(setup), float(ref)))
    return times


@dataclass
class Passed:
    """A repetition that passed its gate."""

    run_id: str
    wall_s: float
    cpu_s: float
    result: object  # workloads.RepResult
    ref_s: float | None  # median reference time around it; None when traced

    @property
    def scale(self) -> float:
        """The factor that brings its CPU times to nominal host speed."""
        import speed
        return speed.NOMINAL_S / self.ref_s


def repeat(wl, seed: int, seconds: float, tracer=None):
    """Run repetitions until `seconds` have passed and at least wl.min_reps
    are done; returns (passed, attempted).

    A repetition that fails its gate is reported on stderr and not timed.
    Untraced, the host-speed reference is sampled before and through each
    repetition (speed.py); traced, it is not, so that spans hold only the
    package's own time.
    """
    import speed
    import workloads

    passed, attempted = [], 0
    start = time.perf_counter()
    while attempted < wl.min_reps or time.perf_counter() - start < seconds:
        run_id = f"{wl.name}/seed{seed}/rep{attempted}"
        if tracer is not None:
            tracer.run_id = run_id
        else:
            speed.take()
            for _ in range(PRE_SAMPLES):
                speed.sample()
        t0, c0 = time.perf_counter(), workloads.cpu_clock()
        try:
            res = wl.rep(wl, seed, attempted)
        except workloads.GateFailure as exc:
            print(f"{run_id}: gate failed: {exc}", file=sys.stderr)
            res = None
        except Exception as exc:  # a crash inside the package is a failed run
            print(f"{run_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            res = None
        wall, cpu = time.perf_counter() - t0, workloads.cpu_clock() - c0
        attempted += 1
        ref = statistics.median(speed.take()) if tracer is None else None
        if res is not None:
            passed.append(Passed(run_id, wall, cpu, res, ref))
    return passed, attempted


def end_to_end(wl, passed, setup_probes: int) -> tuple[dict, dict]:
    import speed

    rss = peak_rss_mb()  # read before the set-up probes add children
    setups = setup_seconds(wl.q, setup_probes)
    metrics = {
        "norm_cpu_s": (statistics.median(t.cpu_s * t.scale for t in passed), "s"),
        "setup_s": (statistics.median(s * speed.NOMINAL_S / r for s, r in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "norm_items_per_s": (statistics.median(t.result.items / (t.result.work_s * t.scale)
                                               for t in passed), "1/s"),
    }
    detail = {"item": wl.item,
              "setup_probes": [{"cpu_s": s, "ref_s": r} for s, r in setups],
              "raw_setup_s": statistics.median(s for s, _ in setups),
              "raw_cpu_s": statistics.median(t.cpu_s for t in passed),
              "rep_ref_s": [t.ref_s for t in passed],
              "wall_s": statistics.median(t.wall_s for t in passed)}
    item_s = [s for t in passed for s in t.result.item_s]
    if item_s:
        tail, pct = tail_percentile(item_s)
        detail["per_item"] = {"samples": len(item_s), "p50_s": statistics.median(item_s),
                              "tail_percentile": pct, "tail_s": tail}
    return metrics, detail


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def layer_metrics(wl, passed, tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the spans; per repetition, then the median."""
    import workloads

    per_rep = [rep_layer_metrics(tracer.by_run(t.run_id), tracer.self_times(t.run_id),
                                 t.wall_s, t.result)
               for t in passed]
    metrics = {k: (statistics.median(m[k][0] for m in per_rep), per_rep[0][k][1])
               for k in per_rep[0]}
    passed_ids = {t.run_id for t in passed}
    spans = [s for s in tracer.spans if s.run_id in passed_ids]

    # Per-cover span time, pooled over every repetition.
    span_times = [s.duration for s in spans
                  if s.name == "hyperreg.transversal_planes" and s.attrs["method"] == "span"]
    p50, tail, pct = 0.0, 0.0, 0
    if span_times:
        p50 = statistics.median(span_times)
        tail, pct = tail_percentile(span_times)
    metrics["hyperreg.span_cover_p50_s"] = (p50, "s")
    metrics["hyperreg.span_cover_tail_s"] = (tail, "s")
    detail = {"span_covers": {"samples": len(span_times), "tail_percentile": pct}}

    # Probes outside the timed repetitions, timed directly.
    ctx = workloads.gf.make_field(*workloads.prime_power(wl.q))
    tables, tables_s = timed(lambda: workloads.np_mirrors(ctx))
    metrics["gf.np_tables_s"] = (tables_s, "s")
    metrics["gf.np_tables_mb"] = (sum(t.nbytes for t in tables) / 2**20, "MB")

    # A census in a process pool builds its blocks in untraced workers, so
    # time planes_block_np over the same chunks here instead.
    if any(s.name == "census.run_census" and s.attrs["jobs"] > 1 for s in spans):
        block_s, chunks, planes = 0.0, 0, 0
        size = workloads.census.DEFAULT_CHUNK_SIZE
        for i, start, stop in workloads.pg5.enumeration_chunks(wl.q, size):
            pattern = workloads.pg5.PIVOT_PATTERNS[i]
            block, dt = timed(lambda: workloads.pg5.planes_block_np(wl.q, pattern, start, stop))
            block_s += dt
            chunks += 1
            planes += len(block)
        metrics["pg5.block_s"] = (block_s, "s")
        metrics["pg5.chunks"] = (chunks, "count")
        metrics["pg5.planes"] = (planes, "count")

    # The audit's own time needs an unaudited pass at the same q to subtract.
    enum = [s for s in spans if s.name == "covers.enumerate_covers"]
    audited = [s.duration for s in enum if s.attrs["audit"]]
    plain = [s.duration for s in enum if not s.attrs["audit"]]
    if audited and not plain:
        plain = [timed(lambda: workloads.covers.enumerate_covers(ctx))[1]]
    enumerate_s = statistics.median(plain) if plain else 0.0
    audit_s = statistics.median(audited) - enumerate_s if audited else 0.0
    metrics["covers.enumerate_s"] = (enumerate_s, "s")
    metrics["covers.audit_s"] = (audit_s, "s")
    return metrics, detail


def rep_layer_metrics(spans, self_times, wall, res) -> dict:
    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, key=None):
        return sum(s.attrs[key] if key else s.duration for s in named(name))

    run_s = total("census.run_census")
    census_planes = total("census.run_census", "planes")
    trace_keys = total("census.trace_is_cover_check", "trace_keys")
    matched = total("census.trace_is_cover_check", "matched_keys")
    enum = named("covers.enumerate_covers")
    emitted = sum(s.attrs["emitted"] for s in enum)
    audit_triples = sum(q**3 * (q**3 - 1) * (q - 1)
                        for q in (s.attrs["q"] for s in enum if s.attrs["audit"]))
    span_calls = [s for s in named("hyperreg.transversal_planes")
                  if s.attrs["method"] == "span"]
    triples = sum(s.attrs["q"] * (s.attrs["q"] ** 2 + s.attrs["q"] + 1) ** 3
                  for s in span_calls)
    found = sum(s.attrs["found"] for s in span_calls)
    span_bytes = max(((s.attrs["q"] ** 2 + s.attrs["q"] + 1) ** 4 * 24
                      for s in span_calls), default=0)

    m = {
        "gf.make_field_s": (total("gf.make_field"), "s"),
        "gf.self_test_s": (total("gf.self_test"), "s"),
        "spread.build_s": (total("spread.build_spread"), "s"),
        "spread.points_checked": (total("spread.build_spread", "points_checked"), "count"),
        "pg5.block_s": (total("pg5.planes_block_np"), "s"),
        "pg5.chunks": (len(named("pg5.planes_block_np")), "count"),
        "pg5.planes": (total("pg5.planes_block_np", "planes"), "count"),
        "census.run_s": (run_s, "s"),
        "census.planes_per_s": (census_planes / run_s if run_s else 0.0, "1/s"),
        "census.chunks": (total("pg5.enumeration_chunks", "chunks"), "count"),
        "census.jobs": (max((s.attrs["jobs"] for s in named("census.run_census")), default=0),
                        "count"),
        "census.b_planes": (total("census.run_census", "b_planes"), "count"),
        "census.trace_keys": (trace_keys, "count"),
        "census.trace_match_ratio": (matched / trace_keys if trace_keys else 0.0, "ratio"),
        "covers.keys_emitted": (emitted, "count"),
        "covers.unique_ratio": (sum(s.attrs["unique"] for s in enum) / emitted
                                if emitted else 0.0, "ratio"),
        "covers.enumerate_calls": (len(enum), "count"),
        "covers.audit_triples": (audit_triples, "count"),
        "hyperreg.hyper_regulus_s": (total("hyperreg.hyper_regulus"), "s"),
        "hyperreg.span_s": (sum(s.duration for s in span_calls), "s"),
        "hyperreg.triples_scanned": (triples, "count"),
        "hyperreg.transversals_found": (found, "count"),
        "hyperreg.hit_ratio": (found / triples if triples else 0.0, "ratio"),
        "hyperreg.span_array_mb": (span_bytes / 2**20, "MB"),
        "cli.verify_s": (total("cli.main"), "s"),
        "cli.checks": (res.counters.get("cli.checks", 0), "count"),
        "cli.checks_failed": (res.counters.get("cli.checks_failed", 0), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_times.get(layer, 0.0), "s")
    return m


def execute(wl, seed: int, seconds: float, trace: bool,
            setup_probes: int = SETUP_PROBES, out_dir: Path | None = OUT_DIR):
    """Run one workload; returns (result, info) as printed by main."""
    import speed
    import workloads
    from tracer import Tracer

    info = {"workload": wl.name, "q": wl.q, "seed": seed, "seconds": seconds,
            "trace": int(trace), "sample": wl.sample, "nominal_ref_s": speed.NOMINAL_S,
            **machine_info()}
    tracer = Tracer() if trace else None
    if tracer is None:
        with speed.sampling():
            passed, attempted = repeat(wl, seed, seconds)
    else:
        with tracer.installed(workloads.trace_targets()):
            passed, attempted = repeat(wl, seed, seconds, tracer)
    info.update(repetitions=len(passed), rep_wall_s=[t.wall_s for t in passed],
                rep_cpu_s=[t.cpu_s for t in passed])

    metrics = {}
    if passed:
        if tracer is None:
            values, detail = end_to_end(wl, passed, setup_probes)
        else:
            values, detail = layer_metrics(wl, passed, tracer)
            values["trace.overhead_s"] = (tracer.overhead_s / len(passed), "s")
            if out_dir is not None:
                tracer.dump(out_dir / f"trace-{wl.name}-seed{seed}.json", info)
        info.update(detail)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    failed = attempted - len(passed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hyperreguli" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    cap_threads()  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, info = execute(wl, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
