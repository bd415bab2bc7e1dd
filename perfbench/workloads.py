"""The benchmark's workloads: their inputs, correctness gates and trace points.

Each workload is a repetition function that calls the package's public
functions, checks every answer against closed forms stated here (not the
package's own count functions), and returns how much work its main layer did
and how long that took.  A wrong answer raises GateFailure; the runner then
counts the repetition as failed and does not time it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import os
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

import speed
from hyperreguli import census, cli, covers, gf, hyperreg, pg5
from hyperreguli import spread as spread_mod


class GateFailure(Exception):
    """A repetition produced a wrong answer."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


# -- closed forms --------------------------------------------------------------

def expected_census(q: int) -> dict:
    return {
        "A": q**3 + 1,
        "B": q**3 * (q**3 + 1) * (q**3 - 1),
        "C": q * (q**3 + 1) * (q * q + q + 1) ** 2,
        "total": (q**3 + 1) * (q * q + 1) * (q**4 + q**3 + q * q + q + 1),
    }


def expected_covers(q: int) -> dict:
    return {
        "total": q**3 * (q - 1) * (q**3 + 1) // 2,
        "kind1": q**3 * (q - 1),
        "kind2": q**3 * (q**3 - 1) * (q - 1) // 2,
    }


def expected_transversals(q: int) -> int:
    return 2 * (q * q + q + 1)


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its reaped children,
    less what the host-speed sampler used (see speed.py).

    The benchmark times work in CPU time rather than wall time: on a shared
    VM, wall time also holds the time the hypervisor gives to other guests
    (steal), which varies up to 2x from minute to minute on its own.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime - speed.spent()


# -- workloads -----------------------------------------------------------------

@dataclass
class RepResult:
    """What one passing repetition did: items of work in its main layer,
    the CPU time that layer took, per-item CPU times where items are timed
    one by one, and counters the traced run reports."""

    items: int
    work_s: float
    item_s: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    item: str  # what items_per_s counts
    rep: Callable[["Workload", int, int], RepResult]  # (workload, seed, repetition index)
    sample: int = 0  # covers per repetition, span workload only
    min_reps: int = 1


def verify_jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def prime_power(q: int) -> tuple[int, int]:
    ((p, h),) = gf.factorize(q).items()
    return p, h


def checked_field(q: int):
    """make_field, its self-test as a gate, then the checked spread."""
    ctx = gf.make_field(*prime_power(q))
    failed = [r["name"] for r in ctx.self_test() if not r["pass"]]
    gate(not failed, f"field self-test failed: {failed}")
    return ctx, spread_mod.build_spread(ctx, check=True)


def verify_rep(wl: Workload, seed: int, index: int) -> RepResult:
    argv = ["verify", "--q", str(wl.q), "--jobs", str(verify_jobs()),
            "--seed", str(seed), "--format", "json"]
    out = io.StringIO()
    c0 = cpu_clock()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    work_s = cpu_clock() - c0  # the pool workers are reaped when the census ends
    gate(status == 0, f"verify exited with status {status}")
    report = json.loads(out.getvalue())
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    gate(not failed, f"verify checks failed: {failed}")
    cen = report["data"]["census"]
    got = {"A": cen["count_a"], "B": cen["count_b"], "C": cen["count_c"],
           "total": cen["total"]}
    want = expected_census(wl.q)
    gate(got == want, f"census counts {got} != closed forms {want}")
    return RepResult(
        items=cen["total"],
        work_s=work_s,
        counters={"cli.checks": len(report["checks"]), "cli.checks_failed": len(failed)},
    )


def census_rep(wl: Workload, seed: int, index: int) -> RepResult:
    ctx, spread = checked_field(wl.q)
    c0 = cpu_clock()
    report = census.run_census(ctx, spread, jobs=1, collect_traces=True)
    work_s = cpu_clock() - c0
    got = {"A": report.count_a, "B": report.count_b, "C": report.count_c,
           "total": report.total}
    want = expected_census(wl.q)
    gate(got == want, f"census counts {got} != closed forms {want}")
    gate(report.identity_x_eq_y, "identity B = covers * 2(q^2+q+1) failed")
    tc = report.trace_check
    gate(tc.checked and tc.matched and tc.multiplicity_ok, f"trace check {tc}")
    return RepResult(items=report.total, work_s=work_s)


def sample_covers(ctx, seed: int | str, n: int) -> list:
    """n distinct covers from seeded parameters, alternating kind 1 and kind 2."""
    if n > expected_covers(ctx.q)["total"]:
        raise ValueError(f"cannot sample {n} distinct covers at q = {ctx.q}")
    rng = random.Random(seed)
    picked = {}
    while len(picked) < n:
        f = rng.randrange(1, ctx.q)
        if len(picked) % 2 == 0:
            cover = covers.cover_type1(ctx, rng.randrange(ctx.q3), f)
        else:
            a, b = rng.sample(range(ctx.q3), 2)
            cover = covers.cover_type2(ctx, a, b, f)
        picked.setdefault(cover.key, cover)
    return list(picked.values())


def span_rep(wl: Workload, seed: int, index: int) -> RepResult:
    ctx, spread = checked_field(wl.q)
    size = expected_transversals(wl.q)
    times = []
    for cover in sample_covers(ctx, f"{seed}/{index}", wl.sample):
        c0 = cpu_clock()
        hr = hyperreg.hyper_regulus(spread, cover)
        planes = hyperreg.transversal_planes(spread, hr, method="span")
        gate(len(planes) == size,
             f"cover {cover.key} has {len(planes)} transversals, expected {size}")
        want = list(cover.key)
        for pl in planes:
            labels = sorted(spread.locate(pt) for pt in pg5.plane_points(ctx.base, pl))
            gate(labels == want, f"plane {pl.key.hex()} meets {labels}, not cover {want}")
        times.append(cpu_clock() - c0)
    return RepResult(items=len(times), work_s=sum(times), item_s=times)


def covers_rep(wl: Workload, seed: int, index: int) -> RepResult:
    ctx, _ = checked_field(wl.q)
    c0 = cpu_clock()
    cover_set = covers.enumerate_covers(ctx, check_dedup=True)
    work_s = cpu_clock() - c0
    got = {"total": cover_set.total, "kind1": cover_set.count_kind1,
           "kind2": cover_set.count_kind2}
    want = expected_covers(wl.q)
    gate(got == want, f"cover counts {got} != closed forms {want}")
    gate(cover_set.dedup_exact is True, f"dedup audit gave {cover_set.dedup_exact}")
    return RepResult(items=cover_set.total, work_s=work_s)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("verify-q4", 4, "census planes", verify_rep),
        Workload("census-q5", 5, "census planes", census_rep),
        # 5 batches of 8 covers: 40 per-cover samples per run, and a median
        # over batches that removes short bursts of host noise.
        Workload("span-q5", 5, "span covers", span_rep, sample=8, min_reps=5),
        Workload("covers-q7", 7, "covers", covers_rep),
    )
}


def resized(wl: Workload, q: int, sample: int | None = None) -> Workload:
    """The same workload at another q, for quick runs of its code path."""
    return dataclasses.replace(wl, q=q, sample=wl.sample if sample is None else sample)


# -- numpy mirrors -------------------------------------------------------------

def np_mirrors(ctx) -> list:
    """Every cached numpy table of the field context and its base field."""
    out = []
    for obj in (ctx.base, ctx):
        for name, attr in inspect.getmembers(type(obj)):
            if isinstance(attr, functools.cached_property) and name.endswith("_np"):
                out.append(getattr(obj, name))
    return out


# -- trace points --------------------------------------------------------------

def _enumerate_attrs(a, r):
    return {"q": a["ctx"].q, "audit": bool(a["check_dedup"]),
            "emitted": len(r.covers), "unique": r.total}


def _census_attrs(a, r):
    return {"q": a["ctx"].q, "jobs": a["jobs"], "b_planes": r.count_b,
            "planes": r.total}


def _trace_check_attrs(a, r):
    traces = a["traces"]
    return {"trace_keys": len(traces), "matched_keys": len(set(traces) & a["cover_keys"])}


def _span_attrs(a, r):
    return {"q": a["spread"].ctx.q, "method": a["method"], "found": len(r)}


def _spread_attrs(a, r):
    q = a["ctx"].q
    return {"points_checked": pg5.num_points(q) if a["check"] else 0}


def trace_targets() -> list:
    """(owner, attribute, span name, counters) for every call the trace wraps,
    on the object where the package and the benchmark look it up."""
    return [
        (cli, "main", "cli.main", None),
        (gf, "make_field", "gf.make_field", None),
        (cli, "make_field", "gf.make_field", None),
        (gf.FieldCtx, "self_test", "gf.self_test", None),
        (spread_mod, "build_spread", "spread.build_spread", _spread_attrs),
        (cli, "build_spread", "spread.build_spread", _spread_attrs),
        (covers, "enumerate_covers", "covers.enumerate_covers", _enumerate_attrs),
        (census, "enumerate_covers", "covers.enumerate_covers", _enumerate_attrs),
        (covers, "cover_type1", "covers.cover_type1", None),
        (covers, "cover_type2", "covers.cover_type2", None),
        (census, "run_census", "census.run_census", _census_attrs),
        (census, "enumeration_chunks", "pg5.enumeration_chunks",
         lambda a, r: {"chunks": len(r)}),
        # Only the in-process census calls it here; pool workers are not traced.
        (census, "planes_block_np", "pg5.planes_block_np",
         lambda a, r: {"planes": len(r)}),
        (census, "trace_is_cover_check", "census.trace_is_cover_check",
         _trace_check_attrs),
        (hyperreg, "hyper_regulus", "hyperreg.hyper_regulus", None),
        (hyperreg, "transversal_planes", "hyperreg.transversal_planes", _span_attrs),
    ]
