"""Command-line verification front end.

Every subcommand emits a report with the same envelope:

    {schema: 1, q, subcommand, checks: [{name, expected, actual, pass}],
     data, runtime_seconds}

as JSON or as an aligned text table.  The exit status is 0 only when every
executed check passed, 1 on any mismatch, 2 for an invalid configuration,
and 3 for an infrastructure failure (a census worker process died or could
not be started, or memory ran out), which prints no report.  Reports are
byte-stable across runs for a fixed configuration and seed, apart from the
runtime fields.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from concurrent.futures.process import BrokenProcessPool

from . import census as census_mod
from . import covers as covers_mod
from . import hyperreg as hyperreg_mod
from .gf import FieldCtx, factorize, make_field
from .pg5 import count_planes
from .spread import build_spread, format_label

SCHEMA_VERSION = 1
DEFAULT_SAMPLE = 20


def parse_prime_power(q: int) -> tuple[int, int]:
    fac = factorize(q)
    if q < 2 or len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, h),) = fac.items()
    return p, h


def _parse_modulus(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ValueError(f"modulus {text!r} is not a comma-separated coefficient list")


def _check(checks: list, name: str, expected, actual) -> bool:
    ok = expected == actual
    checks.append({"name": name, "expected": expected, "actual": actual, "pass": ok})
    return ok


def _cover_count_checks(checks: list, q: int, cover_set) -> None:
    _check(checks, "covers_total", covers_mod.total_count(q), cover_set.total)
    _check(checks, "covers_kind1", covers_mod.kind1_count(q), cover_set.count_kind1)
    _check(checks, "covers_kind2", covers_mod.kind2_count(q), cover_set.count_kind2)


def _census_checks(checks: list, q: int, report) -> None:
    _check(checks, "census_count_a", census_mod.type_a_count(q), report.count_a)
    _check(checks, "census_count_b", census_mod.type_b_count(q), report.count_b)
    _check(checks, "census_count_c", census_mod.type_c_count(q), report.count_c)
    _check(checks, "census_total", count_planes(q), report.total)
    _check(checks, "identity_x_eq_y", True, report.identity_x_eq_y)
    if report.trace_check.checked:
        _check(checks, "trace_matched", True, report.trace_check.matched)
        _check(checks, "trace_multiplicity", True, report.trace_check.multiplicity_ok)


def _make_ctx(args) -> FieldCtx:
    p, h = parse_prime_power(args.q)
    return make_field(
        p, h,
        base_modulus=_parse_modulus(args.base_modulus),
        cubic_modulus=_parse_modulus(args.cubic_modulus),
    )


def _label_list(ctx: FieldCtx, labels) -> list:
    return [format_label(ctx, m) if m == ctx.q3 else m for m in labels]


def _sample_covers(cover_set, sample: int, seed: int):
    """Deterministic sample containing both kinds when both exist.

    Rows are sampled per kind (the kind1_count rows of kind 1 come first),
    and only the sampled covers are built.
    """
    covers = cover_set.covers
    n_kind1 = covers_mod.kind1_count(cover_set.q)
    kind1, kind2 = range(n_kind1), range(n_kind1, len(covers))
    rng = random.Random(seed)
    n1 = min(len(kind1), max(1, sample // 2))
    n2 = min(len(kind2), sample - n1)
    return [covers[i] for i in rng.sample(kind1, n1) + rng.sample(kind2, n2)]


def _checked_spread(ctx: FieldCtx, checks: list):
    """The spread, checked to partition the points; None, with the failing
    spread_partition check and its witness added to checks, if it does not."""
    try:
        return build_spread(ctx, check=True)
    except RuntimeError as exc:
        _check(checks, "spread_partition", True, str(exc))
        return None


# ----------------------------------------------------------------------
# Subcommands.  Each returns (checks, data).  When the spread fails its
# check, or a later stage of verify raises, the checks end with that failing
# check and the data is {}.
# ----------------------------------------------------------------------

def cmd_verify(ctx: FieldCtx, args) -> tuple[list, dict]:
    """The whole pipeline.  A RuntimeError past the spread check, such as a
    plane of no class in the census, keeps the checks made before it and
    ends them with a failing check of its stage, whose actual value is the
    error's message and witness; the data is then {}.  A crashed census
    worker (BrokenProcessPool, also a RuntimeError) stays an infrastructure
    failure."""
    q = ctx.q
    checks = []
    for rec in ctx.self_test():
        checks.append(rec)

    spread = _checked_spread(ctx, checks)
    if spread is None:
        return checks, {}
    _check(checks, "spread_partition", True, True)

    stage = "covers"
    try:
        cover_set = covers_mod.enumerate_covers(ctx, check_dedup=True)
        _cover_count_checks(checks, q, cover_set)
        _check(checks, "covers_dedup_exact", True, cover_set.dedup_exact)

        stage = "census"
        report = census_mod.run_census(ctx, spread, jobs=args.jobs, cover_set=cover_set)
        _census_checks(checks, q, report)

        stage = "transversals"
        expected_tv = hyperreg_mod.transversal_count(q)
        if q <= 3:
            targets = list(cover_set.covers)
        else:
            targets = _sample_covers(cover_set, args.sample or DEFAULT_SAMPLE, args.seed)
        bad = 0
        for cover in targets:
            hr = hyperreg_mod.hyper_regulus(spread, cover)
            if len(hyperreg_mod.transversal_planes(spread, hr)) != expected_tv:
                bad += 1
    except BrokenProcessPool:
        raise
    except RuntimeError as exc:
        _check(checks, f"{stage}_completed", True, str(exc))
        return checks, {}
    _check(
        checks,
        "transversals_exact",
        {"covers": len(targets), "planes_each": expected_tv, "mismatches": 0},
        {"covers": len(targets), "planes_each": expected_tv, "mismatches": bad},
    )

    data = {"census": report.to_dict()}
    return checks, data


def cmd_census(ctx: FieldCtx, args) -> tuple[list, dict]:
    checks = []
    spread = _checked_spread(ctx, checks)
    if spread is None:
        return checks, {}
    report = census_mod.run_census(ctx, spread, jobs=args.jobs)
    _census_checks(checks, ctx.q, report)
    return checks, report.to_dict()


def cmd_covers(ctx: FieldCtx, args) -> tuple[list, dict]:
    cover_set = covers_mod.enumerate_covers(ctx)
    checks = []
    _cover_count_checks(checks, ctx.q, cover_set)
    data = {
        "total": cover_set.total,
        "kind1": cover_set.count_kind1,
        "kind2": cover_set.count_kind2,
    }
    if args.list:
        data["covers"] = [_label_list(ctx, key) for key in cover_set.keys.tolist()]
    return checks, data


def _cover_from_args(ctx: FieldCtx, args):
    if args.kind == 1:
        if args.b is not None:
            raise ValueError("--b only applies to kind 2")
        return covers_mod.cover_type1(ctx, args.a, args.f)
    if args.b is None:
        raise ValueError("kind 2 requires --b")
    return covers_mod.cover_type2(ctx, args.a, args.b, args.f)


def cmd_transversals(ctx: FieldCtx, args) -> tuple[list, dict]:
    checks = []
    spread = _checked_spread(ctx, checks)
    if spread is None:
        return checks, {}
    cover = _cover_from_args(ctx, args)
    hr = hyperreg_mod.hyper_regulus(spread, cover)
    planes = hyperreg_mod.transversal_planes(spread, hr)
    _check(checks, "transversal_count",
           hyperreg_mod.transversal_count(ctx.q), len(planes))
    data = {
        "cover": _label_list(ctx, cover.key),
        "planes": [pl.key.hex() for pl in planes],
    }
    return checks, data


def cmd_switching(ctx: FieldCtx, args) -> tuple[list, dict]:
    checks = []
    spread = _checked_spread(ctx, checks)
    if spread is None:
        return checks, {}
    try:
        pair = hyperreg_mod.andre_switching_sets(ctx, spread, args.a, args.f)
        _check(checks, "switching_property_verified", True, True)
    except RuntimeError as exc:
        _check(checks, "switching_property_verified", True, str(exc))
        return checks, {}
    tv = hyperreg_mod.transversal_planes(spread, pair.hyper_regulus)
    union = sorted({p.key for p in pair.y_planes} | {p.key for p in pair.z_planes})
    _check(checks, "union_equals_transversals", True,
           union == [p.key for p in tv])
    data = {
        "y": sorted(p.key.hex() for p in pair.y_planes),
        "z": sorted(p.key.hex() for p in pair.z_planes),
    }
    return checks, data


COMMANDS = {
    "verify": cmd_verify,
    "census": cmd_census,
    "covers": cmd_covers,
    "transversals": cmd_transversals,
    "switching": cmd_switching,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperreguli",
        description="Exact verification of circle-geometry covers, spreads "
                    "and hyper-reguli in PG(5,q).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, required=True, help="prime power, q <= 16")
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--base-modulus", default=None,
                        help="comma-separated coefficients, low degree first")
    common.add_argument("--cubic-modulus", default=None,
                        help="comma-separated coefficients, low degree first")

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1,
                      help="census processes, the main process included: N forks N - 1 workers")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    p_ver = sub.add_parser("verify", parents=[common, jobs],
                           help="run the full verification pipeline")
    p_ver.add_argument("--sample", type=int, default=None,
                       help="covers sampled for the transversal check at q > 3 "
                            f"(default {DEFAULT_SAMPLE})")
    p_ver.add_argument("--seed", type=int, default=0, help="sampling seed")
    sub.add_parser("census", parents=[common, jobs],
                   help="classify every plane of PG(5,q)")
    p_cov = sub.add_parser("covers", parents=[common],
                           help="enumerate the covers of CG(3,q)")
    p_cov.add_argument("--list", action="store_true",
                       help="include every cover's label list")
    p_tv = sub.add_parser("transversals", parents=[common],
                          help="find all planes meeting every plane of a hyper-regulus")
    p_tv.add_argument("--kind", type=int, choices=(1, 2), required=True)
    p_tv.add_argument("--a", type=int, required=True, help="element index")
    p_tv.add_argument("--b", type=int, default=None, help="element index (kind 2)")
    p_tv.add_argument("--f", type=int, required=True, help="base-field index")
    p_sw = sub.add_parser("switching", parents=[common],
                          help="build the two switching sets of a kind-1 cover")
    p_sw.add_argument("--a", type=int, required=True, help="element index")
    p_sw.add_argument("--f", type=int, required=True, help="base-field index")
    return parser


def render_text(report: dict) -> str:
    lines = [f"q = {report['q']}  subcommand = {report['subcommand']}"]
    width = max((len(c["name"]) for c in report["checks"]), default=0)
    for c in report["checks"]:
        tag = "PASS" if c["pass"] else "FAIL"
        lines.append(f"{tag}  {c['name']:<{width}}  "
                     f"expected={c['expected']}  actual={c['actual']}")
    npass = sum(1 for c in report["checks"] if c["pass"])
    lines.append(f"{npass}/{len(report['checks'])} checks passed "
                 f"in {report['runtime_seconds']:.2f}s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("--jobs must be >= 1")
        if getattr(args, "sample", None) is not None and args.sample < 1:
            raise ValueError("--sample must be >= 1")
        ctx = _make_ctx(args)
        checks, data = COMMANDS[args.subcommand](ctx, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BrokenProcessPool, OSError) as exc:  # a worker died or did not fork: no verdict
        print(f"infrastructure failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("infrastructure failure: out of memory", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1

    report = {
        "schema": SCHEMA_VERSION,
        "q": args.q,
        "subcommand": args.subcommand,
        "checks": checks,
        "data": data,
        "runtime_seconds": round(time.perf_counter() - t0, 6),
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report))
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
