"""Quick checks of the benchmark itself, at q = 2 and 3.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"verify-q4": (2, None), "census-q5": (3, None), "span-q5": (3, 4), "covers-q7": (3, None)}


def tiny(name):
    q, sample = TINY[name]
    return workloads.resized(workloads.WORKLOADS[name], q, sample)


def test_workload_table_matches_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_spec(name, trace):
    result, info = run.execute(tiny(name), seed=3, seconds=0, trace=trace,
                               setup_probes=1, out_dir=None)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in section)
    units = {m["name"]: m["unit"] for m in section}
    for key, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[key]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    assert info["seed"] == 3 and info["nproc"] >= 1


WRONG_EXPECTATIONS = {
    "verify-q4": ("expected_census", lambda f: lambda q: {**f(q), "total": f(q)["total"] + 1}),
    "census-q5": ("expected_census", lambda f: lambda q: {**f(q), "B": f(q)["B"] + 1}),
    "span-q5": ("expected_transversals", lambda f: lambda q: f(q) + 1),
    "covers-q7": ("expected_covers", lambda f: lambda q: {**f(q), "kind1": f(q)["kind1"] - 1}),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_expectation_is_a_failed_untimed_run(name, monkeypatch, capsys):
    attr, spoil = WRONG_EXPECTATIONS[name]
    monkeypatch.setattr(workloads, attr, spoil(getattr(workloads, attr)))
    wl = tiny(name)
    result, _ = run.execute(wl, seed=1, seconds=0, trace=False, setup_probes=1, out_dir=None)
    n = wl.min_reps
    assert result == {"correct": False, "attempted": n, "failed": n, "metrics": {}}
    assert "gate failed" in capsys.readouterr().err


def test_crash_inside_the_package_is_a_failed_run(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("worker died")

    monkeypatch.setattr(workloads.covers, "enumerate_covers", broken)
    result, _ = run.execute(tiny("covers-q7"), seed=1, seconds=0, trace=True,
                            setup_probes=1, out_dir=None)
    assert result["failed"] == result["attempted"] == 1 and not result["correct"]


def test_sampler_time_is_kept_out_of_the_cpu_clock():
    speed.take()
    spent0, cpu0, raw0 = speed.spent(), workloads.cpu_clock(), workloads.time.process_time()
    with speed.sampling(0.01):
        while workloads.time.process_time() - raw0 < 0.3:
            sum(range(1000))
    samples, spent = speed.take(), speed.spent() - spent0
    assert samples and all(s > 0 for s in samples) and spent > 0
    raw = workloads.time.process_time() - raw0
    assert workloads.cpu_clock() - cpu0 == pytest.approx(raw - spent, abs=0.01)


def test_timed_run_scales_cpu_time_by_the_reference():
    result, info = run.execute(tiny("covers-q7"), seed=1, seconds=0, trace=False,
                               setup_probes=1, out_dir=None)
    (ref,) = info["rep_ref_s"]
    (cpu,) = info["rep_cpu_s"]
    assert result["metrics"]["norm_cpu_s"]["value"] == pytest.approx(cpu * speed.NOMINAL_S / ref)
    (probe,) = info["setup_probes"]
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(
        probe["cpu_s"] * speed.NOMINAL_S / probe["ref_s"])


def test_span_sample_is_seeded_and_mixes_kinds():
    ctx = workloads.gf.make_field(3)
    a = workloads.sample_covers(ctx, 7, 10)
    b = workloads.sample_covers(ctx, 7, 10)
    c = workloads.sample_covers(ctx, 8, 10)
    assert [x.key for x in a] == [x.key for x in b] != [x.key for x in c]
    assert len({x.key for x in a}) == 10 and {x.kind for x in a} == {1, 2}


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    assert run.tail_percentile(values) == (29.0, 75)
    assert run.tail_percentile(values[:5]) == (4.0, 100)


def test_tracer_self_time_and_restore():
    owner = SimpleNamespace(inner=lambda: 1)
    owner.outer = lambda: owner.inner() + 1
    tracer = Tracer()
    targets = [(owner, "outer", "a.outer", None),
               (owner, "inner", "b.inner", lambda args, r: {"r": r})]
    original = owner.inner
    with tracer.installed(targets):
        tracer.run_id = "r0"
        assert owner.outer() == 2
    assert owner.inner is original
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None and inner.attrs == {"r": 1}
    self_times = tracer.self_times("r0")
    assert self_times["a"] == pytest.approx(outer.duration - inner.duration)
    assert self_times["b"] == pytest.approx(inner.duration)


def test_tracer_refuses_a_missing_target():
    owner = SimpleNamespace(present=lambda: 1)
    original = owner.present
    targets = [(owner, "present", "a.present", None), (owner, "missing", "a.missing", None)]
    with pytest.raises(AttributeError, match="missing"):
        with Tracer().installed(targets):
            pass
    assert owner.present is original


def test_in_process_census_gives_pg5_its_own_time():
    result, _ = run.execute(tiny("census-q5"), seed=1, seconds=0, trace=True,
                            setup_probes=1, out_dir=None)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["pg5.chunks"] == m["census.chunks"] > 0
    assert m["pg5.planes"] == workloads.expected_census(3)["total"]
    assert m["pg5.self_s"] >= m["pg5.block_s"] > 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "span-q5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
