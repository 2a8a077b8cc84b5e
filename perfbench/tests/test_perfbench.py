"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import stabcp
from perfbench import bench, checks, metrics, reference
from perfbench.tracer import Tracer
from perfbench.workloads import ALPHA, WORKLOADS, Client, Inputs

ROOT = Path(__file__).resolve().parents[2]


def run_tiny(workload, trace, root, capsys, seconds="0.3"):
    code = bench.run(["--workload", workload, "--seed", "3", "--seconds", seconds,
                      "--trace", str(trace), "--size", "tiny"], time.perf_counter(), root)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path, capsys):
    original = stabcp.harness.run_method
    code, lines, result = run_tiny(workload, trace, tmp_path, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        expected = {name: unit for name, unit, _ in metrics.per_layer_catalog()}
    else:
        expected = {name: unit for name, unit, _ in metrics.END_TO_END}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    env = json.loads(lines[0][len("env "):])
    assert {"nproc", "blas", "blas_threads", "numpy", "python", "git_commit", "seed"} <= set(env)
    assert stabcp.harness.run_method is original, "the tracer must restore what it patched"
    assert (tmp_path / ".bench_out").is_dir() == bool(trace)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in metrics.per_layer_catalog()]


def _stabcp_records(workload_name, requests=4):
    workload = WORKLOADS[workload_name].tiny()
    client = Client(workload)
    inputs = Inputs(workload, seed=5, stream=0)
    records = []
    for request in range(requests):
        dataset = inputs.dataset(request)
        for method in workload.methods_for(request):
            report = client.run(method, dataset)
            records.append(checks.SetRecord.from_report(request, method, 0.0, report))
    return workload, client, inputs, records


@pytest.mark.parametrize("workload_name", ["ridge-redraw", "lad-redraw", "huber-bisect"])
def test_shrunk_interval_is_counted_as_failed(workload_name):
    workload, client, inputs, records = _stabcp_records(workload_name)
    checker = checks.Checker(workload, inputs, ALPHA, client.config.eps_r)
    assert checker.check(records) == []
    victim = next(r for r in records if r.method == client.single_fit_method()
                  and r.request == 0 and r.shape == "interval")
    lo, hi = victim.intervals[0]
    middle = 0.5 * (lo + hi)
    victim.intervals = [(middle - 0.05 * (hi - lo), middle + 0.05 * (hi - lo))]
    failures = checker.check(records)
    assert len(failures) == 1 and "misses exact piece" in failures[0]
    assert sum(r.error is not None for r in records) == 1


def test_reversed_or_infinite_endpoints_fail():
    record = checks.SetRecord(0, "splitcp", 0.0, [(1.0, 0.0)], "interval")
    assert "reversed" in checks.endpoint_problem(record)
    record.intervals = [(0.0, math.inf)]
    assert "non-finite" in checks.endpoint_problem(record)
    record.intervals = [(0.0, 1.0), (0.5, 2.0)]
    assert "disjoint" in checks.endpoint_problem(record)


@pytest.mark.parametrize("seed", range(6))
def test_exact_set_matches_refitting_on_a_grid(seed):
    dataset = stabcp.gen_linear_gaussian(stabcp.GeneratorSpec("linear-gaussian", 30, 3, 1.0, seed))
    model = stabcp.RidgeModel(0.5)
    a, b = checks.ridge_affine(dataset.features, dataset.targets, dataset.test_point, 0.5)
    fitted = model.fit(dataset, 0.0)
    assert np.allclose(a, fitted.row_predictions) and np.allclose(b, fitted.row_b)
    z_range = dataset.target_range()
    exact = checks.exact_set(dataset.targets, a, b, ALPHA, z_range)
    grid = np.linspace(*z_range, 401)[1:-1]
    score = stabcp.ScoreFunction.absolute_residual()
    threshold = math.floor((1 - ALPHA) * (dataset.n + 1) + 1e-9)
    for z in grid:
        refit = stabcp.conformity_scores(dataset, z, model.fit(dataset, z), score)
        kept = stabcp.rank(refit, dataset.n + 1) <= threshold
        inside = any(lo <= z <= hi for lo, hi in exact)
        near_edge = any(min(abs(z - lo), abs(z - hi)) < 1e-9 for lo, hi in exact)
        assert kept == inside or near_edge


def test_coverage_gate_fails_a_run_that_undercovers():
    records = [checks.SetRecord(i, "stabcp", 0.0, [(0.0, 1.0)], "interval",
                                covered=i % 2 == 0, coverage_safe=True) for i in range(200)]
    assert checks.coverage_gate(records, ALPHA)
    for record in records:
        record.covered = True
    assert checks.coverage_gate(records, ALPHA) == []


def test_traced_self_time_never_exceeds_its_span():
    workload = WORKLOADS["huber-bisect"].tiny()
    client = Client(workload)
    inputs = Inputs(workload, seed=7, stream=0)
    with Tracer() as tracer:
        bench.measure(client, inputs, 0, 0.2, tracer)
    spans = tracer.spans()
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    children = np.bincount(parent[parent >= 0], weights=duration[parent >= 0],
                           minlength=duration.size)
    assert len(tracer.sets) > 0 and np.all(duration >= 0)
    assert np.all(children <= duration + 1e-9)
    inner = parent >= 0
    assert np.all(spans["start"][inner] >= spans["start"][parent[inner]])
    assert np.all(spans["end"][inner] <= spans["end"][parent[inner]])


def test_reference_unit_is_the_median_of_the_timings_around_a_set():
    timings = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    units = reference.local_units(timings, [0, 2, 5])
    assert units.tolist() == [1.0, 1.5, 2.0]


def test_reference_metrics_ignore_a_uniformly_slower_host():
    def records(slowdown):
        return [checks.SetRecord(i, "stabcp", slowdown * (1 + i % 7) * 1e-3, [(0.0, 1.0)],
                                 "interval", reference=slowdown * 1e-3) for i in range(50)]
    fast, slow = records(1.0), records(1.8)
    assert metrics.p50_ref(slow, "stabcp") == pytest.approx(metrics.p50_ref(fast, "stabcp"))
    assert metrics.p90_ref(slow, "stabcp") == pytest.approx(metrics.p90_ref(fast, "stabcp"))
    assert metrics.p50_ms(slow, "stabcp") == pytest.approx(1.8 * metrics.p50_ms(fast, "stabcp"))


def test_every_timed_set_gets_a_reference_unit():
    workload = WORKLOADS["ridge-redraw"].tiny()
    records, _ = bench.measure(Client(workload), Inputs(workload, seed=2, stream=0), 0, 0.2)
    units = np.array([r.reference for r in records])
    assert units.size > 0 and np.all(np.isfinite(units) & (units > 0))
