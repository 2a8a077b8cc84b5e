"""Set-up, the closed-loop timed phase, the checks, and the report.

One client sends one request at a time; a request runs the workload's
methods one after the other, and the next request starts only when the last
set is done.  Only the calls into stabcp are timed: drawing the next dataset,
keeping the outputs and timing the reference computation (``reference.py``),
in whose units the end-to-end times are given, happen between timed calls.

With ``--trace 1`` the run measures half its time untraced (the base of
``tracing_overhead`` and ``stabcp_over_oracle``) and half with the tracer
installed, and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import metrics
from .checks import Checker, SetRecord, coverage, coverage_gate
from .reference import EVERY, Reference, local_units
from .tracer import Tracer
from .workloads import ALPHA, METHODS, WORKLOADS, Client, Inputs

SETUP_REPEATS = 3
TRACE_DIR = ".bench_out"
SHOWN_FAILURES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Closed-loop latency benchmark of the stabcp prediction-set methods.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time to measure, summed over timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test sizes")
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for library in libraries:
        try:
            lib = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit(root: Path) -> str:
    """Commit of a git checkout at ``root``, read from its files; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "client_threads": 1,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
    }


def measure(client: Client, inputs: Inputs, first: int, seconds: float,
            tracer: Tracer | None = None,
            reference: Reference | None = None) -> tuple[list[SetRecord], int]:
    """Send requests from index ``first`` until ``seconds`` of timed calls.

    The reference computation is timed before the first request, between
    requests after every ``EVERY`` seconds of timed calls, and after the
    last; each record gets the reference time around it.
    """
    reference = reference or Reference(client.workload.unit_mix)
    records: list[SetRecord] = []
    timings: list[float] = []
    after: list[int] = []
    busy = 0.0
    since = EVERY
    request = first
    while busy < seconds:
        if since >= EVERY:
            timings.append(reference.seconds())
            since = 0.0
        dataset = inputs.dataset(request)
        for method in client.workload.methods_for(request - first):
            with tracer.set_span(request, method) if tracer else nullcontext():
                started = time.perf_counter()
                try:
                    report = client.run(method, dataset)
                except Exception as exc:  # a failed set is counted, the run goes on
                    elapsed = time.perf_counter() - started
                    record = SetRecord(request, method, elapsed,
                                       error=f"{type(exc).__name__}: {exc}")
                else:
                    elapsed = time.perf_counter() - started
                    record = SetRecord.from_report(request, method, elapsed, report)
            busy += elapsed
            since += elapsed
            records.append(record)
            after.append(len(timings) - 1)
        request += 1
    timings.append(reference.seconds())
    for record, unit in zip(records, local_units(timings, after)):
        record.reference = float(unit)
    return records, request


def run(argv, started: float, root: Path) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = workload.tiny()
    client = Client(workload)

    imports_s = time.perf_counter() - started
    setup_times = []
    generate_seconds: list[float] = []
    for repeat in range(SETUP_REPEATS):
        began = time.perf_counter()
        inputs = Inputs(workload, args.seed, repeat)
        warm = inputs.dataset(0)
        for method in METHODS:
            client.run(method, warm)
        setup_times.append(time.perf_counter() - began)
        generate_seconds += inputs.generate_seconds
    setup_s = imports_s + statistics.median(setup_times)
    inputs.generate_seconds = []

    reference = Reference(workload.unit_mix)
    gc.collect()
    tracer = None
    if args.trace:
        untraced, next_request = measure(client, inputs, 1, args.seconds / 2,
                                         reference=reference)
        tracer = Tracer()
        with tracer:
            traced, _ = measure(client, inputs, next_request, args.seconds / 2, tracer,
                                reference)
    else:
        untraced, _ = measure(client, inputs, 1, args.seconds, reference=reference)
        traced = []
    generate_seconds += inputs.generate_seconds
    records = untraced + traced

    failures = Checker(workload, inputs, ALPHA, client.config.eps_r).check(records)
    gate = coverage_gate(records, ALPHA)
    if tracer is None:
        values = metrics.end_to_end(records, client.single_fit_method(), setup_s)
        catalog = [(name, unit) for name, unit, _ in metrics.END_TO_END]
    else:
        values = metrics.per_layer(tracer, traced, untraced, generate_seconds,
                                   client.single_fit_method())
        catalog = [(name, unit) for name, unit, _ in metrics.per_layer_catalog()]
        trace_dir = root / TRACE_DIR
        trace_dir.mkdir(exist_ok=True)
        tracer.save(trace_dir / f"trace-{workload.name}.npz", seed=args.seed)

    failed = sum(1 for r in records if r.error is not None)
    requests = len({r.request for r in records})
    print("env " + json.dumps(environment(root, workload.name, args.seed)))
    print(f"{workload.name}: {requests} requests, {len(records)} sets, "
          f"{sum(r.seconds for r in records):.2f} s timed, failed_frac {failed / len(records):.6f}")
    for method in METHODS:
        rate, count = coverage(records, method)
        print(f"coverage {method} {rate:.4f} over {count} sets")
        if count < metrics.P90_MIN_SAMPLES and method in metrics.TAIL_METHODS:
            print(f"note: {method}_p90_ref rests on {count} < {metrics.P90_MIN_SAMPLES} sets")
    print("wall clock: " + metrics.wall_clock(untraced))
    print("tail, not gated: " + metrics.tails(untraced))
    for message in failures[:SHOWN_FAILURES]:
        print("FAILED " + message)
    for message in gate:
        print("COVERAGE " + message)
    for name, unit in catalog:
        print(f"{name} {values[name]!r} {unit}")
    result = {
        "correct": not gate and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalog},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 1 if gate else 0
