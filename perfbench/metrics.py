"""The benchmark's metrics: names, units, directions, and how each is computed.

``END_TO_END`` and ``per_layer_catalog()`` are what ``BENCHMARK.json`` lists;
the tests check that a run emits exactly these names.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from .tracer import FIT_SPANS, LAYERS, SET_SPAN
from .workloads import METHODS

# name, unit, better; the regression bounds live in BENCHMARK.json.  Times are
# in units of the reference computation timed around each set (reference.py).
END_TO_END = (
    ("stabcp_p50_ref", "ref", "lower"),
    ("bisect_p50_ref", "ref", "lower"),
    ("oraclecp_p50_ref", "ref", "lower"),
    ("splitcp_p50_ref", "ref", "lower"),
    ("rootcp_p50_ref", "ref", "lower"),
    ("sets_per_kref", "1/kref", "higher"),
    ("single_fit_len_ratio", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
# Printed, not gated: the 90th percentile of a set whose cost does not depend
# on the draw (ridge) measures the host's short stalls, which the reference
# unit, a median over 0.3 s, cannot follow.
TAIL_METHODS = ("stabcp", "bisect")
P90_MIN_SAMPLES = 100
STAGES = ("anchor", "tau", "fit", "envelope", "extract")
STAGED_METHODS = ("stabcp", "bisect")


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    rows = []
    for m in METHODS:
        rows += [
            (f"models.fits.{m}", "count", "lower"),
            (f"models.fit_ms.{m}", "ms", "lower"),
            (f"models.lad_iters.{m}", "count", "lower"),
            (f"conformal.envelope_evals.{m}", "count", "lower"),
            (f"core.score_evals.{m}", "count", "lower"),
        ]
        rows += [(f"{layer}.self_ms.{m}", "ms", "lower") for layer in LAYERS]
        rows += [(f"conformal.outcomes.{kind}.{m}", "count", "lower")
                 for kind in ("empty", "whole_range", "truncated")]
        rows += [(f"fit_share.{m}", "ratio", "lower"), (f"set_ms.{m}", "ms", "lower")]
    rows += [(f"stage.{stage}_ms.{m}", "ms", "lower")
             for m in STAGED_METHODS for stage in STAGES]
    rows += [
        ("models.ms_per_fit", "ms", "lower"),
        ("models.lad_converged_frac", "ratio", "higher"),
        ("models.lad_max_gap", "objective", "lower"),
        ("stabcp_over_oracle", "ratio", "lower"),
        ("untraced.single_fit_p50_ms", "ms", "lower"),
        ("untraced.oraclecp_p50_ms", "ms", "lower"),
        ("tracing_overhead", "ratio", "lower"),
        ("untraced.sum_p50_ms", "ms", "lower"),
        ("traced.sum_p50_ms", "ms", "lower"),
        ("data.generate_ms", "ms", "lower"),
    ]
    return rows


def timed(records, method: str) -> list:
    """The method's sets that returned and passed their checks.

    When every set of the method failed, the failed ones stand in, so that
    the run still reports a number (and ``correct`` is false).
    """
    mine = [r for r in records if r.method == method]
    return [r for r in mine if r.error is None] or mine


def p50_ms(records, method: str) -> float:
    return 1e3 * statistics.median(r.seconds for r in timed(records, method))


def in_reference_units(records, method: str) -> np.ndarray:
    return np.array([r.seconds / r.reference for r in timed(records, method)])


def p50_ref(records, method: str) -> float:
    return float(np.median(in_reference_units(records, method)))


def p90_ref(records, method: str) -> float:
    return float(np.percentile(in_reference_units(records, method), 90))


def p90_ms(records, method: str) -> float:
    return 1e3 * float(np.percentile([r.seconds for r in timed(records, method)], 90))


def tails(records) -> str:
    return " ".join(f"{m}_p90_ref {p90_ref(records, m):.4g} ({p90_ms(records, m):.4g} ms)"
                    for m in TAIL_METHODS)


def wall_clock(records) -> str:
    """The run's wall-clock times, printed beside the metrics for reading."""
    busy = sum(r.seconds for r in records)
    completed = sum(r.shape is not None for r in records)
    p50s = " ".join(f"{m} {p50_ms(records, m):.4g}" for m in METHODS
                    if any(r.method == m for r in records))
    unit = 1e3 * statistics.median(r.reference for r in records)
    return (f"p50 ms: {p50s}; sets_per_s {completed / busy:.4g}; "
            f"reference unit median {unit:.4g} ms")


def single_fit_len_ratio(records, single_fit: str) -> float:
    """Mean single-fit length over mean oracle length, same requests only."""
    lengths: dict[int, dict[str, float]] = {}
    for r in records:
        if r.error is None and r.method in (single_fit, "oraclecp"):
            lengths.setdefault(r.request, {})[r.method] = r.length
    pairs = [v for v in lengths.values() if len(v) == 2]
    return (sum(v[single_fit] for v in pairs) / len(pairs)) / (
        sum(v["oraclecp"] for v in pairs) / len(pairs))


def end_to_end(records, single_fit: str, setup_s: float) -> dict[str, float]:
    completed = [r for r in records if r.shape is not None]
    return {
        "stabcp_p50_ref": p50_ref(records, "stabcp"),
        "bisect_p50_ref": p50_ref(records, "bisect"),
        "oraclecp_p50_ref": p50_ref(records, "oraclecp"),
        "splitcp_p50_ref": p50_ref(records, "splitcp"),
        "rootcp_p50_ref": p50_ref(records, "rootcp"),
        "sets_per_kref": 1e3 * len(completed) / sum(r.seconds / r.reference for r in records),
        "single_fit_len_ratio": single_fit_len_ratio(records, single_fit),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def _outcomes(records, method: str) -> dict[str, int]:
    mine = [r for r in records if r.method == method and r.shape is not None]
    return {
        "empty": sum(r.shape == "empty" for r in mine),
        "whole_range": sum(r.shape == "whole-range" for r in mine),
        "truncated": sum(bool(r.truncated) for r in mine),
    }


def per_layer(tracer, traced, untraced, generate_seconds, single_fit: str) -> dict[str, float]:
    """Per-layer metrics of the traced phase, with the untraced phase as base.

    Per-set values are medians over the method's sets; counts of degenerate
    outcomes are totals over the traced phase.  ``stabcp_over_oracle`` divides
    the untraced p50 of the single-fit method that shares the oracle's score
    by the oracle's.
    """
    spans = tracer.spans()
    ids = {name: i for i, name in enumerate(tracer.names)}
    name = spans["name"]
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    set_of = spans["set"]
    n_sets = len(tracer.sets)
    set_method = np.array([m for _, m in tracer.sets])
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=duration.size)
    self_time = duration - children
    layer_of = np.array([LAYERS.index(layer) if layer in LAYERS else -1
                         for layer in tracer.layers])[name]

    def is_name(*names):
        return np.isin(name, [ids[n] for n in names if n in ids])

    def per_set(mask, weights=None):
        mask = mask & (set_of >= 0)
        w = None if weights is None else weights[mask]
        return np.bincount(set_of[mask], weights=w, minlength=n_sets)

    fit = is_name(*FIT_SPANS) & ~spans["nested_fit"]
    lad_fit = fit & (spans["iterations"] >= 0)
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    anchor_bounds = per_set(is_name("conformal.anchor_bounds"), duration)
    per_set_values = {
        "models.fits": per_set(fit),
        "models.fit_ms": 1e3 * per_set(fit, duration),
        "models.lad_iters": per_set(lad_fit, spans["iterations"].astype(float)),
        "conformal.envelope_evals": per_set(is_name("conformal.ConformityBounds.counts_at")),
        "core.score_evals": per_set(is_name("core.ScoreFunction.evaluate")),
        "set_ms": 1e3 * per_set(is_name(SET_SPAN), duration),
        "stage.anchor_ms": 1e3 * per_set(is_name("harness.resolve_anchor"), duration),
        "stage.tau_ms": 1e3 * per_set(is_name("harness.build_tau"), duration),
        "stage.fit_ms": 1e3 * per_set(
            fit & np.isin(parent_name, [ids.get("conformal.anchor_bounds", -2)]), duration),
    }
    per_set_values["stage.envelope_ms"] = 1e3 * anchor_bounds - per_set_values["stage.fit_ms"]
    per_set_values["stage.extract_ms"] = 1e3 * (per_set(
        is_name("conformal.stab_cp_interval", "conformal.stab_cp_bisection"), duration)
        - anchor_bounds)
    for layer in LAYERS:
        per_set_values[f"{layer}.self_ms"] = 1e3 * per_set(layer_of == LAYERS.index(layer),
                                                           self_time)

    values: dict[str, float] = {}
    for m in METHODS:
        mine = set_method == m
        for key, per_set_array in per_set_values.items():
            if key.startswith("stage.") and m not in STAGED_METHODS:
                continue
            values[f"{key}.{m}"] = float(np.median(per_set_array[mine])) if mine.any() else 0.0
        for kind, count in _outcomes(traced, m).items():
            values[f"conformal.outcomes.{kind}.{m}"] = float(count)
        set_total = per_set_values["set_ms"][mine].sum()
        values[f"fit_share.{m}"] = (float(per_set_values["models.fit_ms"][mine].sum() / set_total)
                                    if set_total > 0 else 0.0)

    fits = int(fit.sum())
    values["models.ms_per_fit"] = 1e3 * float(duration[fit].sum()) / fits if fits else 0.0
    values["models.lad_converged_frac"] = (float((spans["converged"][lad_fit] == 1).mean())
                                           if lad_fit.any() else 1.0)
    values["models.lad_max_gap"] = float(spans["gap"][lad_fit].max()) if lad_fit.any() else 0.0
    values["untraced.single_fit_p50_ms"] = p50_ms(untraced, single_fit)
    values["untraced.oraclecp_p50_ms"] = p50_ms(untraced, "oraclecp")
    values["stabcp_over_oracle"] = (values["untraced.single_fit_p50_ms"]
                                    / values["untraced.oraclecp_p50_ms"])
    values["untraced.sum_p50_ms"] = sum(p50_ms(untraced, m) for m in METHODS)
    values["traced.sum_p50_ms"] = sum(p50_ms(traced, m) for m in METHODS)
    values["tracing_overhead"] = values["traced.sum_p50_ms"] / values["untraced.sum_p50_ms"]
    values["data.generate_ms"] = 1e3 * statistics.median(generate_seconds)
    return values
