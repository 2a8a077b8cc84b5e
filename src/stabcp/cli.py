"""Command-line surface: dataset generation, intervals, benchmarks, curves.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every command is deterministic given --seed; JSON outputs carry a "schema"
key so downstream parsers can pin the format.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import click

from .conformal import gap_profile, split_pi
from .core import ScoreFunction, default_candidate_grid
from .data import GeneratorSpec, generate, load_csv, save_csv
from .errors import DataError, InvalidInputError, NotFittedError, NumericalError
from .harness import (
    METHOD_NAMES,
    MODEL_NAMES,
    ROW_FIELDS,
    RunConfig,
    build_tau,
    permutation_source,
    run_benchmark,
    run_method,
    synthetic_source,
)


@click.group()
def cli():
    """Distribution-free regression intervals from a single model fit."""


def _sidecar_path(data_path: str) -> str:
    return data_path + ".json"


_SIDECAR_SCHEMA = "stabcp/dataset/1"


def _load_dataset(data_path: str, target_column, sidecar, trust_holdout: bool = False):
    """Load a CSV; the held-out row's response is only kept as the true
    target in harness mode or when a generator sidecar vouches for it.

    A sidecar vouches only if its schema is ``stabcp/dataset/1`` and its
    ``test_target`` equals the CSV's last-row response (``gen`` writes both
    with ``repr``, so they match exactly); any other sidecar is a data error.
    """
    dataset = load_csv(data_path, target_column=target_column)
    sidecar_path = sidecar or _sidecar_path(data_path)
    has_sidecar = os.path.exists(sidecar_path)
    if has_sidecar:
        with open(sidecar_path, encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
                raise DataError(f"{sidecar_path}: not valid JSON: {exc}") from exc
        if not (isinstance(meta, dict) and meta.get("schema") == _SIDECAR_SCHEMA):
            raise DataError(f"{sidecar_path}: not a {_SIDECAR_SCHEMA} sidecar")
        if meta.get("test_target") != dataset.test_target:
            raise DataError(f"{sidecar_path}: test_target {meta.get('test_target')!r} is not "
                            f"the held-out response {dataset.test_target!r} of {data_path}")
        dataset.meta["sidecar"] = meta
    if not (trust_holdout or has_sidecar):
        dataset = dataclasses.replace(dataset, test_target=None)
    return dataset


def _usage_checked(fn, *args, **kw):
    """Call ``fn``, reporting its ``InvalidInputError`` as a usage error (exit 1)."""
    try:
        return fn(*args, **kw)
    except InvalidInputError as exc:
        raise click.UsageError(str(exc)) from exc


_DEFAULTS = RunConfig()
_model_opts = [  # value types follow the RunConfig defaults
    click.option("--model", type=click.Choice(MODEL_NAMES), default=_DEFAULTS.model,
                 show_default=True),
    click.option("--lambda-reg", default=_DEFAULTS.lambda_reg, show_default=True,
                 help="Penalty weight of the squared-norm regularizer."),
    click.option("--solver-tol", default=_DEFAULTS.solver_tol, show_default=True),
    click.option("--max-iter", default=_DEFAULTS.max_iter, show_default=True),
    click.option("--alpha", default=_DEFAULTS.alpha, show_default=True),
    click.option("--grid-size", default=_DEFAULTS.grid_size, show_default=True),
    click.option("--split-fraction", default=_DEFAULTS.split_fraction, show_default=True),
]


_kind_option = click.option(
    "--kind", type=click.Choice(["linear", "friedman1"]), default="linear", show_default=True,
    callback=lambda _ctx, _param, kind: "linear-gaussian" if kind == "linear" else kind,
    help="Generator; 'linear' is linear-gaussian.")


def _add_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@cli.command("gen")
@_kind_option
@click.option("--n", type=int, required=True, help="Observed sample size.")
@click.option("--p", type=int, required=True, help="Feature count.")
@click.option("--noise", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_gen(kind, n, p, noise, seed, out):
    """Generate a synthetic dataset CSV (query row last) plus a sidecar JSON."""
    dataset = generate(_usage_checked(GeneratorSpec, kind, n, p, noise, seed))
    save_csv(dataset, out)
    sidecar = {
        "schema": _SIDECAR_SCHEMA,
        "kind": kind, "n": n, "p": p, "noise_sd": noise, "seed": seed,
        "target_column": "y", "holdout_row": "last",
        "test_target": dataset.test_target,
    }
    with open(_sidecar_path(out), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    click.echo(f"wrote {out} ({n + 1} data rows, query row last) and {_sidecar_path(out)}")


@cli.command("predict")
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--target-column", default=None)
@click.option("--sidecar", type=click.Path(exists=True), default=None)
@click.option("--method", type=click.Choice(METHOD_NAMES), default="stabcp", show_default=True)
@click.option("--true-target", type=float, default=None,
              help="Held-out response (oracle method).")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here instead of stdout.")
@_add_options(_model_opts)
def cmd_predict(data_path, target_column, sidecar, method, true_target, out, **kw):
    """Compute one prediction interval and emit it as JSON."""
    config = _usage_checked(RunConfig, **kw)
    dataset = _load_dataset(data_path, target_column, sidecar)
    if true_target is not None:
        dataset = _usage_checked(dataclasses.replace, dataset, test_target=true_target)
    if method == "oraclecp" and dataset.test_target is None:
        raise click.UsageError("oraclecp needs --true-target (or a dataset with a held-out target)")
    report = run_method(method, dataset, config)
    payload = {
        "schema": "stabcp/predict/1",
        "method": method,
        "alpha": config.alpha,
        "shape": report.set.shape,
        "intervals": [[lo, hi] for lo, hi in report.set.intervals],
        "length": report.length,
        "fit_count": report.fit_count,
        "tau_provenance": report.details.get("tau_provenance"),
        "tau_coverage_safe": report.details.get("tau_coverage_safe"),
        # the solver certificate of the fit (summed and worst over the refits
        # of rootcp and gridcp); null for closed-form fits
        "iterations": report.details.get("iterations"),
        "duality_gap": report.details.get("duality_gap"),
        "converged": report.details.get("converged"),
        "truncated_to_range": report.set.truncated,
        "covered": report.covered,
        "wall_time_s": report.wall_time,
    }
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@cli.command("benchmark")
@click.option("--data", "data_path", type=click.Path(exists=True), default=None,
              help="CSV table to permute per repetition; omit to redraw synthetic data.")
@click.option("--target-column", default=None)
@_kind_option
@click.option("--n", type=int, default=300, show_default=True)
@click.option("--p", type=int, default=20, show_default=True)
@click.option("--noise", type=float, default=1.0, show_default=True)
@click.option("--methods", default="stabcp,splitcp,oraclecp,rootcp", show_default=True,
              help="Comma-separated method list.")
@click.option("--reps", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-json", type=click.Path(), default=None)
@click.option("--out-csv", type=click.Path(), default=None)
@_add_options(_model_opts)
def cmd_benchmark(data_path, target_column, kind, n, p, noise, methods, reps, seed,
                  out_json, out_csv, **kw):
    """Run the coverage/length/time protocol and emit the aggregate report."""
    method_list = [name.strip() for name in methods.split(",") if name.strip()]
    config = _usage_checked(RunConfig, **kw)
    if data_path:
        # the generator options describe the redraws that --data replaces
        ctx = click.get_current_context()
        given = [f"--{name}" for name in ("kind", "n", "p", "noise")
                 if ctx.get_parameter_source(name) is click.core.ParameterSource.COMMANDLINE]
        if given:
            raise click.UsageError(f"{', '.join(given)} cannot be given with --data: "
                                   "the generator options apply only to redrawn data")
        dataset = _load_dataset(data_path, target_column, None, trust_holdout=True)
        source = permutation_source(dataset)
        source_echo = {"data": data_path, "mode": "permutation"}
    else:
        source = synthetic_source(_usage_checked(GeneratorSpec, kind, n, p, noise, seed))
        source_echo = {"kind": kind, "n": n, "p": p, "noise_sd": noise, "mode": "redraw"}
    report, rows = _usage_checked(run_benchmark, source, method_list, reps, seed, config)
    report["source"] = source_echo
    text = json.dumps(report, indent=2)
    if out_json:
        with open(out_json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)
    if out_csv:
        import csv as _csv
        with open(out_csv, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.DictWriter(fh, fieldnames=ROW_FIELDS)
            writer.writeheader()
            writer.writerows(rows)


@cli.command("curve")
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--target-column", default=None)
@click.option("--sidecar", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True, help="CSV of the curves.")
@_add_options(_model_opts)
def cmd_curve(data_path, target_column, sidecar, out, **kw):
    """Sweep the candidate grid and emit conformity curves for plotting.

    Diagnostic mode: the exact curve refits at every grid point.
    """
    config = _usage_checked(RunConfig, **kw)
    dataset = _load_dataset(data_path, target_column, sidecar)
    score = ScoreFunction.absolute_residual()
    spec = config.model_spec()
    anchor = spec.anchor(dataset)
    tau, _ = build_tau(config, dataset, score)
    grid = default_candidate_grid(dataset, config.grid_size)
    rows = gap_profile(dataset, anchor, spec, score, tau, grid)
    pi_split_fn = split_pi(dataset, config.split_index(dataset.n), spec, score)

    import csv as _csv
    crossings = {"pi_lo": [], "pi_up": [], "pi_exact": [], "pi_split": []}
    previous = None
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["z", "pi_lo", "pi_up", "pi_exact", "pi_split"])
        for z, lo, up, exact in rows:
            ps = float(pi_split_fn(z))
            writer.writerow([repr(z), repr(lo), repr(up), repr(exact), repr(ps)])
            current = {"pi_lo": lo, "pi_up": up, "pi_exact": exact, "pi_split": ps}
            if previous is not None:
                for name, value in current.items():
                    was = previous[name] > config.alpha
                    now = value > config.alpha
                    if was != now:
                        crossings[name].append(z)
            previous = current
    click.echo(json.dumps({
        "schema": "stabcp/curve/1",
        "alpha": config.alpha,
        "anchor": anchor,
        "grid_points": len(rows),
        "alpha_crossings": crossings,
        "out": out,
    }, indent=2))


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1
    except (DataError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except InvalidInputError as exc:
        click.echo(f"invalid input: {exc}", err=True)
        return 2
    except (NumericalError, NotFittedError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    except click.ClickException as exc:
        exc.show()
        return 1


if __name__ == "__main__":
    sys.exit(main())
