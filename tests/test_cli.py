import csv
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from stabcp import conformal
from stabcp.cli import main
from stabcp.errors import InvalidInputError
from stabcp.harness import (
    MODEL_NAMES,
    TAU_SOURCES,
    RunConfig,
    build_tau,
    resolve_anchor,
    run_benchmark,
    run_method,
    synthetic_source,
)
from stabcp import GeneratorSpec, RidgeModel, ScoreFunction, gen_linear_gaussian, stab_cp_interval


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def generated(tmp_path, capsys):
    path = tmp_path / "d.csv"
    code, _, err = run_cli(capsys, "gen", "--kind", "linear", "--n", "30", "--p", "5",
                           "--noise", "1", "--seed", "7", "--out", str(path))
    assert code == 0, err
    return path


# ------------------------------------------------------------------- gen

def test_gen_writes_rows_and_sidecar(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "gen", "--kind", "linear", "--n", "30", "--p", "100",
                         "--noise", "1", "--seed", "7", "--out", str(out))
    assert code == 0
    rows = list(csv.reader(open(out, encoding="utf-8")))
    assert len(rows) == 32  # header + 30 observed + held-out query row
    sidecar = json.loads((tmp_path / "d.csv.json").read_text(encoding="utf-8"))
    assert sidecar["holdout_row"] == "last"
    assert sidecar["schema"] == "stabcp/dataset/1"


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "gen", "--n", "10", "--p", "3", "--seed", "5",
                             "--out", str(out))
        assert code == 0
    assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")


def test_gen_friedman_needs_five_features(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "friedman1", "--n", "20", "--p", "4",
                           "--out", str(tmp_path / "f.csv"))
    assert code == 1
    assert "usage error" in err and "p >= 5" in err
    code, _, err = run_cli(capsys, "benchmark", "--kind", "friedman1", "--n", "20", "--p", "4",
                           "--reps", "2", "--methods", "stabcp")
    assert code == 1
    assert "usage error" in err and "p >= 5" in err


# out-of-range numbers that no run option carries, reported as usage errors
# before anything is written: (command line, text the message names); the
# generated data follow "--data"
OUT_OF_RANGE_NUMBERS = {
    "gen-one-row": (("gen", "--n", "1", "--p", "3"), "n must be"),
    "gen-negative-seed": (("gen", "--n", "20", "--p", "3", "--seed", "-1"), "seed"),
    "benchmark-negative-noise": (("benchmark", "--n", "20", "--p", "3", "--noise", "-1"),
                                 "noise_sd"),
    "benchmark-negative-seed": (("benchmark", "--n", "20", "--p", "3", "--seed", "-1"), "seed"),
    "benchmark-data-negative-seed": (("benchmark", "--seed", "-1", "--data"), "seed"),
    "predict-nan-target": (("predict", "--method", "oraclecp", "--true-target", "nan",
                            "--data"), "test_target"),
    "predict-inf-target": (("predict", "--true-target", "inf", "--data"), "test_target"),
    # the LAD solver settings are checked on the default ridge model too
    "predict-nan-solver-tol": (("predict", "--solver-tol", "nan", "--data"), "solver_tol"),
    "predict-zero-max-iter": (("predict", "--max-iter", "0", "--data"), "max_iter"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_NUMBERS))
def test_out_of_range_numbers_are_usage_errors(generated, tmp_path, capsys, case):
    args, named = OUT_OF_RANGE_NUMBERS[case]
    out = tmp_path / "out.csv"
    if args[-1] == "--data":
        args += (str(generated),)
    if args[0] == "gen":
        args += ("--out", str(out))
    elif args[0] == "benchmark":
        args += ("--reps", "2", "--methods", "stabcp")
    code, stdout, err = run_cli(capsys, *args)
    assert (code, stdout) == (1, ""), err
    assert "usage error" in err and named in err
    assert not out.exists()


# ---------------------------------------------------------------- predict

def test_predict_stabcp_single_fit(generated, capsys):
    code, out, _ = run_cli(capsys, "predict", "--data", str(generated),
                           "--method", "stabcp", "--alpha", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "stabcp/predict/1"
    assert payload["fit_count"] == 1
    assert payload["tau_provenance"] == "linear-exact"
    assert len(payload["intervals"]) >= 1


def test_predict_grid_and_root_agree(generated, capsys):
    outputs = {}
    for method in ("gridcp", "rootcp"):
        code, out, _ = run_cli(capsys, "predict", "--data", str(generated),
                               "--method", method, "--grid-size", "400")
        assert code == 0
        outputs[method] = json.loads(out)
    (glo, ghi), = outputs["gridcp"]["intervals"]
    (rlo, rhi), = outputs["rootcp"]["intervals"]
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 30, 5, 1.0, 7))
    lo, hi = ds.target_range()
    tol = max(1e-4, (hi - lo) / 399) + 1e-9
    assert abs(glo - rlo) <= tol and abs(ghi - rhi) <= tol


def test_predict_stabcp_contains_gridcp(generated, capsys):
    _, stab_out, _ = run_cli(capsys, "predict", "--data", str(generated),
                             "--method", "stabcp")
    _, grid_out, _ = run_cli(capsys, "predict", "--data", str(generated),
                             "--method", "gridcp")
    (slo, shi), = json.loads(stab_out)["intervals"]
    (glo, ghi), = json.loads(grid_out)["intervals"]
    assert slo <= glo and ghi <= shi


def test_predict_oracle_requires_true_target(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    rng = np.random.default_rng(0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,y\n")
        for _ in range(12):
            a, b = rng.standard_normal(2)
            fh.write(f"{a},{b},{a - b}\n")
    code, _, err = run_cli(capsys, "predict", "--data", str(path),
                           "--method", "oraclecp")
    assert code == 1
    assert "true-target" in err
    code, out, _ = run_cli(capsys, "predict", "--data", str(path),
                           "--method", "oraclecp", "--true-target", "0.4")
    assert code == 0
    assert json.loads(out)["fit_count"] == 1


def test_predict_reports_tau_coverage_safe(generated, capsys):
    # the anchor always lies in the bound's range: the flag reads only the
    # certificate of the envelope fit, which five ADMM iterations leave unmet
    cases = [(("--model", "ladridge", "--max-iter", "5", "--solver-tol", "1e-12"), False),
             ((), True),
             (("--method", "oraclecp"), None)]
    for flags, expected in cases:
        code, out, err = run_cli(capsys, "predict", "--data", str(generated), *flags)
        assert code == 0, err
        assert json.loads(out)["tau_coverage_safe"] is expected


def test_predict_reports_the_fit_certificate(generated, capsys):
    code, out, err = run_cli(capsys, "predict", "--data", str(generated), "--method", "stabcp")
    assert code == 0, err
    ridge = json.loads(out)
    assert ridge["iterations"] is None and ridge["duality_gap"] is None
    assert ridge["converged"] is None
    lad_flags = ("predict", "--data", str(generated), "--method", "stabcp",
                 "--model", "ladridge")
    code, out, err = run_cli(capsys, *lad_flags)
    assert code == 0, err
    lad = json.loads(out)
    assert lad["iterations"] >= 1 and 0.0 <= lad["duality_gap"] <= RunConfig().solver_tol
    assert lad["converged"] is True and lad["tau_coverage_safe"] is True
    code, out, err = run_cli(capsys, *lad_flags, "--max-iter", "5", "--solver-tol", "1e-12")
    assert code == 0, err
    starved = json.loads(out)
    # the five iterations of the envelope fit, the set's one fit
    assert starved["iterations"] == 5 and starved["duality_gap"] > 1e-12
    assert starved["converged"] is False and starved["tau_coverage_safe"] is False


def test_predict_rootcp_reports_the_refits_certificate(generated, capsys):
    code, out, err = run_cli(capsys, "predict", "--data", str(generated), "--method", "rootcp")
    assert code == 0, err
    ridge = json.loads(out)
    assert [ridge[k] for k in ("iterations", "duality_gap", "converged")] == [None, None, None]
    code, out, err = run_cli(capsys, "predict", "--data", str(generated), "--method", "rootcp",
                             "--model", "ladridge")
    assert code == 0, err
    lad = json.loads(out)
    # summed over every refit, so at least ten ADMM iterations per refit
    assert isinstance(lad["iterations"], int) and lad["iterations"] >= 10 * lad["fit_count"]
    assert 0.0 <= lad["duality_gap"] <= RunConfig().solver_tol
    assert lad["converged"] is True


def test_predict_whole_range_when_the_level_index_exceeds_n(tmp_path, capsys):
    # n = 5 at alpha = 0.1: ceil(0.9 * 6) = 6 > 5 reference scores, so every
    # candidate is in the set; rootcp says so without a refit
    path = tmp_path / "five.csv"
    code, _, err = run_cli(capsys, "gen", "--n", "5", "--p", "2", "--out", str(path))
    assert code == 0, err
    fit_counts = {}
    for method in ("rootcp", "oraclecp"):
        code, out, err = run_cli(capsys, "predict", "--data", str(path), "--method", method)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["shape"] == "whole-range" and payload["covered"] is True
        fit_counts[method] = payload["fit_count"]
    assert fit_counts == {"rootcp": 0, "oraclecp": 1}


def test_stabcp_lad_certificate_is_the_envelope_fits():
    # the anchor is the observed median and costs no fit, so the report's
    # iterations, gap and converged are all the envelope fit's, the set's one fit
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 20, 1.0, 5))
    config = RunConfig(model="ladridge", lambda_reg=0.2)
    report = run_method("stabcp", ds, config)
    anchor, placeholder = resolve_anchor(config, ds)
    assert (anchor, placeholder) == (float(np.median(ds.targets)), None)
    tau, _ = build_tau(config, ds, ScoreFunction.absolute_residual())
    envelope = stab_cp_interval(ds, anchor, config.model_spec(),
                                ScoreFunction.absolute_residual(), tau, config.alpha)
    assert report.set == envelope.set
    assert report.details["iterations"] == envelope.details["iterations"]
    assert report.details["duality_gap"] == envelope.details["duality_gap"]
    assert report.details["converged"] is envelope.details["converged"] is True
    # the envelope fit starved: its five iterations are the report's, and it did not converge
    starved = run_method("stabcp", ds, dataclasses.replace(config, max_iter=5, solver_tol=1e-12))
    assert starved.details["iterations"] == 5 and starved.details["converged"] is False


@pytest.mark.parametrize("tau_source", TAU_SOURCES)
@pytest.mark.parametrize("seed", [7, 308, 332])
def test_default_stabcp_is_anchored_where_its_bound_holds(seed, tau_source):
    # ridge's raw anchor, the observed-rows fit at (n+1)/n the penalty,
    # predicts outside the target range on these draws; the anchor is clipped
    # into it, so the set is coverage-safe and holds the exact set, whichever
    # tau_source value the config carries
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 20, 10, 1.0, seed))
    config = RunConfig(tau_source=tau_source)
    lo, hi = ds.target_range()
    observed = RidgeModel(config.lambda_reg * (ds.n + 1) / ds.n).fit_rows(ds.features, ds.targets)
    raw = observed.predict(ds.test_point)
    assert not lo <= raw <= hi
    report = run_method("stabcp", ds, config)
    assert report.details["anchor"] == config.model_spec().anchor(ds) == min(max(raw, lo), hi)
    assert report.details["tau_coverage_safe"] is True
    exact = conformal.grid_cp(ds, config.model_spec(), ScoreFunction.absolute_residual(),
                              config.alpha, np.linspace(lo, hi, 801)).set
    assert exact.intervals
    for end in np.ravel(exact.intervals):
        assert report.set.contains(end)


def test_run_config_eps_r_defaults_to_the_library_tolerance():
    # one bisection tolerance: rootcp's default is the single-fit sets' own
    assert RunConfig().eps_r == conformal._EPS_R


# settings that no dataset can turn into a bound or a set, out-of-range
# numbers included: (RunConfig fields, CLI flags); the CLI has no --tau, so
# there the flag itself is refused
UNBUILDABLE_TAU = {
    "linear-exact-on-lad": (dict(model="ladridge", tau_source="linear-exact"),
                            ("--model", "ladridge", "--tau", "linear-exact")),
    "alpha-above-one": (dict(alpha=1.5), ("--alpha", "1.5")),
    "empty-grid": (dict(grid_size=0), ("--grid-size", "0")),
    "split-fraction-one": (dict(split_fraction=1.0), ("--split-fraction", "1")),
    "negative-lambda": (dict(lambda_reg=-1.0), ("--lambda-reg", "-1")),
    "lad-without-penalty": (dict(model="ladridge", lambda_reg=0.0),
                            ("--model", "ladridge", "--lambda-reg", "0")),
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE_TAU))
def test_unbuildable_tau_is_refused_with_the_config(generated, capsys, case):
    fields, flags = UNBUILDABLE_TAU[case]
    with pytest.raises(InvalidInputError):
        RunConfig(**fields)
    code, out, err = run_cli(capsys, "benchmark", "--n", "20", "--p", "3", "--reps", "3",
                             "--methods", "stabcp", *flags)
    assert (code, out) == (1, ""), err
    assert "usage error" in err
    code, out, err = run_cli(capsys, "predict", "--data", str(generated), *flags)
    assert (code, out) == (1, ""), err


def test_no_heuristic_bound_and_no_second_tolerance(generated, capsys):
    # every bound is derived from the model and every endpoint bisects to
    # _EPS_R: no heuristic or file bound and no second tolerance, as an option
    # or as a RunConfig field
    # no anchor setting either: the anchor is derived from the data
    # nor a bound setting: each model builds its own
    for flags in (("--allow-unsafe-tau",), ("--eps-r", "1e-4"), ("--tau", "sgd-heuristic"),
                  ("--tau", "file"), ("--tau-file", "x.csv"), ("--anchor", "0"),
                  ("--tau", "auto"), ("--tau", "linear-exact")):
        code, out, err = run_cli(capsys, "predict", "--data", str(generated), *flags)
        assert (code, out) == (1, ""), err
        assert "usage error" in err
    for fields in (dict(eps_r=1e-4), dict(allow_unsafe_tau=True), dict(tau_file="x.csv"),
                   dict(anchor=0.0)):
        with pytest.raises(TypeError):
            RunConfig(**fields)


# the provenance of each model's own bound
OWN_BOUNDS = {"ridge": "linear-exact", "ladridge": "regularized-lipschitz"}
# every (model, tau_source) pair RunConfig accepts; the field stays only for
# callers that still pass it, and no value of it changes the bound
ACCEPTED_PAIRS = [("ladridge", "auto"), ("ridge", "auto"), ("ridge", "linear-exact")]


@pytest.mark.parametrize("pair", ACCEPTED_PAIRS, ids="-".join)
def test_every_configurable_bound_is_derived_and_holds(pair):
    assert set(itertools.product(MODEL_NAMES, TAU_SOURCES)) \
        == set(ACCEPTED_PAIRS) | {("ladridge", "linear-exact")}
    model, tau_source = pair
    config = RunConfig(model=model, tau_source=tau_source)
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 25, 4, 1.0, seed=5))
    score = ScoreFunction.absolute_residual()
    tau, _ = build_tau(config, ds, score)
    assert tau.provenance == OWN_BOUNDS[model]  # never "user-supplied"
    own = config.model_spec().stability_bound(ds, score)
    assert tau.provenance == own.provenance and np.array_equal(tau.tau, own.tau)
    # the bound covers the deviation between any two candidates of its range
    spec = config.model_spec()
    preds = np.array([spec.fit(ds, z).row_predictions
                      for z in np.linspace(*ds.target_range(), 50)])
    spread = score.gamma * (preds.max(axis=0) - preds.min(axis=0))
    assert np.all(spread <= tau.tau + 1e-8), float(np.max(spread - tau.tau))


def test_run_config_refuses_an_unknown_tau_source():
    with pytest.raises(InvalidInputError):
        RunConfig(tau_source="sgd-heuristic")


def test_predict_reports_data_that_is_not_utf8_as_a_data_error(generated, capsys):
    with open(generated, "ab") as fh:
        fh.write(b"\xff\xfe")
    code, out, err = run_cli(capsys, "predict", "--data", str(generated))
    assert (code, out) == (2, ""), err
    assert "data error" in err and str(generated) in err


def test_predict_reports_a_malformed_sidecar_as_a_data_error(generated, capsys):
    generated.with_name(generated.name + ".json").write_text("{bad", encoding="utf-8")
    code, out, err = run_cli(capsys, "predict", "--data", str(generated))
    assert (code, out) == (2, ""), err
    assert "data error" in err and "not valid JSON" in err


def test_a_sidecar_that_does_not_vouch_for_the_held_out_row_is_a_data_error(
        generated, tmp_path, capsys):
    # an empty sidecar, and the sidecar of another dataset: neither may make
    # the CSV's last-row response the true target that `covered` is judged by
    other = tmp_path / "other.csv"
    code, _, err = run_cli(capsys, "gen", "--n", "30", "--p", "5", "--seed", "8",
                           "--out", str(other))
    assert code == 0, err
    empty = tmp_path / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    for sidecar, message in ((empty, "not a stabcp/dataset/1 sidecar"),
                             (tmp_path / "other.csv.json", "is not the held-out response")):
        code, out, err = run_cli(capsys, "predict", "--data", str(generated),
                                 "--method", "oraclecp", "--sidecar", str(sidecar))
        assert (code, out) == (2, ""), err
        assert "data error" in err and message in err
    # the dataset's own sidecar still vouches for it
    code, out, err = run_cli(capsys, "predict", "--data", str(generated), "--method", "oraclecp")
    assert code == 0, err
    assert isinstance(json.loads(out)["covered"], bool)


@pytest.mark.parametrize("command", ["predict", "curve"])
def test_a_missing_sidecar_is_a_usage_error(generated, tmp_path, capsys, command):
    # an explicit --sidecar that does not exist is refused, not skipped with
    # the held-out target dropped
    missing = tmp_path / "nope.json"
    extra = ("--method", "oraclecp") if command == "predict" else ("--out", str(tmp_path / "c.csv"))
    code, out, err = run_cli(capsys, command, "--data", str(generated),
                             "--sidecar", str(missing), *extra)
    assert (code, out) == (1, ""), err
    assert "usage error" in err and "nope.json" in err and "does not exist" in err


def test_predict_unknown_method_is_usage_error(generated, capsys):
    code, _, _ = run_cli(capsys, "predict", "--data", str(generated),
                         "--method", "magic")
    assert code == 1


@pytest.mark.parametrize("flags", [("--method", "interpcp"), ("--n-anchors", "3")])
def test_predict_has_no_interpolated_method(generated, capsys, flags):
    code, out, err = run_cli(capsys, "predict", "--data", str(generated), *flags)
    assert (code, out) == (1, "")
    assert "usage error" in err


# -------------------------------------------------------------- benchmark

def test_benchmark_report_schema_and_normalization(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "benchmark", "--n", "40", "--p", "4",
                         "--methods", "stabcp,splitcp,gridcp", "--reps", "3",
                         "--seed", "1", "--grid-size", "25",
                         "--out-json", str(out_json), "--out-csv", str(out_csv))
    assert code == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    assert report["schema"] == "stabcp/benchmark/1"
    methods = report["methods"]
    assert methods["oraclecp"]["time_normalized"] == pytest.approx(1.0)
    assert methods["stabcp"]["fit_count_mean"] == 1.0
    assert methods["splitcp"]["fit_count_mean"] == 1.0
    assert methods["gridcp"]["fit_count_mean"] == 25.0
    rows = list(csv.DictReader(open(out_csv, encoding="utf-8")))
    assert len(rows) == 3 * 4  # three repetitions, four methods with oracle
    for entry in methods.values():
        assert entry["coverage"] is None or 0.0 <= entry["coverage"] <= 1.0


def test_benchmark_from_csv_permutes_rows(generated, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "benchmark", "--data", str(generated),
                         "--methods", "stabcp,splitcp", "--reps", "4",
                         "--seed", "3", "--out-json", str(out_json))
    assert code == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    assert report["source"]["mode"] == "permutation"
    assert report["methods"]["stabcp"]["repetitions"] == 4
    # a different held-out row each repetition: lengths vary across reps
    assert report["methods"]["oraclecp"]["time_normalized"] == pytest.approx(1.0)


@pytest.mark.parametrize("flags", [("--n", "1", "--noise", "-5"), ("--kind", "linear"),
                                   ("--n", "300"), ("--p", "20"), ("--noise", "1.0")])
def test_benchmark_rejects_generator_options_with_data(generated, capsys, flags):
    # valid or not, and even at their defaults: a table is permuted, never drawn
    code, out, err = run_cli(capsys, "benchmark", "--data", str(generated), *flags,
                             "--reps", "1", "--methods", "stabcp")
    assert (code, out) == (1, ""), err
    assert "usage error" in err and "--data" in err
    for name in flags[::2]:
        assert name in err


@pytest.mark.parametrize("methods", ["magic", ",", "stabcp,magic"])
def test_benchmark_rejects_bad_method_list(capsys, methods):
    code, out, err = run_cli(capsys, "benchmark", "--n", "20", "--p", "3", "--reps", "2",
                             "--methods", methods)
    assert (code, out) == (1, ""), err
    assert "usage error" in err


def test_benchmark_coverage_averages_only_safe_repetitions():
    # 60 ADMM iterations certify the envelope fit on 16 of these 20 draws; at
    # alpha 0.5 the safe and the flagged repetitions cover at different rates
    config = RunConfig(model="ladridge", lambda_reg=0.5, max_iter=60, alpha=0.5)
    source = synthetic_source(GeneratorSpec("linear-gaussian", 20, 3, 1.0, 0))
    report, rows = run_benchmark(source, ["stabcp"], 20, seed=0, config=config)
    entry = report["methods"]["stabcp"]
    stab = [row for row in rows if row["method"] == "stabcp"]
    safe = [row["covered"] for row in stab if row["tau_coverage_safe"] is True]
    flagged = [row["covered"] for row in stab if row["tau_coverage_safe"] is False]
    assert (len(safe), len(flagged)) == (16, 4)
    assert np.mean(safe) != np.mean(flagged)
    assert entry["tau_unsafe"] is True
    assert entry["coverage"] == pytest.approx(np.mean(safe))
    assert entry["coverage_unvalidated"] == pytest.approx(np.mean(flagged))
    assert "coverage_unvalidated" not in report["methods"]["oraclecp"]


def test_benchmark_rows_carry_the_fit_certificate():
    source = synthetic_source(GeneratorSpec("linear-gaussian", 20, 3, 1.0, 0))
    methods = ["stabcp", "rootcp"]
    _, lad_rows = run_benchmark(source, methods, 2, seed=1,
                                config=RunConfig(model="ladridge", lambda_reg=0.2))
    _, ridge_rows = run_benchmark(source, methods, 2, seed=1, config=RunConfig())
    assert len(lad_rows) == len(ridge_rows) == 6
    for row in lad_rows:
        assert row["error"] is None
        assert row["iterations"] >= 10 and row["converged"] is True
        assert 0.0 <= row["duality_gap"] <= RunConfig().solver_tol
    for row in ridge_rows:
        assert row["error"] is None
        assert (row["iterations"], row["duality_gap"], row["converged"]) == (None, None, None)
    # certified and closed-form refits leave the flag unset
    assert [row["tau_coverage_safe"] for row in lad_rows + ridge_rows
            if row["method"] == "rootcp"] == [None] * 4


def test_benchmark_flags_sets_from_uncertified_refits():
    # five ADMM iterations cannot reach 1e-12: no refit converges, so the
    # rootcp and gridcp sets are not the exact ones and leave the coverage
    source = synthetic_source(GeneratorSpec("linear-gaussian", 30, 3, 1.0, 0))
    starved = RunConfig(model="ladridge", max_iter=5, solver_tol=1e-12, grid_size=20)
    report, rows = run_benchmark(source, ["rootcp", "gridcp"], 3, seed=0, config=starved)
    for method in ("rootcp", "gridcp"):
        refit_rows = [row for row in rows if row["method"] == method]
        assert len(refit_rows) == 3
        for row in refit_rows:
            assert row["error"] is None and row["converged"] is False
            assert row["tau_coverage_safe"] is False
        entry = report["methods"][method]
        assert entry["tau_unsafe"] is True and entry["coverage"] is None
        assert "coverage_unvalidated" in entry


def test_benchmark_is_deterministic(capsys):
    config = RunConfig(model="ridge", alpha=0.1)
    source = synthetic_source(GeneratorSpec("linear-gaussian", 25, 3, 1.0, 0))
    r1, rows1 = run_benchmark(source, ["stabcp"], 4, seed=9, config=config)
    r2, rows2 = run_benchmark(source, ["stabcp"], 4, seed=9, config=config)
    assert [row["length"] for row in rows1 if row["method"] == "stabcp"] == \
           [row["length"] for row in rows2 if row["method"] == "stabcp"]


def test_benchmark_has_no_jobs_option(capsys):
    # repetitions run one after another; there is no thread pool to size
    code, _, err = run_cli(capsys, "benchmark", "--n", "20", "--p", "3",
                           "--methods", "stabcp", "--reps", "2", "--jobs", "2")
    assert code == 1
    assert "--jobs" in err


def test_benchmark_times_each_method_on_an_empty_memo(monkeypatch):
    # the oracle runs last; on the same dataset object it would reuse the ridge
    # augmented solve that stabcp left, and every normalized time with it
    import stabcp.harness as harness
    memo_sizes = []

    def recording_oracle(dataset, *args, **kwargs):
        memo_sizes.append(len(dataset._memo))
        return oracle_cp(dataset, *args, **kwargs)

    oracle_cp = harness.oracle_cp
    monkeypatch.setattr(harness, "oracle_cp", recording_oracle)
    config = RunConfig(model="ridge", alpha=0.1)
    source = synthetic_source(GeneratorSpec("linear-gaussian", 25, 3, 1.0, 0))
    report, _ = run_benchmark(source, ["stabcp", "gridcp"], 2, seed=3, config=config)
    assert memo_sizes == [0, 0]
    assert report["methods"]["oraclecp"]["failures"] == 0


def test_benchmark_gives_each_lad_method_its_own_eigendecomposition(eigh_calls, monkeypatch):
    # on the same dataset object the oracle would take the eigendecomposition
    # that stabcp's anchor fit left in the memo, and time less than its cost
    import stabcp.harness as harness
    per_method = []

    def counted(method, *args, **kwargs):
        before = len(eigh_calls)
        report = run_method(method, *args, **kwargs)
        per_method.append((method, len(eigh_calls) - before))
        return report

    run_method = harness.run_method
    monkeypatch.setattr(harness, "run_method", counted)
    config = RunConfig(model="ladridge", lambda_reg=0.2, alpha=0.1)
    source = synthetic_source(GeneratorSpec("linear-gaussian", 40, 4, 1.0, 0))
    methods = ["stabcp", "oraclecp", "splitcp"]
    report, _ = run_benchmark(source, methods, 2, seed=3, config=config)
    assert per_method == [(method, 1) for method in methods] * 2
    assert all(report["methods"][method]["failures"] == 0 for method in methods)


def test_benchmark_records_method_failures(capsys):
    # the oracle cannot run when the source strips the true target
    config = RunConfig(model="ridge", alpha=0.1)

    def source(seed):
        ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 20, 3, 1.0, int(seed) % 2**31))
        return type(ds)(ds.features, ds.targets, ds.test_point, None, ds.meta)

    report, rows = run_benchmark(source, ["stabcp"], 2, seed=0, config=config)
    assert report["methods"]["oraclecp"]["failures"] == 2
    assert report["methods"]["stabcp"]["failures"] == 0
    # coverage cannot be assessed without the target, lengths still aggregate
    assert report["methods"]["stabcp"]["coverage"] is None


def test_benchmark_lets_a_programming_error_out(monkeypatch):
    # only the library's own errors are recorded as failures; a TypeError is
    # a bug, and the benchmark must not report it as a method's failure
    import stabcp.harness as harness

    def broken_split(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(harness, "split_cp", broken_split)
    source = synthetic_source(GeneratorSpec("linear-gaussian", 20, 3, 1.0, 0))
    with pytest.raises(TypeError, match="a bug"):
        run_benchmark(source, ["splitcp"], 2, seed=0, config=RunConfig())


# ------------------------------------------------------------------ curve

def test_curve_rows_are_sandwiched(generated, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(capsys, "curve", "--data", str(generated),
                              "--grid-size", "60",
                              "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["schema"] == "stabcp/curve/1"
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    assert len(rows) == 60
    for row in rows:
        lo, up, exact = (float(row["pi_lo"]), float(row["pi_up"]),
                         float(row["pi_exact"]))
        assert lo - 1e-12 <= exact <= up + 1e-12
        assert 0.0 <= float(row["pi_split"]) <= 1.0
    # the upper curve must cross the alpha line somewhere on this data
    assert len(summary["alpha_crossings"]["pi_up"]) >= 1


def test_curve_qualitative_sandwich_on_benchmark_config(tmp_path, capsys):
    # n=30, p=100, L1 + ridge 0.5 at the default anchor: the envelopes must
    # bracket the exact curve everywhere.
    data = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "gen", "--n", "30", "--p", "100", "--noise", "1",
                         "--seed", "3", "--out", str(data))
    assert code == 0
    out = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(capsys, "curve", "--data", str(data),
                              "--model", "ladridge", "--lambda-reg", "0.5",
                              "--grid-size", "80", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    ups = [float(r["pi_up"]) for r in rows]
    exacts = [float(r["pi_exact"]) for r in rows]
    los = [float(r["pi_lo"]) for r in rows]
    for lo, up, exact in zip(los, ups, exacts):
        assert lo - 1e-12 <= exact <= up + 1e-12
    # the exact conformity curve is a tent: negligible at the range edges,
    # clearing the alpha line over an interior stretch
    assert exacts[0] < 0.1 and exacts[-1] < 0.1
    assert max(exacts) > 0.5


def test_numerical_failure_exit_code(tmp_path, capsys):
    # collinear features with zero penalty: singular normal equations
    path = tmp_path / "collinear.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,y\n")
        for i in range(8):
            fh.write(f"{i},{2 * i},{i}\n")
    code, _, err = run_cli(capsys, "predict", "--data", str(path),
                           "--method", "gridcp", "--model", "ridge",
                           "--lambda-reg", "0", "--grid-size", "10")
    assert code == 3
    assert "numerical failure" in err


def test_constant_targets_give_a_rootcp_interval(tmp_path, capsys):
    # every target 1.5: the target range has zero width
    path = tmp_path / "constant.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,y\n")
        for a, b in np.random.default_rng(0).standard_normal((20, 2)):
            fh.write(f"{a},{b},1.5\n")
    code, out, err = run_cli(capsys, "predict", "--data", str(path), "--method", "rootcp")
    assert code == 0, err
    assert json.loads(out)["shape"] == "interval"


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "predict")  # missing --data
    assert code == 1
