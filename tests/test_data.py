import numpy as np
import pytest

import stabcp
from stabcp import (
    DataError,
    GeneratorSpec,
    InvalidInputError,
    RidgeModel,
    ScoreFunction,
    TabularDataset,
    gen_friedman1,
    gen_linear_gaussian,
    load_csv,
    read_csv_columns,
    save_csv,
    split_cp,
    stab_cp_interval,
)
from stabcp.data import dataset_from_rows
from stabcp.harness import RunConfig

ABS = ScoreFunction.absolute_residual()


# -------------------------------------------------------------- generators

def test_linear_gaussian_deterministic():
    spec = GeneratorSpec("linear-gaussian", 25, 4, 1.0, seed=99)
    a = gen_linear_gaussian(spec)
    b = gen_linear_gaussian(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.test_point, b.test_point)
    assert a.test_target == b.test_target


def test_linear_gaussian_noiseless_single_feature_is_linear():
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 20, 1, 0.0, seed=3))
    coef = ds.meta["coef"]
    assert np.allclose(ds.targets, ds.features @ coef)
    assert ds.test_target == pytest.approx(float(ds.test_point @ coef))


def test_linear_gaussian_signal_correlates_with_targets():
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 300, 10, 1.0, seed=8))
    signal = ds.features @ ds.meta["coef"]
    corr = np.corrcoef(signal, ds.targets)[0, 1]
    # needs to clear a 3/sqrt(n) null band by a wide margin
    assert corr > 0.5


def test_friedman_deterministic_and_depends_on_first_five():
    spec = GeneratorSpec("friedman1", 50, 8, 0.0, seed=5)
    ds = gen_friedman1(spec)
    again = gen_friedman1(spec)
    assert np.array_equal(ds.targets, again.targets)
    X = ds.features
    formula = (10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20 * (X[:, 2] - 0.5) ** 2
               + 10 * X[:, 3] + 5 * X[:, 4])
    assert np.allclose(ds.targets, formula)


def test_friedman_response_range_consistent_with_formula():
    ds = gen_friedman1(GeneratorSpec("friedman1", 10_000, 5, 0.0, seed=1))
    # term-by-term extremes: [-10, 10] + [0, 5] + [0, 10] + [0, 5]
    assert ds.targets.min() >= -10.0
    assert ds.targets.max() <= 30.0
    assert ds.targets.max() - ds.targets.min() > 15.0  # actually spreads out


def test_friedman_rejects_too_few_features():
    with pytest.raises(InvalidInputError):
        gen_friedman1(GeneratorSpec("friedman1", 20, 4, 1.0, seed=0))


def test_generator_spec_validation():
    with pytest.raises(InvalidInputError):
        GeneratorSpec("nonsense", 10, 3)
    with pytest.raises(InvalidInputError):
        GeneratorSpec("linear-gaussian", 1, 3)
    with pytest.raises(InvalidInputError):
        GeneratorSpec("linear-gaussian", 10, 3, noise_sd=-1.0)
    # numpy's generators take no negative seed; refused here, not inside numpy
    with pytest.raises(InvalidInputError, match="seed"):
        GeneratorSpec("linear-gaussian", 10, 3, seed=-1)


@pytest.mark.parametrize("noise_sd", ["1.0", None], ids=["text", "none"])
def test_generator_spec_refuses_a_non_numeric_noise_level(noise_sd):
    # refused as bad input, not left to escape as a TypeError from math.isfinite
    with pytest.raises(InvalidInputError, match="noise_sd"):
        GeneratorSpec("linear-gaussian", 10, 3, noise_sd)


@pytest.mark.parametrize("n, p, seed", [(2.7, 3, 0), (10, 3.9, 0), (10, 3, 0.5),
                                        (float("nan"), 3, 0), ("10", 3, 0)],
                         ids=["n-2.7", "p-3.9", "seed-0.5", "n-nan", "n-text"])
def test_generator_spec_refuses_non_integral_sizes(n, p, seed):
    # a size or seed that int() would change is refused, not truncated
    with pytest.raises(InvalidInputError, match="must be an integer"):
        GeneratorSpec("linear-gaussian", n, p, 1.0, seed)


def test_generator_spec_takes_integral_values_of_any_type():
    spec = GeneratorSpec("linear-gaussian", 10.0, np.int64(3), 1.0, np.float64(4.0))
    assert (spec.n, spec.p, spec.seed) == (10, 3, 4)
    assert all(type(v) is int for v in (spec.n, spec.p, spec.seed))


# --------------------------------------------------------------------- csv

def test_read_csv_columns_by_name(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    X, y, names = read_csv_columns(path, target_column="b")
    assert X.tolist() == [[1.0], [3.0]]
    assert y.tolist() == [2.0, 4.0]
    assert names == ["a"]


def test_read_csv_skips_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with U+FEFF
    path = tmp_path / "toy.csv"
    path.write_text("\ufeffa,b\n1,2\n3,4\n", encoding="utf-8")
    X, y, names = read_csv_columns(path, target_column="a")
    assert y.tolist() == [1.0, 3.0]
    assert names == ["b"]


def test_read_csv_reports_bytes_that_are_not_utf8_as_a_data_error(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_bytes(b"a,b\n1,2\n3,4\n\xff\xfe")
    with pytest.raises(DataError, match="toy.csv: not UTF-8"):
        read_csv_columns(path)


def test_read_csv_missing_header_rejected(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1,2\n3,4\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_csv_columns(path)


def test_read_csv_reports_bad_cell_location(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b\n1,2\n3,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 3"):
        read_csv_columns(path)
    path.write_text("a,b\n1,2\n3,inf\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 3"):
        read_csv_columns(path)


def test_csv_round_trip_identity(tmp_path):
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 12, 3, 1.0, seed=2))
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.targets, ds.targets)
    assert np.array_equal(loaded.test_point, ds.test_point)
    assert loaded.test_target == ds.test_target


def test_load_csv_holds_out_requested_row(tmp_path):
    # load_csv holds out the last row; another row goes through dataset_from_rows
    path = tmp_path / "toy.csv"
    path.write_text("a,y\n1,2\n3,4\n5,6\n7,8\n", encoding="utf-8")
    X, y, _ = read_csv_columns(path)
    ds = dataset_from_rows(X, y, 1)
    assert ds.test_point.tolist() == [3.0]
    assert ds.test_target == 4.0
    assert ds.targets.tolist() == [2.0, 6.0, 8.0]


def test_dataset_from_rows_refuses_mismatched_row_counts():
    with pytest.raises(InvalidInputError, match="5 rows but y has 4"):
        dataset_from_rows(np.ones((5, 2)), np.ones(4), 0)


# ---------------------------------------------------------- target scaling

def test_target_scaling_pipeline_matches_direct_intervals():
    # Dividing the targets by their standard deviation: the ridge objective's
    # 1/m scaling makes the same penalty optimal in both pipelines, so the
    # interval in scaled units maps back exactly.
    ds = gen_linear_gaussian(GeneratorSpec("linear-gaussian", 40, 4, 1.0, seed=31))
    lam, alpha = 0.5, 0.1
    spec = RidgeModel(lam)

    direct = stab_cp_interval(ds, spec, ABS, alpha)

    scale = float(ds.targets.std())
    scaled = TabularDataset(ds.features, ds.targets / scale, ds.test_point,
                            ds.test_target / scale)
    scaled_report = stab_cp_interval(scaled, spec, ABS, alpha)

    mapped = [scale * end for end in scaled_report.set.intervals[0]]
    (dlo, dhi), = direct.set.intervals
    assert mapped[0] == pytest.approx(dlo, abs=1e-10)
    assert mapped[1] == pytest.approx(dhi, abs=1e-10)


# -------------------------------------------------------------------- split
# Rows are split by index: RunConfig.split_index picks m, and split_cp fits
# rows 1..m and calibrates on the other n - m.

def test_split_even_sizes(small_dataset):
    m = RunConfig(split_fraction=0.5).split_index(small_dataset.n)
    report = split_cp(small_dataset, m, RidgeModel(0.5), ABS, 0.1)
    assert m == 5 and report.details["calibration_size"] == 5


def test_split_parts_partition_rows(small_dataset):
    m = RunConfig(split_fraction=0.3).split_index(small_dataset.n)
    X, y = small_dataset.features, small_dataset.targets
    report = split_cp(small_dataset, m, RidgeModel(0.5), ABS, 0.25)
    assert m + report.details["calibration_size"] == small_dataset.n
    # by hand: fit on the first m rows, rank the query among the other n - m;
    # (1 - 0.25) * (7 + 1) = 6 calibration scores lie within the half-width
    trained = RidgeModel(0.5).fit_rows(X[:m], y[:m])
    half = np.sort(np.abs(y[m:] - X[m:] @ trained.coefficients))[5]
    mu = small_dataset.test_point @ trained.coefficients
    (lo, hi), = report.set.intervals
    assert lo == pytest.approx(mu - half, abs=1e-12)
    assert hi == pytest.approx(mu + half, abs=1e-12)


def test_split_deterministic(small_dataset):
    a = split_cp(small_dataset, 5, RidgeModel(0.5), ABS, 0.1)
    b = split_cp(small_dataset, 5, RidgeModel(0.5), ABS, 0.1)
    assert a.set.intervals == b.set.intervals


def test_split_rejects_degenerate(small_dataset):
    # the configured fraction is clamped so both parts keep a row ...
    assert RunConfig(split_fraction=0.01).split_index(small_dataset.n) == 1
    assert RunConfig(split_fraction=0.999).split_index(small_dataset.n) == small_dataset.n - 1
    # ... and an explicit index that empties a part is refused
    for m in (0, small_dataset.n):
        with pytest.raises(InvalidInputError):
            split_cp(small_dataset, m, RidgeModel(0.5), ABS, 0.1)
