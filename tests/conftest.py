import csv
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import polyboot as pb
from polyboot import data_model

# tests that start ``python -m polyboot.cli`` must import the package under
# test, also from a checkout where it is not installed
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(pb.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)


def assert_same_columns(got, expected):
    """Two CSV readings, (unit labels, index, variables, groups, cluster ids,
    cluster labels), are equal in value and dtype."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


@pytest.fixture(autouse=True)
def csv_column_reader_matches_row_loop(monkeypatch):
    """Every CSV a test loads in process is read row by row as well: the
    column reader must give what the row loop gives."""
    read_columns = data_model._read_columns

    def checked(path, n_rows, header, unit_cols, variable_columns):
        columns = read_columns(path, n_rows, header, unit_cols, variable_columns)
        if columns is not None:
            with open(path, newline="", encoding="utf-8") as fh:
                expected = data_model._read_rows(
                    csv.DictReader(fh), header, unit_cols, variable_columns
                )
            assert_same_columns(columns, expected)
        return columns

    monkeypatch.setattr(data_model, "_read_columns", checked)


@pytest.fixture
def dyad_sample():
    """Full dyadic sample, n = 3, y values 0..5 in index order."""
    return pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=pb.full_index_set(3, 2),
        variables=np.arange(6, dtype=float)[:, None],
        variable_names=("y",),
    )


@pytest.fixture
def exact_line():
    from polyboot.fixtures import exact_line_sample

    return exact_line_sample()


@pytest.fixture
def iv_sample():
    from polyboot.fixtures import overidentified_iv_sample

    return overidentified_iv_sample()


def weighted_mean(sample, weights, column):
    """The weighted mean of ``column``, through ``evaluate_estimator``."""
    spec = pb.EstimatorSpec(kind="mean", column=column)
    return float(pb.evaluate_estimator(spec, sample, weights)[0][0])


def weighted_ols(sample, weights, y, x_columns, intercept=False):
    """Weighted OLS coefficients, through ``evaluate_estimator``."""
    spec = pb.EstimatorSpec(kind="ols", y=y, x=x_columns, intercept=intercept)
    return pb.evaluate_estimator(spec, sample, weights)[0]


def weighted_ppml(sample, weights, y, x_columns, intercept=False):
    """Weighted PPML coefficients and Newton iterations, through
    ``evaluate_estimator``."""
    spec = pb.EstimatorSpec(kind="ppml", y=y, x=x_columns, intercept=intercept)
    theta, info = pb.evaluate_estimator(spec, sample, weights)
    return theta, info["iterations"]


def random_dyadic_sample(rng, n, columns=("y", "x")):
    index = pb.full_index_set(n, 2)
    variables = rng.standard_normal((index.shape[0], len(columns)))
    return pb.PolyadicSample(
        order=2,
        unit_labels=tuple(f"u{i}" for i in range(n)),
        index=index,
        variables=variables,
        variable_names=tuple(columns),
    )
