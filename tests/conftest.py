import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import polyboot as pb

# tests that start ``python -m polyboot.cli`` must import the package under
# test, also from a checkout where it is not installed
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(pb.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(autouse=True)
def private_sample_cache(monkeypatch, tmp_path):
    """The CLI's parsed-sample cache lives under the test's own directory,
    also for the CLI processes a test starts, never in the user's cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


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


def row_of(block):
    """A block kernel's ``(theta, errors, infos)`` as ``row(r) -> (theta,
    info)``, which raises a failed row's error."""
    theta, errors, infos = block

    def row(r):
        if r in errors:
            raise errors[r]
        return theta[r], infos.get(r, {})

    return row


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
