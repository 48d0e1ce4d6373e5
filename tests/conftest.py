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
