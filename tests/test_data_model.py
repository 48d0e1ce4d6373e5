import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyboot as pb
from polyboot.errors import DataError
from conftest import random_dyadic_sample


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_dyad(tmp_path):
    p = write(tmp_path, "u1,u2,y\nA,B,1.0\nB,A,2.0\n")
    s = pb.load_csv(p)
    assert s.n_units == 2
    assert s.n_obs == 2
    assert s.unit_labels == ("A", "B")
    assert np.allclose(s.column("y"), [1.0, 2.0])


def test_full_triadic_index_set(tmp_path):
    rows = ["u1,u2,u3,v"]
    import itertools

    for k, tup in enumerate(itertools.permutations("ABC", 3)):
        rows.append(",".join(tup) + f",{k}.5")
    s = pb.load_csv(write(tmp_path, "\n".join(rows) + "\n"), order=3)
    assert s.order == 3
    assert s.n_units == 3
    assert s.n_obs == 6
    assert s.has_full_index_set()


def test_missing_dyad_accepted(tmp_path):
    rows = ["u1,u2,y", "A,B,1", "B,A,2", "A,C,3", "C,A,4", "B,C,5"]  # (C,B) absent
    s = pb.load_csv(write(tmp_path, "\n".join(rows) + "\n"))
    assert s.n_obs == 5
    assert not s.has_full_index_set()


def test_duplicate_tuple_rejected(tmp_path):
    p = write(tmp_path, "u1,u2,y\nA,B,1\nA,B,2\n")
    with pytest.raises(DataError, match="duplicate"):
        pb.load_csv(p)


def test_duplicate_allowed_across_cluster_levels(tmp_path):
    p = write(tmp_path, "u1,u2,cluster,y\nA,B,2001,1\nA,B,2002,2\nB,A,2001,3\nB,A,2002,4\n")
    s = pb.load_csv(p)
    assert s.n_cluster_levels == 2
    assert s.cluster_labels == ("2001", "2002")


def test_nonfinite_value_rejected(tmp_path):
    p = write(tmp_path, "u1,u2,y\nA,B,1\nB,A,nan\n")
    with pytest.raises(DataError, match="non-finite"):
        pb.load_csv(p)


def test_repeated_unit_rejected(tmp_path):
    p = write(tmp_path, "u1,u2,y\nA,A,1\n")
    with pytest.raises(DataError, match="repeated unit"):
        pb.load_csv(p)


def sample_from(index, cluster_ids=None):
    index = np.array(index)
    return pb.PolyadicSample(
        order=index.shape[1],
        unit_labels=tuple(f"u{i}" for i in range(4)),
        index=index,
        variables=np.zeros((len(index), 1)),
        variable_names=("y",),
        cluster_ids=None if cluster_ids is None else np.array(cluster_ids),
        cluster_labels=None if cluster_ids is None else ("t0", "t1"),
    )


def test_repeated_unit_message_names_first_offending_tuple():
    with pytest.raises(DataError) as exc:
        sample_from([[0, 1, 2], [3, 1, 3], [2, 2, 0]])
    assert str(exc.value) == "repeated unit within tuple (3, 1, 3)"
    with pytest.raises(DataError) as exc:
        sample_from([[0, 1], [1, 0], [2, 2], [3, 3]])
    assert str(exc.value) == "repeated unit within tuple (2, 2)"


def test_duplicate_message_and_cluster_level():
    with pytest.raises(DataError) as exc:
        sample_from([[0, 1, 2], [2, 1, 0], [0, 1, 2]])
    assert str(exc.value) == "duplicate index tuple"
    # the same tuple in two cluster levels is two observations
    s = sample_from([[0, 1], [1, 0], [0, 1]], cluster_ids=[0, 0, 1])
    assert s.n_obs == 3
    with pytest.raises(DataError) as exc:
        sample_from([[0, 1], [1, 0], [0, 1]], cluster_ids=[1, 0, 1])
    assert str(exc.value) == "duplicate index tuple"


def test_group_column(tmp_path):
    p = write(tmp_path, "u1,u2,group,y\nA,B,g1,1\nB,A,g2,2\nA,C,g1,3\nC,A,g1,4\n")
    s = pb.load_csv(p)
    assert s.group_of_unit == (0, 1, 0)
    assert s.group_labels == ("g1", "g2")


def test_group_requires_position_one_appearance(tmp_path):
    # C never appears in u1, so its group is unknown
    p = write(tmp_path, "u1,u2,group,y\nA,B,g1,1\nB,C,g2,2\nA,C,g1,3\n")
    with pytest.raises(DataError, match="'C'"):
        pb.load_csv(p)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    s = random_dyadic_sample(rng, 5)
    out = tmp_path / "round.csv"
    pb.write_csv(s, out)
    back = pb.load_csv(out)
    assert back.unit_labels == s.unit_labels
    assert np.array_equal(back.index, s.index)
    assert np.array_equal(back.variables, s.variables)
    assert back.variable_names == s.variable_names


def test_validate_clean(tmp_path):
    rng = np.random.default_rng(1)
    assert pb.validate(random_dyadic_sample(rng, 3)) == []


def test_validate_low_incidence_unit():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=np.array([[0, 1], [1, 0], [0, 2]]),
        variables=np.array([[1.0], [2.0], [3.0]]),
        variable_names=("y",),
    )
    assert any("low-incidence" in d and "'c'" in d for d in pb.validate(s))


def test_validate_constant_column(dyad_sample):
    s = pb.PolyadicSample(
        order=2,
        unit_labels=dyad_sample.unit_labels,
        index=dyad_sample.index,
        variables=np.ones((6, 1)),
        variable_names=("y",),
    )
    assert any("zero variance" in d for d in pb.validate(s))


def test_validate_empty_group_and_cluster_levels():
    s = pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=pb.full_index_set(3, 2),
        variables=np.arange(6.0)[:, None],
        variable_names=("y",),
        group_of_unit=(0, 2, 2),  # group 1 has no units
        cluster_ids=np.zeros(6, dtype=np.int64),
        cluster_labels=("t0", "t1"),  # level t1 never observed
    )
    diags = pb.validate(s)
    assert any("empty group level" in d for d in diags)
    assert any("empty cluster level" in d for d in diags)


def test_empty_sample_rejected():
    with pytest.raises(DataError, match="empty"):
        pb.PolyadicSample(
            order=2,
            unit_labels=("a", "b"),
            index=np.empty((0, 2), dtype=np.int64),
            variables=np.empty((0, 1)),
            variable_names=("y",),
        )


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(5))), st.integers(0, 2**32 - 1))
def test_relabeling_leaves_estimators_unchanged(perm, seed):
    rng = np.random.default_rng(seed)
    s = random_dyadic_sample(rng, 5)
    relabeled = s.relabeled(perm)
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
    w1 = pb.uniform_weights(s)
    w2 = pb.uniform_weights(relabeled)
    t1, _ = pb.evaluate_estimator(spec, s, w1)
    t2, _ = pb.evaluate_estimator(spec, relabeled, w2)
    assert np.allclose(t1, t2, atol=1e-12)
