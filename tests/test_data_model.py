import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyboot as pb
from polyboot import data_model
from polyboot.errors import DataError
from conftest import random_dyadic_sample
import oracles


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


@pytest.mark.parametrize("n, order", [(2, 2), (5, 3), (12, 4), (40, 2)])
def test_full_index_set_is_the_permutations_in_order(n, order):
    import itertools

    got = pb.full_index_set(n, order)
    expected = np.array(list(itertools.permutations(range(n), order)), dtype=np.int64)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, expected)


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



def grouped_clustered_sample(variables, group_labels=("g0", "g1")):
    index = np.array([[0, 1], [1, 2], [2, 0], [0, 1]])
    return pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b", "c"),
        index=index,
        variables=np.asarray(variables, dtype=float),
        variable_names=("y", "x"),
        group_of_unit=(0, 1, 0),
        group_labels=group_labels,
        cluster_ids=np.array([0, 1, 0, 1]),
        cluster_labels=("2001", "2002"),
    )


@pytest.mark.parametrize("chunk", [3, data_model._WRITE_ROWS])
@pytest.mark.parametrize("group_labels, names", [(("g0", "g1"), ("g0", "g1")), (None, ("0", "1"))])
def test_write_csv_text(monkeypatch, tmp_path, group_labels, names, chunk):
    monkeypatch.setattr(data_model, "_WRITE_ROWS", chunk)  # 3: the rows go in two chunks
    values = [[0.1, -0.0], [1e-300, 1 / 3], [2.0, -5.5], [1e22, 7.0]]
    out = tmp_path / "exact.csv"
    pb.write_csv(grouped_clustered_sample(values, group_labels), out)
    g0, g1 = names
    assert out.read_bytes().decode() == (
        "u1,u2,group,cluster,y,x\r\n"
        f"a,b,{g0},2001,0.1,-0.0\r\n"
        f"b,c,{g1},2002,1e-300,0.3333333333333333\r\n"
        f"c,a,{g0},2001,2.0,-5.5\r\n"
        f"a,b,{g0},2002,1e+22,7.0\r\n"
    )


def test_round_trip_with_groups_and_clusters(tmp_path):
    s = grouped_clustered_sample(np.random.default_rng(2).standard_normal((4, 2)))
    out = tmp_path / "round.csv"
    pb.write_csv(s, out)
    back = pb.load_csv(out)
    for name in ("unit_labels", "variable_names", "group_of_unit", "group_labels",
                 "cluster_labels"):
        assert getattr(back, name) == getattr(s, name)
    for name in ("index", "variables", "cluster_ids"):
        assert np.array_equal(getattr(back, name), getattr(s, name))
    for seed in range(3):  # the groups and levels, and so the draws, survive the trip
        assert np.array_equal(pb.weights_for_draw(back, "bayes", seed=seed, b=0),
                              pb.weights_for_draw(s, "bayes", seed=seed, b=0))


def test_cluster_ids_may_be_a_list():
    s = grouped_clustered_sample(np.zeros((4, 2)))
    listed = dataclasses.replace(s, cluster_ids=s.cluster_ids.tolist())
    assert listed.cluster_ids.dtype == np.int64 and not listed.cluster_ids.flags.writeable
    assert np.array_equal(listed.cluster_ids, s.cluster_ids)
    with pytest.raises(DataError, match="one level per observation"):
        dataclasses.replace(s, cluster_ids=[0, 1])


@pytest.mark.parametrize("labels", [("g0",), ("g0", "g1", "g2")])
def test_group_labels_name_every_group_once(labels):
    s = grouped_clustered_sample(np.zeros((4, 2)))
    with pytest.raises(DataError, match="one label per group"):
        dataclasses.replace(s, group_labels=labels)
    with pytest.raises(DataError, match="one label per group"):
        dataclasses.replace(s, group_of_unit=None)


@pytest.mark.parametrize("field", ["group_labels", "cluster_labels"])
def test_duplicate_labels_rejected(field):
    # write_csv -> load_csv would merge the two groups or levels
    s = grouped_clustered_sample(np.zeros((4, 2)))
    with pytest.raises(DataError, match="labels must be distinct"):
        dataclasses.replace(s, **{field: ("t", "t")})


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
    fields = dict(
        order=2,
        unit_labels=("a", "b", "c"),
        index=pb.full_index_set(3, 2),
        variables=np.arange(6.0)[:, None],
        variable_names=("y",),
    )
    s = pb.PolyadicSample(
        **fields,
        cluster_ids=np.zeros(6, dtype=np.int64),
        cluster_labels=("t0", "t1"),  # level t1 never observed
    )
    assert any("empty cluster level" in d for d in pb.validate(s))
    # an empty group level is refused at construction: group ids are dense
    for groups in ((0, 2, 2), (-1, 0, 0)):  # group 1 has no units; -1 is no group id
        with pytest.raises(DataError, match="group ids must be dense"):
            pb.PolyadicSample(**fields, group_of_unit=groups)


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
    relabeled = oracles.relabeled(s, perm)
    spec = pb.EstimatorSpec(kind="ols", y="y", x=("x",), intercept=True)
    w1 = pb.uniform_weights(s)
    w2 = pb.uniform_weights(relabeled)
    t1, _ = pb.evaluate_estimator(spec, s, w1)
    t2, _ = pb.evaluate_estimator(spec, relabeled, w2)
    assert np.allclose(t1, t2, atol=1e-12)


@pytest.mark.parametrize(
    "end, quote", [("\n", ""), ("\r\n", ""), ("\n", '"')], ids=["\n", "\r\n", "quoted"]
)
def test_column_reader_reads_plain_files(tmp_path, end, quote):
    # line ends, quoting, label stripping, first-appearance ids, group and
    # cluster labels: the same sample from each spelling of one file
    lines = [
        "u1,u2,group,cluster,y,x",
        " B , A ,g2,2001, 1.5,0",
        "A,C, g1 ,2001,-2e3 ,1",
        "C,B,g1,,3,2",
        "A,B,,2002,4,3",
    ]
    text = end.join(",".join(f"{quote}{f}{quote}" for f in line.split(",")) for line in lines)
    p = tmp_path / "plain.csv"
    p.write_bytes((text + end).encode())
    s = pb.load_csv(p)
    assert s.unit_labels == ("B", "A", "C")
    assert s.index.tolist() == [[0, 1], [1, 2], [2, 0], [1, 0]]
    assert s.variables.tolist() == [[1.5, 0.0], [-2000.0, 1.0], [3.0, 2.0], [4.0, 3.0]]
    assert s.group_labels == ("g1", "g2") and s.group_of_unit == (1, 0, 0)
    assert s.cluster_labels == ("2001", "", "2002")
    assert s.cluster_ids.tolist() == [0, 0, 1, 2]


def test_quoted_label_keeps_its_comma(tmp_path):
    p = tmp_path / "quoted.csv"
    p.write_text('u1,u2,y\n"a,b",c,1\nc,"a,b",2\n')
    s = pb.load_csv(p)
    assert s.unit_labels == ("a,b", "c") and s.index.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("where", ["header", "past 8 KiB"])
def test_not_utf8_names_the_byte_from_the_start_of_the_file(tmp_path, where):
    # the reader decodes in chunks; the message counts from the file's start
    rows = "".join(f"é{i},b{i},{i}\n" for i in range(1000)).encode()  # 2-byte labels
    if where == "header":
        data = b"u1,u2,y\xff\n" + rows
    else:
        data = b"u1,u2,y\n" + rows + b"a,\xfe,1\n"
        assert data.index(b"\xfe") > 8192
    p = tmp_path / "bad.csv"
    p.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    with pytest.raises(DataError) as raised:
        pb.load_csv(p)
    assert str(raised.value) == f"the file is not UTF-8 text: {whole.value}"
