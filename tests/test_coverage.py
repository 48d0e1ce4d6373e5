import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import polyboot as pb
from polyboot import fixtures
from polyboot.coverage import _materialize
from polyboot.errors import DataError, ParamError
from conftest import random_dyadic_sample
import oracles


def two_unit_sample():
    return pb.PolyadicSample(
        order=2,
        unit_labels=("a", "b"),
        index=np.array([[0, 1], [1, 0]]),
        variables=np.array([[1.0], [2.0]]),
        variable_names=("y",),
    )


# -------------------------------------------------------- pigeonhole DGP


def test_identity_counts_reproduce_sample():
    s = two_unit_sample()
    out = _materialize(s, np.array([1, 1]))
    assert out.unit_labels == s.unit_labels
    assert np.array_equal(out.index, s.index)
    assert np.array_equal(out.variables, s.variables)


def test_all_mass_on_one_unit_is_degenerate():
    s = two_unit_sample()
    assert _materialize(s, np.array([2, 0])) is None


def test_counts_products_give_multiplicities():
    rng = np.random.default_rng(0)
    s = random_dyadic_sample(rng, 3, columns=("y",))
    out = _materialize(s, np.array([2, 1, 0]))
    # ordered pair (0,1) appears 2x, (1,0) 2x, pairs with unit 2 vanish
    assert out.n_obs == 4
    lookup = {(i, j): r for r, (i, j) in enumerate(s.index.tolist())}
    values = sorted(out.variables[:, 0].tolist())
    expected = sorted(
        [s.variables[lookup[(0, 1)], 0]] * 2 + [s.variables[lookup[(1, 0)], 0]] * 2
    )
    assert values == expected
    # copies of the duplicated unit share no dyad
    assert out.n_units == 3
    a0, a1 = 0, 1  # the two copies of source unit 0
    assert not any({a0, a1} == {i, j} for i, j in out.index.tolist())


def clustered_source():
    """exact_line_sample's dyads observed at two cluster levels, the second shifted."""
    base = fixtures.exact_line_sample()
    return pb.PolyadicSample(
        order=2,
        unit_labels=base.unit_labels,
        index=np.vstack([base.index] * 2),
        variables=np.vstack([base.variables, base.variables + 1.0]),
        variable_names=base.variable_names,
        cluster_ids=np.repeat([0, 1], base.n_obs),
        cluster_labels=("t0", "t1"),
    )


PIGEONHOLE_SOURCES = {
    "complete": lambda: fixtures.unit_effects_sample(n=8),
    "gravity": fixtures.gravity_sample,
    "clustered": clustered_source,
}


def materialize_by_loop(sample, counts):
    """Reference: copy the source rows one copy pair at a time."""
    copy_ids, labels = [], []
    for u, base in enumerate(sample.unit_labels):
        copy_ids.append(range(len(labels), len(labels) + counts[u]))
        labels += [base if counts[u] == 1 else f"{base}.{c}" for c in range(counts[u])]
    rows = [(r, ci, cj) for r, (i, j) in enumerate(sample.index.tolist())
            for ci in copy_ids[i] for cj in copy_ids[j]]
    if len(labels) < 2 or not rows:
        return None
    r, ci, cj = (np.array(v, dtype=np.int64) for v in zip(*rows))
    return (tuple(labels), np.column_stack([ci, cj]), sample.variables[r],
            None if sample.cluster_ids is None else sample.cluster_ids[r])


@pytest.mark.parametrize("source", ["complete", "gravity", "clustered"])
def test_materialize_matches_the_row_loop(source):
    sample = PIGEONHOLE_SOURCES[source]()
    gen = np.random.default_rng(31)
    for _ in range(40):
        counts = gen.multinomial(sample.n_units, np.full(sample.n_units, 1 / sample.n_units))
        if gen.random() < 0.2:  # mass on few units: rows vanish, some draws have none
            counts = np.zeros(sample.n_units, dtype=np.int64)
            counts[gen.choice(sample.n_units, 2, replace=False)] = gen.integers(0, 3, 2)
        out, expected = _materialize(sample, counts), materialize_by_loop(sample, counts)
        if expected is None:
            assert out is None
            continue
        labels, index, variables, clusters = expected
        assert out.unit_labels == labels
        assert np.array_equal(out.index, index) and np.array_equal(out.variables, variables)
        assert (out.cluster_ids is None) == (clusters is None)
        assert clusters is None or np.array_equal(out.cluster_ids, clusters)


def test_pigeonhole_dgp_retries_until_usable():
    s = two_unit_sample()
    out = pb.pigeonhole_dgp_resample(s, seed=1, r=0)
    assert out.n_obs >= 1


def test_pigeonhole_dgp_refuses_unit_groups():
    # a resample would keep no groups, so bayes on it would draw one flat
    # Dirichlet where the source draws one per group
    s = pb.PolyadicSample(
        2, [f"u{i}" for i in range(6)], pb.full_index_set(6, 2), np.ones((30, 1)), ("y",),
        group_of_unit=(0, 0, 0, 1, 1, 1),
    )
    with pytest.raises(pb.errors.Unsupported, match="unit groups"):
        pb.pigeonhole_dgp_resample(s, seed=1, r=0)


def test_pigeonhole_dgp_reproducible():
    rng = np.random.default_rng(1)
    s = random_dyadic_sample(rng, 5, columns=("y",))
    a = pb.pigeonhole_dgp_resample(s, seed=3, r=4)
    b = pb.pigeonhole_dgp_resample(s, seed=3, r=4)
    assert np.array_equal(a.index, b.index)
    assert np.array_equal(a.variables, b.variables)


# ----------------------------------------------------------- synthetic DGP


def dyadic_dgp(name, n_units, latents, columns, names, truth=None):
    """A DGP over the full dyadic index set: ``latents(gen, n)`` draws the unit
    latents c, and ``columns(c_i, c_j)`` the variables of each dyad."""

    def build(gen, n):
        c = latents(gen, n)
        index = pb.full_index_set(n, 2)
        return pb.unit_sample(n, index, columns(c[index[:, 0]], c[index[:, 1]]), names)

    return pb.SyntheticDGP(name, n_units, build, analytic_truth=truth)


def triad_mean_dgp(n_units, truth=None):
    """y_ijk = C_i + C_j + C_k + eps_ijk over the full triadic index set."""

    def build(gen, n):
        c = gen.standard_normal(n)
        index = pb.full_index_set(n, 3)
        y = c[index].sum(axis=1) + 0.2 * gen.standard_normal(len(index))
        return pb.unit_sample(n, index, [y], ("y",))

    return pb.SyntheticDGP("triads", n_units, build, analytic_truth=truth)


def test_constant_link_gives_constant_rows():
    dgp = dyadic_dgp("const", 4, lambda g, n: g.standard_normal(n),
                     lambda ci, cj: [np.full(len(ci), 3.0)], ("y",))
    s = pb.generate_synthetic(dgp, seed=0, r=0)
    assert np.all(s.variables == 3.0)


def test_sender_effect_only():
    dgp = dyadic_dgp("sender", 5, lambda g, n: g.standard_normal(n),
                     lambda ci, cj: [ci], ("y",))
    s = pb.generate_synthetic(dgp, seed=0, r=0)
    y = s.column("y")
    for u in range(5):
        sender_rows = s.index[:, 0] == u
        assert np.ptp(y[sender_rows]) == 0.0


def test_generate_reproducible_across_calls():
    dgp = pb.mean_unit_effects_dgp(6)
    a = pb.generate_synthetic(dgp, seed=5, r=3)
    b = pb.generate_synthetic(dgp, seed=5, r=3)
    assert np.array_equal(a.variables, b.variables)
    c = pb.generate_synthetic(dgp, seed=5, r=4)
    assert not np.array_equal(a.variables, c.variables)


def _digest(sample):
    h = hashlib.sha256()
    h.update(repr((sample.order, sample.unit_labels, sample.variable_names)).encode())
    h.update(np.ascontiguousarray(sample.index, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(sample.variables, dtype=np.float64).tobytes())
    if sample.cluster_ids is not None:
        h.update(repr(sample.cluster_labels).encode())
        h.update(np.ascontiguousarray(sample.cluster_ids, dtype=np.int64).tobytes())
    return h.hexdigest()


# sha256 of the seeded synthetic samples; a change to any of them moves every
# stored coverage figure and benchmark reference
@pytest.mark.parametrize("make, seed, digest", [
    (pb.mean_unit_effects_dgp, 1, "5db6f2f3b99dba878fe215191d297a76a60f750c6f70135524452f6710037e86"),
    (pb.mean_unit_effects_dgp, 2, "ff8fdbfe4a2bbd9ed710605019770041edcdcf7e48d9900a9b4fc2dbb6b20217"),
    (pb.ols_unit_effects_dgp, 1, "b362e582f0f4636de66a14ed0da9773786f9694b2ad9293883d4cf36f65d0416"),
    (pb.ols_unit_effects_dgp, 2, "3ce51aa2b98ff9e28ac4b6b23386e2cd66dfeb940e51762f90d7e8603ac60e83"),
], ids=["mean-1", "mean-2", "ols-1", "ols-2"])
def test_synthetic_samples_keep_their_bytes(make, seed, digest):
    assert _digest(pb.generate_synthetic(make(8), seed, 0)) == digest


@pytest.mark.parametrize("name, digest", [
    ("exact_line_sample", "4aee8ee301f4469f2353a061d66eeac11dd2030fc812b13f6c45f790fae140a6"),
    ("unit_effects_sample", "ca142b972e1b2c95b8e97184db195602d92093f0ac0192a4daf471ed58e4c6d2"),
    ("overidentified_iv_sample", "ce1b376036830a0030e51f2711d9e86e4533e80b2195b2ab343988abffcb2c53"),
    ("triadic_sample", "0f7ea3ae39a347be65b074c376091d833d4f1184e6618262b63f893f563b6ccd"),
    ("gravity_sample", "3cc68359326de85f843a6ae11fab86f0733d0a15f3d912544cfd54aaa75c20e3"),
    ("ratio_of_means_sample", "51f6b44568b2ce2a35c2627fd3aafd64772270429f1257104761f6fe4fab20f9"),
])
def test_fixture_samples_keep_their_bytes(name, digest):
    assert _digest(getattr(fixtures, name)()) == digest


# sha256 over the pigeonhole-DGP resamples r = 0..4 of a complete, a gravity
# (missing dyads) and a clustered source; a change moves every source-sample
# coverage figure
@pytest.mark.parametrize("source, seed, digest", [
    ("complete", 1, "655501b7304d1af7e8a9b09f32d7e8b7d0de9b9f392a3db7b0d0d688fba370b6"),
    ("complete", 2, "9f43c95be5a929a903d5491f211bdc77d8406f1d1215aeb0da6f14627a2f3c8d"),
    ("gravity", 1, "2e808877d87f28b504dcf716fde255231874cd90288c155a82cf28c4f0f9a52d"),
    ("gravity", 2, "1a18a5c60773b0b00d193de2cd2cb7fe917cb6bd51340788e6236a3410fab574"),
    ("clustered", 1, "dd1f9980d436ec643addc7b9a093b2261f6cd93b2baaf45256207d518b5b2a16"),
    ("clustered", 2, "e8255cda6584a23422e552b99e2d1b19d9f2f02f1c0ecc3bd9d3260e4dc41980"),
], ids=["complete-1", "complete-2", "gravity-1", "gravity-2", "clustered-1", "clustered-2"])
def test_pigeonhole_resamples_keep_their_bytes(source, seed, digest):
    sample = PIGEONHOLE_SOURCES[source]()
    digests = [_digest(pb.pigeonhole_dgp_resample(sample, seed, r)) for r in range(5)]
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == digest


def test_source_coverage_report_keeps_its_bytes():
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("bayes", "pigeonhole", "graham", "naive"),
        n_replications=3,
        n_bootstrap=40,
        seed=5,
        source_sample=fixtures.unit_effects_sample(n=8),
    )
    text = json.dumps(pb.run_coverage(cfg).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8cfdcaafda865c8ab4adc545d63276f1b92da49a5aa2611136b590bb284f29f5"
    )


def test_unit_effects_mean_sampling_sd_matches_closed_form():
    n, sigma_c, sigma_eps = 10, 1.0, 0.3
    dgp = pb.mean_unit_effects_dgp(n, sigma_c, sigma_eps)
    means = [
        float(pb.generate_synthetic(dgp, seed=6, r=r).variables.mean()) for r in range(2000)
    ]
    sd = np.std(means, ddof=1)
    target = np.sqrt(oracles.exchangeable_mean_variance(n, sigma_c, sigma_eps))
    assert abs(sd - target) / target < 0.05


# ------------------------------------------------------------- run_coverage


def test_exact_fit_coverage_is_one():
    dgp = dyadic_dgp("line", 5, lambda g, n: g.uniform(0.5, 1.5, n),
                     lambda ci, cj: [2.0 * (ci + cj), ci + cj], ("y", "x"), truth=(2.0,))
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="ols", y="y", x=("x",)),
        methods=("bayes",),
        n_replications=5,
        n_bootstrap=50,
        seed=7,
        dgp=dgp,
    )
    report = pb.run_coverage(cfg)
    assert oracles.method(report, "bayes").coverage == 1.0


def test_triadic_builder_runs_through_the_lab():
    # a unit's effect is shared by every triad that contains it, as
    # triadic_sample builds them
    dgp = triad_mean_dgp(6, truth=(0.0,))
    assert pb.generate_synthetic(dgp, seed=14, r=0).index.shape == (120, 3)
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("bayes", "naive", "graham"),
        n_replications=3,
        n_bootstrap=40,
        seed=14,
        dgp=dgp,
    )
    report = pb.run_coverage(cfg)
    for m in ("bayes", "naive"):
        tally = oracles.method(report, m)
        assert (tally.n_evaluated, tally.n_failures) == (3, 0)
    graham = oracles.method(report, "graham")
    assert graham.n_evaluated == 0
    assert graham.skipped_reason == "dyadic-robust variance requires dyadic data (P = 2)"


def test_single_replication_coverage_in_unit_set():
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("bayes", "naive"),
        n_replications=1,
        n_bootstrap=80,
        seed=8,
        dgp=pb.mean_unit_effects_dgp(8),
    )
    report = pb.run_coverage(cfg)
    for m in report.methods:
        assert m.coverage in (0.0, 1.0)


def test_reproducible_report():
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("bayes", "pigeonhole", "naive"),
        n_replications=4,
        n_bootstrap=60,
        seed=9,
        dgp=pb.mean_unit_effects_dgp(8),
    )
    a = pb.run_coverage(cfg)
    b = pb.run_coverage(cfg)
    assert a.to_dict() == b.to_dict()


def test_graham_skipped_on_missing_dyads():
    # pigeonhole resamples nearly always duplicate a unit, leaving within-copy
    # dyads unobserved, so the dyadic-robust variance is inapplicable
    rng = np.random.default_rng(2)
    source = random_dyadic_sample(rng, 6, columns=("y",))
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("graham", "naive"),
        n_replications=6,
        seed=10,
        source_sample=source,
    )
    report = pb.run_coverage(cfg)
    graham = oracles.method(report, "graham")
    assert graham.skipped_reason is not None
    assert oracles.method(report, "naive").n_evaluated == 6


def test_pigeonhole_truth_is_source_estimate():
    rng = np.random.default_rng(3)
    source = random_dyadic_sample(rng, 6, columns=("y",))
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("naive",),
        n_replications=2,
        seed=11,
        source_sample=source,
    )
    report = pb.run_coverage(cfg)
    assert report.truth == pytest.approx(float(source.variables.mean()))


def test_dgp_without_analytic_truth_needs_a_configured_truth():
    # no plug-in estimate: at 1001 units an order-3 sample would be ~1e9 rows
    with pytest.raises(ParamError, match="'triads' has no analytic truth"):
        pb.CoverageConfig(
            estimator=pb.EstimatorSpec(kind="mean", column="y"),
            methods=("naive",),
            n_replications=1,
            seed=12,
            dgp=triad_mean_dgp(6),
        )


def test_configured_truth_is_the_reported_truth():
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("naive",),
        n_replications=2,
        seed=12,
        dgp=triad_mean_dgp(6),
        truth=(0.25,),
    )
    report = pb.run_coverage(cfg)
    assert report.truth == 0.25
    assert oracles.method(report, "naive").n_evaluated == 2


def test_overidentified_moment_skips_the_sandwiches():
    # K = 1, L = 3: both sandwiches need a just-identified moment, which is a
    # property of the estimator, not a per-replication failure
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="gmm", builtin_moment="linear-iv", y="y", x=("r",),
                                   instruments=("z1", "z2", "z3")),
        methods=("graham", "naive"),
        n_replications=3,
        seed=15,
        dgp=pb.SyntheticDGP(
            "iv", 8,
            lambda gen, n: fixtures.overidentified_iv_sample(seed=int(gen.integers(2**31)), n=n),
            analytic_truth=(1.5,),
        ),
    )
    report = pb.run_coverage(cfg)
    for m in ("graham", "naive"):
        tally = oracles.method(report, m)
        assert tally.skipped_reason.endswith("requires a just-identified moment")
        assert (tally.n_evaluated, tally.n_failures) == (0, 0)


@pytest.mark.parametrize(
    "methods, text",
    [(("naive", "naive"), "method 'naive' is listed twice"), ((), "need at least one method")],
    ids=["duplicate", "empty"],
)
def test_duplicate_or_empty_methods_are_refused(methods, text):
    # a method listed twice would run twice per replication into one tally
    with pytest.raises(ParamError, match=text):
        pb.CoverageConfig(
            estimator=pb.EstimatorSpec(kind="mean", column="y"),
            methods=methods,
            n_replications=3,
            dgp=pb.mean_unit_effects_dgp(6),
        )


def test_a_failed_replication_is_counted_and_excluded():
    # with two units a pigeonhole draw that picks one unit twice weights no
    # dyad; such draws fail every replication's bootstrap, bayes draws none
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="y"),
        methods=("pigeonhole", "bayes"),
        n_replications=4,
        n_bootstrap=50,
        seed=17,
        dgp=pb.mean_unit_effects_dgp(2),
    )
    report = pb.run_coverage(cfg)
    pig, bayes = oracles.method(report, "pigeonhole"), oracles.method(report, "bayes")
    assert (pig.n_failures, pig.n_evaluated, pig.skipped_reason) == (4, 0, None)
    assert (bayes.n_failures, bayes.n_evaluated) == (0, 4)


def test_misconfigured_estimator_propagates():
    cfg = pb.CoverageConfig(
        estimator=pb.EstimatorSpec(kind="mean", column="nope"),
        methods=("naive",),
        n_replications=2,
        seed=16,
        dgp=pb.mean_unit_effects_dgp(6),
    )
    with pytest.raises(DataError, match="unknown variable column 'nope'"):
        pb.run_coverage(cfg)


def test_truth_recovery_over_replications():
    # averaging pigeonhole-DGP point estimates approaches the source estimate
    rng = np.random.default_rng(4)
    source = random_dyadic_sample(rng, 10, columns=("y",))
    spec = pb.EstimatorSpec(kind="mean", column="y")
    estimates = []
    for r in range(2000):
        data = pb.pigeonhole_dgp_resample(source, seed=13, r=r)
        theta, _ = pb.evaluate_estimator(spec, data, pb.uniform_weights(data))
        estimates.append(theta[0])
    truth = float(source.variables.mean())
    se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
    assert abs(np.mean(estimates) - truth) < 3 * se


def test_fixture_regeneration_is_exact(tmp_path):
    from polyboot.fixtures import FIXTURE_NAMES, make_fixture

    for name in FIXTURE_NAMES:
        p1 = make_fixture(name, seed=3, out_dir=tmp_path / "a")
        p2 = make_fixture(name, seed=3, out_dir=tmp_path / "b")
        assert Path(p1).read_text() == Path(p2).read_text()
