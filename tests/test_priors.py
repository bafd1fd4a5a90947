import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import protodro.priors as priors_mod
from protodro.dro import gibbs_tilt_batch
from protodro.models import empirical_prior
from protodro.numkit import GaussianParams, SeededRng, gaussian_sample, log_sum_exp
from protodro.priors import (
    MixturePrior,
    PriorConfig,
    SupportSet,
    build_priors,
    compute_class_stats,
    load_priors,
    prior_weights,
    save_priors,
    shared_components,
    update_weights_damped,
)

from oracles import sinkhorn_scaling_oracle


def separated_setup(seed=0, n_classes=3, per_class=30, shots=5, spread=0.25):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])[:n_classes]
    feats, labels = [], []
    for c in range(n_classes):
        feats.append(centers[c] + spread * rng.normal(size=(per_class, 2)))
        labels += [c] * per_class
    base = np.vstack(feats)
    base_labels = np.array(labels)
    sup_feats, sup_labels = [], []
    for c in range(n_classes):
        sup_feats.append(centers[c] + spread * rng.normal(size=(shots, 2)))
        sup_labels += [c] * shots
    supports = SupportSet(np.vstack(sup_feats), np.array(sup_labels))
    stats = compute_class_stats(base, base_labels)
    protos = [base[base_labels == c] for c in range(n_classes)]
    return stats, protos, supports


class TestComputeClassStats:
    def test_hand_values(self):
        stats = compute_class_stats(np.array([[0.0], [2.0]]), np.array([0, 0]))
        assert len(stats) == 1
        np.testing.assert_allclose(stats[0].mean, [1.0])
        np.testing.assert_allclose(stats[0].cov, [[2.0]])
        assert stats[0].count == 2

    def test_single_sample_class_gets_ridge(self):
        stats = compute_class_stats(
            np.array([[1.0, 2.0], [0.0, 0.0], [2.0, 2.0]]),
            np.array([0, 1, 1]),
            ridge=1e-6,
        )
        np.testing.assert_allclose(stats[0].cov, 1e-6 * np.eye(2))

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            compute_class_stats(np.zeros((2, 1)), np.array([0, 2]))


def weights_from_plan(plan, labels):
    """prior_weights with the coupling replaced by plan (B, N): N supports
    labeled `labels`, B base classes."""
    plan = np.asarray(plan, dtype=float)
    supports = SupportSet(np.zeros((plan.shape[1], 1)), np.asarray(labels))
    protos = [np.zeros((1, 1))] * plan.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("protodro.priors.solve_entropic_ot",
                   lambda problem: SimpleNamespace(plan=plan))
        return prior_weights(protos, supports, PriorConfig())


class TestMixtureWeights:
    # prior_weights: row c is the coupling's mass over the columns of
    # class c, normalized
    def test_hand_arithmetic(self):
        plan = np.array([[0.2, 0.1, 0.1], [0.1, 0.2, 0.3]])
        w = weights_from_plan(plan, [0, 1, 0])
        np.testing.assert_allclose(w, [[3.0 / 7.0, 4.0 / 7.0], [1.0 / 3.0, 2.0 / 3.0]])

    def test_one_hot_column(self):
        plan = np.array([[0.5, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(weights_from_plan(plan, [0, 1])[1], [0.0, 1.0])

    def test_absent_class_rejected(self):
        # class 1 has no support column, or its columns receive no mass
        with pytest.raises(ValueError, match="every support class"):
            weights_from_plan(np.ones((2, 2)) / 4, [0, 2])
        with pytest.raises(ValueError, match="class 1 received no transport mass"):
            weights_from_plan(np.array([[0.5, 0.0], [0.5, 0.0]]), [0, 1])

    @given(st.integers(min_value=0, max_value=2**31))
    def test_simplex_output(self, seed):
        rng = np.random.default_rng(seed)
        plan = rng.uniform(0.01, 1.0, size=(4, 6))
        labels = rng.integers(0, 3, size=6)
        labels[:3] = [0, 1, 2]
        w = weights_from_plan(plan, labels)
        assert w.shape == (3, 4)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestBuildPriors:
    def test_weights_are_prior_weights(self):
        stats, protos, supports = separated_setup(seed=2)
        cfg = PriorConfig(atoms_per_component=4)
        built = build_priors(stats, protos, supports, cfg)
        for w, prior in zip(prior_weights(protos, supports, cfg), built):
            np.testing.assert_array_equal(prior.weights, w)

    def test_matched_separated_classes_are_diag_dominant(self):
        stats, protos, supports = separated_setup()
        cfg = PriorConfig(atom_seed=3)
        priors = build_priors(stats, protos, supports, cfg)
        for c, prior in enumerate(priors):
            assert prior.weights[c] >= 0.9

    def test_plan_agrees_with_scaling_oracle(self):
        # independent route: rebuild the class-level coupling by direct
        # kernel scaling and reduce it with the same aggregation rule
        from protodro.sinkhorn import build_cost_matrix

        stats, protos, supports = separated_setup(seed=4)
        cfg = PriorConfig()
        priors = build_priors(stats, protos, supports, cfg)
        cost = build_cost_matrix(supports.features, protos, cfg.eps_sample)
        n_base, n_sup = cost.shape
        ref_plan = sinkhorn_scaling_oracle(
            cost - cost.min(),
            np.full(n_base, 1.0 / n_base),
            np.full(n_sup, 1.0 / n_sup),
            cfg.eps_class,
        )
        ref = weights_from_plan(ref_plan, supports.labels)
        for c, prior in enumerate(priors):
            np.testing.assert_allclose(prior.weights, ref[c], atol=1e-6)

    def test_components_inflated(self):
        # atom block b is the seeded draw from base class b's Gaussian with
        # covariance inflated and ridged
        stats, protos, supports = separated_setup()
        cfg = PriorConfig(covariance_inflation=3.0, ridge=1e-8, atoms_per_component=16,
                          atom_seed=5)
        priors = build_priors(stats, protos, supports, cfg)
        a = cfg.atoms_per_component
        for b, s in enumerate(stats):
            params = GaussianParams(s.mean, 3.0 * s.cov + 1e-8 * np.eye(2))
            expected = gaussian_sample(params, a, SeededRng(5).child(b))
            np.testing.assert_array_equal(priors[0].atoms[b * a:(b + 1) * a], expected)

    def test_atoms_deterministic_and_seed_sensitive(self):
        stats, protos, supports = separated_setup()
        a = build_priors(stats, protos, supports, PriorConfig(atom_seed=7))
        b = build_priors(stats, protos, supports, PriorConfig(atom_seed=7))
        c = build_priors(stats, protos, supports, PriorConfig(atom_seed=8))
        np.testing.assert_array_equal(a[0].atoms, b[0].atoms)
        assert not np.array_equal(a[0].atoms, c[0].atoms)

    def test_atom_log_weights_normalized(self):
        # at a temperature so high that every distance term vanishes, the
        # tilt is the atoms' own log weights, log(weights[b]) - log(A) for
        # the A atoms of component b, and they sum to 1 unrenormalized
        stats, protos, supports = separated_setup()
        priors = build_priors(stats, protos, supports, PriorConfig())
        for prior in priors:
            assert prior.atoms.shape == (len(prior.weights) * 64, 2)
            log_w = np.repeat(np.log(prior.weights), 64) - np.log(64)
            assert log_sum_exp(log_w) == pytest.approx(0.0, abs=1e-12)
            tilt = gibbs_tilt_batch(prior, np.zeros((1, 2)), 1e300)[0]
            np.testing.assert_allclose(tilt, log_w, rtol=0, atol=1e-12)

    def test_components_are_the_moments_the_atoms_are_drawn_from(self, monkeypatch):
        # the shared means and covariances are the inflated, ridged class
        # moments (component_moments), and draw_atoms samples exactly those
        stats, protos, supports = separated_setup()
        cfg = PriorConfig(covariance_inflation=2.5, ridge=1e-3)
        sampled = []
        real = priors_mod.gaussian_sample

        def recording(params, n, rng):
            sampled.append(params)
            return real(params, n, rng)

        monkeypatch.setattr(priors_mod, "gaussian_sample", recording)
        priors = build_priors(stats, protos, supports, cfg)
        means, covs = shared_components(priors)
        for b, s in enumerate(stats):
            np.testing.assert_array_equal(means[b], s.mean)
            np.testing.assert_array_equal(covs[b], 2.5 * s.cov + 1e-3 * np.eye(2))
            assert sampled[b].mean.tobytes() == means[b].tobytes()
            assert sampled[b].cov.tobytes() == covs[b].tobytes()
        assert len(sampled) == len(stats)

    def test_components_must_match_the_weights(self):
        # a prior is its weights and components; atoms are optional
        with pytest.raises(ValueError, match="components must be"):
            MixturePrior(np.array([0.5, 0.5]), np.zeros((3, 2)), np.zeros((3, 2, 2)))
        with pytest.raises(ValueError, match="components must be"):
            MixturePrior(np.array([0.5, 0.5]), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="components must be"):
            MixturePrior(np.array([0.5, 0.5]), np.zeros(2), np.zeros((2, 2, 2)))
        plain = MixturePrior(np.array([0.5, 0.5]), np.zeros((2, 2)), np.zeros((2, 2, 2)))
        assert plain.atoms is None
        means, covs = shared_components([plain])
        assert means is plain.means and covs is plain.covs
        with pytest.raises(ValueError, match="carries no atoms"):
            gibbs_tilt_batch(plain, np.zeros((1, 2)), 1.0)

    def test_atom_count_must_be_a_multiple_of_components(self):
        means, covs = np.zeros((2, 2)), np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match="components"):
            MixturePrior(np.array([0.5, 0.5]), means, covs, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="components"):
            MixturePrior(np.array([0.5, 0.5]), means, covs, np.zeros((0, 2)))
        prior = MixturePrior(np.array([0.25, 0.75]), means, covs, np.zeros((6, 2)))
        tilt = gibbs_tilt_batch(prior, np.ones((1, 2)), 1.0)[0]
        np.testing.assert_allclose(tilt, np.repeat(np.log([0.25, 0.75]), 3) - np.log(3),
                                   rtol=0, atol=1e-15)

    def test_atom_width_must_match_the_components(self):
        # atoms live in the components' d dimensions: (B*A, d) and nothing else
        means, covs = np.zeros((2, 3)), np.zeros((2, 3, 3))
        for atoms in (np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(4), np.zeros((2, 2, 3))):
            with pytest.raises(ValueError, match="atoms must be"):
                MixturePrior(np.array([0.5, 0.5]), means, covs, atoms)
        prior = MixturePrior(np.array([0.5, 0.5]), means, covs, np.zeros((4, 3)))
        assert prior.atoms.shape == (4, 3)

    @given(st.integers(min_value=0, max_value=100))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 5))
        stats, protos, supports = separated_setup(seed=seed, n_classes=n_classes, per_class=12, shots=3)
        cfg = PriorConfig(atoms_per_component=2)
        priors = build_priors(stats, protos, supports, cfg)
        order = rng.permutation(n_classes)
        stats_p = [stats[k] for k in order]
        protos_p = [protos[k] for k in order]
        priors_p = build_priors(stats_p, protos_p, supports, cfg)
        for c in range(n_classes):
            np.testing.assert_allclose(
                priors_p[c].weights, priors[c].weights[order], atol=1e-9
            )

    def test_missing_support_class_rejected(self):
        stats, protos, _ = separated_setup()
        bad = SupportSet(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ValueError):
            build_priors(stats, protos, bad, PriorConfig())

    def test_negative_label_rejected(self):
        # a label of -1 would index the last class from the end in training
        # and drop out of per_class()
        with pytest.raises(ValueError, match="labels must be nonnegative"):
            SupportSet(np.zeros((3, 2)), np.array([0, -1, 1]))


class TestUpdateWeightsDamped:
    def test_full_step_returns_target(self):
        cur = np.array([0.7, 0.3])
        tgt = np.array([0.2, 0.8])
        np.testing.assert_allclose(update_weights_damped(cur, tgt, 1.0), tgt)
        near = update_weights_damped(cur, tgt, 1e-9)
        np.testing.assert_allclose(near, cur, atol=1e-8)

    def test_midpoint_and_renormalization(self):
        out = update_weights_damped([0.5, 0.5], [0.0, 1.0], 0.5)
        np.testing.assert_allclose(out, [0.25, 0.75])
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            update_weights_damped([0.5, 0.6], [0.5, 0.5], 0.5)
        with pytest.raises(ValueError):
            update_weights_damped([0.5, 0.5], [0.5, 0.5], 1.5)
        with pytest.raises(ValueError):
            update_weights_damped([0.5, 0.5], [0.5, 0.5], 0.0)

    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0, max_value=1, exclude_min=True))
    def test_stays_on_simplex(self, seed, eta):
        rng = np.random.default_rng(seed)
        cur = rng.dirichlet(np.ones(5))
        tgt = rng.dirichlet(np.ones(5))
        out = update_weights_damped(cur, tgt, eta)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        # adapted priors (Gaussian components, their atoms not written) and
        # the empirical reference (zero-covariance components at the
        # observed points) both come back as saved, bit for bit
        stats, protos, supports = separated_setup()
        adapted = build_priors(stats, protos, supports, PriorConfig(atom_seed=11))
        empirical = [empirical_prior(supports.features)] * 3
        for name, priors in (("adapted", adapted), ("empirical", empirical)):
            path = tmp_path / f"{name}.json"
            save_priors(priors, str(path))
            loaded = load_priors(str(path))
            assert len(loaded) == len(priors)
            for orig, back in zip(priors, loaded):
                for name in ("weights", "means", "covs"):
                    a, b = getattr(orig, name), getattr(back, name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
                assert back.atoms is None

    def test_format_4_file_round_trips_bit_for_bit(self, tmp_path):
        # a format-4 file holds the weights and components alone, and a
        # loaded file saves back to the same bytes
        stats, protos, supports = separated_setup()
        priors = build_priors(stats, protos, supports, PriorConfig(atom_seed=11))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_priors(priors, str(first))
        doc = json.loads(first.read_text())
        assert doc.keys() == {"format", "version", "means", "covs", "weights"}
        assert doc["version"] == 4
        save_priors(load_priors(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()

    def test_priors_with_different_components_rejected(self, tmp_path):
        # same shapes, other means: not one shared set of components, so
        # nothing is written
        stats, protos, supports = separated_setup()
        priors = build_priors(stats, protos, supports, PriorConfig(atom_seed=11))
        moved = MixturePrior(priors[1].weights, priors[1].means + 1e-9, priors[1].covs)
        with pytest.raises(ValueError, match="components"):
            save_priors([priors[0], moved, priors[2]], str(tmp_path / "mixed.json"))
        assert not (tmp_path / "mixed.json").exists()

    def test_format_3_file_rejected_with_its_version(self, tmp_path):
        # the previous format stored atoms beside the components; such a
        # file is refused by name, not read without its atoms
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": "protodro-priors", "version": 3, "atoms": [[0.0], [1.0]],
            "means": [[0.5]], "covs": [[[1.0]]], "weights": [[1.0]]}))
        with pytest.raises(ValueError, match="version 3; only version 4"):
            load_priors(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        # another format, and this format at a version other than 4: a
        # version-2 file (atoms and weights, no components) names its version
        path = tmp_path / "junk.json"
        for doc, match in (('{"format": "other"}', "not a priors file"),
                           ('{"format": "protodro-priors", "version": 1}', "version 1"),
                           ('{"format": "protodro-priors", "version": 2, "atoms": [[0.0]], '
                            '"weights": [[1.0]]}', "version 2")):
            path.write_text(doc)
            with pytest.raises(ValueError, match=match):
                load_priors(str(path))
