import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

import mtsk.tck as tck_mod
from mtsk.cohort import Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness, generate_synthetic_cohort
from mtsk.tck import (
    DiagGMMParams,
    MemberPrior,
    TCKMember,
    TCKModel,
    _posteriors,
    default_max_components,
    fit_diaggmm,
    load_tck_model,
    save_tck_model,
    tck_test,
    tck_train,
)


def single_component_map_oracle(X, R, prior):
    """Closed-form MAP estimate for G = 1, written with explicit loops.

    Independent of the EM code path: smoothing, means and variances are
    recomputed from their definitions.
    """
    N, V, T = X.shape
    lam, width, a0 = prior.strength, prior.smoothing_width, prior.a0

    raw = np.zeros((V, T))
    attr_mean = np.zeros(V)
    attr_var = np.zeros(V)
    for v in range(V):
        obs = [X[n, v, t] for n in range(N) for t in range(T) if R[n, v, t] > 0]
        attr_mean[v] = sum(obs) / len(obs)
        attr_var[v] = max(sum((o - attr_mean[v]) ** 2 for o in obs) / len(obs), 1e-8)
        for t in range(T):
            col = [X[n, v, t] for n in range(N) if R[n, v, t] > 0]
            raw[v, t] = sum(col) / len(col) if col else attr_mean[v]

    smooth = np.zeros((V, T))
    for v in range(V):
        for t in range(T):
            num = den = 0.0
            for u in range(T):
                w = math.exp(-((t - u) ** 2) / (2.0 * width * width))
                num += w * raw[v, u]
                den += w
            smooth[v, t] = num / den

    mu = np.zeros((V, T))
    for v in range(V):
        for t in range(T):
            wsum = sum(R[n, v, t] for n in range(N))
            xsum = sum(R[n, v, t] * X[n, v, t] for n in range(N))
            mu[v, t] = (xsum + lam * smooth[v, t]) / (wsum + lam)

    sigma2 = np.zeros(V)
    for v in range(V):
        ss = sum(
            R[n, v, t] * (X[n, v, t] - mu[v, t]) ** 2 for n in range(N) for t in range(T)
        )
        pen = lam * sum((mu[v, t] - smooth[v, t]) ** 2 for t in range(T))
        b0 = prior.b0_scale * attr_var[v]
        wsum = sum(R[n, v, t] for n in range(N) for t in range(T))
        sigma2[v] = max((ss + pen + 2.0 * b0) / (wsum + 2.0 * a0), 1e-4 * attr_var[v])
    return mu, sigma2


def _random_masked_data(rng, n=20, v=3, t=8, missing=0.3):
    X = rng.normal(size=(n, v, t))
    R = (rng.random((n, v, t)) >= missing).astype(float)
    return X, R


def _assert_trace_monotone(result, tol=1e-10):
    for i in range(1, len(result.objective_trace)):
        if i in result.reseed_points:
            continue
        prev, cur = result.objective_trace[i - 1], result.objective_trace[i]
        assert cur >= prev - tol * (1.0 + abs(prev)), (
            f"objective decreased at step {i}: {prev} -> {cur}"
        )


def diaggmm_posterior(params, values, mask):
    """Posterior component probabilities of one (possibly incomplete) sample."""
    return _posteriors(params, np.asarray(values, float)[None], np.asarray(mask, float)[None])[0][0]


class TestPosterior:
    def test_single_component(self):
        params = DiagGMMParams([1.0], np.zeros((1, 2, 3)), np.ones((1, 2)))
        post = diaggmm_posterior(params, np.ones((2, 3)), np.ones((2, 3)))
        assert post.tolist() == [1.0]

    def test_fully_missing_returns_weights(self):
        params = DiagGMMParams(
            [0.3, 0.7], np.stack([np.zeros((2, 3)), np.ones((2, 3))]), np.ones((2, 2))
        )
        post = diaggmm_posterior(params, np.ones((2, 3)), np.zeros((2, 3)))
        assert post == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_identical_components_cancel_likelihood(self):
        means = np.tile(np.linspace(0, 1, 12).reshape(1, 3, 4), (2, 1, 1))
        params = DiagGMMParams([0.3, 0.7], means, np.full((2, 3), 2.0))
        rng = np.random.default_rng(0)
        post = diaggmm_posterior(params, rng.normal(size=(3, 4)), np.ones((3, 4)))
        assert post == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_evidence_matches_scipy_logsumexp(self):
        # Oracle: scipy's log-sum-exp of the same weighted log-likelihoods.
        # Component 0 has weight 0, the samples sit far from the components
        # (log-likelihoods from -164 to -1332, past where exp underflows), and
        # the last sample underflows every component.
        rng = np.random.default_rng(12)
        means = rng.normal(scale=3.0, size=(4, 3, 5))
        params = DiagGMMParams([0.0, 0.2, 0.3, 0.5], means, rng.uniform(0.01, 2.0, (4, 3)))
        X = rng.normal(scale=10.0, size=(9, 3, 5))
        X[-1] = 1e300
        R = (rng.random(X.shape) < 0.7).astype(float)
        R[-1] = 1.0
        post, evidence = _posteriors(params, X, R)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logw = np.log(params.weights)[None, :] + tck_mod._log_likelihoods(params, X, R)
        assert not np.isfinite(logw[-1]).any() and np.isinf(logw[:-1, 0]).all()
        logw[-1] = 0.0
        want = logsumexp(logw, axis=1)
        assert logw[:-1].max() < -100.0
        np.testing.assert_allclose(evidence, want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(post, np.exp(logw - want[:, None]), rtol=1e-12, atol=0)
        assert post[-1].tolist() == [0.25] * 4


class TestFit:
    def test_single_component_matches_map_oracle(self):
        rng = np.random.default_rng(1)
        X, R = _random_masked_data(rng)
        prior = MemberPrior(strength=2.0, smoothing_width=2, a0=0.5, b0_scale=0.05)
        result = fit_diaggmm(X, R, 1, prior, seed=3)
        mu, sigma2 = single_component_map_oracle(X, R, prior)
        assert result.params.means[0] == pytest.approx(mu, abs=1e-8)
        assert result.params.variances[0] == pytest.approx(sigma2, abs=1e-8)
        assert result.params.weights.tolist() == [1.0]

    def test_recovers_separated_clusters_under_half_missing(self):
        rng = np.random.default_rng(2)
        n_per = 30
        a = rng.normal(0.0, 1.0, size=(n_per, 3, 8))
        b = rng.normal(4.0, 1.0, size=(n_per, 3, 8))
        X = np.concatenate([a, b])
        R = (rng.random(X.shape) >= 0.5).astype(float)
        truth = np.repeat([0, 1], n_per)
        prior = MemberPrior(strength=1.0, smoothing_width=2, a0=0.1, b0_scale=0.05)
        result = fit_diaggmm(X, R, 2, prior, seed=5)
        hard = result.posteriors.argmax(axis=1)
        acc = max((hard == truth).mean(), (hard != truth).mean())
        assert acc >= 0.95

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            X, R = _random_masked_data(rng, n=15, v=2, t=6, missing=0.4)
            prior = MemberPrior(
                strength=float(rng.uniform(0.1, 10.0)),
                smoothing_width=int(rng.integers(1, 4)),
                a0=float(rng.uniform(0.01, 1.0)),
                b0_scale=float(rng.uniform(0.01, 0.1)),
            )
            result = fit_diaggmm(X, R, int(rng.integers(1, 5)), prior, seed=trial)
            _assert_trace_monotone(result)

    def test_rejects_empty_input(self):
        prior = MemberPrior(1.0, 2, 0.1, 0.05)
        with pytest.raises(ValueError):
            fit_diaggmm(np.zeros((0, 2, 3)), np.zeros((0, 2, 3)), 1, prior, seed=0)
        with pytest.raises(ValueError):
            fit_diaggmm(np.zeros((2, 2, 3)), np.ones((2, 2, 3)), 0, prior, seed=0)


@pytest.fixture(scope="module")
def cohort():
    full = generate_synthetic_cohort(10, 30, 4, 12, 1.5, seed=4)
    return apply_missingness(full, MissingnessSpec(Missingness.MCAR, 0.3, seed=5))


@pytest.fixture(scope="module")
def trained(cohort):
    return tck_train(cohort, Q=4, C=4, seed=6)


class TestTrain:
    def test_member_count(self, trained):
        _, model = trained
        assert len(model.members) == 4 * (4 - 1)

    def test_gram_diagonal_exactly_one(self, trained):
        km, _ = trained
        assert np.array_equal(np.diag(km.gram), np.ones(len(km.gram)))

    def test_gram_entries_in_unit_interval(self, trained):
        km, _ = trained
        assert km.gram.min() >= 0.0 and km.gram.max() <= 1.0

    def test_gram_symmetric_and_psd(self, trained):
        km, _ = trained
        assert np.array_equal(km.gram, km.gram.T)
        km.validate()

    def test_deterministic_for_fixed_seed(self, cohort, trained):
        km, _ = trained
        km2, _ = tck_train(cohort, Q=4, C=4, seed=6)
        assert np.array_equal(km.gram, km2.gram)

    def test_identical_samples_give_all_ones(self):
        values = np.tile(np.linspace(0, 1, 8), (2, 1))
        samples = [MTSample(f"s{i}", values, np.ones((2, 8))) for i in range(6)]
        cohort = Cohort(samples, ["a", "b"], 8)
        km, _ = tck_train(cohort, Q=1, C=2, seed=0)
        assert km.gram == pytest.approx(np.ones((6, 6)), abs=1e-12)

    def test_default_component_heuristic(self):
        assert default_max_components(25) == 3
        assert default_max_components(200) == 10
        assert default_max_components(10_000) == 40

    def test_failed_member_skipped_and_divisor_adjusted(self, cohort, monkeypatch):
        real_fit = tck_mod.fit_diaggmm
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 3:  # all three attempts of the first member fail
                raise RuntimeError("synthetic member failure")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(tck_mod, "fit_diaggmm", flaky)
        km, model = tck_mod.tck_train(cohort, Q=2, C=3, seed=21)
        assert len(model.members) == 2 * (3 - 1) - 1
        assert np.array_equal(np.diag(km.gram), np.ones(len(km.gram)))
        km.validate()

    def test_failed_member_retried_with_fresh_seed(self, cohort, monkeypatch):
        real_fit = tck_mod.fit_diaggmm
        calls = {"n": 0}

        def once_flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient failure")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(tck_mod, "fit_diaggmm", once_flaky)
        _, model = tck_mod.tck_train(cohort, Q=2, C=3, seed=22)
        assert len(model.members) == 2 * (3 - 1)


class TestUnderflow:
    def test_all_components_underflow_uses_uniform_posterior(self, caplog):
        import logging

        params = DiagGMMParams(
            [0.5, 0.5], np.zeros((2, 1, 2)), np.full((2, 1), 1e-8)
        )
        wild = np.full((1, 2), 1e300)
        with caplog.at_level(logging.WARNING):
            post = diaggmm_posterior(params, wild, np.ones((1, 2)))
        assert post == pytest.approx([0.5, 0.5])
        assert "underflowed" in caplog.text


@pytest.fixture(scope="module")
def setup():
    full = generate_synthetic_cohort(12, 28, 4, 12, 1.5, seed=7)
    masked = apply_missingness(full, MissingnessSpec(Missingness.MCAR, 0.3, seed=8))
    train = Cohort(masked.samples[:30], masked.attribute_names, 12)
    test = Cohort(masked.samples[30:], masked.attribute_names, 12)
    km, model = tck_train(train, Q=3, C=3, seed=9)
    return train, test, km, model


class TestTest:
    def test_training_set_reproduces_gram(self, setup):
        train, _, km, model = setup
        back = tck_test(model, train)
        assert np.abs(back.cross - km.gram).max() <= 1e-12

    def test_cross_entries_in_unit_interval(self, setup):
        _, test, _, model = setup
        out = tck_test(model, test)
        assert out.cross.shape == (30, len(test))
        assert out.cross.min() >= 0.0 and out.cross.max() <= 1.0

    def test_dimension_mismatch_rejected(self, setup):
        _, _, _, model = setup
        other = generate_synthetic_cohort(3, 3, 2, 12, 1.0, seed=0)
        with pytest.raises(ValueError, match="expects"):
            tck_test(model, other)

    def test_sample_missing_on_member_view_gets_prior_posteriors(self):
        # Build a one-member model whose view excludes attribute 0, then feed
        # a sample observed only there: its posteriors must equal the weights.
        rng = np.random.default_rng(10)
        X = rng.normal(size=(12, 3, 6))
        R = np.ones_like(X)
        prior = MemberPrior(1.0, 2, 0.1, 0.05)
        fit = fit_diaggmm(X[:, 1:, :], R[:, 1:, :], 2, prior, seed=11)
        member = TCKMember(
            q1=1, q2=2, segment_start=0, segment_length=6,
            attributes=np.array([1, 2]), train_subset=np.arange(12),
            prior=prior, params=fit.params, train_posteriors=fit.posteriors,
        )
        unit = fit.posteriors / np.linalg.norm(fit.posteriors, axis=1, keepdims=True)
        model = TCKModel([member], 1, 2, 12, 3, 6, unit @ unit.T)

        values = np.zeros((3, 6))
        mask = np.zeros((3, 6))
        mask[0, :2] = 1.0  # observed only on the excluded attribute
        test = Cohort([MTSample("t", values, mask)], ["a", "b", "c"], 6)
        out = tck_test(model, test)
        w = fit.params.weights
        expected = unit @ (w / np.linalg.norm(w))
        assert out.cross[:, 0] == pytest.approx(expected, abs=1e-12)
        assert out.cross.min() >= 0.0 and out.cross.max() <= 1.0


class TestSerialization:
    def test_round_trip_preserves_out_of_sample_kernel(self, tmp_path):
        full = generate_synthetic_cohort(8, 22, 3, 10, 1.5, seed=12)
        masked = apply_missingness(full, MissingnessSpec(Missingness.MCAR, 0.25, seed=13))
        train = Cohort(masked.samples[:22], masked.attribute_names, 10)
        test = Cohort(masked.samples[22:], masked.attribute_names, 10)
        _, model = tck_train(train, Q=2, C=3, seed=14)
        path = tmp_path / "model.npz"
        save_tck_model(model, path)
        loaded = load_tck_model(path)
        a = tck_test(model, test)
        b = tck_test(loaded, test)
        assert np.array_equal(a.cross, b.cross)
        assert np.array_equal(model.train_gram, loaded.train_gram)

    def test_round_trip_equals_model_field_by_field(self, setup, tmp_path, assert_same_fields):
        model = setup[3]
        path = tmp_path / "model.npz"
        save_tck_model(model, path)
        assert_same_fields(load_tck_model(path), model)

    def test_version_1_archive_rejected(self, tmp_path):
        path = tmp_path / "v1.npz"
        meta = {"version": 1, "Q": 1, "C": 2, "n_train": 2, "n_attributes": 1,
                "window_length": 3, "members": []}
        np.savez_compressed(path, __meta__=json.dumps(meta), train_gram=np.eye(2))
        with pytest.raises(ValueError, match="unsupported TCK model version 1"):
            load_tck_model(path)
