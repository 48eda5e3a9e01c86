import json
import logging
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import mtsk.tck as tck_mod
from mtsk.cohort import (
    Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness,
    generate_synthetic_cohort, train_test_split,
)
from mtsk.tck import (
    EM_TOL,
    EMPTY_COMPONENT_WEIGHT,
    LOG_2PI,
    MONOTONICITY_TOL,
    VARIANCE_FLOOR_FACTOR,
    DiagGMMParams,
    FitResult,
    MemberPrior,
    TCKMember,
    TCKModel,
    _log_prior,
    _posteriors,
    default_max_components,
    fit_diaggmm,
    load_tck_model,
    save_tck_model,
    tck_test,
    tck_train,
)

# ---------------------------------------------------------------------------
# Oracle: the per-component EM that the flattened matrix-product form
# replaced, with the same arithmetic and without its warnings.  The two
# compute the same quantities in a different order (expanded squares,
# centered data, one product per step), so they agree to rounding: the
# ensemble Gram and cross to ORACLE_TOL.

ORACLE_TOL = 1e-10


def oracle_smoothed_mean_curve(X, R, width):
    counts = R.sum(axis=0)
    sums = (X * R).sum(axis=0)
    attr_counts = counts.sum(axis=1)
    attr_means = np.divide(
        sums.sum(axis=1), attr_counts, out=np.zeros_like(attr_counts), where=attr_counts > 0
    )
    raw = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    raw = np.where(counts > 0, raw, attr_means[:, None])
    T = X.shape[2]
    offsets = np.arange(T)
    w = np.exp(-((offsets[:, None] - offsets[None, :]) ** 2) / (2.0 * width * width))
    return (raw @ w) / w.sum(axis=0)[None, :]


def oracle_observed_attribute_variance(X, R):
    counts = R.sum(axis=(0, 2))
    sums = (X * R).sum(axis=(0, 2))
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    sq = (R * (X - means[None, :, None]) ** 2).sum(axis=(0, 2))
    var = np.divide(sq, counts, out=np.ones_like(sq), where=counts > 0)
    return np.maximum(var, 1e-8)


def oracle_log_likelihoods(params, X, R):
    N = X.shape[0]
    G = params.n_components
    out = np.empty((N, G))
    inv2 = 1.0 / (2.0 * params.variances)
    cst = -0.5 * (LOG_2PI + np.log(params.variances))
    with np.errstate(over="ignore"):
        for g in range(G):
            d2 = (X - params.means[g][None]) ** 2
            term = cst[g][None, :, None] - d2 * inv2[g][None, :, None]
            out[:, g] = (R * term).sum(axis=(1, 2))
    return out


def oracle_posteriors(params, X, R):
    with np.errstate(divide="ignore"):
        logw = np.log(params.weights)[None, :] + oracle_log_likelihoods(params, X, R)
    bad = ~np.isfinite(logw.max(axis=1))
    logw[bad] = 0.0
    top = logw.max(axis=1)
    evidence = top + np.log(np.exp(logw - top[:, None]).sum(axis=1))
    post = np.exp(logw - evidence[:, None])
    return post, evidence


def oracle_fit_diaggmm(X, R, n_components, prior, seed, max_iter=20):
    N, V, T = X.shape
    G = int(n_components)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    smooth = oracle_smoothed_mean_curve(X, R, prior.smoothing_width)
    attr_var = oracle_observed_attribute_variance(X, R)
    b0 = prior.b0_scale * attr_var
    floor = VARIANCE_FLOOR_FACTOR * attr_var
    lam = prior.strength

    def seeded_mean(idx):
        return (R[idx] * X[idx] + lam * smooth) / (R[idx] + lam)

    init_idx = rng.choice(N, size=G, replace=N < G)
    params = DiagGMMParams(
        weights=np.full(G, 1.0 / G),
        means=np.stack([seeded_mean(i) for i in init_idx]),
        variances=np.tile(attr_var, (G, 1)),
    )

    trace, reseed_points, reseeded = [], [], set()
    posteriors = None
    prev_obj = None
    steps = 0
    while steps < max_iter + G:
        steps += 1
        post, evidence = oracle_posteriors(params, X, R)
        counts = post.sum(axis=0)
        empty = np.flatnonzero(counts < EMPTY_COMPONENT_WEIGHT)
        fresh = [g for g in empty if g not in reseeded]
        if fresh:
            means = params.means.copy()
            for g in fresh:
                means[g] = seeded_mean(int(rng.integers(N)))
                reseeded.add(g)
            params = DiagGMMParams(params.weights, means, params.variances)
            reseed_points.append(len(trace))
            prev_obj = None
            continue

        obj = float(evidence.sum()) + _log_prior(params, smooth, prior, b0)
        if prev_obj is not None:
            assert obj >= prev_obj - MONOTONICITY_TOL * (1.0 + abs(prev_obj))
        trace.append(obj)
        posteriors = post
        if prev_obj is not None and obj - prev_obj < EM_TOL * (1.0 + abs(prev_obj)):
            break
        prev_obj = obj
        if len(trace) >= max_iter:
            break

        weights = counts / N
        W = np.einsum("ng,nvt->gvt", post, R)
        S = np.einsum("ng,nvt->gvt", post, R * X)
        means = (S + lam * smooth[None]) / (W + lam)
        ss = np.empty((G, V))
        for g in range(G):
            ss[g] = (post[:, g][:, None, None] * R * (X - means[g][None]) ** 2).sum(
                axis=(0, 2)
            )
        pen = lam * ((means - smooth[None]) ** 2).sum(axis=2)
        variances = (ss + pen + 2.0 * b0[None, :]) / (W.sum(axis=2) + 2.0 * prior.a0)
        variances = np.maximum(variances, floor[None, :])
        params = DiagGMMParams(weights, means, variances)

    if posteriors is None:
        posteriors, _ = oracle_posteriors(params, X, R)
    return FitResult(params, posteriors, trace, reseed_points)


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
            logw = np.log(params.weights)[None, :] + oracle_log_likelihoods(params, X, R)
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

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_rejected(self, cohort, monkeypatch, max_iter):
        # Rejected before the member loop, which would retry a failed fit.
        calls = []
        monkeypatch.setattr(tck_mod, "fit_diaggmm", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {max_iter}"):
            tck_mod.tck_train(cohort, Q=2, C=3, seed=23, max_iter=max_iter)
        assert calls == []

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


@pytest.fixture(scope="module")
def mar_split():
    full = generate_synthetic_cohort(10, 30, 4, 12, 1.5, seed=1)
    masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=1))
    return train_test_split(masked, 0.75, seed=1)


class TestOracle:
    def test_ensemble_matches_oracle(self, mar_split, monkeypatch):
        train, test = mar_split
        fits = []

        def recording(*args, **kwargs):
            fits.append(fit_diaggmm(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(tck_mod, "fit_diaggmm", recording)
        km, model = tck_train(train, Q=2, C=8, seed=1)
        cross = tck_test(model, test).cross
        assert any(fit.reseed_points for fit in fits), "no member re-seeded a component"

        monkeypatch.setattr(tck_mod, "fit_diaggmm", oracle_fit_diaggmm)
        monkeypatch.setattr(tck_mod, "_posteriors", oracle_posteriors)
        km_oracle, model_oracle = tck_train(train, Q=2, C=8, seed=1)
        np.testing.assert_allclose(km.gram, km_oracle.gram, rtol=0, atol=ORACLE_TOL)
        np.testing.assert_allclose(cross, tck_test(model_oracle, test).cross,
                                   rtol=0, atol=ORACLE_TOL)

    def test_posteriors_match_oracle(self, caplog):
        # Means and data sit around a baseline of 10, component 0 has weight
        # 0, and the last sample underflows every component.
        rng = np.random.default_rng(12)
        means = 10.0 + rng.normal(scale=3.0, size=(4, 3, 5))
        params = DiagGMMParams([0.0, 0.2, 0.3, 0.5], means, rng.uniform(0.01, 2.0, (4, 3)))
        X = 10.0 + rng.normal(scale=3.0, size=(9, 3, 5))
        X[-1] = 1e300
        R = (rng.random(X.shape) < 0.7).astype(float)
        R[-1] = 1.0
        with caplog.at_level(logging.WARNING):
            post, evidence = _posteriors(params, X, R)
        assert "1 sample(s) underflowed" in caplog.text
        want_post, want_evidence = oracle_posteriors(params, X, R)
        np.testing.assert_allclose(evidence, want_evidence, rtol=1e-13, atol=0)
        np.testing.assert_allclose(post, want_post, rtol=1e-11, atol=0)
        assert post[-1].tolist() == [0.25] * 4
        assert (post[:-1, 0] == 0.0).all()


@pytest.fixture(scope="module")
def mask_case():
    full = generate_synthetic_cohort(6, 14, 3, 10, 1.5, seed=30)
    masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=31))
    train, test = train_test_split(masked, 0.75, seed=32)
    km, model = tck_train(train, Q=2, C=3, seed=33)
    return train, test, km.gram, tck_test(model, test).cross, model


class TestMaskInvariance:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_values_under_the_mask_change_no_gram_or_cross(self, mask_case, poisoned, data):
        train, test, gram, cross, _ = mask_case
        km, model = tck_train(poisoned(train, data, "train fill"), Q=2, C=3, seed=33)
        assert np.array_equal(km.gram, gram)
        assert np.array_equal(tck_test(model, poisoned(test, data, "test fill")).cross, cross)


class TestPermutation:
    @given(data=st.data())
    def test_permuting_test_patients_permutes_cross(self, mask_case, data):
        # The Gram cannot be permuted: members draw their sample subsets by position.
        _, test, _, cross, model = mask_case
        q = np.array(data.draw(st.permutations(range(len(test))), label="test order"))
        samples = test.samples
        shuffled = Cohort([samples[i] for i in q], test.attribute_names, test.window_length)
        np.testing.assert_allclose(tck_test(model, shuffled).cross, cross[:, q],
                                   rtol=1e-12, atol=0)


class TestEMGuard:
    def test_decrease_and_non_finite_objective_raise_under_python_O(self):
        # python -O strips assert statements; the guard must still fire, and a
        # member it stops must reach tck_train's retry and skip path.
        src = os.path.dirname(os.path.dirname(os.path.abspath(tck_mod.__file__)))
        code = textwrap.dedent(f"""
            import itertools, logging, sys
            sys.path.insert(0, {src!r})
            import numpy as np
            import mtsk.tck as tck
            from mtsk.cohort import generate_synthetic_cohort
            logging.disable(logging.WARNING)
            rng = np.random.default_rng(0)
            X = rng.normal(size=(20, 3, 8))
            R = (rng.random(X.shape) >= 0.3).astype(float)
            prior = tck.MemberPrior(1.0, 2, 0.1, 0.05)

            def fit_error(prior_values):
                tck._log_prior = lambda *args: next(prior_values)
                try:
                    tck.fit_diaggmm(X, R, 2, prior, seed=0)
                except FloatingPointError as exc:
                    return str(exc)
                return "no error"

            print(sys.flags.optimize)
            print(fit_error(itertools.count(0.0, -1e6)))
            print(fit_error(itertools.repeat(float("nan"))))
            try:
                tck.tck_train(generate_synthetic_cohort(3, 5, 2, 8, 1.5, seed=0), Q=1, C=2)
            except ValueError as exc:
                print(exc)
        """)
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out[0] == "1"
        assert out[1].startswith("EM objective decreased: ")
        assert out[2] == "EM objective is not finite: nan"
        assert out[3] == "every ensemble member failed to train"
