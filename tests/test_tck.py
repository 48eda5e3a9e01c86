import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import mtsk.tck as tck_mod
from mtsk.cohort import (
    Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness,
    generate_synthetic_cohort, train_test_split,
)
from mtsk.kernels import _load_npz, _save_npz
from mtsk.tck import (
    EM_TOL,
    EMPTY_COMPONENT_WEIGHT,
    LOG_2PI,
    MONOTONICITY_TOL,
    VARIANCE_FLOOR_FACTOR,
    TCKMember,
    TCKModel,
    _posteriors,
    default_max_components,
    load_tck_model,
    save_tck_model,
    tck_test,
    tck_train,
)

# ---------------------------------------------------------------------------
# Oracles.  Two EMs that the lockstep batch (tck._fit_lockstep) replaced,
# each fitting one member at a time with the same arithmetic and without
# its warnings:
#   - the per-member EM over the flattened cells: one matrix product per
#     E-step with the data rows [R_v, R·X², R·X, R], one with the
#     posteriors per M-step;
#   - before it, the per-component EM.
# They compute the same quantities in a different order (expanded squares,
# centered data, sums over days, whole-batch reductions), so they agree to
# rounding: the ensemble Gram and cross to ORACLE_TOL.

ORACLE_TOL = 1e-10
# Mixture parameters of one member.  Components drawn from the same sample (a
# fit subset smaller than q2) stay interchangeable, and rounding splits their
# mass differently: 6e-9 relative on the weights in TestLockstep, while their
# cosine similarities, which are all the kernel reads, agree to ORACLE_TOL.
MIXTURE_TOL = 1e-8


class Prior(NamedTuple):
    """A member's prior: the TCKMember fields of these names."""

    strength: float
    smoothing_width: int
    a0: float
    b0_scale: float


class Fit(NamedTuple):
    """One mixture and its EM trace, as the oracles and ``fit_member`` return them."""

    weights: np.ndarray             # (G,)
    means: np.ndarray               # (G, V, T)
    variances: np.ndarray           # (G, V)
    objective_trace: list = ()
    reseed_points: list = ()        # trace indices where a component was re-seeded


def fit_member(X, R, n_components, prior, seed, max_iter=20):
    """One mixture fitted on all of (X, R) by tck._fit_lockstep as a batch of one; raises
    the FloatingPointError that stops it."""
    N, V, T = X.shape
    draw = dict(q1=1, q2=n_components, segment_start=0, segment_length=T,
                attributes=np.arange(V), train_subset=np.arange(N), **prior._asdict())
    result, = tck_mod._fit_lockstep(X, R, [draw], [np.random.default_rng(seed)], ["the member"],
                                    max_iter)
    if isinstance(result, Exception):
        raise result
    member, trace, reseed_points = result
    return Fit(member.weights, member.means, member.variances, trace, reseed_points)


def member_smoothed_mean_curve(X, R, width):
    counts = R.sum(axis=0)
    raw = np.divide((X * R).sum(axis=0), counts, out=np.zeros_like(counts), where=counts > 0)
    T = X.shape[2]
    offsets = np.arange(T)
    w = np.exp(-((offsets[:, None] - offsets[None, :]) ** 2) / (2.0 * width * width))
    return (raw @ w) / w.sum(axis=0)[None, :]


def member_flat_data(X, R, center):
    Xc = R * (X - center[None, :, None])
    with np.errstate(over="ignore"):
        rows = [R.sum(axis=2), Xc * Xc, Xc, R]
    return np.concatenate([r.reshape(len(X), -1) for r in rows], axis=1)


def inplace_flat_data(X, R, center):
    """tck._flat_data as it was before it became one expression: the data rows
    [1, R_v, Σ_t R·X², R·X, R] written block by block into one preallocated buffer,
    with the views copied in first.  Its arithmetic is the same, so they agree bit
    for bit."""
    N, V, T = X.shape
    F = np.empty((N, 1 + 2 * V + 2 * V * T))
    RX, R_rows = (F[:, 1 + 2 * V + k * V * T:1 + 2 * V + (k + 1) * V * T].reshape(N, V, T)
                  for k in (0, 1))
    RX[...] = X
    R_rows[...] = R
    RX -= center[:, None]
    RX *= R_rows
    F[:, 0] = 1.0
    F[:, 1:1 + V] = np.einsum("nvt->nv", R_rows)
    with np.errstate(over="ignore"):
        F[:, 1 + V:1 + 2 * V] = np.einsum("nvt,nvt->nv", RX, RX)
    return F


def member_log_likelihoods(means, variances, F):
    G, V, T = means.shape
    a = np.repeat(1.0 / (2.0 * variances), T, axis=1)
    mu = means.reshape(G, V * T)
    cst = -0.5 * (LOG_2PI + np.log(variances))
    coef = np.concatenate([cst, -a, 2.0 * mu * a, -mu * mu * a], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return F @ coef.T


def member_flat_posteriors(weights, means, variances, F):
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(weights)[None, :] + member_log_likelihoods(means, variances, F)
    bad = ~np.isfinite(logw.max(axis=1))
    logw[bad] = 0.0
    top = logw.max(axis=1)
    evidence = top + np.log(np.exp(logw - top[:, None]).sum(axis=1))
    return np.exp(logw - evidence[:, None]), evidence


def member_posteriors(mix, X, R):
    center = mix.means.mean(axis=(0, 2))
    means = mix.means - center[None, :, None]
    return member_flat_posteriors(mix.weights, means, mix.variances,
                                  member_flat_data(X, R, center))


def member_log_prior(means, variances, smooth, prior, b0):
    pen = ((means - smooth[None]) ** 2).sum(axis=2)
    return float(
        -(prior.strength * pen / (2.0 * variances)).sum()
        - (prior.a0 * np.log(variances)).sum()
        - (b0[None, :] / variances).sum()
    )


def member_fit_diaggmm(X, R, n_components, prior, seed, max_iter=20, nan_at_step=None):
    """The per-member EM; ``nan_at_step`` makes the objective of that step NaN."""
    N, V, T = X.shape
    G = int(n_components)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    n_obs = R.sum(axis=(0, 2))
    center = np.divide((X * R).sum(axis=(0, 2)), n_obs, out=np.zeros(V), where=n_obs > 0)
    F = member_flat_data(X, R, center)
    D = V * T
    sq = F[:, V:V + D].reshape(N, V, T)
    RX = F[:, V + D:V + 2 * D].reshape(N, V, T)
    attr_var = np.maximum(np.divide(sq.sum(axis=(0, 2)), n_obs, out=np.ones(V),
                                    where=n_obs > 0), 1e-8)
    smooth = member_smoothed_mean_curve(RX, R, prior.smoothing_width)
    b0 = prior.b0_scale * attr_var
    floor = VARIANCE_FLOOR_FACTOR * attr_var
    lam = prior.strength

    def seeded_mean(idx):
        return (RX[idx] + lam * smooth) / (R[idx] + lam)

    init_idx = rng.choice(N, size=G, replace=N < G)
    weights = np.full(G, 1.0 / G)
    means = np.stack([seeded_mean(i) for i in init_idx])
    variances = np.tile(attr_var, (G, 1))

    trace, reseed_points, reseeded = [], [], set()
    prev_obj = None
    steps = 0
    while steps < max_iter + G:
        steps += 1
        post, evidence = member_flat_posteriors(weights, means, variances, F)
        counts = post.sum(axis=0)
        empty = np.flatnonzero(counts < EMPTY_COMPONENT_WEIGHT)
        fresh = [g for g in empty if g not in reseeded]
        if fresh:
            for g in fresh:
                means[g] = seeded_mean(int(rng.integers(N)))
                reseeded.add(g)
            reseed_points.append(len(trace))
            prev_obj = None
            continue

        obj = float(evidence.sum()) + member_log_prior(means, variances, smooth, prior, b0)
        if steps == nan_at_step:
            obj = float("nan")
        if not math.isfinite(obj):
            raise FloatingPointError(f"EM objective is not finite: {obj}")
        if prev_obj is not None and obj < prev_obj - MONOTONICITY_TOL * (1.0 + abs(prev_obj)):
            raise FloatingPointError(f"EM objective decreased: {prev_obj} -> {obj}")
        trace.append(obj)
        if prev_obj is not None and obj - prev_obj < EM_TOL * (1.0 + abs(prev_obj)):
            break
        prev_obj = obj
        if len(trace) >= max_iter:
            break

        weights = counts / N
        Wv, S2, S, W = np.split(post.T @ F, [V, V + D, V + 2 * D], axis=1)
        S2, S, W = (M.reshape(G, V, T) for M in (S2, S, W))
        means = (S + lam * smooth[None]) / (W + lam)
        ss = (S2 - 2.0 * means * S + means * means * W).sum(axis=2)
        pen = lam * ((means - smooth[None]) ** 2).sum(axis=2)
        variances = (ss + pen + 2.0 * b0[None, :]) / (Wv + 2.0 * prior.a0)
        variances = np.maximum(variances, floor[None, :])

    return Fit(weights, means + center[None, :, None], variances, trace, reseed_points)


def one_at_a_time(fit, posteriors, nan_at=None):
    """A stand-in for tck._fit_lockstep that fits each draw alone with ``fit`` and scores
    all rows of its view with ``posteriors``; ``nan_at`` maps a member label to the step
    whose objective is NaN."""

    def fit_lockstep(X, R, draws, rngs, labels, max_iter):
        results = []
        for draw, rng, label in zip(draws, rngs, labels):
            days = slice(draw["segment_start"], draw["segment_start"] + draw["segment_length"])
            Xv, Rv = X[:, draw["attributes"], days], R[:, draw["attributes"], days]
            rows = draw["train_subset"]
            kw = {"nan_at_step": nan_at[label]} if nan_at and label in nan_at else {}
            try:
                result = fit(Xv[rows], Rv[rows], draw["q2"], Prior(*map(draw.get, Prior._fields)),
                             rng, max_iter=max_iter, **kw)
            except FloatingPointError as exc:
                results.append(exc)
                continue
            member = TCKMember(**draw, train_posteriors=posteriors(result, Xv, Rv)[0],
                               weights=result.weights, means=result.means,
                               variances=result.variances)
            results.append((member, result.objective_trace, result.reseed_points))
        return results

    return fit_lockstep


def posteriors(mix, X, R):
    """Posteriors (N, G) and log-evidence (N,) of one mixture through the production path."""
    return _posteriors([mix], [X], [R], ["the mixture"])[0]


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


def mixture(weights, means, variances):
    """A Fit that holds only a mixture, as _posteriors and the oracles read it."""
    return Fit(np.asarray(weights, dtype=float), np.asarray(means, dtype=float),
               np.asarray(variances, dtype=float))


def oracle_log_likelihoods(params, X, R):
    N = X.shape[0]
    G = len(params.weights)
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
    """The per-component EM."""
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
    params = mixture(np.full(G, 1.0 / G), np.stack([seeded_mean(i) for i in init_idx]),
                     np.tile(attr_var, (G, 1)))

    trace, reseed_points, reseeded = [], [], set()
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
            params = mixture(params.weights, means, params.variances)
            reseed_points.append(len(trace))
            prev_obj = None
            continue

        obj = float(evidence.sum()) + member_log_prior(params.means, params.variances, smooth,
                                                       prior, b0)
        if prev_obj is not None:
            assert obj >= prev_obj - MONOTONICITY_TOL * (1.0 + abs(prev_obj))
        trace.append(obj)
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
        params = mixture(weights, means, variances)

    return Fit(params.weights, params.means, params.variances, trace, reseed_points)


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
    return posteriors(params, np.asarray(values, float)[None], np.asarray(mask, float)[None])[0][0]


class TestFlatData:
    @pytest.mark.parametrize("view", [
        # _fit_lockstep's view: its fitted rows first, then the rest; an attribute subset
        # and a time segment.
        (np.random.default_rng(61).permutation(15)[:, None], np.array([1, 2, 4]), slice(2, 8)),
        # tck_test's view: every row, through a row index.
        (np.arange(15)[:, None], np.array([0, 1, 2]), slice(1, 9)),
        # A plain strided view.
        (slice(None, None, 2), slice(1, 4), slice(3, None)),
    ])
    def test_matches_inplace_oracle_bit_for_bit(self, view):
        rng = np.random.default_rng(60)
        R = (rng.random((15, 5, 9)) >= 0.3).astype(float)
        R[:, 2] = 0.0  # an attribute with no observed cell
        R[4, 1, 3] = 1.0
        X = np.where(R > 0, 3.0 * rng.normal(size=R.shape), 0.0)
        X[4, 1, 3] = 1e200  # observed; its square overflows to inf
        Xv, Rv = X[view], R[view]
        center = rng.normal(size=Xv.shape[1])
        got, want = tck_mod._flat_data(Xv, Rv, center), inplace_flat_data(Xv, Rv, center)
        assert np.isinf(want).any() and not Rv.any(axis=(0, 2)).all()
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestPosterior:
    def test_single_component(self):
        params = mixture([1.0], np.zeros((1, 2, 3)), np.ones((1, 2)))
        post = diaggmm_posterior(params, np.ones((2, 3)), np.ones((2, 3)))
        assert post.tolist() == [1.0]

    def test_fully_missing_returns_weights(self):
        params = mixture(
            [0.3, 0.7], np.stack([np.zeros((2, 3)), np.ones((2, 3))]), np.ones((2, 2))
        )
        post = diaggmm_posterior(params, np.ones((2, 3)), np.zeros((2, 3)))
        assert post == pytest.approx([0.3, 0.7], abs=1e-15)

    def test_identical_components_cancel_likelihood(self):
        means = np.tile(np.linspace(0, 1, 12).reshape(1, 3, 4), (2, 1, 1))
        params = mixture([0.3, 0.7], means, np.full((2, 3), 2.0))
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
        params = mixture([0.0, 0.2, 0.3, 0.5], means, rng.uniform(0.01, 2.0, (4, 3)))
        X = rng.normal(scale=10.0, size=(9, 3, 5))
        X[-1] = 1e300
        R = (rng.random(X.shape) < 0.7).astype(float)
        R[-1] = 1.0
        post, evidence = posteriors(params, X, R)

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
        prior = Prior(strength=2.0, smoothing_width=2, a0=0.5, b0_scale=0.05)
        result = fit_member(X, R, 1, prior, seed=3)
        mu, sigma2 = single_component_map_oracle(X, R, prior)
        assert result.means[0] == pytest.approx(mu, abs=1e-8)
        assert result.variances[0] == pytest.approx(sigma2, abs=1e-8)
        assert result.weights.tolist() == [1.0]

    def test_recovers_separated_clusters_under_half_missing(self):
        rng = np.random.default_rng(2)
        n_per = 30
        a = rng.normal(0.0, 1.0, size=(n_per, 3, 8))
        b = rng.normal(4.0, 1.0, size=(n_per, 3, 8))
        X = np.concatenate([a, b])
        R = (rng.random(X.shape) >= 0.5).astype(float)
        truth = np.repeat([0, 1], n_per)
        prior = Prior(strength=1.0, smoothing_width=2, a0=0.1, b0_scale=0.05)
        result = fit_member(X, R, 2, prior, seed=5)
        hard = posteriors(result, X, R)[0].argmax(axis=1)
        acc = max((hard == truth).mean(), (hard != truth).mean())
        assert acc >= 0.95

    def test_objective_non_decreasing(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            X, R = _random_masked_data(rng, n=15, v=2, t=6, missing=0.4)
            prior = Prior(
                strength=float(rng.uniform(0.1, 10.0)),
                smoothing_width=int(rng.integers(1, 4)),
                a0=float(rng.uniform(0.01, 1.0)),
                b0_scale=float(rng.uniform(0.01, 0.1)),
            )
            result = fit_member(X, R, int(rng.integers(1, 5)), prior, seed=trial)
            _assert_trace_monotone(result)


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
        real_fit = tck_mod._fit_lockstep
        calls = {"n": 0}

        def flaky(X, R, draws, rngs, labels, max_iter):
            results = real_fit(X, R, draws, rngs, labels, max_iter)
            calls["n"] += 1
            if calls["n"] <= 3:  # all three attempts of the first member fail
                assert labels[0].startswith("member (q1=1, q2=2, attempt=")
                results[0] = RuntimeError("synthetic member failure")
            return results

        monkeypatch.setattr(tck_mod, "_fit_lockstep", flaky)
        km, model = tck_mod.tck_train(cohort, Q=2, C=3, seed=21)
        assert len(model.members) == 2 * (3 - 1) - 1
        assert np.array_equal(np.diag(km.gram), np.ones(len(km.gram)))
        km.validate()

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_rejected(self, cohort, monkeypatch, max_iter):
        # Rejected before the member batches, which would retry a failed fit.
        calls = []
        monkeypatch.setattr(tck_mod, "_fit_lockstep", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {max_iter}"):
            tck_mod.tck_train(cohort, Q=2, C=3, seed=23, max_iter=max_iter)
        assert calls == []

    def test_failed_member_retried_with_fresh_seed(self, cohort, monkeypatch):
        real_fit = tck_mod._fit_lockstep
        calls = {"n": 0}

        def once_flaky(X, R, draws, rngs, labels, max_iter):
            results = real_fit(X, R, draws, rngs, labels, max_iter)
            calls["n"] += 1
            if calls["n"] == 1:
                results[0] = RuntimeError("transient failure")
            return results

        monkeypatch.setattr(tck_mod, "_fit_lockstep", once_flaky)
        _, model = tck_mod.tck_train(cohort, Q=2, C=3, seed=22)
        assert len(model.members) == 2 * (3 - 1)

    def test_matches_fixture_from_commit_4865df7(self, caplog):
        """The fixture was written at commit 4865df7 by the lines below down to ``km,
        model = …``, then:

            np.savez_compressed("tests/data/tck_train_4865df7.npz", gram=km.gram,
                                members=np.array([(m.q1, m.q2) for m in model.members]),
                                **{f"train_posteriors_{i}": m.train_posteriors
                                   for i, m in enumerate(model.members)})

        One observed value of 1e200 fails member (q1=1, q2=4) at its first attempt,
        so the draws of its second attempt are pinned too.
        """
        full = generate_synthetic_cohort(8, 16, 5, 10, 1.5, seed=50)
        masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=51))
        train, _ = train_test_split(masked, 0.8, seed=52)
        samples = train.samples
        values, mask = samples[0].values.copy(), samples[0].mask.copy()
        values[4, 0], mask[4, 0] = 1e200, 1.0
        samples[0] = MTSample(samples[0].id, values, mask, samples[0].label)
        train = Cohort(samples, train.attribute_names, train.window_length)
        with caplog.at_level(logging.WARNING, logger="mtsk.tck"):
            km, model = tck_train(train, Q=2, C=4, seed=53)
        assert "member (q1=1, q2=4, attempt=0) failed" in caplog.messages

        with np.load(pathlib.Path(__file__).parent / "data" / "tck_train_4865df7.npz") as pinned:
            assert np.array_equal(km.gram, pinned["gram"])
            assert [[m.q1, m.q2] for m in model.members] == pinned["members"].tolist()
            for i, m in enumerate(model.members):
                assert np.array_equal(m.train_posteriors, pinned[f"train_posteriors_{i}"]), i


class TestUnderflow:
    def test_all_components_underflow_uses_uniform_posterior(self, caplog):
        import logging

        params = mixture(
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
        with pytest.raises(ValueError, match=r"^cohort \(V, T\) = \(2, 12\) differs from "
                                             r"the model's \(4, 12\)$"):
            tck_test(model, other)

    def test_sample_missing_on_member_view_gets_prior_posteriors(self):
        # Build a one-member model whose view excludes attribute 0, then feed
        # a sample observed only there: its posteriors must equal the weights.
        rng = np.random.default_rng(10)
        X = rng.normal(size=(12, 3, 6))
        R = np.ones_like(X)
        prior = Prior(1.0, 2, 0.1, 0.05)
        fit = fit_member(X[:, 1:, :], R[:, 1:, :], 2, prior, seed=11)
        post, _ = posteriors(fit, X[:, 1:, :], R[:, 1:, :])
        member = TCKMember(
            q1=1, q2=2, segment_start=0, segment_length=6,
            attributes=np.array([1, 2]), train_subset=np.arange(12), train_posteriors=post,
            **prior._asdict(), weights=fit.weights, means=fit.means, variances=fit.variances,
        )
        unit = post / np.linalg.norm(post, axis=1, keepdims=True)
        model = TCKModel([member], 1, 2, 12, 3, 6)

        values = np.zeros((3, 6))
        mask = np.zeros((3, 6))
        mask[0, :2] = 1.0  # observed only on the excluded attribute
        test = Cohort([MTSample("t", values, mask)], ["a", "b", "c"], 6)
        out = tck_test(model, test)
        w = fit.weights
        expected = unit @ (w / np.linalg.norm(w))
        assert out.cross[:, 0] == pytest.approx(expected, abs=1e-12)
        assert out.cross.min() >= 0.0 and out.cross.max() <= 1.0


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("archives")


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
        with np.load(path) as archive:  # the header, then values and shapes of 14 fields
            assert "train_gram" not in archive.files and len(archive.files) == 1 + 2 * 14

    def test_version_1_archive_rejected(self, tmp_path):
        path = tmp_path / "v1.npz"
        meta = {"version": 1, "Q": 1, "C": 2, "n_train": 2, "n_attributes": 1,
                "window_length": 3, "members": []}
        np.savez_compressed(path, __meta__=json.dumps(meta), train_gram=np.eye(2))
        with pytest.raises(ValueError, match="unsupported TCK model version 1"):
            load_tck_model(path)

    def test_archive_without_members_rejected(self, tmp_path):
        path = tmp_path / "empty.npz"
        _save_npz(path, {"Q": 1, "C": 2, "n_train": 2, "n_attributes": 1, "window_length": 3}, [])
        with pytest.raises(ValueError, match=f"^TCK model {re.escape(str(path))} is empty$"):
            load_tck_model(path)

    def test_archive_from_commit_a1612ab_loads_and_scores_the_same(self):
        """The fixture pair was written at commit a1612ab, whose members nested their
        prior and mixture in separate records, by:

            full = generate_synthetic_cohort(10, 15, 3, 10, 1.5, seed=40)
            masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=41))
            train, test = train_test_split(masked, 0.8, seed=42)
            _, model = tck_train(train, Q=2, C=3, seed=43)
            save_tck_model(model, "tests/data/tck_model_a1612ab.tck.npz")
            np.save("tests/data/tck_cross_a1612ab.npy", tck_test(model, test).cross)
        """
        data = pathlib.Path(__file__).parent / "data"
        full = generate_synthetic_cohort(10, 15, 3, 10, 1.5, seed=40)
        masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=41))
        _, test = train_test_split(masked, 0.8, seed=42)
        model = load_tck_model(data / "tck_model_a1612ab.tck.npz")
        assert (len(model.members), model.n_train) == (4, 20)
        np.testing.assert_allclose(tck_test(model, test).cross,
                                   np.load(data / "tck_cross_a1612ab.npy"), rtol=0, atol=1e-12)
        with np.load(data / "tck_model_a1612ab.tck.npz") as archive:
            fields = json.loads(str(archive["__meta__"]))["fields"]
            stored_gram = archive["train_gram"]
        assert fields == [
            "q1", "q2", "segment_start", "segment_length", "attributes", "train_subset",
            "train_posteriors", "strength", "smoothing_width", "a0", "b0_scale",
            "weights", "means", "variances",
        ]
        # The Gram derived from the members is the one the archive stores, bit for bit.
        assert model.train_gram.dtype == stored_gram.dtype
        assert model.train_gram.tobytes() == stored_gram.tobytes()

    def test_stored_train_gram_is_not_read(self, tmp_path):
        # An older archive also stores the train Gram; one edited to 0.5 off the diagonal
        # used to load and reach kPCA, while the cross came from the members.
        fixture = pathlib.Path(__file__).parent / "data" / "tck_model_a1612ab.tck.npz"
        with np.load(fixture) as archive:
            arrays = {k: archive[k] for k in archive.files}
        stored_gram = arrays["train_gram"].copy()
        arrays["train_gram"] = np.where(np.eye(len(stored_gram)) == 1, 1.0, 0.5)
        path = tmp_path / "model.npz"
        np.savez_compressed(path, **arrays)
        assert load_tck_model(path).train_gram.tobytes() == stored_gram.tobytes()

    @settings(max_examples=30)
    @given(data=st.data())
    def test_archive_loads_the_model_in_either_layout(self, archive_dir, assert_same_fields,
                                                      data):
        # Every field comes back equal in dtype, shape and value, the derived train Gram
        # among them, and so does the cross.  Older archives also store the train Gram;
        # loading does not read it, so both layouts give the saved model.
        N, V, T = (data.draw(st.integers(*bounds)) for bounds in ((6, 12), (2, 3), (6, 8)))
        n_cases, seed = data.draw(st.integers(1, N - 1)), data.draw(st.integers(0, 2 ** 16))
        spec = MissingnessSpec(data.draw(st.sampled_from(list(Missingness))),
                               data.draw(st.sampled_from([0.1, 0.3, 0.5])), seed=seed + 1)
        cohort = apply_missingness(
            generate_synthetic_cohort(n_cases, N - n_cases, V, T, 1.5, seed=seed), spec)
        assume(len(cohort) >= 2 and (cohort.mask == 0).any())
        Q, C = data.draw(st.integers(1, 2)), data.draw(st.integers(2, 3))
        try:
            _, model = tck_train(cohort, Q=Q, C=C, seed=seed)
        except ValueError as exc:
            assume(str(exc) != "every ensemble member failed to train")
            raise
        path, old_path = archive_dir / "model.npz", archive_dir / "old.npz"
        save_tck_model(model, path)
        with np.load(path) as new:
            np.savez_compressed(old_path, **{k: new[k] for k in new.files},
                                train_gram=model.train_gram)
        cross = tck_test(model, cohort).cross
        for loaded in (load_tck_model(path), load_tck_model(old_path)):
            assert_same_fields(loaded, model)
            assert loaded.train_gram.tobytes() == model.train_gram.tobytes()
            assert tck_test(loaded, cohort).cross.tobytes() == cross.tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(extra=1), "an unknown field 'extra'"),
        (lambda r: r.pop("means"), "no field 'means'"),
    ], ids=["extra", "missing-means"])
    def test_fixture_archive_with_other_fields_rejected(self, tmp_path, edit, message):
        # These failed with a bare TypeError from TCKMember.
        fixture = pathlib.Path(__file__).parent / "data" / "tck_model_a1612ab.tck.npz"
        meta, records = _load_npz(fixture, "TCK model")
        for r in records:
            edit(r)
        path = tmp_path / "model.npz"
        _save_npz(path, meta, records)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the records have "
                                             f"{message}$"):
            load_tck_model(path)

    def test_valid_archive_builds_its_model_once(self, setup, tmp_path, monkeypatch):
        save_tck_model(setup[3], tmp_path / "model.npz")
        built = []
        check = TCKModel.__post_init__
        monkeypatch.setattr(TCKModel, "__post_init__", lambda m: built.append(check(m)))
        assert len(load_tck_model(tmp_path / "model.npz").members) == 6
        assert len(built) == 1

    @pytest.mark.parametrize("field, tamper, message", [
        ("weights", lambda v: v * 0.9, "mixture weights must sum to 1"),
        ("variances", lambda v: np.where(np.arange(v.size) == 3, 0.0, v),
         r"variances must stay above the floor \(> 0\)"),
        ("weights", lambda v: np.full_like(v, np.nan), "mixture weights must sum to 1"),
        ("variances", lambda v: np.where(np.arange(v.size) == 3, np.nan, v),
         r"variances must stay above the floor \(> 0\)"),
    ])
    def test_tampered_mixture_rejected(self, setup, tmp_path, field, tamper, message):
        path = tmp_path / "model.npz"
        save_tck_model(setup[3], path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[f"{field}.values"] = tamper(arrays[f"{field}.values"])
        np.savez_compressed(path, **arrays)
        # The first member's values come first: its check fails before any other's.
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, record 0: {message}$"):
            load_tck_model(path)

    @pytest.mark.parametrize("part, field, tamper, message", [
        # Member 0 (q2 = 2) of a 30-patient model over 4 attributes and 12 days.  Its
        # weights gain a third entry and still sum to 1.
        ("record", "weights", lambda w: np.append(w, 0.0),
         r", record 0: weights has shape \(3,\), not \(2,\)"),
        ("record", "means", lambda mu: mu[:, :, :-1],
         r", record 0: means has shape \(2, \d+, \d+\), not \(2, \d+, \d+\)"),
        ("record", "variances", lambda v: v[:, :-1],
         r", record 0: variances has shape \(2, \d+\), not \(2, \d+\)"),
        ("record", "train_posteriors", lambda p: p[:-3],
         r", record 0: train_posteriors has shape \(27, 2\), not \(30, 2\)"),
        ("record", "attributes", lambda a: np.append(a[:-1], 7),
         r", record 0: attributes \[[\d, ]*7\] must be distinct and lie in \[0, 4\)"),
        ("record", "attributes", lambda a: np.append(a[:-1], a[0]),
         r", record 0: attributes \[[\d, ]*\] must be distinct and lie in \[0, 4\)"),
        ("record", "segment_start", lambda start: start + 12,
         r", record 0: segment days \[\d+, \d+\) must lie in \[0, 12\)"),
        ("meta", "n_train", lambda n: 25,
         r", record 0: train_posteriors has shape \(30, 2\), not \(25, 2\)"),
        # Fields of the wrong type.  A 0-d attributes failed with a bare TypeError, and a
        # float segment or attributes loaded, then made tck_test fail.  A field is stored
        # as one array over all members, so "records" edits every member.
        ("records", "attributes", lambda a: a[0],
         r", record 0: attributes must be a 1-d integer array, got int64 of shape \(\)"),
        ("record", "attributes", lambda a: a.astype(float),
         r", record 0: attributes must be a 1-d integer array, got float64"),
        ("record", "segment_start", float,
         r", record 0: segment_start must be an integer, got float64"),
        ("record", "segment_length", float,
         r", record 0: segment_length must be an integer, got float64"),
        ("record", "q2", float, r", record 0: q2 must be an integer, got float64"),
        ("record", "smoothing_width", float,
         r", record 0: smoothing_width must be an integer, got float64"),
        ("records", "train_subset", lambda s: s[:, None],
         r", record 0: train_subset must be a 1-d integer array, got int64 of shape \(\d+, 1\)"),
        ("records", "a0", str, r", record 0: a0 must be a real number, got <U\d+"),
    ], ids=["weights", "means", "variances", "train_posteriors", "attribute_range",
            "attribute_repeat", "segment", "n_train", "0-d-attributes",
            "float-attributes", "float-segment-start", "float-segment-length", "float-q2",
            "float-smoothing-width", "2-d-train-subset", "str-a0"])
    def test_archive_that_does_not_fit_its_model_rejected(self, setup, tmp_path, part, field,
                                                           tamper, message):
        path = tmp_path / "model.npz"
        save_tck_model(setup[3], path)
        meta, records = _load_npz(path, "TCK model")
        for edited in {"meta": [meta], "record": records[:1], "records": records}[part]:
            edited[field] = tamper(edited[field])
        _save_npz(path, meta, records)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{message}$"):
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
        real_fit = tck_mod._fit_lockstep

        def recording(*args, **kwargs):
            fits.extend(real_fit(*args, **kwargs))
            return fits[-len(args[2]):]

        monkeypatch.setattr(tck_mod, "_fit_lockstep", recording)
        km, model = tck_train(train, Q=2, C=8, seed=1)
        cross = tck_test(model, test).cross
        assert any(reseed_points for *_, reseed_points in fits), "no member re-seeded a component"

        monkeypatch.setattr(tck_mod, "_fit_lockstep",
                            one_at_a_time(oracle_fit_diaggmm, oracle_posteriors))
        monkeypatch.setattr(tck_mod, "_posteriors", lambda mixes, Xs, Rs, labels: [
            oracle_posteriors(*args) for args in zip(mixes, Xs, Rs)])
        km_oracle, model_oracle = tck_train(train, Q=2, C=8, seed=1)
        np.testing.assert_allclose(km.gram, km_oracle.gram, rtol=0, atol=ORACLE_TOL)
        np.testing.assert_allclose(cross, tck_test(model_oracle, test).cross,
                                   rtol=0, atol=ORACLE_TOL)

    def test_posteriors_match_oracle(self, caplog):
        # Means and data sit around a baseline of 10, component 0 has weight
        # 0, and the last sample underflows every component.
        rng = np.random.default_rng(12)
        means = 10.0 + rng.normal(scale=3.0, size=(4, 3, 5))
        params = mixture([0.0, 0.2, 0.3, 0.5], means, rng.uniform(0.01, 2.0, (4, 3)))
        X = 10.0 + rng.normal(scale=3.0, size=(9, 3, 5))
        X[-1] = 1e300
        R = (rng.random(X.shape) < 0.7).astype(float)
        R[-1] = 1.0
        with caplog.at_level(logging.WARNING):
            post, evidence = posteriors(params, X, R)
        assert "1 sample(s) underflowed" in caplog.text
        want_post, want_evidence = oracle_posteriors(params, X, R)
        np.testing.assert_allclose(evidence, want_evidence, rtol=1e-13, atol=0)
        np.testing.assert_allclose(post, want_post, rtol=1e-11, atol=0)
        assert post[-1].tolist() == [0.25] * 4
        assert (post[:-1, 0] == 0.0).all()


REAL_FIT_LOCKSTEP = tck_mod._fit_lockstep


def fit_recorded(monkeypatch, train, fit_lockstep, **kwargs):
    """tck_train with ``fit_lockstep`` as the batch fitter; returns the Gram, the model
    and, per batch, its draws, generators, labels and results."""
    batches = []

    def recording(X, R, draws, rngs, labels, max_iter):
        results = fit_lockstep(X, R, draws, rngs, labels, max_iter)
        batches.append((draws, rngs, labels, results))
        return results

    monkeypatch.setattr(tck_mod, "_fit_lockstep", recording)
    km, model = tck_train(train, **kwargs)
    return km, model, batches


def assert_matches_member_oracle(monkeypatch, train, nan_at=None, **kwargs):
    """The lockstep ensemble against members fitted one at a time by the per-member EM:
    Gram and mixtures to ORACLE_TOL, views exactly, generators in the same final state."""
    km, model, batches = fit_recorded(monkeypatch, train, REAL_FIT_LOCKSTEP, **kwargs)
    km_o, model_o, batches_o = fit_recorded(
        monkeypatch, train, one_at_a_time(member_fit_diaggmm, member_posteriors, nan_at),
        **kwargs)
    np.testing.assert_allclose(km.gram, km_o.gram, rtol=0, atol=ORACLE_TOL)
    assert [(m.q1, m.q2) for m in model.members] == [(m.q1, m.q2) for m in model_o.members]
    for m, o in zip(model.members, model_o.members):
        for field in ("attributes", "segment_start", "segment_length", "train_subset"):
            assert np.array_equal(getattr(m, field), getattr(o, field)), field
        unit, unit_o = (P / np.linalg.norm(P, axis=1, keepdims=True)
                        for P in (m.train_posteriors, o.train_posteriors))
        np.testing.assert_allclose(unit @ unit.T, unit_o @ unit_o.T, rtol=0, atol=ORACLE_TOL)
        for field in ("weights", "means", "variances", "train_posteriors"):
            np.testing.assert_allclose(getattr(m, field), getattr(o, field),
                                       rtol=MIXTURE_TOL, atol=MIXTURE_TOL, err_msg=field)

    def states(recorded):
        return {label: rng.bit_generator.state
                for _, rngs, labels, _ in recorded for rng, label in zip(rngs, labels)}

    assert states(batches) == states(batches_o)
    for (*_, results), (*_, results_o) in zip(batches, batches_o, strict=True):
        for result, result_o in zip(results, results_o, strict=True):
            if isinstance(result, Exception):
                assert str(result) == str(result_o)
            else:
                (_, trace, reseed_points), (_, trace_o, reseed_points_o) = result, result_o
                assert reseed_points == reseed_points_o
                np.testing.assert_allclose(trace, trace_o, rtol=ORACLE_TOL, atol=0)
    return model, batches


class TestLockstep:
    def test_members_converge_and_reseed_at_their_own_steps(self, mar_split, monkeypatch):
        _, batches = assert_matches_member_oracle(monkeypatch, mar_split[0], Q=2, C=8, seed=1)
        lengths = [[len(trace) for _, trace, _ in results] for *_, results in batches]
        assert any(min(ls) < 20 == max(ls) for ls in lengths), lengths
        # A member re-seeds while another, which never does, keeps stepping past it.
        assert any(
            reseeds and any(not other_reseeds and len(other_trace) > reseeds[-1]
                            for _, other_trace, other_reseeds in results)
            for *_, results in batches for _, _, reseeds in results
        )

    def test_member_that_raises_mid_batch_is_refitted_alone(self, cohort, monkeypatch):
        target, step = "member (q1=1, q2=3, attempt=0)", 4
        real_prior = tck_mod._log_prior
        calls = {"n": 0}

        def poisoned(batch, *args):
            out = real_prior(batch, *args)
            calls["n"] += 1
            if calls["n"] == step:  # the first batch's step 4, all members still live
                out[1] = np.nan     # q2 = 3 is the batch's second job
            return out

        monkeypatch.setattr(tck_mod, "_log_prior", poisoned)
        model, batches = assert_matches_member_oracle(monkeypatch, cohort, nan_at={target: step},
                                                      Q=2, C=4, seed=6)
        (_, _, labels, results), (_, _, retry_labels, _) = batches[:2]
        assert labels.index(target) == 1
        assert str(results[1]) == "EM objective is not finite: nan"
        assert retry_labels == ["member (q1=1, q2=3, attempt=1)"]
        assert all(len(r[1]) > step for i, r in enumerate(results) if i != 1)
        assert len(model.members) == 2 * 3

    def test_members_fit_as_if_alone(self, mar_split, monkeypatch):
        # A member that does not step keeps its own slots and no other's: each job of
        # every batch, refitted alone from a fresh generator, gives the same bits.  One
        # wild value fails the members that fit on it.
        seed, samples = 2, mar_split[0].samples
        values, mask = samples[0].values.copy(), samples[0].mask.copy()
        values[0, 5], mask[0, 5] = 1e200, 1.0
        samples[0] = MTSample(samples[0].id, values, mask, samples[0].label)
        train = Cohort(samples, mar_split[0].attribute_names, mar_split[0].window_length)
        _, _, batches = fit_recorded(monkeypatch, train, REAL_FIT_LOCKSTEP, Q=3, C=8, seed=seed)
        R = train.mask
        X = np.where(R > 0, train.values, 0.0)
        N, V, T = X.shape
        for draws, _, labels, results in batches:
            for draw, label, result in zip(draws, labels, results):
                q1, q2, attempt = map(int, re.findall(r"=(\d+)", label))
                rng = np.random.default_rng([seed, q1, q2, attempt])
                redrawn = tck_mod._draw_member(rng, q1, q2, N, V, T)
                assert redrawn.keys() == draw.keys()
                assert all(np.array_equal(redrawn[k], draw[k]) for k in draw), label
                alone, = REAL_FIT_LOCKSTEP(X, R, [redrawn], [rng], [label], 20)
                if isinstance(result, Exception):
                    assert str(alone) == str(result), label
                    continue
                (member, *trace), (member_alone, *trace_alone) = result, alone
                assert trace_alone == trace, label
                for name, value in vars(member).items():
                    assert np.array_equal(getattr(member_alone, name), value), (label, name)

        def stops(r):
            if isinstance(r, Exception):
                return {"failed"}
            _, trace, reseed_points = r
            return ({"max_iter" if len(trace) == 20 else "converged"}
                    | ({"re-seeded"} if reseed_points else set()))

        assert any(set().union(*map(stops, results)) == {"failed", "max_iter", "converged",
                                                         "re-seeded"} for *_, results in batches)

    def test_batch_of_one(self, cohort, monkeypatch):
        _, batches = assert_matches_member_oracle(monkeypatch, cohort, Q=1, C=2, seed=7)
        assert [len(draws) for draws, *_ in batches] == [1]

    def test_subset_smaller_than_component_count(self, monkeypatch):
        train = generate_synthetic_cohort(3, 3, 2, 8, 1.5, seed=11)
        model, _ = assert_matches_member_oracle(monkeypatch, train, Q=2, C=8, seed=12)
        assert any(len(m.train_subset) < m.q2 for m in model.members)

    def test_attribute_without_observed_cell(self, cohort, monkeypatch):
        samples = [MTSample(s.id, s.values, np.where(np.arange(4)[:, None] == 0, 0.0, s.mask),
                            s.label) for s in cohort.samples]
        train = Cohort(samples, cohort.attribute_names, cohort.window_length)
        model, _ = assert_matches_member_oracle(monkeypatch, train, Q=2, C=4, seed=13)
        assert any(0 in m.attributes for m in model.members)


def parent_coefficients(G, V, T, weights, means, log_var, inv_var) -> list:
    """Each member's (W_m, G_m) coefficients as _Batch placed them before its coefficients
    and M-step sums shared one block: every cell's source in the value order [log w, c, −a,
    2μa, −μ²a] (``coef_from``), taken with ``np.take`` into a separate buffer."""
    G, V, T = (np.asarray(a) for a in (G, V, T))
    W, VT = 1 + 2 * V + 2 * V * T, V * T
    cw, members = tck_mod._offsets(G * W), np.arange(len(G))
    cm = np.repeat(members, G)
    col = cw[cm] + np.arange(len(cm)) - tck_mod._offsets(G)[cm]
    c_at = tck_mod._ragged(col + G[cm], V[cm], G[cm])
    mu_at = tck_mod._ragged(col + (1 + 2 * V[cm]) * G[cm], VT[cm], G[cm])
    coef_from = np.empty(cw[-1], dtype=np.intp)
    coef_from[np.concatenate([col, c_at, c_at + (V * G)[np.repeat(members, G * V)], mu_at,
                              mu_at + (VT * G)[np.repeat(members, G * VT)]])] = np.arange(cw[-1])
    a = 0.5 * inv_var
    mu_a = means * a[np.repeat(np.arange(np.sum(G * V)), np.repeat(T[cm], V[cm]))]
    values = np.concatenate([np.log(weights), -0.5 * (LOG_2PI + log_var), -a, 2.0 * mu_a,
                             -means * mu_a])
    coef = np.take(values, coef_from)
    return [coef[cw[m]:cw[m + 1]].reshape(W[m], G[m]) for m in members]


class TestBlockPlacement:
    def test_coefficients_and_log_likelihoods_match_the_separate_buffer(self):
        # Members of mixed G, V and T, fitted on some rows and scored on others.
        rng = np.random.default_rng(40)
        G, V, T = (2, 4, 3), (3, 1, 2), (5, 8, 6)
        weights = rng.dirichlet(np.ones(sum(G)))  # flat over all members, as in _fit_lockstep
        means = rng.normal(size=sum(g * v * t for g, v, t in zip(G, V, T)))
        variances = rng.uniform(0.5, 2.0, size=sum(g * v for g, v in zip(G, V)))
        log_var, inv_var = np.log(variances), 1.0 / variances
        expected = parent_coefficients(G, V, T, weights, means, log_var, inv_var)

        def flat_data(sizes):
            out = []
            for n, v, t in zip(sizes, V, T):
                X = rng.normal(size=(n, v, t))
                R = (rng.random((n, v, t)) >= 0.3).astype(float)
                out.append(tck_mod._flat_data(X * R, R, rng.normal(size=v)))
            return out

        fitting = tck_mod._Batch(flat_data((7, 5, 9)), G, V, T)
        scoring = tck_mod._Batch(flat_data((11, 4, 6)), G, V, T, like=fitting)
        for batch in (fitting, scoring):
            batch.block[:] = np.nan  # every cell must be written, as after an M-step
            batch.log_likelihoods(weights, means, log_var, inv_var, np.ones(3, dtype=bool))
            for m, coef in enumerate(expected):
                got_coef, loglik, _ = batch.views[m]
                assert got_coef.tobytes() == coef.tobytes()
                assert np.ascontiguousarray(loglik).tobytes() == (batch.F[m] @ coef).tobytes()


class TestWarningsNameMember:
    def test_underflow_and_failed_attempts(self, caplog):
        # One observed value whose square overflows: every member viewing its
        # attribute underflows every component, then fails and is retried.
        full = generate_synthetic_cohort(5, 10, 3, 8, 1.5, seed=14)
        samples = full.samples
        values = samples[0].values.copy()
        values[0, 0] = 1e200
        samples[0] = MTSample(samples[0].id, values, np.ones_like(values), samples[0].label)
        with caplog.at_level(logging.WARNING, logger="mtsk.tck"):
            tck_train(Cohort(samples, full.attribute_names, 8), Q=2, C=3, seed=15)
        messages = [r.getMessage() for r in caplog.records]
        member = r"member \(q1=\d, q2=\d, attempt=\d\)"
        assert any(re.fullmatch(rf"\d+ sample\(s\) underflowed every component in {member}; "
                                r"using uniform posteriors", m) for m in messages)
        assert any(re.fullmatch(rf"{member} failed", m) for m in messages)
        assert all("member (q1=" in m for m in messages), messages

    def test_component_that_stays_empty(self, cohort, monkeypatch, caplog):
        monkeypatch.setattr(tck_mod, "EMPTY_COMPONENT_WEIGHT", 1e9)  # every component empty
        with caplog.at_level(logging.WARNING, logger="mtsk.tck"):
            tck_train(cohort, Q=1, C=3, seed=16, max_iter=2)
        messages = [r.getMessage() for r in caplog.records]
        assert "component(s) [0, 1] stayed empty after re-seeding in " \
               "member (q1=1, q2=2, attempt=0)" in messages
        assert "component(s) [0, 1, 2] stayed empty after re-seeding in " \
               "member (q1=1, q2=3, attempt=0)" in messages


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
        tests = os.path.dirname(os.path.abspath(__file__))
        code = textwrap.dedent(f"""
            import itertools, logging, sys
            sys.path.insert(0, {src!r})
            import numpy as np
            sys.path.insert(0, {tests!r})
            import mtsk.tck as tck
            from mtsk.cohort import generate_synthetic_cohort
            from test_tck import Prior, fit_member
            logging.disable(logging.WARNING)
            rng = np.random.default_rng(0)
            X = rng.normal(size=(20, 3, 8))
            R = (rng.random(X.shape) >= 0.3).astype(float)
            prior = Prior(1.0, 2, 0.1, 0.05)

            def fit_error(prior_values):
                tck._log_prior = lambda *args: next(prior_values)
                try:
                    fit_member(X, R, 2, prior, seed=0)
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
