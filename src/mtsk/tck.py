"""Time series cluster kernel.

An ensemble of diagonal-covariance Gaussian mixtures fitted by MAP-EM on
randomly chosen time segments, attribute subsets and sample subsets.  The
mixtures have time-dependent means and time-constant per-attribute
variances; masked cells simply drop out of the likelihood, so incomplete
series need no imputation.  Each ensemble member contributes the cosine
similarities of its posterior vectors, and the kernel is their average,
which also supports out-of-sample evaluation against stored training
posteriors.

The likelihood is computed over the flattened V·T cells.  With the square
expanded, the masked log-density of every sample under every component is
one product of the data rows [R_v, R·X², R·X, R] (R_v: observed cells per
attribute) with the coefficient rows [c, −a, 2μa, −μ²a] (c = −(log 2π +
log σ²)/2 and a = 1/(2σ²), repeated over days), and the M-step's weighted
sums are the product of the posteriors with the same rows.  Each attribute
is first centered on one value, since the expansion cancels when |x| ≫ σ.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .kernels import KernelMatrix, _load_npz, _require_shape, _save_npz

logger = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
EMPTY_COMPONENT_WEIGHT = 1e-8
VARIANCE_FLOOR_FACTOR = 1e-4
MONOTONICITY_TOL = 1e-10
EM_TOL = 1e-6  # relative objective gain below which EM stops


@dataclass(frozen=True)
class MemberPrior:
    """Per-member prior hyperparameters.

    strength pulls component means toward the smoothed population curve,
    smoothing_width (days) sets the Gaussian window of that curve, and
    (a0, b0_scale) shape the variance prior, with b0 given per attribute
    as b0_scale times the attribute variance.
    """

    strength: float
    smoothing_width: int
    a0: float
    b0_scale: float


@dataclass
class FitResult:
    """Mixture weights, time-dependent means and time-constant variances, plus the EM trace."""

    weights: np.ndarray             # (G,)
    means: np.ndarray               # (G, V, T)
    variances: np.ndarray           # (G, V)
    objective_trace: list[float]
    reseed_points: list[int]        # trace indices where a component was re-seeded


def smoothed_mean_curve(X: np.ndarray, R: np.ndarray, width: int) -> np.ndarray:
    """Observed-mean curve of centered data (0 on empty days), Gaussian-smoothed along time."""
    counts = R.sum(axis=0)                 # (V, T)
    raw = np.divide((X * R).sum(axis=0), counts, out=np.zeros_like(counts), where=counts > 0)
    T = X.shape[2]
    offsets = np.arange(T)
    w = np.exp(-((offsets[:, None] - offsets[None, :]) ** 2) / (2.0 * width * width))
    return (raw @ w) / w.sum(axis=0)[None, :]


def _flat_data(X: np.ndarray, R: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Data rows [R_v, R·X², R·X, R], (N, V + 3·V·T), of X centered on ``center`` (V,)."""
    Xc = R * (X - center[None, :, None])
    with np.errstate(over="ignore"):  # a wild value squares to inf; see _flat_posteriors
        rows = [R.sum(axis=2), Xc * Xc, Xc, R]
    return np.concatenate([r.reshape(len(X), -1) for r in rows], axis=1)


def _log_likelihoods(means: np.ndarray, variances: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Masked log-density (N, G) of data rows ``F``, centered like ``means``."""
    G, V, T = means.shape
    a = np.repeat(1.0 / (2.0 * variances), T, axis=1)  # (G, V·T)
    mu = means.reshape(G, V * T)
    cst = -0.5 * (LOG_2PI + np.log(variances))         # (G, V)
    coef = np.concatenate([cst, -a, 2.0 * mu * a, -mu * mu * a], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a wild value gives -inf or nan
        return F @ coef.T


def _flat_posteriors(weights: np.ndarray, means: np.ndarray, variances: np.ndarray,
                     F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior matrix (N, G) and per-sample log-evidence (N,) of data rows ``F``."""
    with np.errstate(divide="ignore", invalid="ignore"):  # weight 0 gives -inf, a wild row nan
        logw = np.log(weights)[None, :] + _log_likelihoods(means, variances, F)
    bad = ~np.isfinite(logw.max(axis=1))
    if bad.any():
        logger.warning(
            "%d sample(s) underflowed every component; using uniform posteriors",
            int(bad.sum()),
        )
        logw[bad] = 0.0
    top = logw.max(axis=1)  # finite: underflowed rows were just set to 0
    evidence = top + np.log(np.exp(logw - top[:, None]).sum(axis=1))
    post = np.exp(logw - evidence[:, None])
    return post, evidence


def _posteriors(mix, X, R) -> tuple[np.ndarray, np.ndarray]:
    """Posterior matrix (N, G) and per-sample log-evidence (N,) under a FitResult or TCKMember.

    Each attribute is centered on the mean of the component means, which
    depends on the mixture alone, not on the samples being scored.
    """
    center = mix.means.mean(axis=(0, 2))
    means = mix.means - center[None, :, None]
    return _flat_posteriors(mix.weights, means, mix.variances, _flat_data(X, R, center))


def _log_prior(means: np.ndarray, variances: np.ndarray, smooth: np.ndarray,
               prior: MemberPrior, b0: np.ndarray) -> float:
    pen = ((means - smooth[None]) ** 2).sum(axis=2)  # (G, V)
    return float(
        -(prior.strength * pen / (2.0 * variances)).sum()
        - (prior.a0 * np.log(variances)).sum()
        - (b0[None, :] / variances).sum()
    )


def fit_diaggmm(
    X: np.ndarray,
    R: np.ndarray,
    n_components: int,
    prior: MemberPrior,
    seed,
    max_iter: int = 20,
) -> FitResult:
    """MAP-EM for the masked diagonal GMM.

    Alternates posterior computation with closed-form coordinate updates of
    weights, means (shrunk toward the smoothed population curve) and
    variances, so the penalized objective never decreases; a decrease or a
    non-finite objective raises FloatingPointError.  Components that lose
    all responsibility are re-seeded once from a random sample; a recurrence
    is accepted with a warning.  EM runs on data centered on each
    attribute's observed mean, and the returned means are moved back.
    """
    N, V, T = X.shape
    G = int(n_components)
    if N == 0:
        raise ValueError("cannot fit on an empty subset")
    if G < 1:
        raise ValueError("need at least one component")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    # Center each attribute on its observed mean; the rows then hold its variance too.
    n_obs = R.sum(axis=(0, 2))
    center = np.divide((X * R).sum(axis=(0, 2)), n_obs, out=np.zeros(V), where=n_obs > 0)
    F = _flat_data(X, R, center)
    D = V * T
    sq = F[:, V:V + D].reshape(N, V, T)
    RX = F[:, V + D:V + 2 * D].reshape(N, V, T)
    attr_var = np.maximum(np.divide(sq.sum(axis=(0, 2)), n_obs, out=np.ones(V),
                                    where=n_obs > 0), 1e-8)
    smooth = smoothed_mean_curve(RX, R, prior.smoothing_width)
    b0 = prior.b0_scale * attr_var
    floor = VARIANCE_FLOOR_FACTOR * attr_var
    lam = prior.strength

    def seeded_mean(idx: int) -> np.ndarray:
        # Blend of the sample's observed cells and the smoothed curve.
        return (RX[idx] + lam * smooth) / (R[idx] + lam)

    init_idx = rng.choice(N, size=G, replace=N < G)
    weights = np.full(G, 1.0 / G)
    means = np.stack([seeded_mean(i) for i in init_idx])
    variances = np.tile(attr_var, (G, 1))

    trace: list[float] = []
    reseed_points: list[int] = []
    reseeded: set[int] = set()
    prev_obj = None
    steps = 0
    while steps < max_iter + G:  # small headroom for re-seed rounds
        steps += 1
        post, evidence = _flat_posteriors(weights, means, variances, F)
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
        if empty.size:
            logger.warning("component(s) %s stayed empty after re-seeding", empty.tolist())

        obj = float(evidence.sum()) + _log_prior(means, variances, smooth, prior, b0)
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

        # M-step: exact coordinate maximization of the penalized bound.
        weights = counts / N
        Wv, S2, S, W = np.split(post.T @ F, [V, V + D, V + 2 * D], axis=1)
        S2, S, W = (M.reshape(G, V, T) for M in (S2, S, W))
        means = (S + lam * smooth[None]) / (W + lam)
        ss = (S2 - 2.0 * means * S + means * means * W).sum(axis=2)
        pen = lam * ((means - smooth[None]) ** 2).sum(axis=2)
        variances = (ss + pen + 2.0 * b0[None, :]) / (Wv + 2.0 * prior.a0)
        variances = np.maximum(variances, floor[None, :])

    return FitResult(weights, means + center[None, :, None], variances, trace, reseed_points)


# ---------------------------------------------------------------------------
# Ensemble


@dataclass
class TCKMember:
    """One fitted member, stored in a model archive field for field.  Its mixture
    is checked here, since an archive comes from outside the program."""

    q1: int
    q2: int
    segment_start: int
    segment_length: int
    attributes: np.ndarray      # sorted attribute indices
    train_subset: np.ndarray    # sorted sample indices used for fitting
    train_posteriors: np.ndarray  # (N_train, q2)
    strength: float
    smoothing_width: int
    a0: float
    b0_scale: float
    weights: np.ndarray         # (q2,)
    means: np.ndarray           # (q2, V_m, T_m) over the member's view
    variances: np.ndarray       # (q2, V_m)

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if not (self.variances > 0).all():
            raise ValueError("variances must stay above the floor (> 0)")


@dataclass
class TCKModel:
    members: list[TCKMember]
    Q: int
    C: int
    n_train: int
    n_attributes: int
    window_length: int
    train_gram: np.ndarray


def default_max_components(n_train: int) -> int:
    return min(40, max(2, math.ceil(n_train / 25) + 2))


def _unit_rows(P: np.ndarray) -> np.ndarray:
    return P / np.linalg.norm(P, axis=1, keepdims=True)


def _draw_member(rng, N, V, T, n_min, v_min, t_min):
    prior = MemberPrior(
        strength=float(np.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
        smoothing_width=int(rng.integers(1, 4)),
        a0=float(rng.uniform(0.01, 1.0)),
        b0_scale=float(rng.uniform(0.01, 0.1)),
    )
    seg_len = int(rng.integers(t_min, T + 1))
    seg_start = int(rng.integers(0, T - seg_len + 1))
    n_attrs = int(rng.integers(v_min, V + 1))
    attrs = np.sort(rng.choice(V, size=n_attrs, replace=False))
    n_sub = int(rng.integers(n_min, N + 1))
    subset = np.sort(rng.choice(N, size=n_sub, replace=False))
    return prior, seg_start, seg_len, attrs, subset


def tck_train(
    train: Cohort,
    Q: int = 30,
    C: int | None = None,
    seed: int = 0,
    max_iter: int = 20,
) -> tuple[KernelMatrix, TCKModel]:
    """Train the ensemble and return the normalized train Gram plus the model.

    For every (initialization q1, component count q2) pair the member draws
    its own hyperparameters, time segment, attribute subset and sample
    subset from a generator keyed on (seed, q1, q2), fits the mixture on the
    subset, and evaluates posteriors for all training samples.  The Gram
    accumulates cosine similarities of those posterior vectors and is
    divided by the member count, so the diagonal is exactly one.  A member
    whose fit fails is retried twice with fresh seeds, then skipped (the
    divisor shrinks accordingly).
    """
    N = len(train)
    if N < 2:
        raise ValueError("need at least 2 training samples")
    if C is None:
        C = default_max_components(N)
    if C < 2:
        raise ValueError("C must be >= 2")
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if max_iter < 1:  # checked here: the member loop below retries failed fits
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    # Zero the hidden cells: R * f(X) must see finite X even where R is 0.
    R = train.mask
    X = np.where(R > 0, train.values, 0.0)
    V, T = X.shape[1], X.shape[2]
    n_min = math.ceil(0.8 * N)
    v_min = min(2, V)
    t_min = min(6, T)

    members: list[TCKMember] = []
    K = np.zeros((N, N))
    for q1 in range(1, Q + 1):
        for q2 in range(2, C + 1):
            fit = None
            for attempt in range(3):
                rng = np.random.default_rng([seed, q1, q2, attempt])
                prior, seg_start, seg_len, attrs, subset = _draw_member(
                    rng, N, V, T, n_min, v_min, t_min
                )
                Xa = X[:, attrs, seg_start:seg_start + seg_len]
                Ra = R[:, attrs, seg_start:seg_start + seg_len]
                try:
                    fit = fit_diaggmm(Xa[subset], Ra[subset], q2, prior, rng, max_iter=max_iter)
                    break
                except Exception:
                    logger.warning(
                        "member (q1=%d, q2=%d) attempt %d failed", q1, q2, attempt,
                        exc_info=True,
                    )
            if fit is None:
                logger.warning("skipping member (q1=%d, q2=%d) after 3 attempts", q1, q2)
                continue
            post, _ = _posteriors(fit, Xa, Ra)
            unit = _unit_rows(post)
            K += unit @ unit.T
            members.append(TCKMember(q1, q2, seg_start, seg_len, attrs, subset, post,
                                     **vars(prior), weights=fit.weights, means=fit.means,
                                     variances=fit.variances))
    if not members:
        raise ValueError("every ensemble member failed to train")
    K /= len(members)
    np.clip(K, 0.0, 1.0, out=K)
    np.fill_diagonal(K, 1.0)
    km = KernelMatrix(K, "tck")
    return km, TCKModel(members, Q, C, N, V, T, km.gram)


def tck_test(model: TCKModel, test: Cohort) -> KernelMatrix:
    """Cross-kernel of stored training posteriors against a new cohort."""
    if len(test) == 0:
        raise ValueError("empty test cohort")
    _require_shape(test, (model.n_attributes, model.window_length), "the model's")
    R = test.mask
    X = np.where(R > 0, test.values, 0.0)
    K = np.zeros((model.n_train, len(test)))
    for m in model.members:
        days = slice(m.segment_start, m.segment_start + m.segment_length)
        post, _ = _posteriors(m, X[:, m.attributes, days], R[:, m.attributes, days])
        K += _unit_rows(m.train_posteriors) @ _unit_rows(post).T
    K /= len(model.members)
    np.clip(K, 0.0, 1.0, out=K)
    return KernelMatrix(model.train_gram, "tck", K)


# ---------------------------------------------------------------------------
# Serialization


def save_tck_model(model: TCKModel, path) -> None:
    meta = {k: v for k, v in vars(model).items() if k not in ("members", "train_gram")}
    _save_npz(path, meta, [vars(m) for m in model.members], {"train_gram": model.train_gram})


def load_tck_model(path) -> TCKModel:
    meta, records, arrays = _load_npz(path, "TCK model")
    return TCKModel([TCKMember(**r) for r in records], train_gram=arrays["train_gram"], **meta)
