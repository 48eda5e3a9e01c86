"""Time series cluster kernel.

An ensemble of diagonal-covariance Gaussian mixtures fitted by MAP-EM on
randomly chosen time segments, attribute subsets and sample subsets.  The
mixtures have time-dependent means and time-constant per-attribute
variances; masked cells simply drop out of the likelihood, so incomplete
series need no imputation.  Each ensemble member contributes the cosine
similarities of its posterior vectors, and the kernel is their average,
which also supports out-of-sample evaluation against stored training
posteriors.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .kernels import KernelMatrix, _load_npz, _save_npz

logger = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
EMPTY_COMPONENT_WEIGHT = 1e-8
VARIANCE_FLOOR_FACTOR = 1e-4
MONOTONICITY_TOL = 1e-10
EM_TOL = 1e-6  # relative objective gain below which EM stops


@dataclass
class DiagGMMParams:
    """Mixture weights, time-dependent means and time-constant variances."""

    weights: np.ndarray    # (G,)
    means: np.ndarray      # (G, V, T)
    variances: np.ndarray  # (G, V)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if (self.variances <= 0).any():
            raise ValueError("variances must stay above the floor (> 0)")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


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
    params: DiagGMMParams
    posteriors: np.ndarray          # (N, G)
    objective_trace: list[float]
    reseed_points: list[int]        # trace indices where a component was re-seeded


def smoothed_mean_curve(X: np.ndarray, R: np.ndarray, width: int) -> np.ndarray:
    """Per-attribute observed-mean curve, Gaussian-smoothed along time."""
    counts = R.sum(axis=0)                 # (V, T)
    sums = (X * R).sum(axis=0)
    attr_counts = counts.sum(axis=1)       # (V,)
    attr_means = np.divide(
        sums.sum(axis=1), attr_counts, out=np.zeros_like(attr_counts), where=attr_counts > 0
    )
    raw = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    raw = np.where(counts > 0, raw, attr_means[:, None])
    T = X.shape[2]
    offsets = np.arange(T)
    w = np.exp(-((offsets[:, None] - offsets[None, :]) ** 2) / (2.0 * width * width))
    return (raw @ w) / w.sum(axis=0)[None, :]


def observed_attribute_variance(X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Variance of each attribute's observed cells, floored to stay usable."""
    counts = R.sum(axis=(0, 2))
    sums = (X * R).sum(axis=(0, 2))
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    sq = (R * (X - means[None, :, None]) ** 2).sum(axis=(0, 2))
    var = np.divide(sq, counts, out=np.ones_like(sq), where=counts > 0)
    return np.maximum(var, 1e-8)


def _log_likelihoods(params: DiagGMMParams, X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Masked log-density of every sample under every component, (N, G)."""
    N = X.shape[0]
    G = params.n_components
    out = np.empty((N, G))
    inv2 = 1.0 / (2.0 * params.variances)            # (G, V)
    cst = -0.5 * (LOG_2PI + np.log(params.variances))  # (G, V)
    for g in range(G):
        d2 = (X - params.means[g][None]) ** 2
        term = cst[g][None, :, None] - d2 * inv2[g][None, :, None]
        out[:, g] = (R * term).sum(axis=(1, 2))
    return out


def _posteriors(params, X, R) -> tuple[np.ndarray, np.ndarray]:
    """Posterior matrix (N, G) and per-sample log-evidence (N,)."""
    with np.errstate(divide="ignore"):  # a fully emptied component has weight 0
        logw = np.log(params.weights)[None, :] + _log_likelihoods(params, X, R)
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


def _log_prior(params: DiagGMMParams, smooth: np.ndarray, prior: MemberPrior,
               b0: np.ndarray) -> float:
    pen = ((params.means - smooth[None]) ** 2).sum(axis=2)  # (G, V)
    return float(
        -(prior.strength * pen / (2.0 * params.variances)).sum()
        - (prior.a0 * np.log(params.variances)).sum()
        - (b0[None, :] / params.variances).sum()
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
    variances, so the penalized objective never decreases.  Components that
    lose all responsibility are re-seeded once from a random sample; a
    recurrence is accepted with a warning.
    """
    N, V, T = X.shape
    G = int(n_components)
    if N == 0:
        raise ValueError("cannot fit on an empty subset")
    if G < 1:
        raise ValueError("need at least one component")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    smooth = smoothed_mean_curve(X, R, prior.smoothing_width)
    attr_var = observed_attribute_variance(X, R)
    b0 = prior.b0_scale * attr_var
    floor = VARIANCE_FLOOR_FACTOR * attr_var
    lam = prior.strength

    def seeded_mean(idx: int) -> np.ndarray:
        # Blend of the sample's observed cells and the smoothed curve.
        return (R[idx] * X[idx] + lam * smooth) / (R[idx] + lam)

    init_idx = rng.choice(N, size=G, replace=N < G)
    params = DiagGMMParams(
        weights=np.full(G, 1.0 / G),
        means=np.stack([seeded_mean(i) for i in init_idx]),
        variances=np.tile(attr_var, (G, 1)),
    )

    trace: list[float] = []
    reseed_points: list[int] = []
    reseeded: set[int] = set()
    posteriors = None
    prev_obj = None
    steps = 0
    while steps < max_iter + G:  # small headroom for re-seed rounds
        steps += 1
        post, evidence = _posteriors(params, X, R)
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
        if empty.size:
            logger.warning("component(s) %s stayed empty after re-seeding", empty.tolist())

        obj = float(evidence.sum()) + _log_prior(params, smooth, prior, b0)
        if __debug__ and prev_obj is not None:
            assert obj >= prev_obj - MONOTONICITY_TOL * (1.0 + abs(prev_obj)), (
                f"EM objective decreased: {prev_obj} -> {obj}"
            )
        trace.append(obj)
        posteriors = post
        if prev_obj is not None and obj - prev_obj < EM_TOL * (1.0 + abs(prev_obj)):
            break
        prev_obj = obj
        if len(trace) >= max_iter:
            break

        # M-step: exact coordinate maximization of the penalized bound.
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

    if posteriors is None:  # every round ended in a re-seed
        posteriors, _ = _posteriors(params, X, R)
    return FitResult(params, posteriors, trace, reseed_points)


# ---------------------------------------------------------------------------
# Ensemble


@dataclass
class TCKMember:
    q1: int
    q2: int
    segment_start: int
    segment_length: int
    attributes: np.ndarray      # sorted attribute indices
    train_subset: np.ndarray    # sorted sample indices used for fitting
    prior: MemberPrior
    params: DiagGMMParams
    train_posteriors: np.ndarray  # (N_train, q2)

    def restrict(self, X: np.ndarray, R: np.ndarray):
        sl = slice(self.segment_start, self.segment_start + self.segment_length)
        return X[:, self.attributes, sl], R[:, self.attributes, sl]


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
                Xs = X[np.ix_(subset, attrs)][:, :, seg_start:seg_start + seg_len]
                Rs = R[np.ix_(subset, attrs)][:, :, seg_start:seg_start + seg_len]
                try:
                    fit = fit_diaggmm(Xs, Rs, q2, prior, rng, max_iter=max_iter)
                    break
                except Exception:
                    logger.warning(
                        "member (q1=%d, q2=%d) attempt %d failed", q1, q2, attempt,
                        exc_info=True,
                    )
            if fit is None:
                logger.warning("skipping member (q1=%d, q2=%d) after 3 attempts", q1, q2)
                continue
            Xa = X[:, attrs, seg_start:seg_start + seg_len]
            Ra = R[:, attrs, seg_start:seg_start + seg_len]
            post, _ = _posteriors(fit.params, Xa, Ra)
            unit = _unit_rows(post)
            K += unit @ unit.T
            members.append(
                TCKMember(q1, q2, seg_start, seg_len, attrs, subset, prior,
                          fit.params, post)
            )
    if not members:
        raise ValueError("every ensemble member failed to train")
    K /= len(members)
    np.clip(K, 0.0, 1.0, out=K)
    np.fill_diagonal(K, 1.0)
    km = KernelMatrix(K, "tck")
    return km, TCKModel(members, Q, C, N, V, T, km.gram)


def tck_test(model: TCKModel, test: Cohort) -> KernelMatrix:
    """Cross-kernel of stored training posteriors against a new cohort."""
    R = test.mask
    X = np.where(R > 0, test.values, 0.0)
    if len(test) == 0:
        raise ValueError("empty test cohort")
    if X.shape[1] != model.n_attributes or X.shape[2] != model.window_length:
        raise ValueError(
            f"test cohort is {X.shape[1]} x {X.shape[2]}, model expects "
            f"{model.n_attributes} x {model.window_length}"
        )
    K = np.zeros((model.n_train, len(test)))
    for m in model.members:
        Xa, Ra = m.restrict(X, R)
        post, _ = _posteriors(m.params, Xa, Ra)
        K += _unit_rows(m.train_posteriors) @ _unit_rows(post).T
    K /= len(model.members)
    np.clip(K, 0.0, 1.0, out=K)
    return KernelMatrix(model.train_gram, "tck", K)


# ---------------------------------------------------------------------------
# Serialization


def save_tck_model(model: TCKModel, path) -> None:
    meta = {
        "Q": model.Q,
        "C": model.C,
        "n_train": model.n_train,
        "n_attributes": model.n_attributes,
        "window_length": model.window_length,
        "members": [
            {
                "q1": m.q1,
                "q2": m.q2,
                "segment_start": m.segment_start,
                "segment_length": m.segment_length,
                "strength": m.prior.strength,
                "smoothing_width": m.prior.smoothing_width,
                "a0": m.prior.a0,
                "b0_scale": m.prior.b0_scale,
            }
            for m in model.members
        ],
    }
    arrays = {"train_gram": model.train_gram}
    for k, m in enumerate(model.members):
        arrays[f"m{k}_attrs"] = m.attributes
        arrays[f"m{k}_subset"] = m.train_subset
        arrays[f"m{k}_weights"] = m.params.weights
        arrays[f"m{k}_means"] = m.params.means
        arrays[f"m{k}_variances"] = m.params.variances
        arrays[f"m{k}_posteriors"] = m.train_posteriors
    _save_npz(path, meta, arrays)


def load_tck_model(path) -> TCKModel:
    meta, data = _load_npz(path, "TCK model")
    members = [
        TCKMember(
            q1=mm["q1"],
            q2=mm["q2"],
            segment_start=mm["segment_start"],
            segment_length=mm["segment_length"],
            attributes=data[f"m{k}_attrs"],
            train_subset=data[f"m{k}_subset"],
            prior=MemberPrior(mm["strength"], mm["smoothing_width"], mm["a0"], mm["b0_scale"]),
            params=DiagGMMParams(
                data[f"m{k}_weights"], data[f"m{k}_means"], data[f"m{k}_variances"]
            ),
            train_posteriors=data[f"m{k}_posteriors"],
        )
        for k, mm in enumerate(meta["members"])
    ]
    return TCKModel(
        members,
        meta["Q"],
        meta["C"],
        meta["n_train"],
        meta["n_attributes"],
        meta["window_length"],
        data["train_gram"],
    )
