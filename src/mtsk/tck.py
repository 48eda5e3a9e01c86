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
expanded, the weighted masked log-density of every sample under every
component is one product of the data rows [1, R_v, Σ_t R·X², R·X, R] (R_v:
observed cells per attribute) with the coefficient columns [log w, c, −a,
2μa, −μ²a] (c = −(log 2π + log σ²)/2 and a = 1/(2σ²)); the precision is
constant over days, so the squares enter only through their sum over days.
The M-step's weighted sums are the product of the posteriors with the same
rows.  Each attribute is first centered on one value, since the expansion
cancels when |x| ≫ σ.

The members that share an initialization q1 are fitted together in one
lockstep EM, each on its own unpadded view.  Per step, the only per-member
calls are the two matrix products; the log-sum-exp, the M-step, the prior
and the next coefficients run once per batch on flat arrays (``_Batch``).
Each member keeps its own generator, convergence test and re-seeds, and a
member whose fit fails is refitted in a follow-up batch.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cohort import Cohort
from .kernels import KernelMatrix, _load_npz, _records, _require_kind, _require_shape, _save_npz

logger = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)
EMPTY_COMPONENT_WEIGHT = 1e-8
VARIANCE_FLOOR_FACTOR = 1e-4
MONOTONICITY_TOL = 1e-10
EM_TOL = 1e-6  # relative objective gain below which EM stops
SCORE_BATCH_CELLS = 1 << 18  # data-row cells (doubles) that tck_test scores in one batch


@functools.lru_cache(maxsize=None)
def _smoothing_window(T: int, width: int) -> np.ndarray:
    """Gaussian weights (T, T) over day offsets, each column normalized to sum 1."""
    offsets = np.arange(T)
    w = np.exp(-((offsets[:, None] - offsets[None, :]) ** 2) / (2.0 * width * width))
    w /= w.sum(axis=0)[None, :]
    w.flags.writeable = False  # shared by every caller of the cache
    return w


def _flat_data(X: np.ndarray, R: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Data rows [1, R_v, Σ_t R·X², R·X, R], (N, 1 + 2·V + 2·V·T), of X centered on
    ``center`` (V,)."""
    N = len(X)
    RX = (X - center[:, None]) * R
    with np.errstate(over="ignore"):  # a wild value squares to inf; see _Batch.posteriors
        squares = np.einsum("nvt,nvt->nv", RX, RX)
    return np.concatenate([np.ones((N, 1)), np.einsum("nvt->nv", R), squares,
                           RX.reshape(N, -1), R.reshape(N, -1)], axis=1)


def _offsets(sizes) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes)))


def _ragged(starts, sizes, steps=None) -> np.ndarray:
    """The ranges starts[k] + steps[k]·(0, …, sizes[k] − 1), concatenated (steps 1 if None)."""
    local = np.arange(sizes.sum()) - np.repeat(_offsets(sizes)[:-1], sizes)
    return np.repeat(starts, sizes) + (local if steps is None else local * np.repeat(steps, sizes))


class _Batch:
    """B mixtures over their own data rows, laid out for whole-batch arithmetic.

    Member m has data rows F_m (n_m, W_m) over V_m attributes and T_m days,
    W_m = 1 + 2·V_m + 2·V_m·T_m, and G_m components.  It owns one block of G_m·W_m
    cells of a flat buffer, viewed as (W_m, G_m): the E-step scatters its coefficients
    there (``coef_at``), and the M-step overwrites them with its sums P_mF_m (G_m, W_m),
    read back at ``sum_at``.  Its log-likelihoods are the rows of an (N, G_max) buffer
    and its posteriors the columns of a (G_max, N) one, N = Σ n_m, padded past G_m
    with −inf and 0.  Components, (component, attribute) pairs and (component,
    attribute, day) cells are numbered across the batch (``comp``, ``gv`` and ``gvt``).
    """

    def __init__(self, F: list[np.ndarray], G, V, T, like: _Batch | None = None):
        """``like``, a batch of the same mixtures over other rows, lends its index arrays,
        which depend on the mixture shapes alone."""
        self.F = F
        self.B = B = len(F)
        n = np.array([len(f) for f in F])
        G, V, T = (np.asarray(a) for a in (G, V, T))
        W, VT = 1 + 2 * V + 2 * V * T, V * T
        cw, self.rows = _offsets(G * W), _offsets(n)
        self.block = np.zeros(cw[-1])
        self.loglik = np.full((self.rows[-1], G.max()), -np.inf)
        self.post = np.zeros((G.max(), self.rows[-1]))
        self.views = [(self.block[cw[m]:cw[m + 1]].reshape(W[m], G[m]),
                       self.loglik[self.rows[m]:self.rows[m + 1], :G[m]],
                       self.post[:G[m], self.rows[m]:self.rows[m + 1]]) for m in range(B)]
        members = np.arange(B)
        self.row_member = np.repeat(members, n)
        if like is not None:
            vars(self).update({k: v for k, v in vars(like).items() if k not in vars(self)})
            return
        self.comp = _offsets(G)          # member m owns components comp[m]:comp[m + 1]
        self.gv, self.gvt = _offsets(G * V), _offsets(G * VT)
        cm = self.comp_member = np.repeat(members, G)
        self.comp_local = np.arange(len(cm)) - self.comp[cm]
        self.blank = np.where(np.arange(G.max())[:, None] < G, 0.0, -np.inf)  # (G_max, B)
        self.gv_member = np.repeat(members, G * V)
        self.gvt_member = np.repeat(members, G * VT)
        days = np.repeat(T[cm], V[cm])                          # per (component, attribute)
        self.gv_starts = _offsets(days)[:-1]
        self.gvt_gv = np.repeat(np.arange(self.gv[-1]), days)
        # Positions of log w, then of c and −a (the R_v and Σ_t R·X² rows), then of 2μa
        # and −μ²a (the R·X and R rows) in the coefficients; of the same rows in the sums.
        col, row = cw[cm] + self.comp_local, cw[cm] + self.comp_local * W[cm]
        c_at = _ragged(col + G[cm], V[cm], G[cm])
        mu_at = _ragged(col + (1 + 2 * V[cm]) * G[cm], VT[cm], G[cm])
        self.coef_at = np.concatenate([col, c_at, c_at + (V * G)[self.gv_member], mu_at,
                                       mu_at + (VT * G)[self.gvt_member]])
        c_at, mu_at = _ragged(row + 1, V[cm]), _ragged(row + 1 + 2 * V[cm], VT[cm])
        self.sum_at = np.concatenate([c_at, c_at + V[self.gv_member], mu_at,
                                      mu_at + VT[self.gvt_member]])

    def log_likelihoods(self, weights, means, log_var, inv_var, live: np.ndarray) -> None:
        """Fill the live members' weighted log-likelihoods from flat centered means,
        log-variances and inverse variances."""
        a = 0.5 * inv_var
        mu_a = means * a[self.gvt_gv]
        with np.errstate(divide="ignore"):  # weight 0 gives -inf
            log_w = np.log(weights)
        values = np.concatenate([log_w, -0.5 * (LOG_2PI + log_var), -a, 2.0 * mu_a, -means * mu_a])
        self.block[self.coef_at] = values
        with np.errstate(over="ignore", invalid="ignore"):  # a wild value gives -inf or nan
            for m in np.flatnonzero(live).tolist():
                np.matmul(self.F[m], self.views[m][0], out=self.views[m][1])

    def posteriors(self, live: np.ndarray, labels: list[str]) -> np.ndarray:
        """Fill the posteriors and return the log-evidence of every row."""
        post = self.post
        np.copyto(post, self.loglik.T)
        top = post.max(axis=0)
        if not np.isfinite(top).all():
            bad = ~np.isfinite(top)
            per_member = np.bincount(self.row_member[bad], minlength=self.B)
            for m in np.flatnonzero(per_member * live).tolist():
                logger.warning("%d sample(s) underflowed every component in %s; "
                               "using uniform posteriors", per_member[m], labels[m])
            post[:, bad] = self.blank[:, self.row_member[bad]]
            top[bad] = 0.0
        post -= top
        np.exp(post, out=post)
        total = post.sum(axis=0)
        post /= total
        return top + np.log(total)

    def counts(self) -> np.ndarray:
        """Posterior mass of every component (flat)."""
        return np.add.reduceat(self.post, self.rows[:-1], axis=1)[self.comp_local,
                                                                   self.comp_member]


def _posteriors(mixes: list, Xs: list, Rs: list, labels: list[str]) -> list:
    """Posterior matrix (N_m, G_m) and per-sample log-evidence (N_m,) of each mixture (any
    record of weights, means and variances) on its own data, in one batch.

    Each attribute is centered on the mean of the component means, which
    depends on the mixture alone, not on the samples being scored.
    """
    centers = [mix.means.mean(axis=(0, 2)) for mix in mixes]
    batch = _Batch([_flat_data(X, R, c) for X, R, c in zip(Xs, Rs, centers)],
                   *zip(*(mix.means.shape for mix in mixes)))
    means = np.concatenate([(mix.means - c[None, :, None]).ravel()
                            for mix, c in zip(mixes, centers)])
    variances = np.concatenate([mix.variances.ravel() for mix in mixes])
    live = np.ones(batch.B, dtype=bool)
    batch.log_likelihoods(np.concatenate([mix.weights for mix in mixes]), means,
                          np.log(variances), 1.0 / variances, live)
    evidence = batch.posteriors(live, labels)
    return [(batch.views[m][2].T.copy(), evidence[batch.rows[m]:batch.rows[m + 1]])
            for m in range(batch.B)]


def _log_prior(batch: _Batch, means, log_var, inv_var, smooth, lam, a0, b0) -> np.ndarray:
    """Log prior (B,) of every member from flat means, log-variances and inverse variances,
    and (component, attribute) constants."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the member
        dev = means - smooth
        pen = np.add.reduceat(dev * dev, batch.gv_starts)
        terms = (0.5 * lam * pen + b0) * inv_var + a0 * log_var
    return -np.bincount(batch.gv_member, terms, minlength=batch.B)


def _seeded_means(RX: np.ndarray, R: np.ndarray, smooth: np.ndarray, lam: float,
                  idx) -> np.ndarray:
    """Means seeded from data rows ``idx``: a blend of their observed cells (the R·X and R
    blocks) and the smoothed curve, flattened."""
    return ((RX[idx] + lam * smooth) / (R[idx] + lam)).ravel()


def _fit_lockstep(X: np.ndarray, R: np.ndarray, draws: list[dict], rngs: list,
                  labels: list[str], max_iter: int) -> list:
    """MAP-EM for a batch of masked diagonal GMMs on views of (X, R), stepped in lockstep.

    Each draw holds a member's TCKMember fields before its mixture (``_draw_member``):
    q2 components are fitted on the rows ``train_subset`` of its view.  The result
    holds per draw its TCKMember, with the posteriors of all N rows under its view,
    its objective trace and re-seed points (trace indices), or the
    FloatingPointError that stopped it.  Each member alternates posterior
    computation with closed-form coordinate updates of weights, means (shrunk
    toward the smoothed population curve) and variances, so its penalized
    objective never decreases; a decrease or a non-finite objective stops it.
    Components that lose all responsibility are re-seeded once from a random
    fitted row; a recurrence is accepted with a warning.  EM runs on data centered
    on each attribute's observed mean over the fitted rows, and the returned means
    are moved back.  A member draws from its own generator only: the initial
    means, then its re-seeds in step order.
    """
    B, N = len(draws), len(X)
    setup = []
    for draw, rng in zip(draws, rngs):
        # The fitted rows come first, so the EM reads a prefix of the member's data rows.
        subset, start, n_comp = draw["train_subset"], draw["segment_start"], draw["q2"]
        rest = np.ones(N, dtype=bool)
        rest[subset] = False
        order = np.concatenate([subset, np.flatnonzero(rest)])
        Xm, Rm = (A[order[:, None], draw["attributes"], start:start + draw["segment_length"]]
                  for A in (X, R))
        (n, v, t), VT = (len(subset), *Xm.shape[1:]), Xm.shape[1] * Xm.shape[2]
        # Center each attribute on its observed mean; the rows then hold its variance too.
        n_obs = np.einsum("nvt->v", Rm[:n])
        center = np.divide(np.einsum("nvt,nvt->v", Xm[:n], Rm[:n]), n_obs, out=np.zeros(v),
                           where=n_obs > 0)
        F = _flat_data(Xm, Rm, center)
        total = F[:n].sum(axis=0)
        attr_var = np.maximum(np.divide(total[1 + v:1 + 2 * v], n_obs, out=np.ones(v),
                                        where=n_obs > 0), 1e-8)
        # The smoothed curve: each cell's observed mean (0 on empty days), smoothed over days.
        sums, counts = total[1 + 2 * v:1 + 2 * v + VT], total[1 + 2 * v + VT:]
        raw = np.divide(sums, counts, out=np.zeros_like(counts), where=counts > 0).reshape(v, t)
        smooth = (raw @ _smoothing_window(t, draw["smoothing_width"])).ravel()
        seeded_mean = functools.partial(_seeded_means, F[:n, 1 + 2 * v:1 + 2 * v + VT],
                                        F[:n, 1 + 2 * v + VT:], smooth, draw["strength"])
        init = seeded_mean(rng.choice(n, size=n_comp, replace=n < n_comp))
        setup.append((F, order, n, n_comp, v, t, center, smooth, attr_var, seeded_mean, init))
    F, orders, n, G, V, T, centers, smooth, attr_var, seeds, init = zip(*setup)
    batch = _Batch([f[:n_m] for f, n_m in zip(F, n)], G, V, T)
    own = [(slice(*batch.comp[m:m + 2]), slice(*batch.gvt[m:m + 2]), slice(*batch.gv[m:m + 2]))
           for m in range(B)]
    gv_member, gvt_member = batch.gv_member, batch.gvt_member
    lam, a0, b0_scale = (np.array([draw[k] for draw in draws])
                         for k in ("strength", "a0", "b0_scale"))
    lam_gv, lam_gvt, a0 = lam[gv_member], lam[gvt_member], a0[gv_member]
    attr_var = np.concatenate([np.tile(a, g) for a, g in zip(attr_var, G)])
    b0, floor = b0_scale[gv_member] * attr_var, VARIANCE_FLOOR_FACTOR * attr_var
    smooth = np.concatenate([np.tile(s, g) for s, g in zip(smooth, G)])
    lam_smooth = lam_gvt * smooth
    # With the means' update substituted, the variance update's spread plus penalty is
    # S2 + λ·Σ_t s² − Σ_t μ·(S + λ·s); the constant part is fixed per pair.
    with np.errstate(over="ignore"):  # a wild value squares to inf; its member fails
        spread_const = lam_gv * np.add.reduceat(smooth * smooth, batch.gv_starts) + 2.0 * b0
    n_rows = np.array(n)[batch.comp_member]
    nGV, nGVT = int(batch.gv[-1]), int(batch.gvt[-1])
    split = [(0, nGV), (nGV, 2 * nGV), (2 * nGV, 2 * nGV + nGVT), (2 * nGV + nGVT, None)]

    weights = 1.0 / np.array(G)[batch.comp_member]
    means, variances = np.concatenate(init), attr_var
    traces: list[list[float]] = [[] for _ in range(B)]
    reseed_points: list[list[int]] = [[] for _ in range(B)]
    prev: list[float | None] = [None] * B
    failures: dict[int, FloatingPointError] = {}
    reseeded = np.zeros(batch.comp[-1], dtype=bool)
    live = np.ones(B, dtype=bool)

    # Each member stops within max_iter objective steps and at most G re-seed steps.
    while live.any():
        log_var, inv_var = np.log(variances), 1.0 / variances
        batch.log_likelihoods(weights, means, log_var, inv_var, live)
        evidence = batch.posteriors(live, labels)
        counts = batch.counts()
        empty = counts < EMPTY_COMPONENT_WEIGHT
        with_empty = set(batch.comp_member[empty].tolist()) if empty.any() else ()
        objective = (np.add.reduceat(evidence, batch.rows[:-1]) + _log_prior(
            batch, means, log_var, inv_var, smooth, lam_gv, a0, b0)).tolist()

        stepping = np.zeros(B, dtype=bool)
        for m in np.flatnonzero(live).tolist():
            comps, trace = own[m][0], traces[m]
            fresh = np.flatnonzero(empty[comps] & ~reseeded[comps]) if m in with_empty else ()
            if len(fresh):
                cells = V[m] * T[m]
                for g in fresh.tolist():
                    at = batch.gvt[m] + g * cells
                    means[at:at + cells] = seeds[m](int(rngs[m].integers(n[m])))
                reseeded[comps][fresh] = True
                reseed_points[m].append(len(trace))
                prev[m] = None
            else:
                if m in with_empty:
                    logger.warning("component(s) %s stayed empty after re-seeding in %s",
                                   np.flatnonzero(empty[comps]).tolist(), labels[m])
                obj, last = objective[m], prev[m]
                if not math.isfinite(obj):
                    failures[m] = FloatingPointError(f"EM objective is not finite: {obj}")
                elif last is not None and obj < last - MONOTONICITY_TOL * (1.0 + abs(last)):
                    failures[m] = FloatingPointError(f"EM objective decreased: {last} -> {obj}")
                if m in failures:
                    live[m] = False
                    continue
                trace.append(obj)
                converged = last is not None and obj - last < EM_TOL * (1.0 + abs(last))
                prev[m] = obj
                live[m] = stepping[m] = not converged and len(trace) < max_iter

        if stepping.any():
            # M-step: exact coordinate maximization of the penalized bound, computed for
            # every slot; every member that does not step keeps its parameters.
            for m in np.flatnonzero(stepping).tolist():
                block, _, post = batch.views[m]  # C-ordered, so its reshape is a view too
                np.matmul(post, batch.F[m], out=block.reshape(post.shape[0], -1))
            sums = batch.block[batch.sum_at]
            Wv, S2, S, Wt = (sums[i:j] for i, j in split)  # R_v, Σ_t R·X²; R·X, R by day
            with np.errstate(all="ignore"):  # a member that does not step may hold anything here
                num = S + lam_smooth
                new_means = num / (Wt + lam_gvt)
                spread = S2 + spread_const - np.add.reduceat(new_means * num, batch.gv_starts)
                new_vars = np.maximum(spread / (Wv + 2.0 * a0), floor)
                new_weights = counts / n_rows
            if (keep := ~stepping).any():  # when every member steps, no slot is kept
                for new, old, member in zip((new_weights, new_means, new_vars),
                                            (weights, means, variances),
                                            (batch.comp_member, gvt_member, gv_member)):
                    np.copyto(new, old, where=keep[member])
            weights, means, variances = new_weights, new_means, new_vars

    # Score all N rows of each fitted member's view, on the data its EM ran on.
    fitted = np.array([m not in failures for m in range(B)])
    scoring = _Batch(list(F), G, V, T, like=batch)
    scoring.log_likelihoods(weights, means, np.log(variances), 1.0 / variances, fitted)
    scoring.posteriors(fitted, labels)
    results = []
    for m in range(B):
        if m in failures:
            results.append(failures[m])
            continue
        w, mu, var = (p[at] for p, at in zip((weights, means, variances), own[m]))
        post = np.empty((N, G[m]))
        post[orders[m]] = scoring.views[m][2].T
        member = TCKMember(**draws[m], train_posteriors=post, weights=w,
                           means=mu.reshape(G[m], V[m], T[m]) + centers[m][None, :, None],
                           variances=var.reshape(G[m], V[m]))
        results.append((member, traces[m], reseed_points[m]))
    return results


# ---------------------------------------------------------------------------
# Ensemble


@dataclass
class TCKMember:
    """One fitted member, stored in a model archive field for field; ``TCKModel`` checks it."""

    q1: int
    q2: int
    segment_start: int
    segment_length: int
    attributes: np.ndarray      # sorted attribute indices
    train_subset: np.ndarray    # sorted sample indices used for fitting
    train_posteriors: np.ndarray  # (N_train, q2)
    strength: float             # pull of the component means toward the smoothed curve
    smoothing_width: int        # days: the Gaussian window of that curve
    a0: float                   # variance prior shape
    b0_scale: float             # variance prior scale, over the attribute's variance
    weights: np.ndarray         # (q2,)
    means: np.ndarray           # (q2, V_m, T_m) over the member's view
    variances: np.ndarray       # (q2, V_m)


@dataclass
class TCKModel:
    members: list[TCKMember]
    Q: int
    C: int
    n_train: int
    n_attributes: int
    window_length: int
    train_gram: np.ndarray = field(init=False)  # the mean cosine Gram of the members' posteriors

    def __post_init__(self):  # each member must fit itself and the model; NaN fails each check
        N, V, T = self.n_train, self.n_attributes, self.window_length
        for m in self.members:
            _require_kind(m, "q1 q2 segment_start segment_length smoothing_width",
                          "{} must be an integer")
            _require_kind(m, "attributes train_subset", "{} must be a 1-d integer array", ndim=1)
            _require_kind(m, "strength a0 b0_scale", "{} must be a real number", "iuf")
            G, A, attrs, s = m.q2, len(m.attributes), m.attributes.tolist(), m.segment_start
            for name, shape in (("weights", (G,)), ("means", (G, A, m.segment_length)),
                                ("variances", (G, A)), ("train_posteriors", (N, G))):
                if np.shape(getattr(m, name)) != shape:
                    raise ValueError(f"{name} has shape {np.shape(getattr(m, name))}, not {shape}")
            if not abs(m.weights.sum() - 1.0) <= 1e-12:
                raise ValueError("mixture weights must sum to 1")
            if not (m.variances > 0).all():
                raise ValueError("variances must stay above the floor (> 0)")
            if len(set(attrs)) < A or not all(0 <= a < V for a in attrs):
                raise ValueError(f"attributes {attrs} must be distinct and lie in [0, {V})")
            if not 0 <= s <= T - m.segment_length:
                raise ValueError(f"segment days [{s}, {s + m.segment_length}) must lie in [0, {T})")
        K = np.zeros((N, N))
        for m in self.members:
            unit = _unit_rows(m.train_posteriors)
            K += unit @ unit.T
        K /= len(self.members)
        np.clip(K, 0.0, 1.0, out=K)
        np.fill_diagonal(K, 1.0)
        self.train_gram = KernelMatrix(K, "tck").gram


def default_max_components(n_train: int) -> int:
    return min(40, max(2, math.ceil(n_train / 25) + 2))


def _unit_rows(P: np.ndarray) -> np.ndarray:
    return P / np.sqrt((P * P).sum(axis=1, keepdims=True))  # np.linalg.norm, without its checks


def _draw_member(rng, q1, q2, N, V, T) -> dict:
    """Member (q1, q2)'s TCKMember fields before its mixture, drawn in this order: the prior
    (strength, smoothing width, a0, b0_scale), time segment, attributes and sample subset."""
    prior = dict(strength=float(np.exp(rng.uniform(math.log(0.1), math.log(10.0)))),
                 smoothing_width=int(rng.integers(1, 4)),
                 a0=float(rng.uniform(0.01, 1.0)),
                 b0_scale=float(rng.uniform(0.01, 0.1)))
    seg_len = int(rng.integers(min(6, T), T + 1))
    seg_start = int(rng.integers(0, T - seg_len + 1))
    attrs = np.sort(rng.choice(V, size=int(rng.integers(min(2, V), V + 1)), replace=False))
    subset = np.sort(rng.choice(N, size=int(rng.integers(math.ceil(0.8 * N), N + 1)),
                                replace=False))
    return dict(q1=q1, q2=q2, segment_start=seg_start, segment_length=seg_len,
                attributes=attrs, train_subset=subset, **prior)


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
    subset from a generator keyed on (seed, q1, q2, attempt), fits the
    mixture on the subset, and evaluates posteriors for all training
    samples.  The members of one q1 are fitted in one lockstep batch.  The
    model derives the Gram from them: the cosine similarities of their
    posterior vectors, summed in (q1, q2) order and divided by the member
    count, with a diagonal of exactly one.  A member whose fit fails is
    refitted in a follow-up batch with the next attempt's draws, twice at
    most, then skipped (the divisor shrinks).  Each warning names its member.
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
    if max_iter < 1:  # checked here: the member batches below retry failed fits
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    # Zero the hidden cells: R * f(X) must see finite X even where R is 0.
    R = train.mask
    X = np.where(R > 0, train.values, 0.0)
    V, T = X.shape[1], X.shape[2]

    members: list[TCKMember] = []
    for q1 in range(1, Q + 1):
        fitted, pending = {}, list(range(2, C + 1))
        for attempt in range(3):  # members whose fit fails are refitted with fresh draws
            rngs = [np.random.default_rng([seed, q1, q2, attempt]) for q2 in pending]
            draws = [_draw_member(rng, q1, q2, N, V, T) for rng, q2 in zip(rngs, pending)]
            labels = [f"member (q1={q1}, q2={q2}, attempt={attempt})" for q2 in pending]
            pending = []
            for draw, fit in zip(draws, _fit_lockstep(X, R, draws, rngs, labels, max_iter)):
                if isinstance(fit, Exception):
                    logger.warning("member (q1=%d, q2=%d, attempt=%d) failed", q1, draw["q2"],
                                   attempt, exc_info=fit)
                    pending.append(draw["q2"])
                else:
                    fitted[draw["q2"]] = fit[0]
            if not pending:
                break
        for q2 in range(2, C + 1):
            if q2 not in fitted:
                logger.warning("skipping member (q1=%d, q2=%d) after 3 attempts", q1, q2)
                continue
            members.append(fitted[q2])
    if not members:
        raise ValueError("every ensemble member failed to train")
    model = TCKModel(members, Q, C, N, V, T)
    return KernelMatrix(model.train_gram, "tck"), model


def tck_test(model: TCKModel, test: Cohort) -> KernelMatrix:
    """Cross-kernel of stored training posteriors against a new cohort."""
    if len(test) == 0:
        raise ValueError("empty test cohort")
    _require_shape(test, (model.n_attributes, model.window_length), "the model's")
    R = test.mask
    X = np.where(R > 0, test.values, 0.0)
    K = np.zeros((model.n_train, len(test)))
    # Members are scored in runs of about SCORE_BATCH_CELLS data-row cells each.
    width = [len(test) * (1 + 2 * len(m.attributes) * (1 + m.segment_length))
             for m in model.members]
    run = np.cumsum(width) // SCORE_BATCH_CELLS
    rows = np.arange(len(test))[:, None]  # indexes rows too, for (N, V, T)-ordered copies
    for _, group in itertools.groupby(zip(run.tolist(), model.members), key=lambda x: x[0]):
        group = [m for _, m in group]
        views = [(rows, m.attributes, slice(m.segment_start, m.segment_start + m.segment_length))
                 for m in group]
        scored = _posteriors(group, [X[v] for v in views], [R[v] for v in views],
                             [f"member (q1={m.q1}, q2={m.q2})" for m in group])
        for m, (post, _) in zip(group, scored):
            K += _unit_rows(m.train_posteriors) @ _unit_rows(post).T
    K /= len(model.members)
    np.clip(K, 0.0, 1.0, out=K)
    return KernelMatrix(model.train_gram, "tck", K)


# ---------------------------------------------------------------------------
# Serialization


def save_tck_model(model: TCKModel, path) -> None:
    meta = {k: v for k, v in vars(model).items() if k not in ("members", "train_gram")}
    _save_npz(path, meta, [vars(m) for m in model.members])


def load_tck_model(path) -> TCKModel:
    meta, records = _load_npz(path, "TCK model")
    return _records(path, records, TCKMember, functools.partial(TCKModel, **meta))
