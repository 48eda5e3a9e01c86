"""Learned pattern similarity.

Each series is cut into overlapping segments: a window of one attribute
predicts a lagged value of another.  Random regression trees (one random
feature per node, best threshold among a random sample) are grown on the
pooled segment rows of the training cohort; a patient is then represented
by the counts of its segment rows over every tree's terminal nodes, and
similarity is the histogram intersection kernel.  Every function works on
a whole ``Cohort``: segment rows come from one index into its (N, V, T)
arrays, and each tree routes the rows of all patients in one call.
Missing cells are carried as NaN markers: rows with a missing target are
not used to grow trees, and a row missing a split feature follows the
child that received more training rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .kernels import KernelMatrix, _load_npz, _save_npz

MIN_SEGMENT_FRACTION = 0.15
MAX_SEGMENT_FRACTION = 0.5
MAX_LAG_FRACTION = 0.2
MIN_SPLIT_ROWS = 8
N_THRESHOLD_CANDIDATES = 20
# Gains within this fraction of node_sse of the best split are scored again by
# the direct formula: prefix sums round differently, though by far less.
_TIE_TOLERANCE = 1e-9


def build_segment_matrix(
    cohort: Cohort, segment_length: int, lag: int, v_pred: int, v_tgt: int
) -> tuple[np.ndarray, np.ndarray]:
    """Segment rows of every patient: (predict window, lagged target value).

    Returns ``(predictors, targets)`` where predictors is (N, S, l) and
    targets is (N, S), S = T - l - p + 1; missing cells appear as NaN.
    """
    l, p = segment_length, lag
    T = cohort.window_length
    if l < 1 or p < 1:
        raise ValueError("segment_length and lag must be >= 1")
    if l + p > T:
        raise ValueError(
            f"segment_length {l} + lag {p} exceeds window {T}; use a larger window"
        )
    attrs = [v_pred, v_tgt]
    series = np.where(cohort.mask[:, attrs] > 0, cohort.values[:, attrs], np.nan)
    S = T - l - p + 1
    idx = np.arange(S)[:, None] + np.arange(l)[None, :]
    return series[:, 0, idx], series[:, 1, l + p - 1:]


@dataclass
class LPSTree:
    """One random-lag regression tree, stored as flat node arrays."""

    segment_length: int
    lag: int
    predictor_attr: int
    target_attr: int
    feature: np.ndarray       # split feature per node, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray          # child node ids, -1 at leaves
    right: np.ndarray
    missing_left: np.ndarray  # bool: absent split value goes left
    leaf_slot: np.ndarray     # leaf position within this tree's block, -1 inside

    @property
    def n_leaves(self) -> int:
        return int((self.leaf_slot >= 0).sum())

    def route(self, predictors: np.ndarray) -> np.ndarray:
        """Leaf slot of every segment row."""
        node = np.zeros(predictors.shape[0], dtype=int)
        while True:
            internal = self.feature[node] >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            at = node[rows]
            vals = predictors[rows, self.feature[at]]
            absent = np.isnan(vals)
            go_left = np.where(absent, self.missing_left[at], vals <= self.threshold[at])
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.leaf_slot[node]


@dataclass
class LPSForest:
    trees: list[LPSTree]
    window_length: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def representation_length(self) -> int:
        return sum(t.n_leaves for t in self.trees)


def _grow(pred: np.ndarray, tgt: np.ndarray, rng, max_depth: int, nodes: list,
          depth: int = 0) -> int:
    """Append the subtree of these rows to ``nodes`` depth first; returns its root id.

    Each node is one ``[feature, threshold, left, right, missing_left]`` row;
    a leaf keeps ``[-1, nan, -1, -1, False]``.  A node draws its feature, then
    up to N_THRESHOLD_CANDIDATES thresholds among the observed values; rows
    missing the feature join the side with more observed rows.  One pass over
    the sorted column scores every threshold: prefix sums of the centred
    target give each side's sum, and the gain is the between-sides sum of
    squares.  The split keeps a positive gain, the first best in ascending
    threshold.  Prefix sums round differently from the direct formula, so
    gains within _TIE_TOLERANCE * node_sse of the best are scored again by
    it; a lone clear winner needs no second score.
    """
    node = len(nodes)
    nodes.append([-1, np.nan, -1, -1, False])
    n = tgt.size
    if depth >= max_depth or n < MIN_SPLIT_ROWS:
        return node
    centred = tgt - tgt.mean()
    node_sse = float((centred ** 2).sum())
    if node_sse == 0.0:
        return node
    f = int(rng.integers(pred.shape[1]))
    col = pred[:, f]
    observed = ~np.isnan(col)
    vals = col[observed]
    order = np.argsort(vals)
    ordered = vals[order]
    if vals.size == 0 or ordered[0] == ordered[-1]:  # fewer than 2 distinct values
        return node
    cand = np.unique(rng.choice(vals, size=min(N_THRESHOLD_CANDIDATES, vals.size),
                                replace=False))
    cand = cand[cand < ordered[-1]]  # the maximum would leave no observed row on the right
    if cand.size == 0:
        return node
    n_left_obs = np.searchsorted(ordered, cand, side="right")
    missing_left = n_left_obs >= vals.size - n_left_obs
    n_left = n_left_obs + (n - vals.size) * missing_left
    s_left = np.cumsum(centred[observed][order])[n_left_obs - 1]
    s_left += centred[~observed].sum() * missing_left
    gains = s_left ** 2 / n_left + (centred.sum() - s_left) ** 2 / (n - n_left)
    tol = _TIE_TOLERANCE * node_sse  # no split gains more than node_sse
    near = np.flatnonzero(gains >= gains.max() - tol)
    best = None
    for i in near:
        go_left = (col <= cand[i]) | (missing_left[i] & ~observed)
        gain = gains[i]
        if near.size > 1 or gain <= tol:
            tl, tr = tgt[go_left], tgt[~go_left]
            gain = node_sse - (float(((tl - tl.mean()) ** 2).sum())
                               + float(((tr - tr.mean()) ** 2).sum()))
        if gain > 0 and (best is None or gain > best[0]):
            best = (gain, cand[i], missing_left[i], go_left)
    if best is None:
        return node
    _, theta, missing_left, go_left = best
    nodes[node] = [f, theta,
                   _grow(pred[go_left], tgt[go_left], rng, max_depth, nodes, depth + 1),
                   _grow(pred[~go_left], tgt[~go_left], rng, max_depth, nodes, depth + 1),
                   missing_left]
    return node


def segment_ranges(T: int) -> tuple[int, int, int]:
    """(min segment length, max segment length, max lag) for a window of T days."""
    l_min = math.ceil(MIN_SEGMENT_FRACTION * T)
    l_max = max(l_min, math.ceil(MAX_SEGMENT_FRACTION * T))
    p_max = max(1, math.ceil(MAX_LAG_FRACTION * T))
    return l_min, l_max, p_max


def lps_train(
    train: Cohort,
    n_trees: int = 200,
    max_depth: int = 6,
    seed: int = 0,
) -> LPSForest:
    """Grow the random-lag forest on pooled segment rows of the cohort."""
    if n_trees < 1:
        raise ValueError("need at least one tree")
    if len(train) < 2:
        raise ValueError("need at least 2 training samples")
    T = train.window_length
    V = train.n_attributes
    l_min, l_max, p_max = segment_ranges(T)
    if l_min + 1 > T:
        raise ValueError(f"window of {T} day(s) is too short for segment rows")

    trees = []
    for j in range(n_trees):
        rng = np.random.default_rng([seed, j])
        l = int(rng.integers(l_min, l_max + 1))
        p = int(rng.integers(1, min(p_max, T - l) + 1))
        v_pred = int(rng.integers(V))
        v_tgt = int(rng.integers(V))
        pred, tgt = build_segment_matrix(train, l, p, v_pred, v_tgt)
        keep = ~np.isnan(tgt)  # rows with an absent target teach nothing
        nodes = []
        # Masking pools the rows patient by patient; _grow's threshold draws depend on that order.
        _grow(pred[keep], tgt[keep], rng, max_depth, nodes)
        feature, threshold, left, right, missing_left = (
            np.array(column, dtype=dtype)
            for column, dtype in zip(zip(*nodes), (int, float, int, int, bool)))
        leaf_slot = np.where(feature < 0, np.cumsum(feature < 0) - 1, -1)
        trees.append(LPSTree(l, p, v_pred, v_tgt, feature, threshold, left, right,
                             missing_left, leaf_slot))
    return LPSForest(trees, T)


def lps_represent(forest: LPSForest, cohort: Cohort) -> np.ndarray:
    """Leaf counts of every patient: an (N, representation_length) int matrix.

    Each tree routes the segment rows of the whole cohort once; its block
    of columns holds, per patient, how many rows reached each of its leaves.
    """
    N = len(cohort)
    blocks = []
    for t in forest.trees:
        pred, _ = build_segment_matrix(cohort, t.segment_length, t.lag,
                                       t.predictor_attr, t.target_attr)
        leaf = t.route(pred.reshape(-1, t.segment_length))
        sample = np.repeat(np.arange(N), pred.shape[1])
        counts = np.bincount(sample * t.n_leaves + leaf, minlength=N * t.n_leaves)
        blocks.append(counts.reshape(N, t.n_leaves))
    return np.hstack(blocks)


def _intersection(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Histogram intersection of every row of H with every row of B, divided by the row length.

    Counts are non-negative integers and min(a, b) = sum over k >= 1 of
    [a >= k][b >= k], so the sums are one matrix product of 0/1 indicators
    per count level k, over the columns where both sides reach k.  Every
    partial sum is an integer far below 2**53, so float64 holds it exactly.
    """
    out = np.zeros((H.shape[0], B.shape[0]))
    h_top, b_top = H.max(axis=0, initial=0), B.max(axis=0, initial=0)
    for k in range(1, int(np.minimum(h_top, b_top).max(initial=0)) + 1):
        cols = np.flatnonzero((h_top >= k) & (b_top >= k))
        out += (H[:, cols] >= k).astype(float) @ (B[:, cols] >= k).astype(float).T
    return out / H.shape[1]


def lps_gram(
    forest: LPSForest, train: Cohort, test: Cohort | None = None
) -> KernelMatrix:
    """Histogram-intersection Gram of a cohort (plus optional cross-kernel)."""
    H = lps_represent(forest, train)
    cross = None if test is None else _intersection(H, lps_represent(forest, test))
    return KernelMatrix(_intersection(H, H), "lps", cross)


# ---------------------------------------------------------------------------
# Serialization


def save_lps_forest(forest: LPSForest, path) -> None:
    _save_npz(path, {"window_length": forest.window_length},
              [vars(t) for t in forest.trees], {})


def load_lps_forest(path) -> LPSForest:
    meta, records, _ = _load_npz(path, "LPS forest")
    return LPSForest([LPSTree(**r) for r in records], meta["window_length"])
