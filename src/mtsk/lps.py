"""Learned pattern similarity.

Each series is cut into overlapping segments: a window of one attribute
predicts a lagged value of another.  Random regression trees (one random
feature per node, best threshold among a random sample) are grown on the
pooled segment rows of the training cohort; a patient is then represented
by the counts of its segment rows over every tree's terminal nodes, and
similarity is the histogram intersection kernel.  Every function works on
a whole ``Cohort``: trees grow and route all patients' segment rows by
their start in one NaN-marked copy of its arrays, with no segment matrix.
Missing cells are carried as NaN markers: rows with a missing target are
not used to grow trees, and a row missing a split feature follows the
child that received more training rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .kernels import KernelMatrix, _load_npz, _require_shape, _save_npz

MIN_SEGMENT_FRACTION = 0.15
MAX_SEGMENT_FRACTION = 0.5
MAX_LAG_FRACTION = 0.2
MIN_SPLIT_ROWS = 8
N_THRESHOLD_CANDIDATES = 20
# Gains within this fraction of node_sse of the best split are scored again by
# the direct formula: prefix sums round differently, though by far less.
_TIE_TOLERANCE = 1e-9


def _segment_rows(cohort: Cohort):
    """``(series, starts)``: the cohort as a NaN-marked (V, N * T) array, day d of patient n
    in column n * T + d, and ``starts(l, p)``, the column n * T + s where each segment row
    (patient n, start s) of length l and lag p begins, patient by patient."""
    N, V, T = cohort.values.shape
    series = np.where(cohort.mask > 0, cohort.values, np.nan).swapaxes(0, 1).reshape(V, N * T)
    return series, lambda l, p: (np.arange(0, N * T, T)[:, None] + np.arange(T - l - p + 1)).ravel()


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


@dataclass
class LPSForest:
    trees: list[LPSTree]
    n_attributes: int
    window_length: int

    @property
    def representation_length(self) -> int:
        return sum(t.n_leaves for t in self.trees)


def _grow(x: np.ndarray, starts: np.ndarray, tgt: np.ndarray, l: int, rng, max_depth: int,
          nodes: list, depth: int = 0) -> int:
    """Append the subtree of these rows to ``nodes`` depth first; returns its root id.

    Row i predicts ``tgt[i]`` from the l days of ``x`` (the predictor row)
    from ``starts[i]`` on; a node reads feature f as ``x[starts + f]``, and
    passes each child its rows' starts.  Each node is one ``[feature,
    threshold, left, right, missing_left]`` row; a leaf keeps ``[-1, nan, -1,
    -1, False]``.  A node draws its feature, then up to N_THRESHOLD_CANDIDATES
    thresholds among the observed values; rows missing the feature join the
    side with more observed rows.  One pass over the sorted column scores
    every threshold: prefix sums of the centred target give each side's sum,
    and the gain is the between-sides sum of squares.  The split keeps a
    positive gain, the first best in ascending threshold.  Prefix sums round
    differently from the direct formula, so gains within _TIE_TOLERANCE *
    node_sse of the best are scored again by it; a lone clear winner needs no
    second score.
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
    f = int(rng.integers(l))
    col = x[starts + f]
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
                   _grow(x, starts[go_left], tgt[go_left], l, rng, max_depth, nodes, depth + 1),
                   _grow(x, starts[~go_left], tgt[~go_left], l, rng, max_depth, nodes, depth + 1),
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
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if len(train) < 2:
        raise ValueError("need at least 2 training samples")
    _, V, T = train.values.shape
    l_min, l_max, p_max = segment_ranges(T)
    if l_min + 1 > T:
        raise ValueError(f"window of {T} day(s) is too short for segment rows")

    series, row_starts = _segment_rows(train)
    trees = []
    for j in range(n_trees):
        rng = np.random.default_rng([seed, j])
        l = int(rng.integers(l_min, l_max + 1))
        p = int(rng.integers(1, min(p_max, T - l) + 1))
        v_pred = int(rng.integers(V))
        v_tgt = int(rng.integers(V))
        starts = row_starts(l, p)
        tgt = series[v_tgt, starts + l + p - 1]
        keep = ~np.isnan(tgt)  # rows with an absent target teach nothing
        nodes = []
        # Rows are pooled patient by patient; _grow's threshold draws depend on that order.
        _grow(series[v_pred], starts[keep], tgt[keep], l, rng, max_depth, nodes)
        feature, threshold, left, right, missing_left = (
            np.array(column, dtype=dtype)
            for column, dtype in zip(zip(*nodes), (int, float, int, int, bool)))
        leaf_slot = np.where(feature < 0, np.cumsum(feature < 0) - 1, -1)
        trees.append(LPSTree(l, p, v_pred, v_tgt, feature, threshold, left, right,
                             missing_left, leaf_slot))
    return LPSForest(trees, V, T)


def lps_represent(forest: LPSForest, cohort: Cohort) -> np.ndarray:
    """Leaf counts of every patient: an (N, representation_length) int matrix.

    Each tree routes all segment rows at once: row (patient n, start s)
    reads day s + feature of the tree's predictor attribute from the
    ``_segment_rows`` layout.  A tree's block of columns counts,
    per patient, the rows that reached each of its leaves.
    """
    N, _, T = cohort.values.shape
    _require_shape(cohort, (forest.n_attributes, forest.window_length), "the forest's")
    series, row_starts = _segment_rows(cohort)
    blocks = []
    for t in forest.trees:
        starts = row_starts(t.segment_length, t.lag)
        node = np.zeros(starts.size, dtype=int)
        while (rows := np.flatnonzero(t.feature[node] >= 0)).size:
            at = node[rows]
            vals = series[t.predictor_attr, starts[rows] + t.feature[at]]
            go_left = np.where(np.isnan(vals), t.missing_left[at], vals <= t.threshold[at])
            node[rows] = np.where(go_left, t.left[at], t.right[at])
        counts = np.bincount(starts // T * t.n_leaves + t.leaf_slot[node],
                             minlength=N * t.n_leaves)
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
    _save_npz(path, {"n_attributes": forest.n_attributes, "window_length": forest.window_length},
              [vars(t) for t in forest.trees], {})


def load_lps_forest(path) -> LPSForest:
    meta, records, _ = _load_npz(path, "LPS forest")
    if "n_attributes" not in meta:
        raise ValueError(f"LPS forest {path} has no n_attributes entry in __meta__; "
                         "train and save the forest again")
    return LPSForest([LPSTree(**r) for r in records], **meta)
