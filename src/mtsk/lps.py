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


class _TreeBuilder:
    def __init__(self, rng, max_depth):
        self.rng = rng
        self.max_depth = max_depth
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.missing_left = []

    def _add_node(self):
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.missing_left.append(False)
        return len(self.feature) - 1

    def grow(self, pred: np.ndarray, tgt: np.ndarray, depth: int = 0) -> int:
        node = self._add_node()
        n = tgt.size
        if depth >= self.max_depth or n < MIN_SPLIT_ROWS:
            return node
        node_sse = float(((tgt - tgt.mean()) ** 2).sum())
        if node_sse == 0.0:
            return node
        f = int(self.rng.integers(pred.shape[1]))
        col = pred[:, f]
        observed = ~np.isnan(col)
        vals = col[observed]
        if np.unique(vals).size < 2:
            return node
        cand = np.unique(self.rng.choice(vals, size=min(N_THRESHOLD_CANDIDATES, vals.size),
                                         replace=False))
        best = None
        for theta in cand:
            go_left = col <= theta  # NaN compares False; reassigned below
            n_left_obs = int((vals <= theta).sum())
            n_right_obs = vals.size - n_left_obs
            if n_left_obs == 0 or n_right_obs == 0:
                continue
            missing_left = n_left_obs >= n_right_obs
            if missing_left:
                go_left = go_left | ~observed
            tl, tr = tgt[go_left], tgt[~go_left]
            sse = float(((tl - tl.mean()) ** 2).sum()) + float(((tr - tr.mean()) ** 2).sum())
            gain = node_sse - sse
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, theta, missing_left, go_left)
        if best is None:
            return node
        _, theta, missing_left, go_left = best
        self.feature[node] = f
        self.threshold[node] = theta
        self.missing_left[node] = missing_left
        self.left[node] = self.grow(pred[go_left], tgt[go_left], depth + 1)
        self.right[node] = self.grow(pred[~go_left], tgt[~go_left], depth + 1)
        return node

    def finish(self, segment_length, lag, v_pred, v_tgt) -> LPSTree:
        feature = np.array(self.feature, dtype=int)
        leaf_slot = np.full(feature.size, -1, dtype=int)
        leaves = np.flatnonzero(feature < 0)
        leaf_slot[leaves] = np.arange(leaves.size)
        return LPSTree(
            segment_length=segment_length,
            lag=lag,
            predictor_attr=v_pred,
            target_attr=v_tgt,
            feature=feature,
            threshold=np.array(self.threshold),
            left=np.array(self.left, dtype=int),
            right=np.array(self.right, dtype=int),
            missing_left=np.array(self.missing_left, dtype=bool),
            leaf_slot=leaf_slot,
        )


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
        builder = _TreeBuilder(rng, max_depth)
        # Masking pools the rows patient by patient; grow()'s threshold draws depend on that order.
        builder.grow(pred[keep], tgt[keep])
        trees.append(builder.finish(l, p, v_pred, v_tgt))
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
    """Histogram intersection of every row of H with every row of B, divided by the row length."""
    out = np.empty((H.shape[0], B.shape[0]))
    for i, h in enumerate(H):
        out[i] = np.minimum(h, B).sum(axis=1)
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
    meta = {
        "window_length": forest.window_length,
        "trees": [
            {
                "segment_length": t.segment_length,
                "lag": t.lag,
                "predictor_attr": t.predictor_attr,
                "target_attr": t.target_attr,
            }
            for t in forest.trees
        ],
    }
    arrays = {}
    for k, t in enumerate(forest.trees):
        arrays[f"t{k}_feature"] = t.feature
        arrays[f"t{k}_threshold"] = t.threshold
        arrays[f"t{k}_left"] = t.left
        arrays[f"t{k}_right"] = t.right
        arrays[f"t{k}_missing_left"] = t.missing_left
        arrays[f"t{k}_leaf_slot"] = t.leaf_slot
    _save_npz(path, meta, arrays)


def load_lps_forest(path) -> LPSForest:
    meta, data = _load_npz(path, "LPS forest")
    trees = [
        LPSTree(
            segment_length=tm["segment_length"],
            lag=tm["lag"],
            predictor_attr=tm["predictor_attr"],
            target_attr=tm["target_attr"],
            feature=data[f"t{k}_feature"],
            threshold=data[f"t{k}_threshold"],
            left=data[f"t{k}_left"],
            right=data[f"t{k}_right"],
            missing_left=data[f"t{k}_missing_left"],
            leaf_slot=data[f"t{k}_leaf_slot"],
        )
        for k, tm in enumerate(meta["trees"])
    ]
    return LPSForest(trees, meta["window_length"])
