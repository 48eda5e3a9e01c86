import json
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtsk import lps
from mtsk.cohort import (
    Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness,
    generate_synthetic_cohort, train_test_split,
)
from mtsk.kernels import _load_npz, _save_npz
from mtsk.lps import (
    MIN_SPLIT_ROWS,
    N_THRESHOLD_CANDIDATES,
    LPSForest,
    LPSTree,
    _TIE_TOLERANCE,
    _grow_forest,
    _segment_rows,
    _stable_order,
    load_lps_forest,
    lps_gram,
    lps_represent,
    lps_train,
    save_lps_forest,
    segment_ranges,
)


def _sample(values, sid="x", mask=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones_like(values) if mask is None else np.asarray(mask, dtype=float)
    return MTSample(sid, values, mask)


def _with_root(nodes, value):
    """A copy of a node array with the root's entry set to ``value``."""
    nodes = nodes.copy()
    nodes[0] = value
    return nodes


def _cohort(*samples):
    V, T = samples[0].values.shape
    return Cohort(list(samples), [f"a{v}" for v in range(V)], T)


def _n_leaves(tree) -> int:
    return int((tree.feature < 0).sum())


def _leaf_slots(tree) -> np.ndarray:
    """Each leaf's column in its tree's block, leaves numbered in node order; -1 at splits."""
    leaf = tree.feature < 0
    return np.where(leaf, leaf.cumsum() - 1, -1)


def _blocks(forest):
    """Column boundaries of each tree's block in an ``lps_represent`` matrix."""
    return np.cumsum([0] + [_n_leaves(t) for t in forest.trees])


def _without_left(rows) -> tuple:
    """``(feature, threshold, right, missing_left)`` arrays of depth-first ``[feature,
    threshold, left, right, missing_left]`` node rows, once every split's left child is
    checked to be the next node, as ``LPSTree`` leaves it."""
    feature, threshold, left, right, missing_left = (
        np.array(column, dtype=dtype)
        for column, dtype in zip(zip(*rows), (int, float, int, int, bool)))
    split = np.flatnonzero(feature >= 0)
    assert np.array_equal(left[split], split + 1)
    return feature, threshold, right, missing_left


# ---------------------------------------------------------------------------
# Reference: the per-sample LPS path, one sample and one tree at a time.


def _oracle_segment_matrix(x: MTSample, l, p, v_pred, v_tgt):
    T = x.values.shape[1]
    row_pred = np.where(x.mask[v_pred] > 0, x.values[v_pred], np.nan)
    row_tgt = np.where(x.mask[v_tgt] > 0, x.values[v_tgt], np.nan)
    S = T - l - p + 1
    idx = np.arange(S)[:, None] + np.arange(l)[None, :]
    return row_pred[idx], row_tgt[np.arange(S) + l + p - 1]


def _oracle_segments(cohort: Cohort, l, p, v_pred, v_tgt):
    """(N, S, l) predictors and (N, S) targets: the per-sample segment rows, stacked."""
    rows = [_oracle_segment_matrix(x, l, p, v_pred, v_tgt) for x in cohort.samples]
    return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])


def _route_leaves(tree, predictors):
    """Leaf slot of every row of a segment matrix: the reference routing."""
    node = np.zeros(predictors.shape[0], dtype=int)
    while True:
        internal = tree.feature[node] >= 0
        if not internal.any():
            break
        rows = np.flatnonzero(internal)
        at = node[rows]
        vals = predictors[rows, tree.feature[at]]
        absent = np.isnan(vals)
        go_left = np.where(absent, tree.missing_left[at], vals <= tree.threshold[at])
        node[rows] = np.where(go_left, at + 1, tree.right[at])
    return _leaf_slots(tree)[node]


def _oracle_route(tree, predictors):
    """Histogram of one sample's segment rows over the tree's leaves."""
    return np.bincount(_route_leaves(tree, predictors), minlength=_n_leaves(tree))


def _oracle_lps_represent(forest, cohort: Cohort):
    """The segment-matrix ``lps_represent``: each tree copies an (N, S, l) matrix and routes it."""
    N = len(cohort)
    blocks = []
    for t in forest.trees:
        pred, _ = _oracle_segments(cohort, t.segment_length, t.lag,
                                   t.predictor_attr, t.target_attr)
        leaf = _route_leaves(t, pred.reshape(-1, t.segment_length))
        sample = np.repeat(np.arange(N), pred.shape[1])
        counts = np.bincount(sample * _n_leaves(t) + leaf, minlength=N * _n_leaves(t))
        blocks.append(counts.reshape(N, _n_leaves(t)))
    return np.hstack(blocks)


def _oracle_represent(forest, x: MTSample):
    return np.concatenate([
        _oracle_route(t, _oracle_segment_matrix(x, t.segment_length, t.lag,
                                                t.predictor_attr, t.target_attr)[0])
        for t in forest.trees
    ])


def _oracle_kernel(a, b) -> float:
    """Histogram intersection, normalized by the total representation length."""
    if a.shape != b.shape:
        raise ValueError(f"representation lengths differ: {a.shape} vs {b.shape}")
    return float(np.minimum(a, b).sum() / a.size)


def _oracle_intersection(H, B):
    """Histogram intersection of every row of H with every row of B, one row of H at a time."""
    out = np.empty((H.shape[0], B.shape[0]))
    for i, h in enumerate(H):
        out[i] = np.minimum(h, B).sum(axis=1)
    return out / H.shape[1]


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

    def columns(self) -> tuple:
        """``(feature, threshold, right, missing_left)``; see ``_without_left``."""
        return _without_left(zip(self.feature, self.threshold, self.left, self.right,
                                 self.missing_left))

    def finish(self, segment_length, lag, v_pred, v_tgt) -> LPSTree:
        return LPSTree(segment_length, lag, v_pred, v_tgt, *self.columns())


def _oracle_train(train: Cohort, n_trees: int, max_depth: int, seed: int) -> LPSForest:
    """The list-building tree grower, with ``lps_train``'s per-tree draws."""
    T, V = train.window_length, train.n_attributes
    l_min, l_max, p_max = segment_ranges(T)
    trees = []
    for j in range(n_trees):
        rng = np.random.default_rng([seed, j])
        l = int(rng.integers(l_min, l_max + 1))
        p = int(rng.integers(1, min(p_max, T - l) + 1))
        v_pred = int(rng.integers(V))
        v_tgt = int(rng.integers(V))
        pred, tgt = _oracle_segments(train, l, p, v_pred, v_tgt)
        keep = ~np.isnan(tgt)
        builder = _TreeBuilder(rng, max_depth)
        builder.grow(pred[keep], tgt[keep])
        trees.append(builder.finish(l, p, v_pred, v_tgt))
    return LPSForest(trees, V, T)


def _matrix_grow(pred: np.ndarray, tgt: np.ndarray, rng, max_depth: int, nodes: list,
                 depth: int = 0) -> int:
    """The segment-matrix ``_grow``: each child gets a copy of its (rows, l) predictors."""
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
    if vals.size == 0 or ordered[0] == ordered[-1]:
        return node
    cand = np.unique(rng.choice(vals, size=min(N_THRESHOLD_CANDIDATES, vals.size),
                                replace=False))
    cand = cand[cand < ordered[-1]]
    if cand.size == 0:
        return node
    n_left_obs = np.searchsorted(ordered, cand, side="right")
    missing_left = n_left_obs >= vals.size - n_left_obs
    n_left = n_left_obs + (n - vals.size) * missing_left
    s_left = np.cumsum(centred[observed][order])[n_left_obs - 1]
    s_left += centred[~observed].sum() * missing_left
    gains = s_left ** 2 / n_left + (centred.sum() - s_left) ** 2 / (n - n_left)
    tol = _TIE_TOLERANCE * node_sse
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
                   _matrix_grow(pred[go_left], tgt[go_left], rng, max_depth, nodes, depth + 1),
                   _matrix_grow(pred[~go_left], tgt[~go_left], rng, max_depth, nodes, depth + 1),
                   missing_left]
    return node


def _oracle_matrix_train(train: Cohort, n_trees: int, max_depth: int, seed: int):
    """The segment-matrix ``lps_train``: ``(forest, generators)``, one generator per tree.

    Each tree copies an (N, S, l) segment matrix and grows by ``_matrix_grow``.
    """
    T, V = train.window_length, train.n_attributes
    l_min, l_max, p_max = segment_ranges(T)
    trees, generators = [], []
    for j in range(n_trees):
        rng = np.random.default_rng([seed, j])
        l = int(rng.integers(l_min, l_max + 1))
        p = int(rng.integers(1, min(p_max, T - l) + 1))
        v_pred = int(rng.integers(V))
        v_tgt = int(rng.integers(V))
        pred, tgt = _oracle_segments(train, l, p, v_pred, v_tgt)
        keep = ~np.isnan(tgt)
        nodes = []
        _matrix_grow(pred[keep], tgt[keep], rng, max_depth, nodes)
        trees.append(LPSTree(l, p, v_pred, v_tgt, *_without_left(nodes)))
        generators.append(rng)
    return LPSForest(trees, V, T), generators


def _grow(x: np.ndarray, starts: np.ndarray, tgt: np.ndarray, l: int, rng, max_depth: int,
          nodes: list, depth: int = 0) -> int:
    """The recursive grower, one node at a time: appends the subtree of these rows to
    ``nodes`` depth first and returns its root id.

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


def _oracle_recursive_train(train: Cohort, n_trees: int, max_depth: int, seed: int):
    """The tree-at-a-time ``lps_train``: ``(forest, generators)``, each tree grown alone by
    ``_grow`` from its own generator."""
    _, V, T = train.values.shape
    l_min, l_max, p_max = segment_ranges(T)
    series, row_starts = _segment_rows(train)
    trees, generators = [], []
    for j in range(n_trees):
        rng = np.random.default_rng([seed, j])
        l = int(rng.integers(l_min, l_max + 1))
        p = int(rng.integers(1, min(p_max, T - l) + 1))
        v_pred = int(rng.integers(V))
        v_tgt = int(rng.integers(V))
        starts = row_starts(l, p)
        tgt = series[v_tgt, starts + l + p - 1]
        keep = ~np.isnan(tgt)
        nodes = []
        _grow(series[v_pred], starts[keep], tgt[keep], l, rng, max_depth, nodes)
        trees.append(LPSTree(l, p, v_pred, v_tgt, *_without_left(nodes)))
        generators.append(rng)
    return LPSForest(trees, V, T), generators


def _oracle_tree_loop_represent(forest, cohort: Cohort) -> np.ndarray:
    """The tree-at-a-time ``lps_represent``: each tree routes its own segment rows."""
    N, _, T = cohort.values.shape
    series, row_starts = _segment_rows(cohort)
    blocks = []
    for t in forest.trees:
        starts = row_starts(t.segment_length, t.lag)
        node = np.zeros(starts.size, dtype=int)
        while (rows := np.flatnonzero(t.feature[node] >= 0)).size:
            at = node[rows]
            vals = series[t.predictor_attr, starts[rows] + t.feature[at]]
            go_left = np.where(np.isnan(vals), t.missing_left[at], vals <= t.threshold[at])
            node[rows] = np.where(go_left, at + 1, t.right[at])
        counts = np.bincount(starts // T * _n_leaves(t) + _leaf_slots(t)[node],
                             minlength=N * _n_leaves(t))
        blocks.append(counts.reshape(N, _n_leaves(t)))
    return np.hstack(blocks)


def _grown_alone(pred_tgt_seeds, max_depth=6) -> list:
    """Grow one tree per ``(pred, tgt, seed)`` in one ``_grow_forest`` call, each row i of
    a tree reading its predictors from ``pred[i]``; returns ``(nodes, generator)`` per tree,
    ``nodes`` as ``[feature, threshold, right, missing_left]`` rows.

    Any warning inside ``_grow_forest`` fails the test.
    """
    flat = np.concatenate([pred.ravel() for pred, _, _ in pred_tgt_seeds])
    at = np.cumsum([0] + [pred.size for pred, _, _ in pred_tgt_seeds])
    roots = [(o + np.arange(pred.shape[0]) * pred.shape[1], tgt)
             for o, (pred, tgt, _) in zip(at, pred_tgt_seeds)]
    rngs = [np.random.default_rng(seed) for _, _, seed in pred_tgt_seeds]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grown = _grow_forest(flat, roots, rngs, [p.shape[1] for p, _, _ in pred_tgt_seeds],
                             max_depth)
    return [(list(map(list, zip(*arrays))), rng) for arrays, rng in zip(grown, rngs)]


def _handwritten_ranks(flat):
    """``(values, rank)`` as _grow_forest computed them before it called np.unique: the
    dense ranks of flat's values, absent cells (NaN) sharing the top rank, that of inf."""
    filled = np.append(np.where(np.isnan(flat), np.inf, flat), np.inf)
    order = filled.argsort()
    ordered = filled[order]
    distinct = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    rank = np.empty(filled.size, dtype=int)
    rank[order] = distinct.cumsum() - 1
    return ordered[distinct], rank


def _recorded_generators(monkeypatch) -> list:
    """Every generator ``np.random.default_rng`` makes from now on, in order of creation."""
    made, make = [], np.random.default_rng

    def default_rng(seed=None):
        made.append(make(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


def _assert_grows_like_builder(pred, tgt, seed, max_depth=6):
    """``_grow_forest`` and the list builder give the same nodes from the same draws; returns
    the nodes.  Any warning inside ``_grow_forest`` fails the test."""
    [(nodes, rng)] = _grown_alone([(pred, tgt, seed)], max_depth)
    builder = _TreeBuilder(np.random.default_rng(seed), max_depth)
    builder.grow(pred, tgt)
    for got, want in zip(zip(*nodes), builder.columns(), strict=True):
        assert np.array_equal(np.array(got, dtype=float), np.array(want, dtype=float),
                              equal_nan=True)
    assert rng.bit_generator.state == builder.rng.bit_generator.state
    return nodes


def _rounded(cohort: Cohort) -> Cohort:
    """The cohort with every value rounded to an integer."""
    return Cohort([MTSample(s.id, np.round(s.values), s.mask, s.label)
                   for s in cohort.samples], cohort.attribute_names, cohort.window_length)


def _oracle_matrix(forest, rows: Cohort, cols: Cohort):
    H = [_oracle_represent(forest, s) for s in rows.samples]
    B = [_oracle_represent(forest, s) for s in cols.samples]
    return np.array([[_oracle_kernel(h, b) for b in B] for h in H])


def _mar_split(n_cases, n_controls, V, T, seed):
    full = generate_synthetic_cohort(n_cases, n_controls, V, T, 1.5, seed=seed)
    masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=seed + 1))
    return train_test_split(masked, 0.75, seed=seed + 2)


def _indexed_segments(cohort: Cohort, l, p, v_pred, v_tgt):
    """(N, S, l) predictors and (N, S) targets read by row start from ``_segment_rows``."""
    series, row_starts = _segment_rows(cohort)
    starts = row_starts(l, p).reshape(len(cohort), -1)
    return series[v_pred][starts[..., None] + np.arange(l)], series[v_tgt][starts + l + p - 1]


class TestSegmentMatrix:
    def test_row_count(self):
        x = _cohort(_sample(np.arange(5.0).reshape(1, 5)))
        pred, tgt = _indexed_segments(x, 2, 1, 0, 0)
        assert pred.shape == (1, 3, 2) and tgt.shape == (1, 3)

    def test_univariate_indexing(self):
        x = _cohort(_sample([[1.0, 2.0, 3.0, 4.0]]))
        pred, tgt = _indexed_segments(x, 2, 1, 0, 0)
        assert pred[0].tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert tgt[0].tolist() == [3.0, 4.0]

    def test_missing_cells_marked(self):
        mask = np.ones((1, 5))
        mask[0, 2] = 0.0
        x = _cohort(_sample([[1.0, 2.0, 3.0, 4.0, 5.0]], mask=mask))
        pred, tgt = _indexed_segments(x, 2, 1, 0, 0)
        pred, tgt = pred[0], tgt[0]
        assert np.isnan(pred[1, 1]) and np.isnan(pred[2, 0])
        assert np.isnan(tgt[0])
        assert not np.isnan(pred[0]).any()

    def test_window_too_short_rejected(self):
        # A one-day window leaves no room for a segment and its lagged target.
        x = _cohort(_sample(np.zeros((2, 1)), "a"), _sample(np.zeros((2, 1)), "b"))
        with pytest.raises(ValueError, match="too short for segment rows"):
            lps_train(x, n_trees=1)

    def test_cross_attribute_rows(self):
        x = _cohort(_sample([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))
        pred, tgt = _indexed_segments(x, 1, 1, 0, 1)
        assert pred[0].tolist() == [[1.0], [2.0]]
        assert tgt[0].tolist() == [20.0, 30.0]

    def test_patients_match_per_sample_rows(self):
        train, _ = _mar_split(4, 8, 3, 12, seed=30)
        pred, tgt = _indexed_segments(train, 3, 2, 1, 2)
        for i, s in enumerate(train.samples):
            ref_pred, ref_tgt = _oracle_segment_matrix(s, 3, 2, 1, 2)
            assert np.array_equal(pred[i], ref_pred, equal_nan=True)
            assert np.array_equal(tgt[i], ref_tgt, equal_nan=True)


class TestTrain:
    def test_segment_length_floor_is_15_percent(self):
        l_min, l_max, p_max = segment_ranges(20)
        assert (l_min, l_max, p_max) == (3, 10, 4)

    def test_zero_trees_rejected(self):
        cohort = generate_synthetic_cohort(3, 3, 2, 10, 1.0, seed=0)
        with pytest.raises(ValueError):
            lps_train(cohort, n_trees=0)

    def test_constant_cohort_grows_stumps(self):
        values = np.full((2, 10), 3.0)
        samples = [MTSample(f"s{i}", values, np.ones((2, 10))) for i in range(4)]
        cohort = Cohort(samples, ["a", "b"], 10)
        forest = lps_train(cohort, n_trees=5, seed=1)
        assert all(_n_leaves(t) == 1 for t in forest.trees)
        rep = lps_represent(forest, cohort)
        expected = [10 - t.segment_length - t.lag + 1 for t in forest.trees]
        assert rep.tolist() == [expected] * 4

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_depth_below_one_rejected(self, max_depth):
        cohort = generate_synthetic_cohort(3, 3, 2, 10, 1.0, seed=0)
        with pytest.raises(ValueError, match=f"max_depth must be >= 1, got {max_depth}"):
            lps_train(cohort, n_trees=2, max_depth=max_depth)

    def test_deterministic(self):
        cohort = generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=2)
        a = lps_train(cohort, n_trees=10, seed=3)
        b = lps_train(cohort, n_trees=10, seed=3)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)

    def test_depth_bound(self):
        cohort = generate_synthetic_cohort(10, 20, 3, 12, 1.0, seed=4)
        forest = lps_train(cohort, n_trees=10, max_depth=2, seed=5)
        assert max(_n_leaves(t) for t in forest.trees) <= 4


class TestRepresent:
    def test_single_leaf_collects_all_rows(self):
        values = np.full((1, 8), 1.0)
        samples = [MTSample(f"s{i}", values, np.ones((1, 8))) for i in range(3)]
        cohort = Cohort(samples, ["a"], 8)
        forest = lps_train(cohort, n_trees=1, seed=0)
        tree = forest.trees[0]
        rep = lps_represent(forest, cohort)
        assert rep.tolist() == [[8 - tree.segment_length - tree.lag + 1]] * 3

    def test_identical_samples_identical_representations(self):
        cohort = generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=6)
        forest = lps_train(cohort, n_trees=20, seed=7)
        first = cohort.samples[0]
        twin = MTSample("twin", first.values, first.mask)
        rep = lps_represent(forest, _cohort(first, twin))
        assert np.array_equal(rep[0], rep[1])
        assert np.array_equal(rep[0], lps_represent(forest, cohort)[0])

    def test_block_sums_equal_row_count(self):
        cohort = generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=8)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=9))
        forest = lps_train(masked, n_trees=15, seed=10)
        rep = lps_represent(forest, masked)
        bounds = _blocks(forest)
        for j, tree in enumerate(forest.trees):
            expected = 12 - tree.segment_length - tree.lag + 1
            assert (rep[:, bounds[j]:bounds[j + 1]].sum(axis=1) == expected).all()

    def test_short_window_advises_larger(self):
        cohort = generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=11)
        forest = lps_train(cohort, n_trees=5, seed=12)
        short = _cohort(MTSample("s", np.ones((3, 2)), np.ones((3, 2))))
        with pytest.raises(ValueError, match="larger window"):
            lps_represent(forest, short)

    def test_longer_window_rejected(self):
        cohort = generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=11)
        forest = lps_train(cohort, n_trees=5, seed=12)
        longer = generate_synthetic_cohort(2, 2, 3, 16, 1.0, seed=13)
        with pytest.raises(ValueError, match=r"^cohort \(V, T\) = \(3, 16\) differs from the "
                                             r"forest's \(3, 12\); use a smaller window$"):
            lps_represent(forest, longer)

    @pytest.mark.parametrize("V", [4, 6])
    def test_other_attribute_count_rejected(self, V, tmp_path):
        cohort = generate_synthetic_cohort(5, 10, 5, 12, 1.0, seed=11)
        forest = lps_train(cohort, n_trees=5, seed=12)
        assert forest.n_attributes == 5
        other = generate_synthetic_cohort(2, 2, V, 12, 1.0, seed=13)
        save_lps_forest(forest, tmp_path / "forest.npz")
        loaded = load_lps_forest(tmp_path / "forest.npz")
        message = rf"^cohort \(V, T\) = \({V}, 12\) differs from the forest's \(5, 12\)$"
        for score in (lambda f: lps_represent(f, other), lambda f: lps_gram(f, other),
                      lambda f: lps_gram(f, cohort, other), lambda f: lps_gram(f, other, cohort)):
            for f in (forest, loaded):
                with pytest.raises(ValueError, match=message):
                    score(f)

    def test_stump_matches_direct_thresholding(self):
        # A depth-1 forest of one tree must reproduce a 2-bin histogram
        # computed straight from the recorded split.
        cohort = generate_synthetic_cohort(10, 10, 2, 10, 2.0, seed=13)
        forest = lps_train(cohort, n_trees=1, max_depth=1, seed=14)
        tree = forest.trees[0]
        assert tree.feature.tolist()[1:] == [-1, -1]  # the left leaf is node 1, column 0
        pred, _ = _oracle_segments(
            cohort, tree.segment_length, tree.lag, tree.predictor_attr, tree.target_attr
        )
        rep = lps_represent(forest, cohort)
        for i in range(6):
            col = pred[i, :, tree.feature[0]]
            go_left = np.where(np.isnan(col), tree.missing_left[0], col <= tree.threshold[0])
            manual = [int(go_left.sum()), int((~go_left).sum())]
            assert rep[i].tolist() == manual

    def test_masking_moves_at_most_affected_rows(self):
        cohort = generate_synthetic_cohort(6, 6, 3, 12, 1.0, seed=15)
        forest = lps_train(cohort, n_trees=10, seed=16)
        s = cohort.samples[0]
        mask = s.mask.copy()
        hit_v, hit_t = 1, 5
        mask[hit_v, hit_t] = 0.0
        perturbed = MTSample("p", s.values, mask)
        before, after = lps_represent(forest, _cohort(s, perturbed))
        bounds = _blocks(forest)
        for j, tree in enumerate(forest.trees):
            # Rows that reference the masked cell in this tree's layout.
            S = 12 - tree.segment_length - tree.lag + 1
            affected = 0
            for start in range(S):
                uses_pred = (
                    tree.predictor_attr == hit_v
                    and start <= hit_t <= start + tree.segment_length - 1
                )
                uses_tgt = (
                    tree.target_attr == hit_v
                    and hit_t == start + tree.segment_length + tree.lag - 1
                )
                affected += int(uses_pred or uses_tgt)
            block = slice(bounds[j], bounds[j + 1])
            moved = np.abs(before[block] - after[block]).sum() / 2
            assert moved <= affected


class TestKernel:
    def test_direct_evaluation(self):
        train, test = _mar_split(5, 15, 3, 12, seed=40)
        forest = lps_train(train, n_trees=10, seed=41)
        km = lps_gram(forest, train, test)
        H = lps_represent(forest, train)
        B = lps_represent(forest, test)
        for i in range(len(train)):
            for j in range(len(train)):
                assert km.gram[i, j] == _oracle_kernel(H[i], H[j])
            for j in range(len(test)):
                assert km.cross[i, j] == _oracle_kernel(H[i], B[j])

    def test_self_kernel(self):
        train, _ = _mar_split(5, 15, 3, 12, seed=42)
        forest = lps_train(train, n_trees=10, seed=43)
        H = lps_represent(forest, train)
        gram = lps_gram(forest, train).gram
        assert np.array_equal(np.diag(gram), H.sum(axis=1) / H.shape[1])

    def test_never_exceeds_self_similarity(self):
        train, test = _mar_split(5, 15, 3, 12, seed=44)
        forest = lps_train(train, n_trees=10, seed=45)
        km = lps_gram(forest, train, test)
        d = np.diag(km.gram)
        assert (km.gram <= np.minimum(d[:, None], d[None, :]) + 1e-12).all()
        d_test = np.diag(lps_gram(forest, test).gram)
        assert (km.cross <= np.minimum(d[:, None], d_test[None, :]) + 1e-12).all()

    def test_gram_symmetric_psd(self):
        cohort = generate_synthetic_cohort(10, 20, 3, 12, 1.0, seed=18)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=19))
        train = Cohort(masked.samples[:24], masked.attribute_names, 12)
        test = Cohort(masked.samples[24:], masked.attribute_names, 12)
        forest = lps_train(train, n_trees=25, seed=20)
        km = lps_gram(forest, train, test)
        assert np.array_equal(km.gram, km.gram.T)
        km.validate()
        assert km.cross.shape == (24, len(test))


class TestOracle:
    def test_gram_and_cross_match_per_sample_path(self):
        train, test = _mar_split(8, 24, 4, 14, seed=50)
        forest = lps_train(train, n_trees=12, max_depth=4, seed=51)
        # Multi-level trees, and rows that reach a split with its feature missing.
        assert max(_n_leaves(t) for t in forest.trees) > 4
        assert any(
            np.isnan(_oracle_segments(train, t.segment_length, t.lag, t.predictor_attr,
                                      t.target_attr)[0][..., t.feature[0]]).any()
            for t in forest.trees if t.feature[0] >= 0
        )
        km = lps_gram(forest, train, test)
        assert np.array_equal(km.gram, _oracle_matrix(forest, train, train))
        assert np.array_equal(km.cross, _oracle_matrix(forest, train, test))

    @pytest.mark.parametrize("mechanism", [Missingness.MCAR, Missingness.MAR])
    def test_trees_match_list_builder(self, mechanism, assert_same_fields):
        full = generate_synthetic_cohort(10, 30, 4, 16, 1.5, seed=54)
        cohort = apply_missingness(full, MissingnessSpec(mechanism, 0.3, seed=55))
        forest = lps_train(cohort, n_trees=24, max_depth=6, seed=56)
        # Deep trees, with absent split values sent both ways.
        assert max(t.feature.size for t in forest.trees) > 2 ** 4
        sides = np.concatenate([t.missing_left[t.feature >= 0] for t in forest.trees])
        assert sides.any() and not sides.all()
        assert_same_fields(forest, _oracle_train(cohort, 24, 6, 56))

    def test_constant_cohort_trees_match_list_builder(self, assert_same_fields):
        values = np.full((2, 10), 3.0)
        cohort = Cohort([MTSample(f"s{i}", values, np.ones((2, 10))) for i in range(4)],
                        ["a", "b"], 10)
        forest = lps_train(cohort, n_trees=20, max_depth=6, seed=57)
        assert all(t.feature.tolist() == [-1] for t in forest.trees)
        assert_same_fields(forest, _oracle_train(cohort, 20, 6, 57))

    @pytest.mark.parametrize("mechanism", [Missingness.MCAR, Missingness.MAR])
    def test_integer_cohort_trees_match_list_builder(self, mechanism, assert_same_fields):
        # Integer values and targets make many candidate gains tie exactly, and
        # some best gains round to zero: both go through the direct re-score.
        full = _rounded(generate_synthetic_cohort(10, 30, 4, 16, 1.5, seed=54))
        cohort = apply_missingness(full, MissingnessSpec(mechanism, 0.3, seed=55))
        forest = lps_train(cohort, n_trees=40, seed=56)
        assert_same_fields(forest, _oracle_train(cohort, 40, 6, 56))

    def test_default_depth_forest_matches_list_builder(self, assert_same_fields):
        train, _ = _mar_split(20, 60, 5, 20, seed=58)
        forest = lps_train(train, n_trees=40, seed=59)
        assert max(t.feature.size for t in forest.trees) > 2 ** 5
        assert_same_fields(forest, _oracle_train(train, 40, 6, 59))

    @pytest.mark.parametrize("n_trees", [20, 200])
    @pytest.mark.parametrize("mechanism", [Missingness.MCAR, Missingness.MAR])
    def test_trees_match_segment_matrix_grower(self, mechanism, n_trees, assert_same_fields,
                                               monkeypatch):
        # A paper-scale cohort: 221 patients, 11 attributes, 20 days, 30% missing.
        full = generate_synthetic_cohort(58, 163, 11, 20, 1.5, seed=90)
        masked = apply_missingness(full, MissingnessSpec(mechanism, 0.3, seed=91))
        train, _ = train_test_split(masked, 0.8, seed=92)
        expected, oracle_generators = _oracle_matrix_train(train, n_trees, 6, 93)
        generators = _recorded_generators(monkeypatch)
        assert_same_fields(lps_train(train, n_trees=n_trees, seed=93), expected)
        assert len(generators) == n_trees
        assert ([g.bit_generator.state for g in generators]
                == [g.bit_generator.state for g in oracle_generators])

    def test_small_integer_nodes_break_ties_like_builder(self):
        # Few rows on a few integer levels: splits often tie exactly, and the
        # first in ascending threshold must win as in the direct formula.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(MIN_SPLIT_ROWS, 20))
            pred = rng.integers(0, 6, size=(n, 2)).astype(float)
            pred[rng.random((n, 2)) < 0.2] = np.nan
            _assert_grows_like_builder(pred, rng.integers(0, 3, size=n) * 1.0, seed)

    def test_candidates_at_column_extremes(self):
        # At most N_THRESHOLD_CANDIDATES observed values: every value is a
        # candidate, so the minimum leaves one row on the left and the
        # maximum none on the right.
        rng = np.random.default_rng(70)
        col = rng.normal(size=(16, 1))
        col[[2, 9, 13]] = np.nan
        nodes = _assert_grows_like_builder(col, rng.normal(size=16), seed=71)
        assert nodes[0][0] == 0

    def test_all_missing_split_column(self):
        rng = np.random.default_rng(72)
        tgt = rng.normal(size=40)
        absent = np.full((40, 1), np.nan)
        nodes = _assert_grows_like_builder(absent, tgt, seed=73)
        assert len(nodes) == 1 and nodes[0][0] == -1
        # Nodes that draw the absent second column stay leaves; the first one splits.
        both = np.hstack([rng.normal(size=(40, 1)), absent])
        assert len(_assert_grows_like_builder(both, tgt, seed=74)) > 1

    def test_constant_child_is_a_leaf(self):
        # With 16 rows every value is a candidate, and the split at the step
        # leaves two children of 8 equal targets each (node_sse == 0).
        x = np.arange(16.0)[:, None]
        nodes = _assert_grows_like_builder(x, (x[:, 0] >= 8) * 1.0, seed=75)
        assert nodes[0][:3] == [0, 7.0, 2] and len(nodes) == 3

    def test_constant_target_draws_as_its_rounded_mean_says(self):
        # Twelve targets of 0.1 average to 0.10000000000000002: the node's sum of
        # squares is 2.3e-33, not 0, so it draws a feature and thresholds; twelve of
        # 0.5 average exactly and leave a leaf that draws nothing.
        pred = np.random.default_rng(83).normal(size=(12, 2))
        assert np.full(12, 0.1).mean() != 0.1
        nodes = _assert_grows_like_builder(pred, np.full(12, 0.1), seed=84)
        assert nodes[0][0] >= 0
        assert len(_assert_grows_like_builder(pred, np.full(12, 0.5), seed=85)) == 1

    def test_lockstep_trees_match_builder_each(self):
        # Trees grown together in one call: an all-missing split column, a constant
        # child, integer ties and a plain tree, each with its own generator.
        rng = np.random.default_rng(78)
        x = np.arange(16.0)[:, None]
        both = np.hstack([rng.normal(size=(40, 1)), np.full((40, 1), np.nan)])
        ints = rng.integers(0, 6, size=(30, 3)).astype(float)
        ints[rng.random((30, 3)) < 0.2] = np.nan
        cases = [(x, (x[:, 0] >= 8) * 1.0, 79), (both, rng.normal(size=40), 80),
                 (ints, rng.integers(0, 3, size=30) * 1.0, 81),
                 (rng.normal(size=(60, 4)), rng.normal(size=60), 82)]
        for (nodes, rng_got), (pred, tgt, seed) in zip(_grown_alone(cases), cases):
            builder = _TreeBuilder(np.random.default_rng(seed), 6)
            builder.grow(pred, tgt)
            for got, want in zip(zip(*nodes), builder.columns(), strict=True):
                assert np.array_equal(np.array(got, dtype=float), np.array(want, dtype=float),
                                      equal_nan=True)
            assert rng_got.bit_generator.state == builder.rng.bit_generator.state

    @pytest.mark.parametrize("mechanism", [Missingness.MCAR, Missingness.MAR, Missingness.MNAR])
    @pytest.mark.parametrize("max_depth", [1, 3, 6])
    @pytest.mark.parametrize("n_trees", [1, 2, 20, 200])
    def test_forest_matches_recursive_grower(self, n_trees, max_depth, mechanism,
                                             assert_same_fields, monkeypatch):
        full = generate_synthetic_cohort(10, 30, 4, 16, 1.5, seed=84)
        cohort = apply_missingness(full, MissingnessSpec(mechanism, 0.3, seed=85))
        expected, oracle_generators = _oracle_recursive_train(cohort, n_trees, max_depth, 86)
        generators = _recorded_generators(monkeypatch)
        assert_same_fields(lps_train(cohort, n_trees=n_trees, max_depth=max_depth, seed=86),
                           expected)
        assert ([g.bit_generator.state for g in generators]
                == [g.bit_generator.state for g in oracle_generators])

    @pytest.mark.parametrize("mechanism", [Missingness.MCAR, Missingness.MAR, Missingness.MNAR])
    def test_integer_forest_matches_recursive_grower(self, mechanism, assert_same_fields,
                                                     monkeypatch):
        # Integer values and targets: exact ties between candidate gains, constant
        # nodes and zero gains, which the direct formula decides.
        full = _rounded(generate_synthetic_cohort(10, 30, 4, 16, 1.5, seed=87))
        cohort = apply_missingness(full, MissingnessSpec(mechanism, 0.3, seed=88))
        expected, oracle_generators = _oracle_recursive_train(cohort, 60, 6, 89)
        generators = _recorded_generators(monkeypatch)
        assert_same_fields(lps_train(cohort, n_trees=60, seed=89), expected)
        assert ([g.bit_generator.state for g in generators]
                == [g.bit_generator.state for g in oracle_generators])

    def test_absent_attribute_forest_matches_recursive_grower(self, assert_same_fields,
                                                              monkeypatch):
        # Attribute 0 is never observed: its trees split on an all-missing column, or
        # have no rows with a target at all.
        full = apply_missingness(generate_synthetic_cohort(10, 30, 3, 16, 1.5, seed=90),
                                 MissingnessSpec(Missingness.MCAR, 0.2, seed=91))
        mask = full.mask.copy()
        mask[:, 0] = 0.0
        cohort = Cohort([MTSample(s.id, s.values, m, s.label)
                         for s, m in zip(full.samples, mask)], full.attribute_names, 16)
        expected, oracle_generators = _oracle_recursive_train(cohort, 30, 6, 92)
        assert {t.predictor_attr for t in expected.trees} >= {0, 1}
        assert any(t.target_attr == 0 for t in expected.trees)
        generators = _recorded_generators(monkeypatch)
        assert_same_fields(lps_train(cohort, n_trees=30, seed=92), expected)
        assert ([g.bit_generator.state for g in generators]
                == [g.bit_generator.state for g in oracle_generators])

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_represent_over_route_chunks_matches_tree_loop(self, chunk, monkeypatch):
        train, test = _mar_split(10, 30, 4, 16, seed=93)
        forest = lps_train(train, n_trees=10, seed=94)
        monkeypatch.setattr(lps, "_ROUTE_CHUNK", chunk)
        for cohort in (train, test):
            assert np.array_equal(lps_represent(forest, cohort),
                                  _oracle_tree_loop_represent(forest, cohort))

    @pytest.mark.parametrize("bound", [50, 2 ** 62])
    def test_stable_order_sorts_by_key_then_index(self, bound):
        # A small bound packs each key with its index; a large one sorts the keys alone.
        key = np.random.default_rng(95).integers(0, 50, size=300) * (bound // 50)
        order, sorted_key = _stable_order(key, bound)
        assert np.array_equal(order, np.argsort(key, kind="stable"))
        assert np.array_equal(sorted_key, key[order])

    @pytest.mark.parametrize("source", ["ties", "cohort"])
    def test_value_ranks_match_handwritten_ranking(self, source, monkeypatch):
        rng = np.random.default_rng(96)
        if source == "ties":  # few distinct values, ±0.0 among them, and absent cells
            flat = rng.integers(-3, 4, size=200).astype(float)
            flat[(flat == 0) & (rng.random(200) < 0.5)] = -0.0
            flat[rng.random(200) < 0.3] = np.nan
        else:
            flat = _segment_rows(_mar_split(10, 30, 4, 16, seed=93)[0])[0].ravel()
        passed, split_step = [], lps._split_step

        def recording(values, rank, *args):
            passed.append((values, rank))
            return split_step(values, rank, *args)

        monkeypatch.setattr(lps, "_split_step", recording)
        _grow_forest(flat, [(np.arange(150), rng.normal(size=150))], [np.random.default_rng(97)],
                     [50], 3)
        want = _handwritten_ranks(flat)
        assert np.isnan(flat).any() and np.isinf(want[0][-1])
        for got, expected in zip(passed[0], want):  # bytes tell -0.0 from 0.0
            assert ((got.dtype, got.shape, got.tobytes())
                    == (expected.dtype, expected.shape, expected.tobytes()))

    def test_gram_and_cross_match_row_loop(self):
        train, test = _mar_split(8, 24, 3, 30, seed=76)
        forest = lps_train(train, n_trees=30, seed=77)
        H, B = lps_represent(forest, train), lps_represent(forest, test)
        assert H.max() > 5  # several count levels
        km = lps_gram(forest, train, test)
        assert np.array_equal(km.gram, _oracle_intersection(H, H))
        assert np.array_equal(km.cross, _oracle_intersection(H, B))

    @pytest.mark.parametrize("mechanism", [Missingness.MCAR, Missingness.MAR])
    def test_represent_matches_segment_matrix_routing(self, mechanism):
        full = generate_synthetic_cohort(30, 90, 5, 20, 1.5, seed=80)
        masked = apply_missingness(full, MissingnessSpec(mechanism, 0.3, seed=81))
        train, held_out = train_test_split(masked, 0.25, seed=82)
        assert len(held_out) > len(train)
        forest = lps_train(train, n_trees=40, seed=83)
        for cohort in (train, held_out):
            assert np.array_equal(lps_represent(forest, cohort),
                                  _oracle_lps_represent(forest, cohort))

    def test_represent_matches_per_sample_histograms(self):
        train, test = _mar_split(8, 24, 4, 14, seed=52)
        forest = lps_train(train, n_trees=12, max_depth=4, seed=53)
        rep = lps_represent(forest, test)
        for i, s in enumerate(test.samples):
            assert np.array_equal(rep[i], _oracle_represent(forest, s))


@pytest.fixture(scope="module")
def fixed_forest():
    train, test = _mar_split(6, 18, 3, 12, seed=60)
    forest = lps_train(train, n_trees=8, max_depth=4, seed=61)
    return forest, train, test, lps_gram(forest, train, test)


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lps_archives")


def _reordered(cohort: Cohort, order) -> Cohort:
    samples = cohort.samples
    return Cohort([samples[i] for i in order], cohort.attribute_names, cohort.window_length)


class TestPermutation:
    @given(data=st.data())
    def test_permuting_patients_permutes_gram_and_cross(self, fixed_forest, data):
        forest, train, test, km = fixed_forest
        p = np.array(data.draw(st.permutations(range(len(train))), label="train order"))
        q = np.array(data.draw(st.permutations(range(len(test))), label="test order"))
        out = lps_gram(forest, _reordered(train, p), _reordered(test, q))
        assert np.array_equal(out.gram, km.gram[np.ix_(p, p)])
        assert np.array_equal(out.cross, km.cross[np.ix_(p, q)])


class TestSerialization:
    def test_round_trip_preserves_representations(self, tmp_path):
        cohort = generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21)
        forest = lps_train(cohort, n_trees=10, seed=22)
        path = tmp_path / "forest.npz"
        save_lps_forest(forest, path)
        loaded = load_lps_forest(path)
        assert np.array_equal(lps_represent(forest, cohort), lps_represent(loaded, cohort))

    def test_round_trip_equals_forest_field_by_field(self, tmp_path, assert_same_fields):
        cohort = apply_missingness(generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21),
                                   MissingnessSpec(Missingness.MCAR, 0.3, seed=23))
        forest = lps_train(cohort, n_trees=10, seed=22)
        path = tmp_path / "forest.npz"
        save_lps_forest(forest, path)
        assert_same_fields(load_lps_forest(path), forest)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_archive_loads_the_forest_in_either_layout(self, archive_dir, assert_same_fields,
                                                       data):
        # Older archives also store each tree's left children and leaf slots; loading
        # drops them, so both layouts give the saved forest, field for field and dtype
        # for dtype, and the same kernel.
        n_cases, n_controls = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 6))
        V, T = data.draw(st.integers(2, 3)), data.draw(st.integers(6, 12))
        seed = data.draw(st.integers(0, 2 ** 16))
        spec = MissingnessSpec(data.draw(st.sampled_from(list(Missingness))),
                               data.draw(st.sampled_from([0.1, 0.3, 0.5])), seed=seed + 1)
        cohort = apply_missingness(
            generate_synthetic_cohort(n_cases, n_controls, V, T, 1.5, seed=seed), spec)
        assume(len(cohort) >= 2 and (cohort.mask == 0).any())
        forest = lps_train(cohort, n_trees=data.draw(st.integers(1, 6)),
                           max_depth=data.draw(st.integers(1, 4)), seed=seed)
        path, old_path = archive_dir / "forest.npz", archive_dir / "old.npz"
        save_lps_forest(forest, path)
        meta = {"n_attributes": V, "window_length": T}
        _save_npz(old_path, meta, [
            {**vars(t), "left": np.where(t.feature >= 0, np.arange(t.feature.size) + 1, -1),
             "leaf_slot": _leaf_slots(t)} for t in forest.trees])
        with np.load(old_path) as old:
            assert {"left.values", "leaf_slot.values"} <= set(old.files)
        gram = lps_gram(forest, cohort).gram
        for loaded in (load_lps_forest(path), load_lps_forest(old_path)):
            assert_same_fields(loaded, forest)
            assert np.array_equal(lps_gram(loaded, cohort).gram, gram)

    def test_meta_records_attribute_count_and_window(self, tmp_path):
        forest = lps_train(generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21), n_trees=2)
        save_lps_forest(forest, tmp_path / "forest.npz")
        with np.load(tmp_path / "forest.npz") as data:
            meta = json.loads(str(data["__meta__"]))
        assert (meta["n_attributes"], meta["window_length"]) == (3, 12)

    def test_archive_without_attribute_count_rejected(self, tmp_path):
        forest = lps_train(generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21), n_trees=2)
        path = tmp_path / "forest.npz"
        save_lps_forest(forest, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays.pop("__meta__")))
        del meta["n_attributes"]
        np.savez_compressed(path, __meta__=json.dumps(meta), **arrays)
        with pytest.raises(ValueError, match="no n_attributes entry"):
            load_lps_forest(path)

    def test_version_1_archive_rejected(self, tmp_path):
        path = tmp_path / "v1.npz"
        meta = {"version": 1, "window_length": 3, "trees": []}
        np.savez_compressed(path, __meta__=json.dumps(meta))
        with pytest.raises(ValueError, match="unsupported LPS forest version 1"):
            load_lps_forest(path)

    @pytest.mark.parametrize("edit, message", [
        ({"threshold": lambda t: t["threshold"][1:]},
         "a tree's four node arrays must share one nonzero length"),
        ({"right": lambda t: _with_root(t["right"], 0)},
         "a split's children must have larger node ids inside the tree"),
        ({"right": lambda t: _with_root(t["right"], t["right"].size)},
         "a split's children must have larger node ids inside the tree"),
        ({"feature": lambda t: _with_root(t["feature"], t["segment_length"])},
         r"split features must lie in \[0, \d+\)"),
        ({"lag": lambda t: 13 - t["segment_length"]},
         r"segment length \d+ and lag \d+ must be >= 1 and sum to <= 12"),
        ({"predictor_attr": lambda t: 3}, r"tree attributes must lie in \[0, 3\)"),
        ({"target_attr": lambda t: -1}, r"tree attributes must lie in \[0, 3\)"),
        ({"feature": lambda t: t["feature"] + 0.5},
         "a tree's feature array must hold integers, got float64"),
        ({"right": lambda t: t["right"].astype(float)},
         "a tree's right array must hold integers, got float64"),
        ({"missing_left": lambda t: t["missing_left"].astype(int)},
         "a tree's missing_left array must hold booleans, got int64"),
        # Each of these loaded and made lps_gram fail with a bare IndexError.
        ({"segment_length": lambda t: float(t["segment_length"])},
         "a tree's segment_length must be an integer, got float64"),
        ({"lag": lambda t: float(t["lag"])}, "a tree's lag must be an integer, got float64"),
        ({"predictor_attr": lambda t: float(t["predictor_attr"])},
         "a tree's predictor_attr must be an integer, got float64"),
        ({"target_attr": lambda t: float(t["target_attr"])},
         "a tree's target_attr must be an integer, got float64"),
    ], ids=["node-lengths", "root-cycle", "child-past-end", "feature-past-segment",
            "lag-past-window", "predictor-attr", "target-attr", "float-feature", "float-right",
            "int-missing-left", "float-segment-length", "float-lag", "float-predictor-attr",
            "float-target-attr"])
    def test_tampered_tree_rejected(self, tmp_path, edit, message):
        # Each edit breaks one rule for the first tree, whose root is a split.  The
        # children that point back at the root made lps_gram loop forever, and a
        # feature stored as floats made it fail with a bare IndexError.
        forest = lps_train(generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21), n_trees=3,
                           seed=22)
        assert forest.trees[0].feature[0] >= 0
        path = tmp_path / "forest.npz"
        save_lps_forest(forest, path)
        meta, trees = _load_npz(path, "LPS forest")
        trees[0].update({field: change(trees[0]) for field, change in edit.items()})
        _save_npz(path, meta, trees)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, record 0: {message}$"):
            load_lps_forest(path)

    @pytest.mark.parametrize("field, value, message", [
        ("right", 0, "a split's children must have larger node ids inside the tree"),
        ("lag", 12, r"segment length \d+ and lag 12 must be >= 1 and sum to <= 12"),
    ])
    def test_tampered_tree_names_its_record(self, tmp_path, field, value, message):
        forest = lps_train(generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21), n_trees=3,
                           seed=22)
        assert forest.trees[2].feature[0] >= 0
        path = tmp_path / "forest.npz"
        save_lps_forest(forest, path)
        meta, trees = _load_npz(path, "LPS forest")
        trees[2][field] = _with_root(trees[2][field], value) if field == "right" else value
        _save_npz(path, meta, trees)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, record 2: {message}$"):
            load_lps_forest(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.pop("right"), "no field 'right'"),
        (lambda t: t.update(extra=np.zeros(2)), "an unknown field 'extra'"),
    ], ids=["missing-right", "extra"])
    def test_archive_with_other_fields_rejected(self, tmp_path, edit, message):
        # These failed with a bare TypeError from LPSTree.
        forest = lps_train(generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21), n_trees=3,
                           seed=22)
        path = tmp_path / "forest.npz"
        save_lps_forest(forest, path)
        meta, trees = _load_npz(path, "LPS forest")
        for t in trees:
            edit(t)
        _save_npz(path, meta, trees)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the records have "
                                             f"{message}$"):
            load_lps_forest(path)

    def test_valid_archive_builds_its_forest_once(self, tmp_path, monkeypatch):
        forest = lps_train(generate_synthetic_cohort(5, 10, 3, 12, 1.0, seed=21), n_trees=20,
                           seed=22)
        save_lps_forest(forest, tmp_path / "forest.npz")
        built = []
        check = LPSForest.__post_init__
        monkeypatch.setattr(LPSForest, "__post_init__", lambda f: built.append(check(f)))
        assert len(load_lps_forest(tmp_path / "forest.npz").trees) == 20
        assert len(built) == 1

    def test_archive_from_commit_c7ee263_loads_and_matches_lockstep_forest(
            self, tmp_path, assert_same_fields):
        """The fixture pair was written at commit c7ee263, whose trees grew one at a
        time, by:

            full = generate_synthetic_cohort(10, 15, 3, 10, 1.5, seed=40)
            masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=41))
            train, test = train_test_split(masked, 0.8, seed=42)
            forest = lps_train(train, n_trees=8, seed=43)
            save_lps_forest(forest, "tests/data/lps_forest_c7ee263.lps.npz")
            km = lps_gram(forest, train, test)
            np.savez_compressed("tests/data/lps_gram_c7ee263.npz", gram=km.gram,
                                cross=km.cross)
        """
        data = pathlib.Path(__file__).parent / "data"
        full = generate_synthetic_cohort(10, 15, 3, 10, 1.5, seed=40)
        masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=41))
        train, test = train_test_split(masked, 0.8, seed=42)
        old = load_lps_forest(data / "lps_forest_c7ee263.lps.npz")
        forest = lps_train(train, n_trees=8, seed=43)
        assert_same_fields(forest, old)
        km = lps_gram(old, train, test)
        with np.load(data / "lps_gram_c7ee263.npz") as expected:
            assert np.array_equal(km.gram, expected["gram"])
            assert np.array_equal(km.cross, expected["cross"])
        # The archive's left children and leaf slots, which loading drops, are the next
        # node at each split and the leaves numbered in node order.
        _, stored = _load_npz(data / "lps_forest_c7ee263.lps.npz", "LPS forest")
        for r in stored:
            split = r["feature"] >= 0
            assert np.array_equal(r["left"], np.where(split, np.arange(split.size) + 1, -1))
            assert np.array_equal(r["leaf_slot"], np.where(split, -1, np.cumsum(~split) - 1))
        save_lps_forest(forest, tmp_path / "forest.npz")
        with (np.load(data / "lps_forest_c7ee263.lps.npz") as a,
              np.load(tmp_path / "forest.npz") as b):
            dropped = {f"{f}.{part}" for f in ("left", "leaf_slot") for part in ("values", "shape")}
            assert len(a.files) == 21 and dropped <= set(a.files)
            assert sorted(b.files) == sorted(set(a.files) - dropped)
            old, new = json.loads(str(a["__meta__"])), json.loads(str(b["__meta__"]))
            assert new.pop("fields") == [f for f in old.pop("fields")
                                         if f not in ("left", "leaf_slot")]
            assert new == old

    def test_archive_without_trees_rejected(self, tmp_path):
        path = tmp_path / "empty.npz"
        _save_npz(path, {"n_attributes": 3, "window_length": 12}, [])
        with pytest.raises(ValueError, match=f"^LPS forest {re.escape(str(path))} is empty$"):
            load_lps_forest(path)
