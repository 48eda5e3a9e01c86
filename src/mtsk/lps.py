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

All trees grow in lockstep, each with its own generator and depth-first
stack: every step takes the next node of each tree, draws its feature and
thresholds from that tree's generator, and scores all those nodes in one
sort of their rows, so a tree comes out as if grown alone.  Scoring routes
the whole forest at once, a fixed number of trees at a time, one tree level
per pass.  An ``LPSTree`` is a plain record of node arrays, numbered depth first:
a split's left child is the next node, its right child is stored, and a tree's
leaves take its columns in node order.  The ``LPSForest`` holding a tree checks
it, so that a forest loaded from disk routes every row to a leaf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .kernels import KernelMatrix, _load_npz, _records, _require_kind, _require_shape, _save_npz

MIN_SEGMENT_FRACTION = 0.15
MAX_SEGMENT_FRACTION = 0.5
MAX_LAG_FRACTION = 0.2
MIN_SPLIT_ROWS = 8
N_THRESHOLD_CANDIDATES = 20
# Gains within this fraction of node_sse of the best split are scored again by
# the direct formula: prefix sums round differently, though by far less.
_TIE_TOLERANCE = 1e-9
# Trees that lps_represent routes together.  It bounds the row arrays to this many
# trees' segment rows of the cohort; 4 to 8 routed fastest of 1 to 64 at 177 and
# 721 patients, whose chunks then stay small enough for the cache.
_ROUTE_CHUNK = 8


def _segment_rows(cohort: Cohort):
    """``(series, starts)``: the cohort as a NaN-marked (V, N * T) array, day d of patient n
    in column n * T + d, and ``starts(l, p)``, the column n * T + s where each segment row
    (patient n, start s) of length l and lag p begins, patient by patient."""
    N, V, T = cohort.values.shape
    series = np.where(cohort.mask > 0, cohort.values, np.nan).swapaxes(0, 1).reshape(V, N * T)
    return series, lambda l, p: (np.arange(0, N * T, T)[:, None] + np.arange(T - l - p + 1)).ravel()


def _sse(t: np.ndarray) -> float:
    """Sum of squares about the mean, rounded as ``tgt.mean()`` and ``.sum()`` round it."""
    return float(((t - t.mean()) ** 2).sum())


@dataclass
class LPSTree:
    """One random-lag regression tree, stored as flat node arrays; ``LPSForest`` checks it."""

    segment_length: int
    lag: int
    predictor_attr: int
    target_attr: int
    feature: np.ndarray       # split feature per node, -1 at leaves
    threshold: np.ndarray
    right: np.ndarray         # right child node id, -1 at leaves; the left one is the next node
    missing_left: np.ndarray  # bool: absent split value goes left


@dataclass
class LPSForest:
    trees: list[LPSTree]
    n_attributes: int
    window_length: int

    def __post_init__(self):  # an archive comes from outside: routing must reach a leaf
        if not self.trees:
            raise ValueError("an LPS forest needs at least one tree")
        for t in self.trees:
            n = np.size(t.feature)
            if not n or {np.shape(a) for a in (t.feature, t.threshold, t.right,
                                               t.missing_left)} != {(n,)}:
                raise ValueError("a tree's four node arrays must share one nonzero length")
            _require_kind(t, "feature right", "a tree's {} array must hold integers", ndim=1)
            _require_kind(t, "missing_left", "a tree's {} array must hold booleans", "b", ndim=1)
            _require_kind(t, "segment_length lag predictor_attr target_attr",
                          "a tree's {} must be an integer")
            split = np.flatnonzero(t.feature >= 0)
            if not ((t.right[split] > split) & (t.right[split] < n)).all():  # so split + 1 <= right
                raise ValueError("a split's children must have larger node ids inside the tree")
            if not (t.feature[split] < t.segment_length).all():
                raise ValueError(f"split features must lie in [0, {t.segment_length})")
            l, p, T = t.segment_length, t.lag, self.window_length
            if not (l >= 1 and p >= 1 and l + p <= T):
                raise ValueError(f"segment length {l} and lag {p} must be >= 1 and sum to <= {T}")
            if not {t.predictor_attr, t.target_attr} <= set(range(self.n_attributes)):
                raise ValueError(f"tree attributes must lie in [0, {self.n_attributes})")

    @property
    def representation_length(self) -> int:
        return sum(int((t.feature < 0).sum()) for t in self.trees)


def _stable_order(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, key[order])`` for int keys in [0, bound), ties in index order.  Each key
    carries its index in its low bits, so one plain sort does it, unless that overflows."""
    bits = key.size.bit_length()
    if bound << bits >= 2 ** 63:
        order = key.argsort(kind="stable")
        return order, key[order]
    packed = (key << bits) | np.arange(key.size)
    packed.sort()
    return packed & ((1 << bits) - 1), packed >> bits


def _split_step(values, rank, popped, rngs, lengths) -> list:
    """Score one node of each of several trees at once; returns ``(k, feature,
    threshold, missing_left, left rows, right rows)`` for each node k of ``popped``
    that splits.

    ``popped[k]`` is ``(tree, id, depth, base, tgt)``: row i predicts ``tgt[i]`` from
    the ``lengths[tree]`` cells from ``base[i]`` on, and a side's rows are its ``(base,
    tgt)``.  Cell c holds ``values[rank[c]]``; ``values`` ascends to inf, the value of
    every absent cell.  A node whose target varies draws its feature f from its tree's
    generator and reads the cells ``base + f``; if they hold 2 or more distinct observed
    values, the generator draws up to N_THRESHOLD_CANDIDATES thresholds among them, in
    row order.  Rows missing the feature join the side with more observed rows.  One
    sort of all nodes' rows by (node, value, row) scores every threshold: prefix sums
    of the centred target give each side's sum, and the gain is the between-sides sum
    of squares.  The split keeps a positive gain, the first best in ascending threshold.

    These whole-array sums round differently from per-node ones, so no choice rests on
    their last bits: a target counts as constant by the per-node sum of squares, and
    gains within _TIE_TOLERANCE * node_sse of the best are scored again by the direct
    formula, node by node; a lone clear winner needs no second score.
    """
    trees, _, _, bases, tgts = zip(*popped)
    K, U = len(popped), values.size
    sizes = np.array([t.size for t in tgts])
    ends = sizes.cumsum()
    starts = ends - sizes
    tgt = np.concatenate(tgts)
    centred = tgt - (np.add.reduceat(tgt, starts) / sizes).repeat(sizes)
    node_sse = np.add.reduceat(centred * centred, starts)
    # Targets 1e-150 apart or more leave a centred square of 2.5e-301 or more, far
    # from underflow, so only closer ones can have an exact sum of squares of 0.
    varies = (np.maximum.reduceat(tgt, starts) - np.minimum.reduceat(tgt, starts)
              >= 1e-150).tolist()
    drawn = [v or _sse(t) > 0 for v, t in zip(varies, tgts)]
    f = np.array([int(rngs[j].integers(lengths[j])) if d else 0 for j, d in zip(trees, drawn)])
    base = np.concatenate(bases)
    cell_rank = rank[base + f.repeat(sizes)]
    missing = cell_rank == U - 1
    node_key = np.arange(0, K * U, U)
    key = node_key.repeat(sizes) + cell_rank  # orders a node's rows by value, absent last
    order, sorted_key = _stable_order(key, K * U)
    obs_end = sorted_key.searchsorted(node_key + U - 1)
    n_obs = obs_end - starts
    varied = (drawn & (n_obs > 1) & (sorted_key[starts] != sorted_key[obs_end - 1])).nonzero()[0]
    if not varied.size:
        return []
    obs = (~missing).nonzero()[0]
    cand = key[obs[np.concatenate([
        s + rngs[trees[k]].choice(m, size=min(N_THRESHOLD_CANDIDATES, m), replace=False)
        for k, s, m in zip(varied.tolist(), obs.searchsorted(starts[varied]).tolist(),
                           n_obs[varied].tolist())])]]
    cand.sort()
    node = cand // U
    left_end = sorted_key.searchsorted(cand, side="right")  # past each threshold's rows
    # Distinct thresholds short of the node's maximum, which leaves no observed row right.
    keep = left_end < obs_end[node]
    keep[1:] &= cand[1:] != cand[:-1]
    keep = keep.nonzero()[0]
    if not keep.size:
        return []
    cand, node, left_end = cand[keep], node[keep], left_end[keep]
    n_left_obs, nobs, n = left_end - starts[node], n_obs[node], sizes[node]
    missing_left = 2 * n_left_obs >= nobs
    n_left = n_left_obs + (n - nobs) * missing_left
    # Prefix sums of the centred target over each node's rows in sorted order; each
    # node's rows sum to about 0, so the running total stays small.
    prefix = np.concatenate(([0.0], centred[order].cumsum()))
    at_start, at_end = prefix[starts], prefix[ends]
    s_left = (prefix[left_end] - at_start[node]
              + (at_end - prefix[obs_end])[node] * missing_left)
    s_right = (at_end - at_start)[node] - s_left
    gains = s_left ** 2 / n_left + s_right ** 2 / (n - n_left)
    tol = _TIE_TOLERANCE * node_sse[node]  # no split gains more than node_sse
    top = np.full(K, -np.inf)
    np.maximum.at(top, node, gains)
    near = gains >= top[node] - tol
    direct = near & (np.bincount(node[near], minlength=K) == 1)[node] & (gains > tol)
    # Per node: the winning threshold's key (below the node's keys if none wins),
    # its missing side and its left row count.
    win, side, n_lefts = node_key - 1, np.zeros(K, dtype=bool), np.zeros(K, dtype=int)
    at = node[direct]
    win[at], side[at], n_lefts[at] = cand[direct], missing_left[direct], n_left[direct]
    best = {}
    for i in (near & ~direct).nonzero()[0].tolist():
        k = int(node[i])
        rows = slice(starts[k], ends[k])
        go_left = (key[rows] <= cand[i]) | (missing_left[i] & missing[rows])
        if k not in best:
            best[k] = (0.0, _sse(tgts[k]))
        gain = best[k][1] - (_sse(tgts[k][go_left]) + _sse(tgts[k][~go_left]))
        if gain > best[k][0]:
            best[k] = (gain, best[k][1])
            win[k], side[k], n_lefts[k] = cand[i], missing_left[i], n_left[i]
    split = win >= node_key
    go_left = (key <= win.repeat(sizes)) | (missing & (split & side).repeat(sizes))
    left, right = go_left.nonzero()[0], (split.repeat(sizes) ^ go_left).nonzero()[0]
    lb, lt, rb, rt = base[left], tgt[left], base[right], tgt[right]
    lc = [0] + n_lefts.cumsum().tolist()
    rc = [0] + ((sizes - n_lefts) * split).cumsum().tolist()
    return [(k, f[k], values[win[k] - node_key[k]], side[k],
             (lb[lc[k]:lc[k + 1]], lt[lc[k]:lc[k + 1]]), (rb[rc[k]:rc[k + 1]], rt[rc[k]:rc[k + 1]]))
            for k in split.nonzero()[0].tolist()]


def _grow_forest(flat, roots, rngs, lengths, max_depth: int) -> list[tuple]:
    """Grow one tree per root, all in lockstep; returns each tree's ``(feature,
    threshold, right, missing_left)`` node arrays, with -1, nan, -1 and False at its
    leaves.

    Tree j starts from the rows ``roots[j] = (base, tgt)`` (see _split_step), draws
    from ``rngs[j]`` and reads features in [0, lengths[j]).  Each tree keeps its own
    depth-first stack and numbers its nodes as it pops them, so its nodes and its
    generator's draws come as if it grew alone, and a split's left child is the next
    node.  Each step pops, per tree, nodes up to the next one below max_depth with at
    least MIN_SPLIT_ROWS rows, and _split_step scores those nodes together.
    """
    # Dense ranks of flat's values; absent cells (NaN) share the top rank, that of inf.
    values, rank = np.unique(np.append(np.where(np.isnan(flat), np.inf, flat), np.inf),
                             return_inverse=True)
    sizes = [0] * len(roots)  # nodes numbered so far
    splits = []  # [tree, node, feature, threshold, missing_left, right child] per split
    stacks = [[(0, base, tgt, None)] for base, tgt in roots]  # (depth, rows, split if right)
    while True:
        popped = []
        for j, stack in enumerate(stacks):
            while stack:
                depth, base, tgt, parent = stack.pop()
                if parent:
                    parent[5] = sizes[j]
                sizes[j] += 1
                if depth < max_depth and tgt.size >= MIN_SPLIT_ROWS:
                    popped.append((j, sizes[j] - 1, depth + 1, base, tgt))
                    break
        if not popped:
            break
        for k, f, theta, missing_left, left, right in _split_step(values, rank, popped, rngs,
                                                                  lengths):
            j, node, depth = popped[k][:3]
            splits.append([j, node, f, theta, missing_left, -1])
            stacks[j] += [(depth, *right, splits[-1]), (depth, *left, None)]
    tree, node, feature, threshold, missing_left, right = (
        np.array(column, dtype=dtype) for column, dtype in
        zip(list(zip(*splits)) or [()] * 6, (int, int, int, float, bool, int)))
    at = np.cumsum([0] + sizes[:-1])[tree] + node
    arrays = [np.full(sum(sizes), fill) for fill in (-1, np.nan, -1, False)]
    for a, column in zip(arrays, (feature, threshold, right, missing_left)):
        a[at] = column
    return list(zip(*(np.split(a, np.cumsum(sizes[:-1])) for a in arrays)))


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
    shapes, rngs, roots = [], [], []
    for j in range(n_trees):
        rng = np.random.default_rng([seed, j])
        l = int(rng.integers(l_min, l_max + 1))
        p = int(rng.integers(1, min(p_max, T - l) + 1))
        v_pred = int(rng.integers(V))
        v_tgt = int(rng.integers(V))
        starts = row_starts(l, p)
        tgt = series[v_tgt][starts + (l + p - 1)]
        keep = (tgt == tgt).nonzero()[0]  # rows with an absent (NaN) target teach nothing
        shapes.append((l, p, v_pred, v_tgt))
        rngs.append(rng)
        # Rows are pooled patient by patient; the threshold draws depend on that order.
        roots.append((v_pred * series.shape[1] + starts[keep], tgt[keep]))
    grown = _grow_forest(series.ravel(), roots, rngs, [s[0] for s in shapes], max_depth)
    return LPSForest([LPSTree(*shape, *nodes) for shape, nodes in zip(shapes, grown)], V, T)


def lps_represent(forest: LPSForest, cohort: Cohort) -> np.ndarray:
    """Leaf counts of every patient: an (N, representation_length) int matrix.

    The trees' node arrays are laid end to end, each tree's ids shifted by its
    offset, so that a split's children are the next node and its shifted right
    child, and every leaf is made its own two children.  Each chunk of _ROUTE_CHUNK
    trees then routes all its segment rows at once, one level per pass, as deep as
    its deepest leaf: row (patient n, start s) of a tree reads day s + feature of the
    tree's predictor attribute from the ``_segment_rows`` layout, in one of two copies
    that differ in what an absent day reads.  Column k counts, per patient, the rows
    that reached the forest's k-th leaf in that node order, so each tree has a block.
    """
    N, _, T = cohort.values.shape
    _require_shape(cohort, (forest.n_attributes, forest.window_length), "the forest's")
    series, row_starts = _segment_rows(cohort)
    # Absent cells read -inf in the first copy and +inf in the second, so that a split
    # sends them left or right by reading the copy of its missing side.
    flat = np.where(np.isnan(series), np.array([-np.inf, np.inf])[:, None, None], series).ravel()
    trees = forest.trees
    offset = np.cumsum([0] + [t.feature.size for t in trees])
    feature, threshold, missing_left = (np.concatenate([getattr(t, a) for t in trees])
                                        for a in ("feature", "threshold", "missing_left"))
    split = feature >= 0
    leaves_before = np.append(0, np.cumsum(~split))  # at a leaf: its column in the forest
    column = leaves_before[offset]  # leaves before each tree
    children = np.stack([np.arange(1, split.size + 1),
                         np.concatenate([t.right + o for t, o in zip(trees, offset)])], axis=1)
    children[~split] = np.flatnonzero(~split)[:, None]
    read = np.where(split, feature, 0) + ~missing_left * series.size
    counts = np.empty((N, column[-1]), dtype=int)
    for c in range(0, len(trees), _ROUTE_CHUNK):
        chunk = trees[c:c + _ROUTE_CHUNK]
        starts = [row_starts(t.segment_length, t.lag) for t in chunk]
        base = np.concatenate([t.predictor_attr * series.shape[1] + s
                               for t, s in zip(chunk, starts)])
        node = offset[c:c + len(chunk)].repeat([s.size for s in starts])
        level = offset[c:c + len(chunk)]  # the chunk's nodes at the rows' depth
        while (level := level[split[level]]).size:
            node = children.ravel()[2 * node + (flat[base + read[node]] > threshold[node])]
            level = children[level].ravel()
        width = column[c + len(chunk)] - column[c]
        counts[:, column[c]:column[c] + width] = np.bincount(
            np.concatenate(starts) // T * width + leaves_before[node] - column[c],
            minlength=N * width).reshape(N, width)
    return counts


def _intersection(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Histogram intersection of every row of H with every row of B, divided by the row length.

    Counts are non-negative integers and min(a, b) = sum over k >= 1 of
    [a >= k][b >= k], so the sums are one matrix product of 0/1 indicators
    per count level k, over the columns where both sides reach k.  Every
    partial sum of a product is an integer no larger than the row length, so
    float32 holds it exactly below 2**24 columns, and float64 their total.
    """
    out = np.zeros((H.shape[0], B.shape[0]))
    h_top, b_top = H.max(axis=0, initial=0), B.max(axis=0, initial=0)
    dtype = np.float32 if H.shape[1] < 2 ** 24 else float
    for k in range(1, int(np.minimum(h_top, b_top).max(initial=0)) + 1):
        cols = np.flatnonzero((h_top >= k) & (b_top >= k))
        out += (H[:, cols] >= k).astype(dtype) @ (B[:, cols] >= k).astype(dtype).T
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
              [vars(t) for t in forest.trees])


def load_lps_forest(path) -> LPSForest:
    meta, records = _load_npz(path, "LPS forest")
    if "n_attributes" not in meta:
        raise ValueError(f"LPS forest {path} has no n_attributes entry in __meta__; "
                         "train and save the forest again")
    return _records(path, records, LPSTree, lambda trees: LPSForest(trees, **meta),
                    old=("left", "leaf_slot"))  # both follow from feature
