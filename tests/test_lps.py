import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtsk.cohort import (
    Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness,
    generate_synthetic_cohort, train_test_split,
)
from mtsk.lps import (
    build_segment_matrix,
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


def _cohort(*samples):
    V, T = samples[0].values.shape
    return Cohort(list(samples), [f"a{v}" for v in range(V)], T)


def _blocks(forest):
    """Column boundaries of each tree's block in an ``lps_represent`` matrix."""
    return np.cumsum([0] + [t.n_leaves for t in forest.trees])


# ---------------------------------------------------------------------------
# Reference: the per-sample LPS path, one sample and one tree at a time.


def _oracle_segment_matrix(x: MTSample, l, p, v_pred, v_tgt):
    T = x.values.shape[1]
    row_pred = np.where(x.mask[v_pred] > 0, x.values[v_pred], np.nan)
    row_tgt = np.where(x.mask[v_tgt] > 0, x.values[v_tgt], np.nan)
    S = T - l - p + 1
    idx = np.arange(S)[:, None] + np.arange(l)[None, :]
    return row_pred[idx], row_tgt[np.arange(S) + l + p - 1]


def _oracle_route(tree, predictors):
    """Histogram of one sample's segment rows over the tree's leaves."""
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
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return np.bincount(tree.leaf_slot[node], minlength=tree.n_leaves)


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


def _oracle_matrix(forest, rows: Cohort, cols: Cohort):
    H = [_oracle_represent(forest, s) for s in rows.samples]
    B = [_oracle_represent(forest, s) for s in cols.samples]
    return np.array([[_oracle_kernel(h, b) for b in B] for h in H])


def _mar_split(n_cases, n_controls, V, T, seed):
    full = generate_synthetic_cohort(n_cases, n_controls, V, T, 1.5, seed=seed)
    masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=seed + 1))
    return train_test_split(masked, 0.75, seed=seed + 2)


class TestSegmentMatrix:
    def test_row_count(self):
        x = _cohort(_sample(np.arange(5.0).reshape(1, 5)))
        pred, tgt = build_segment_matrix(x, 2, 1, 0, 0)
        assert pred.shape == (1, 3, 2) and tgt.shape == (1, 3)

    def test_univariate_indexing(self):
        x = _cohort(_sample([[1.0, 2.0, 3.0, 4.0]]))
        pred, tgt = build_segment_matrix(x, 2, 1, 0, 0)
        assert pred[0].tolist() == [[1.0, 2.0], [2.0, 3.0]]
        assert tgt[0].tolist() == [3.0, 4.0]

    def test_missing_cells_marked(self):
        mask = np.ones((1, 5))
        mask[0, 2] = 0.0
        x = _cohort(_sample([[1.0, 2.0, 3.0, 4.0, 5.0]], mask=mask))
        pred, tgt = build_segment_matrix(x, 2, 1, 0, 0)
        pred, tgt = pred[0], tgt[0]
        assert np.isnan(pred[1, 1]) and np.isnan(pred[2, 0])
        assert np.isnan(tgt[0])
        assert not np.isnan(pred[0]).any()

    def test_window_too_short_rejected(self):
        x = _cohort(_sample(np.zeros((1, 4))))
        with pytest.raises(ValueError, match="exceeds window"):
            build_segment_matrix(x, 3, 2, 0, 0)

    def test_cross_attribute_rows(self):
        x = _cohort(_sample([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))
        pred, tgt = build_segment_matrix(x, 1, 1, 0, 1)
        assert pred[0].tolist() == [[1.0], [2.0]]
        assert tgt[0].tolist() == [20.0, 30.0]

    def test_patients_match_per_sample_rows(self):
        train, _ = _mar_split(4, 8, 3, 12, seed=30)
        pred, tgt = build_segment_matrix(train, 3, 2, 1, 2)
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
        assert all(t.n_leaves == 1 for t in forest.trees)
        rep = lps_represent(forest, cohort)
        expected = [10 - t.segment_length - t.lag + 1 for t in forest.trees]
        assert rep.tolist() == [expected] * 4

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
        assert max(t.n_leaves for t in forest.trees) <= 4


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

    def test_stump_matches_direct_thresholding(self):
        # A depth-1 forest of one tree must reproduce a 2-bin histogram
        # computed straight from the recorded split.
        cohort = generate_synthetic_cohort(10, 10, 2, 10, 2.0, seed=13)
        forest = lps_train(cohort, n_trees=1, max_depth=1, seed=14)
        tree = forest.trees[0]
        assert tree.n_leaves == 2
        pred, _ = build_segment_matrix(
            cohort, tree.segment_length, tree.lag, tree.predictor_attr, tree.target_attr
        )
        rep = lps_represent(forest, cohort)
        left_slot = tree.leaf_slot[tree.left[0]]
        for i in range(6):
            col = pred[i, :, tree.feature[0]]
            go_left = np.where(np.isnan(col), tree.missing_left[0], col <= tree.threshold[0])
            manual = [int(go_left.sum()), int((~go_left).sum())]
            assert rep[i, left_slot] == manual[0]
            assert rep[i, 1 - left_slot] == manual[1]

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
        assert max(t.n_leaves for t in forest.trees) > 4
        assert any(
            np.isnan(build_segment_matrix(train, t.segment_length, t.lag, t.predictor_attr,
                                          t.target_attr)[0][..., t.feature[0]]).any()
            for t in forest.trees if t.feature[0] >= 0
        )
        km = lps_gram(forest, train, test)
        assert np.array_equal(km.gram, _oracle_matrix(forest, train, train))
        assert np.array_equal(km.cross, _oracle_matrix(forest, train, test))

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
