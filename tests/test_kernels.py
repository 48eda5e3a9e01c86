import math
import re
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mtsk.cohort import (
    Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness,
    generate_synthetic_cohort, train_test_split,
)
from mtsk.evaluate import ExperimentConfig, MethodSpec, cell_kernel
from mtsk.impute import ALL_SCHEMES, ImputationMethod, fit_imputer, impute, parse_scheme
from mtsk.kernels import (
    GAKParams,
    KernelMatrix,
    _gak_logs,
    fit_gak_params,
    gak_gram,
    gram_matrix,
    load_matrix,
    save_matrix,
)
from mtsk.lps import lps_gram, lps_train
from mtsk.tck import tck_test, tck_train


def _sample(values, sid="x", mask=None, label=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones_like(values) if mask is None else np.asarray(mask, dtype=float)
    return MTSample(sid, values, mask, label)


def gak_log(x, y, params):
    """Log of the unnormalized GAK between two samples, through the batched DP."""
    return float(_gak_logs(np.stack([x.values, y.values]), params)[0, 1])


def enumerate_gak(x, y, sigma, triangular):
    """Brute-force sum over all monotone alignments, independent of the DP.

    Paths step by (1,0), (0,1) or (1,1) through the T1 x T2 lattice; each
    visited cell multiplies in its triangular-windowed local similarity.
    """
    a, b = x.values, y.values
    T1, T2 = a.shape[1], b.shape[1]

    def sim(i, j):
        w = max(0.0, 1.0 - abs(i - j) / triangular)
        if w == 0.0:
            return 0.0
        d2 = float(((a[:, i - 1] - b[:, j - 1]) ** 2).sum())
        k = math.exp(-d2 / (2.0 * sigma * sigma))
        return w * k / (2.0 - k)

    def walk(i, j):
        s = sim(i, j)
        if s == 0.0:
            return 0.0
        if i == T1 and j == T2:
            return s
        total = 0.0
        if i < T1:
            total += walk(i + 1, j)
        if j < T2:
            total += walk(i, j + 1)
        if i < T1 and j < T2:
            total += walk(i + 1, j + 1)
        return s * total

    return math.log(walk(1, 1))


def _oracle_log_local_similarity(a, b, sigma, triangular):
    """log of w * k/(2-k) for all (s, t): Gaussian k, triangular window w."""
    sa = np.sum(a * a, axis=0)
    sb = np.sum(b * b, axis=0)
    d2 = np.maximum(sa[:, None] + sb[None, :] - 2.0 * (a.T @ b), 0.0)
    logk = -d2 / (2.0 * sigma * sigma)
    out = logk - np.log1p(-np.expm1(logk))
    offset = np.abs(np.arange(a.shape[1])[:, None] - np.arange(b.shape[1])[None, :])
    with np.errstate(divide="ignore"):
        out += np.log(np.maximum(1.0 - offset / triangular, 0.0))
    return out


def _oracle_gak_log(x, y, params):
    """The scalar per-pair dynamic program, one lattice cell at a time."""
    ll = _oracle_log_local_similarity(x.values, y.values, params.sigma, params.triangular)
    ll = ll.tolist()
    tx, ty = x.values.shape[1], y.values.shape[1]
    tri = params.triangular
    neg_inf = float("-inf")
    prev = [neg_inf] * (ty + 1)
    prev[0] = 0.0
    for i in range(1, tx + 1):
        cur = [neg_inf] * (ty + 1)
        row = ll[i - 1]
        lo = max(1, i - tri + 1)
        hi = min(ty, i + tri - 1)
        for j in range(lo, hi + 1):
            up, left, diag = prev[j], cur[j - 1], prev[j - 1]
            m = up if up > left else left
            if diag > m:
                m = diag
            if m == neg_inf:
                continue
            s = math.exp(up - m) + math.exp(left - m) + math.exp(diag - m)
            cur[j] = m + math.log(s) + row[j - 1]
        prev = cur
    return prev[ty]


def _oracle_gak_matrices(train, test, params):
    """Per-pair normalized GAK Gram (upper triangle mirrored) and cross."""
    samples, test_samples = train.samples, test.samples
    n = len(samples)
    self_log = [_oracle_gak_log(s, s, params) for s in samples]
    test_self = [_oracle_gak_log(s, s, params) for s in test_samples]
    gram = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lg = _oracle_gak_log(samples[i], samples[j], params)
            gram[i, j] = gram[j, i] = math.exp(lg - 0.5 * (self_log[i] + self_log[j]))
    cross = np.empty((n, len(test_samples)))
    for i in range(n):
        for j, t in enumerate(test_samples):
            lg = _oracle_gak_log(samples[i], t, params)
            cross[i, j] = math.exp(lg - 0.5 * (self_log[i] + test_self[j]))
    return gram, cross


def _oracle_rect_gak_logs(a, b, params):
    """The rectangular DP: log GAK of every a[n] against every b[m], an (N, M) array."""
    fa = np.moveaxis(a, 2, 0)  # frame-major: (T1, N, V)
    fb = np.moveaxis(b, 2, 0)
    sa = np.sum(fa * fa, axis=2)
    sb = np.sum(fb * fb, axis=2)
    t1, t2, tri = fa.shape[0], fb.shape[0], params.triangular
    neg_inf = np.full((len(a), len(b)), -np.inf)
    prev = [np.zeros_like(neg_inf)] + [neg_inf] * t2
    for i in range(1, t1 + 1):
        cur = [neg_inf] * (t2 + 1)
        for j in range(max(1, i - tri + 1), min(t2, i + tri - 1) + 1):
            d2 = np.maximum(sa[i - 1][:, None] + sb[j - 1] - 2.0 * (fa[i - 1] @ fb[j - 1].T), 0.0)
            logk = -d2 / (2.0 * params.sigma * params.sigma)
            local = logk - np.log1p(-np.expm1(logk)) + math.log(1.0 - abs(i - j) / tri)
            cur[j] = np.logaddexp(np.logaddexp(prev[j], cur[j - 1]), prev[j - 1]) + local
        prev = cur
    return prev[t2]


def _oracle_tuned_gak_logs(x, params):
    """``_gak_logs`` as it was, with a cache of the band's column norms and a cell with one
    predecessor copying it instead of taking its log-sum-exp."""
    frames = np.moveaxis(x, 2, 0)  # frame-major: (T, K, V)
    sq = np.sum(frames * frames, axis=2)
    T, tri = frames.shape[0], params.triangular
    rows, cols = np.triu_indices(len(x))
    flat = rows * len(x) + cols
    prev = {0: np.zeros(rows.size)}  # the last row's band cells, by column
    sq_cols = {}  # squared norms of the band's columns, gathered once each
    for i in range(1, T + 1):
        cur, band = {}, range(max(1, i - tri + 1), min(T, i + tri - 1) + 1)
        sq_row = sq[i - 1][rows]
        sq_cols = {j: sq_cols[j] if j in sq_cols else sq[j - 1][cols] for j in band}
        for j in band:
            dot = (frames[i - 1] @ frames[j - 1].T).take(flat)
            d2 = np.maximum(sq_row + sq_cols[j] - 2.0 * dot, 0.0)
            logk = -d2 / (2.0 * params.sigma * params.sigma)
            local = logk - np.log1p(-np.expm1(logk)) + math.log(1.0 - abs(i - j) / tri)
            terms = [t for t in (prev.get(j), cur.get(j - 1), prev.get(j - 1)) if t is not None]
            if len(terms) == 1:
                cur[j] = terms[0] + local
                continue
            # Floored at the least finite float: all -inf predecessors give log(0) = -inf.
            m = np.maximum(reduce(np.maximum, terms), np.finfo(float).min)
            s = reduce(np.add, [np.exp(t - m) for t in terms])
            with np.errstate(divide="ignore"):
                cur[j] = m + np.log(s) + local
        prev = cur
    logs = np.empty((len(x), len(x)))
    logs[rows, cols] = logs[cols, rows] = prev[T]
    return logs


def _oracle_three_call_gak(train, params, test=None):
    """Gram and cross from three rectangular DPs: train x train, test x test and train x test."""
    logs = _oracle_rect_gak_logs(train.values, train.values, params)
    self_log = np.diag(logs)
    gram = KernelMatrix(np.exp(logs - 0.5 * (self_log[:, None] + self_log[None, :])), "gak").gram
    if test is None:
        return gram, None
    test_self = np.diag(_oracle_rect_gak_logs(test.values, test.values, params))
    cross = np.exp(_oracle_rect_gak_logs(train.values, test.values, params)
                   - 0.5 * (self_log[:, None] + test_self[None, :]))
    return gram, cross


def _cohort(*values):
    samples = [_sample(v, sid=f"s{i}") for i, v in enumerate(values)]
    V, T = samples[0].values.shape
    return Cohort(samples, [f"a{k}" for k in range(V)], T)


def _imputed_mar_split(n_cases, n_controls, V, T, scheme, seed):
    """A 30% MAR cohort split 3:1 and imputed with ``scheme`` fitted on train."""
    full = generate_synthetic_cohort(n_cases, n_controls, V, T, 1.5, seed=seed)
    masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=seed + 1))
    train, test = train_test_split(masked, 0.75, seed=seed + 2)
    spec = fit_imputer(train, *parse_scheme(scheme))
    return impute(spec, train), impute(spec, test)


class TestLinear:
    def test_inner_product(self):
        cohort = _cohort([[1, 2], [0, 1]], [[1, 0], [1, 1]])
        assert gram_matrix("linear", cohort).gram[0, 1] == 2.0

    def test_self_kernel_is_squared_frobenius(self):
        rng = np.random.default_rng(0)
        cohort = _cohort(rng.normal(size=(3, 5)), rng.normal(size=(3, 5)))
        gram = gram_matrix("linear", cohort).gram
        assert gram[0, 0] == pytest.approx(np.sum(cohort.values[0] ** 2))

    def test_one_hot_gram_is_identity(self):
        samples = [_sample(np.eye(4)[i].reshape(1, 4), sid=f"s{i}") for i in range(4)]
        cohort = Cohort(samples, ["a"], 4)
        km = gram_matrix("linear", cohort)
        assert np.array_equal(km.gram, np.eye(4))

    def test_bias_correction_block_additivity(self):
        # Stacking the mask block adds exactly the masks' inner product.
        cohort = generate_synthetic_cohort(4, 4, 3, 8, 1.0, seed=0)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=1))
        plain = impute(fit_imputer(masked, ImputationMethod.MEAN), masked)
        stacked = impute(fit_imputer(masked, ImputationMethod.MEAN, True), masked)
        mask_dot = float(np.dot(masked.mask[0].ravel(), masked.mask[1].ravel()))
        want = gram_matrix("linear", plain).gram[0, 1] + mask_dot
        assert gram_matrix("linear", stacked).gram[0, 1] == pytest.approx(want)

    def test_test_shape_must_match_train(self):
        # 4 x 10 and 5 x 8 both flatten to 40 features; the pair must still be rejected.
        train = generate_synthetic_cohort(3, 3, 4, 10, 1.0, seed=3)
        test = generate_synthetic_cohort(2, 2, 5, 8, 1.0, seed=4)
        with pytest.raises(ValueError, match=r"^cohort \(V, T\) = \(5, 8\) differs from "
                                             r"train's \(4, 10\); use a larger window$"):
            gram_matrix("linear", train, test)


class TestGAKParams:
    def test_sigma_from_median_distance(self):
        # Pairwise Frobenius distances {1, 2, 3}, T = 4: sigma = 2 * 2 * 2.
        vals = [np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 4))]
        vals[1][0, 0] = 1.0
        vals[2][0, 0] = 3.0
        cohort = Cohort([_sample(v, sid=f"s{i}") for i, v in enumerate(vals)], ["a"], 4)
        params = fit_gak_params(cohort)
        assert params.sigma == pytest.approx(8.0)
        assert params.triangular == 1  # max(1, round(0.8))

    def test_triangular_rounding(self):
        cohort = generate_synthetic_cohort(3, 3, 2, 20, 1.0, seed=0)
        assert fit_gak_params(cohort).triangular == 4
        cohort = generate_synthetic_cohort(3, 3, 2, 4, 1.0, seed=0)
        assert fit_gak_params(cohort).triangular == 1

    def test_identical_training_set_rejected(self):
        x = np.ones((2, 4))
        cohort = Cohort([_sample(x, sid=f"s{i}") for i in range(3)], ["a", "b"], 4)
        with pytest.raises(ValueError, match="degenerate"):
            fit_gak_params(cohort)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            GAKParams(sigma=0.0, triangular=1)
        with pytest.raises(ValueError):
            GAKParams(sigma=1.0, triangular=0)


class TestGAK:
    def test_single_frame_equals_local_similarity(self):
        x = _sample([[1.0], [2.0]])
        y = _sample([[0.5], [1.0]])
        params = GAKParams(sigma=1.3, triangular=2)
        d2 = float(((x.values[:, 0] - y.values[:, 0]) ** 2).sum())
        k = math.exp(-d2 / (2 * params.sigma**2))
        assert gak_log(x, y, params) == pytest.approx(math.log(k / (2 - k)), abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            T = int(rng.integers(1, 5))
            V = int(rng.integers(1, 3))
            x = _sample(rng.normal(size=(V, T)))
            y = _sample(rng.normal(size=(V, T)))
            sigma = float(rng.uniform(0.5, 3.0))
            tri = int(rng.integers(1, 5))
            got = gak_log(x, y, GAKParams(sigma, tri))
            want = enumerate_gak(x, y, sigma, tri)
            assert got == pytest.approx(want, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        x = _sample(rng.normal(size=(2, 6)))
        y = _sample(rng.normal(size=(2, 6)))
        params = GAKParams(sigma=2.0, triangular=3)
        assert gak_log(x, y, params) == pytest.approx(gak_log(y, x, params), abs=1e-12)

    def test_attribute_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 6))
        perm = rng.permutation(4)
        params = GAKParams(sigma=1.5, triangular=2)
        a = gak_log(_sample(x), _sample(y), params)
        b = gak_log(_sample(x[perm]), _sample(y[perm]), params)
        assert a == pytest.approx(b, abs=1e-12)

    def test_shrinking_band_never_increases_value(self):
        rng = np.random.default_rng(9)
        x = _sample(rng.normal(size=(2, 8)))
        y = _sample(rng.normal(size=(2, 8)))
        values = [gak_log(x, y, GAKParams(1.0, tri)) for tri in (1, 2, 4, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_normalized_gram_diagonal_is_one(self):
        cohort = generate_synthetic_cohort(4, 4, 3, 10, 1.0, seed=1)
        km = gram_matrix("gak", cohort)
        assert np.array_equal(np.diag(km.gram), np.ones(8))
        assert km.gram.max() <= 1.0 + 1e-12

    def test_normalized_self_similarity_dominates(self):
        cohort = generate_synthetic_cohort(4, 4, 3, 10, 1.0, seed=2)
        km = gram_matrix("gak", cohort)
        assert (km.gram.max(axis=1) == 1.0).all()

    def test_gram_and_cross_match_per_pair_oracle(self):
        # The batched DP sums the per-pair oracle's terms in the same order, but
        # numpy's exp and log round apart from math's, and BLAS blocks the frame
        # inner products differently: agreement to rtol 1e-12.
        train, test = _imputed_mar_split(8, 16, 3, 16, "locf+bc", seed=70)
        assert len(train) != len(test)
        params = fit_gak_params(train)
        assert params.triangular == 3
        # Narrow the bandwidth so that the Gram spreads well below 1.
        params = GAKParams(params.sigma / 8.0, params.triangular)
        km = gak_gram(train, params, test)
        gram, cross = _oracle_gak_matrices(train, test, params)
        assert gram.min() < 0.5
        np.testing.assert_allclose(km.gram, gram, rtol=1e-12, atol=0)
        np.testing.assert_allclose(km.cross, cross, rtol=1e-12, atol=0)
        assert np.array_equal(np.diag(km.gram), np.ones(len(train)))
        assert np.array_equal(km.gram, km.gram.T)

    @pytest.mark.parametrize("n_test", [None, 1, 12])
    def test_gram_and_cross_match_three_call_dp_at_paper_width(self, n_test):
        # 11 attributes bias-corrected to 22, over 20 days: the GAK cell of the paper.
        # The three-term log-sum-exp rounds apart from the nested logaddexp of the
        # oracle: agreement to rtol 1e-12, the per-pair oracle's tolerance.
        train, test = _imputed_mar_split(15, 45, 11, 20, "zero+bc", seed=72)
        assert train.values.shape[1:] == (22, 20)
        if n_test is None:
            test = None
        else:
            test = Cohort(test.samples[:n_test], test.attribute_names, test.window_length)
        params = fit_gak_params(train)
        km = gak_gram(train, params, test)
        gram, cross = _oracle_three_call_gak(train, params, test)
        np.testing.assert_allclose(km.gram, gram, rtol=1e-12, atol=0)
        if test is None:
            assert km.cross is None
        else:
            np.testing.assert_allclose(km.cross, cross, rtol=1e-12, atol=0)
        assert np.array_equal(km.gram, km.gram.T)
        assert np.array_equal(np.diag(km.gram), np.ones(len(train)))

    @pytest.mark.parametrize("triangular, T", [(1, 12), (12, 12), (20, 12), (3, 1)])
    def test_edge_of_band_matches_three_call_dp(self, triangular, T):
        # At triangular 1 every band cell has one predecessor, whose log-sum-exp
        # m + log(exp(0)) is m itself, so the DPs agree bit for bit.  A band as wide
        # as the window, or a single frame, agrees to the tolerance above.
        cohort = generate_synthetic_cohort(10, 14, 4, T, 1.0, seed=74)
        train, test = train_test_split(cohort, 0.75, seed=75)
        params = GAKParams(fit_gak_params(train).sigma, triangular)
        km = gak_gram(train, params, test)
        gram, cross = _oracle_three_call_gak(train, params, test)
        if triangular == 1:
            assert np.array_equal(km.gram, gram)
            assert np.array_equal(km.cross, cross)
        else:
            np.testing.assert_allclose(km.gram, gram, rtol=1e-12, atol=0)
            np.testing.assert_allclose(km.cross, cross, rtol=1e-12, atol=0)

    def test_cells_with_only_minus_inf_predecessors_stay_minus_inf(self):
        # sigma = 1e-160 overflows -d2 / (2 sigma^2) to -inf wherever two frames
        # differ, so whole pairs run on -inf predecessors.  That may raise no
        # warning beyond the oracle's own overflow.
        x = generate_synthetic_cohort(3, 3, 2, 6, 1.0, seed=0).values
        params = GAKParams(1e-160, 2)
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            logs = _gak_logs(x, params)
        with warnings.catch_warnings(record=True) as oracle_raised:
            warnings.simplefilter("always")
            want = _oracle_rect_gak_logs(x, x, params)
        assert np.array_equal(logs, want)
        assert np.isneginf(logs[~np.eye(len(x), dtype=bool)]).all()
        assert logs[1, 1] == pytest.approx(-5.68e306, rel=1e-3)
        oracle_messages = {str(w.message) for w in oracle_raised}
        assert oracle_messages == {"overflow encountered in divide"}
        assert {str(w.message) for w in raised} <= oracle_messages

    @settings(max_examples=200)
    @given(data=st.data())
    def test_logs_are_the_tuned_dps_bytes(self, data):
        # Tolerance 0 against the old DP: every cell now takes the log-sum-exp, which
        # for one predecessor is exact, and every column norm is gathered per cell.
        # sigma = 1e-160 sends every pair of unequal frames to -inf.
        K, V, T = (data.draw(st.integers(1, n)) for n in (6, 3, 12))
        x = data.draw(arrays(float, (K, V, T), elements=st.floats(-1e100, 1e100)))
        try:  # the heuristic needs two unequal series of two cells or more
            fitted = fit_gak_params(_cohort(*x)).sigma
        except ValueError:
            fitted = 1.0
        params = GAKParams(data.draw(st.sampled_from([fitted, 1e-160])),
                           data.draw(st.integers(1, T + 2)))
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            logs = _gak_logs(x, params)
        with warnings.catch_warnings(record=True) as oracle_raised:
            warnings.simplefilter("always")
            want = _oracle_tuned_gak_logs(x, params)
        assert logs.tobytes() == want.tobytes()
        assert {str(w.message) for w in raised} <= {str(w.message) for w in oracle_raised}

    def test_test_shape_must_match_train(self):
        train = generate_synthetic_cohort(4, 4, 3, 10, 1.0, seed=3)
        params = fit_gak_params(train)
        # Only a window mismatch gets the window advice.
        for V, T, advice in ((3, 9, "; use a larger window"), (2, 10, "")):
            test = generate_synthetic_cohort(2, 2, V, T, 1.0, seed=4)
            with pytest.raises(ValueError, match=rf"^cohort \(V, T\) = \({V}, {T}\) "
                                                 rf"differs from train's \(3, 10\){advice}$"):
                gak_gram(train, params, test)

    def test_gram_exactly_symmetric_at_paper_width(self):
        # At 22 attributes and ~180+ patients, BLAS blocking rounds the frame
        # inner products of (i, j) and (j, i) apart; the Gram must not show it.
        cohort = generate_synthetic_cohort(50, 200, 22, 12, 1.0, seed=71)
        km = gram_matrix("gak", cohort)
        assert np.array_equal(km.gram, km.gram.T)


class TestGram:
    @pytest.mark.parametrize("kernel", ["linear", "gak"])
    def test_psd_and_exact_symmetry_on_random_cohort(self, kernel):
        cohort = generate_synthetic_cohort(10, 30, 4, 12, 1.0, seed=3)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=4))
        complete = impute(fit_imputer(masked, ImputationMethod.ZERO), masked)
        train = Cohort(complete.samples[:30], complete.attribute_names, 12)
        test = Cohort(complete.samples[30:], complete.attribute_names, 12)
        km = gram_matrix(kernel, train, test)
        assert np.array_equal(km.gram, km.gram.T)
        km.validate()
        assert km.cross.shape == (30, 10)

    @pytest.mark.parametrize("kernel", ["linear", "gak"])
    def test_incomplete_input_rejected(self, kernel):
        mask = np.ones((2, 3))
        mask[0, 0] = 0
        full = _sample(np.zeros((2, 3)), sid="full")
        holey = _sample(np.zeros((2, 3)), sid="holey", mask=mask)
        # The error names the first incomplete sample, here the second row.
        with pytest.raises(ValueError, match=f"^{kernel} kernel requires complete inputs; "
                                             "impute sample 'holey' first$"):
            gram_matrix(kernel, Cohort([full, holey], ["a", "b"], 3))

    def test_unknown_kernel_rejected(self):
        cohort = generate_synthetic_cohort(2, 2, 2, 6, 1.0, seed=0)
        with pytest.raises(ValueError, match="unknown kernel"):
            gram_matrix("rbf", cohort)

    def test_asymmetric_gram_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            KernelMatrix(bad, "test")

    def test_validate_flags_indefinite_matrix(self):
        bad = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="eigenvalue"):
            KernelMatrix(bad, "test").validate()


class TestEveryGram:
    @pytest.mark.parametrize("kernel", ["tck", "lps", "gak", "linear", "manual"])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_cell_gram_exactly_symmetric_and_psd(self, kernel, data):
        scheme = None if kernel in ("tck", "lps") else data.draw(st.sampled_from(ALL_SCHEMES))
        n_cases, n_controls = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 8))
        V, T = data.draw(st.integers(2, 4)), data.draw(st.integers(6, 12))
        seed = data.draw(st.integers(0, 2**16))
        spec = MissingnessSpec(data.draw(st.sampled_from(list(Missingness))),
                               data.draw(st.sampled_from([0.1, 0.3, 0.5])), seed=seed + 1)
        cohort = apply_missingness(
            generate_synthetic_cohort(n_cases, n_controls, V, T, 1.5, seed=seed), spec)
        method = MethodSpec(kernel, scheme)
        config = ExperimentConfig(methods=(method,), tck_q=2, tck_c=3, lps_trees=5)
        km, _ = cell_kernel(method, cohort, None, config, seed)
        assert np.array_equal(km.gram, km.gram.T)
        km.validate()


class TestMaskInvariance:
    def test_values_under_the_mask_change_no_gram(self):
        # Any finite value may sit under mask == 0; 1e200 overflows (x - mu)^2.
        full = generate_synthetic_cohort(8, 16, 3, 10, 1.5, seed=21)
        masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=22))
        poisoned = Cohort(
            [MTSample(s.id, np.where(s.mask > 0, s.values, 1e200), s.mask, s.label)
             for s in masked.samples],
            masked.attribute_names, masked.window_length,
        )

        def grams(cohort):
            train, test = train_test_split(cohort, 0.75, seed=23)
            tck_km, model = tck_train(train, Q=2, C=3, seed=24)
            lps_km = lps_gram(lps_train(train, n_trees=5, seed=25), train, test)
            out = [tck_km.gram, tck_test(model, test).cross, lps_km.gram, lps_km.cross]
            for scheme in ALL_SCHEMES:
                spec = fit_imputer(train, *parse_scheme(scheme))
                out.append(gram_matrix("linear", impute(spec, train), impute(spec, test)).gram)
            spec = fit_imputer(train, *parse_scheme("mean+bc"))
            gak_km = gram_matrix("gak", impute(spec, train), impute(spec, test))
            return out + [gak_km.gram, gak_km.cross]

        for a, b in zip(grams(masked), grams(poisoned), strict=True):
            assert np.array_equal(a, b)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_any_finite_value_under_the_mask_changes_nothing(self, masked_grams, poisoned,
                                                            data):
        grams, train, test, expected = masked_grams
        got = grams(poisoned(train, data, "train fill"), poisoned(test, data, "test fill"))
        for a, b in zip(got, expected, strict=True):
            assert np.array_equal(a, b)


def _lps_grams(train, test):
    km = lps_gram(lps_train(train, n_trees=5, seed=25), train, test)
    return [km.gram, km.cross]


def _imputed_grams(kernel, schemes):
    def grams(train, test):
        out = []
        for scheme in schemes:
            spec = fit_imputer(train, *parse_scheme(scheme))
            km = gram_matrix(kernel, impute(spec, train), impute(spec, test))
            out += [km.gram, km.cross]
        return out
    return grams


@pytest.fixture(scope="module", params=[
    _lps_grams, _imputed_grams("gak", ["mean+bc", "locf+bc"]),
    _imputed_grams("linear", ALL_SCHEMES),
], ids=["lps", "gak", "linear"])
def masked_grams(request):
    """(grams, train, test, grams(train, test)) on a 30% MAR split."""
    full = generate_synthetic_cohort(6, 14, 3, 10, 1.5, seed=26)
    masked = apply_missingness(full, MissingnessSpec(Missingness.MAR, 0.3, seed=27))
    train, test = train_test_split(masked, 0.75, seed=28)
    return request.param, train, test, request.param(train, test)


@pytest.fixture(scope="module")
def imputed_split():
    train, test = _imputed_mar_split(4, 10, 3, 10, "mean+bc", seed=80)
    return train, test, {k: gram_matrix(k, train, test) for k in ("gak", "linear")}


def _reordered(cohort: Cohort, order) -> Cohort:
    samples = cohort.samples
    return Cohort([samples[i] for i in order], cohort.attribute_names, cohort.window_length)


class TestPermutation:
    @pytest.mark.parametrize("kernel", ["gak", "linear"])
    @given(data=st.data())
    def test_permuting_patients_permutes_gram_and_cross(self, imputed_split, kernel, data):
        # Not bit-exact: BLAS blocks the permuted products differently, and the
        # Gram's mirror keeps the other orientation of some pairs.
        train, test, kms = imputed_split
        km = kms[kernel]
        p = np.array(data.draw(st.permutations(range(len(train))), label="train order"))
        q = np.array(data.draw(st.permutations(range(len(test))), label="test order"))
        out = gram_matrix(kernel, _reordered(train, p), _reordered(test, q))
        np.testing.assert_allclose(out.gram, km.gram[np.ix_(p, p)], rtol=1e-12, atol=0)
        np.testing.assert_allclose(out.cross, km.cross[np.ix_(p, q)], rtol=1e-12, atol=0)


class TestSerialization:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.normal(size=(4, 7))
        path = tmp_path / "m.csv"
        save_matrix(path, "tck", arr)
        tag, back = load_matrix(path)
        assert tag == "tck"
        assert np.array_equal(arr, back)
        first = path.read_text().splitlines()[0]
        assert first == "tck,4,7"

    @pytest.mark.parametrize("tag", ["lps,mean", "lps\n", "a\rb"])
    def test_tag_load_could_not_read_refused(self, tmp_path, tag):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=f"^matrix tag {re.escape(repr(tag))} must not hold "
                                             "a comma or a line break$"):
            save_matrix(path, tag, np.eye(2))
        assert not path.exists()

    @pytest.mark.parametrize("tag, message", [
        (" x", "' x'"), ("\tx", "'\\tx'"), ("\x1cx", "'\\x1cx'"), ("a\ud800", "'a\\ud800'"),
    ])
    def test_tag_load_would_change_refused(self, tmp_path, tag, message):
        # load_matrix strips the header, so a leading space, tab or separator was lost,
        # and a surrogate failed on encoding after the file was opened.
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=f"^matrix tag {re.escape(message)} must not start "
                                             "with whitespace or hold a surrogate$"):
            save_matrix(path, tag, np.eye(2))
        assert not path.exists()

    def test_matrix_bytes_match_per_entry_writer(self, tmp_path):
        arr = np.vstack([[0.0, -0.0, 1e-300, 0.1, 1 / 3, 1e300],
                         np.random.default_rng(6).normal(size=(3, 6))])
        path = tmp_path / "m.csv"
        save_matrix(path, "lps", arr)
        expected = "lps,4,6\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in arr)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("text, line", [
        ("gram,2,2\n1,2,3,4\n", 2),         # one row of four under a 2 x 2 header
        ("gram,3,1\n1,2,3\n", 2),           # a row under a column's header
        ("gram,2\n1,2\n3,4\n", 1),          # a header without M
        ("gram,2,2\n1,2\n3,4\n5,6\n", 4),   # a row too many
        ("gram,3,2\n1,2\n3,4\n", 4),        # a row too few
        ("gram,2,2\n1,2\n3\n", 3),          # a short row
        ("gram,2,x\n1,2\n3,4\n", 1),        # an M that is not an integer
        ("gram,2,2\n1,2\n3,abc\n", 3),      # a value that is not a number
        ("gram,-1,3\n", 1),                # a negative N over an empty body
    ])
    def test_matrix_body_checked_against_header(self, tmp_path, text, line):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "):
            load_matrix(path)


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("matrices")


# Any finite float64, with signed zeros, subnormals and values near the largest drawn often.
_ENTRY = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308])


class TestMatrixTextRoundTrip:
    @settings(max_examples=200)
    @given(tag=st.text(st.characters() | st.sampled_from(" \t\x1c,\r\n\ud800"), max_size=5),
           matrix=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                  max_side=4), elements=_ENTRY))
    @example(tag="", matrix=np.zeros((0, 3))).via("a 0 x M matrix")
    @example(tag="x", matrix=np.zeros((3, 0))).via("an N x 0 matrix")
    @example(tag=" x", matrix=np.eye(2)).via("a tag that lost its leading whitespace")
    def test_load_of_save_is_the_matrix_or_save_refuses(self, matrix_dir, tag, matrix):
        path = matrix_dir / "m.csv"
        path.unlink(missing_ok=True)
        try:
            save_matrix(path, tag, matrix)
        except ValueError:  # only a tag that could not come back, before the file is opened
            assert not path.exists()
            assert (set(tag) & set(",\r\n") or tag != tag.lstrip()
                    or any("\ud800" <= c <= "\udfff" for c in tag))
            return
        back_tag, back = load_matrix(path)
        assert back_tag == tag
        assert (back.dtype, back.shape) == (matrix.dtype, matrix.shape)
        assert back.tobytes() == matrix.tobytes()
