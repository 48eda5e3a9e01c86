import math

import numpy as np
import pytest

from mtsk.cohort import (
    Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness,
    generate_synthetic_cohort, train_test_split,
)
from mtsk.impute import ALL_SCHEMES, ImputationMethod, fit_imputer, impute, parse_scheme
from mtsk.kernels import (
    GAKParams,
    KernelMatrix,
    fit_gak_params,
    gak_log,
    gram_matrix,
    linear_kernel,
    load_matrix,
    save_matrix,
)
from mtsk.lps import lps_gram, lps_train
from mtsk.tck import tck_test, tck_train


def _sample(values, sid="x", mask=None, label=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones_like(values) if mask is None else np.asarray(mask, dtype=float)
    return MTSample(sid, values, mask, label)


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


class TestLinear:
    def test_inner_product(self):
        x = _sample([[1, 2], [0, 1]])
        y = _sample([[1, 0], [1, 1]])
        assert linear_kernel(x, y, 0.0) == 2.0

    def test_self_kernel_is_squared_frobenius(self):
        rng = np.random.default_rng(0)
        x = _sample(rng.normal(size=(3, 5)))
        assert linear_kernel(x, x, 0.0) == pytest.approx(np.sum(x.values**2))

    def test_constant_offset(self):
        x = _sample(np.zeros((2, 2)))
        assert linear_kernel(x, x, 5.0) == 5.0

    def test_incomplete_input_rejected(self):
        mask = np.ones((2, 3))
        mask[0, 0] = 0
        x = _sample(np.zeros((2, 3)), mask=mask)
        y = _sample(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="impute"):
            linear_kernel(x, y)

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
        x_p, y_p = plain.samples[0], plain.samples[1]
        x_s, y_s = stacked.samples[0], stacked.samples[1]
        mask_dot = float(np.dot(masked.samples[0].mask.ravel(), masked.samples[1].mask.ravel()))
        assert linear_kernel(x_s, y_s) == pytest.approx(linear_kernel(x_p, y_p) + mask_dot)


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
            return out

        for a, b in zip(grams(masked), grams(poisoned), strict=True):
            assert np.array_equal(a, b)


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
