import numpy as np
import pytest

from mtsk.cohort import Cohort, Missingness, MissingnessSpec, MTSample, apply_missingness, generate_synthetic_cohort
from mtsk.impute import (
    ALL_SCHEMES,
    ImputationMethod,
    fit_imputer,
    impute,
    parse_scheme,
    scheme_name,
)


def _cohort(value_rows, mask_rows, names=None):
    """One-attribute-per-row cohorts for hand-built cases."""
    samples = []
    for i, (vals, mask) in enumerate(zip(value_rows, mask_rows)):
        samples.append(MTSample(f"p{i}", np.asarray(vals, float), np.asarray(mask, float)))
    names = names or [f"a{v}" for v in range(len(value_rows[0]))]
    return Cohort(samples, names, len(value_rows[0][0]))


class TestFit:
    def test_mean_over_observed_cells(self):
        cohort = _cohort(
            [[[2.0, 0.0]], [[0.0, 4.0]]],
            [[[1, 1]], [[1, 1]]],
        )
        spec = fit_imputer(cohort, ImputationMethod.MEAN)
        assert spec.train_attribute_means[0] == pytest.approx(1.5)
        cohort = _cohort(
            [[[2.0, 9.0, 2.0]], [[9.0, 4.0, 4.0]]],
            [[[1, 0, 1]], [[0, 1, 1]]],
        )
        spec = fit_imputer(cohort, ImputationMethod.MEAN)
        assert spec.train_attribute_means[0] == 3.0  # masked 9s never counted

    def test_zero_method_tolerates_unobserved_attribute(self):
        cohort = _cohort(
            [[[2.0, 3.0], [9.0, 9.0]], [[1.0, 4.0], [9.0, 9.0]]],
            [[[1, 1], [0, 0]], [[1, 1], [0, 0]]],
        )
        spec = fit_imputer(cohort, ImputationMethod.ZERO)
        assert spec.method == ImputationMethod.ZERO
        with pytest.raises(ValueError, match="a1"):
            fit_imputer(cohort, ImputationMethod.MEAN)
        with pytest.raises(ValueError, match="a1"):
            fit_imputer(cohort, ImputationMethod.LOCF)

    def test_train_means_fixed_for_test_transform(self):
        train = _cohort([[[2.0, 4.0, 3.0]]], [[[1, 1, 1]]])
        test = _cohort([[[100.0, 0.0, 100.0]]], [[[1, 0, 1]]])
        spec = fit_imputer(train, ImputationMethod.MEAN)
        out = impute(spec, test)
        assert out.samples[0].values[0, 1] == 3.0  # train mean, not test mean


class TestImpute:
    def test_locf_carries_last_observation(self):
        cohort = _cohort([[[5.0, 9.0, 9.0, 7.0]]], [[[1, 0, 0, 1]]])
        spec = fit_imputer(cohort, ImputationMethod.LOCF)
        out = impute(spec, cohort)
        assert out.samples[0].values.tolist() == [[5.0, 5.0, 5.0, 7.0]]

    def test_locf_leading_missing_gets_train_mean(self):
        # Univariate [missing, 3] with train mean 2 becomes [2, 3]; a second
        # attribute only keeps the sample above the observation minimum.
        train = _cohort([[[2.0, 2.0], [1.0, 1.0]]], [[[1, 1], [1, 1]]])
        spec = fit_imputer(train, ImputationMethod.LOCF)
        target = _cohort([[[9.0, 3.0], [1.0, 1.0]]], [[[0, 1], [1, 1]]])
        out = impute(spec, target)
        assert out.samples[0].values[0].tolist() == [2.0, 3.0]

    def test_mean_fills_attribute_mean(self):
        cohort = _cohort([[[2.0, 9.0, 4.0]]], [[[1, 0, 1]]])
        spec = fit_imputer(cohort, ImputationMethod.MEAN)
        out = impute(spec, cohort)
        assert out.samples[0].values.tolist() == [[2.0, 3.0, 4.0]]

    def test_zero_on_complete_sample_is_identity(self):
        cohort = generate_synthetic_cohort(3, 3, 4, 8, 1.0, seed=0)
        spec = fit_imputer(cohort, ImputationMethod.ZERO)
        out = impute(spec, cohort)
        assert np.array_equal(out.values, cohort.values)

    def test_bias_correction_stacks_mask_block(self):
        cohort = generate_synthetic_cohort(6, 5, 11, 9, 1.0, seed=1)
        cohort = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=2))
        spec = fit_imputer(cohort, ImputationMethod.MEAN, bias_correct=True)
        out = impute(spec, cohort)
        assert out.n_attributes == 22
        assert out.attribute_names[11] == cohort.attribute_names[0] + "_obs"
        for orig, stacked in zip(cohort.samples, out.samples):
            assert np.array_equal(stacked.values[11:], orig.mask)
            assert stacked.mask.all()

    def test_observed_cells_never_modified(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=3)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.4, seed=4))
        for scheme in ALL_SCHEMES:
            method, bc = parse_scheme(scheme)
            spec = fit_imputer(masked, method, bc)
            out = impute(spec, masked)
            for a, b in zip(out.samples, masked.samples):
                obs = b.mask > 0
                assert np.array_equal(a.values[: b.values.shape[0]][obs], b.values[obs])

    def test_idempotent_without_bias_correction(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=5)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.4, seed=6))
        spec = fit_imputer(masked, ImputationMethod.LOCF)
        once = impute(spec, masked)
        twice = impute(spec, once)
        assert np.array_equal(once.values, twice.values)

    def test_bias_corrected_output_rejected_as_input(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=7)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.4, seed=8))
        spec = fit_imputer(masked, ImputationMethod.ZERO, bias_correct=True)
        once = impute(spec, masked)
        with pytest.raises(ValueError, match="not be imputed again"):
            impute(spec, once)

    def test_zero_marks_exactly_the_missing_cells(self):
        cohort = generate_synthetic_cohort(5, 5, 3, 10, 1.0, seed=9)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.4, seed=10))
        assert (masked.values > 0).all()  # baselines keep values positive here
        spec = fit_imputer(masked, ImputationMethod.ZERO)
        out = impute(spec, masked)
        assert np.array_equal(out.values == 0.0, masked.mask == 0.0)


class TestSchemes:
    def test_six_schemes(self):
        assert ALL_SCHEMES == ["mean", "mean+bc", "locf", "locf+bc", "zero", "zero+bc"]

    def test_parse_round_trip(self):
        for scheme in ALL_SCHEMES:
            method, bc = parse_scheme(scheme)
            assert scheme_name(method, bc) == scheme

    def test_parse_rejects_unknown(self):
        for bad in ("median", "mean+x", "mean+bc+bc"):
            with pytest.raises(ValueError):
                parse_scheme(bad)
