import numpy as np
import pytest

from mtsk.cohort import MTSample, generate_synthetic_cohort, train_test_split, Cohort, Missingness, MissingnessSpec, apply_missingness
from mtsk.evaluate import (
    Confusion,
    ExperimentConfig,
    MethodSpec,
    _prf,
    _seed_from,
    clustering_f1,
    f1,
    full_method_grid,
    read_rows_csv,
    run_experiment,
    write_aggregate_csv,
    write_rows_csv,
)


def _precision_recall(pred, truth):
    """(precision, recall) as the report rows compute them."""
    return _prf(Confusion.from_predictions(pred, truth), False)[:2]


class TestPrecisionRecall:
    def test_all_positive_predictions(self):
        pred = [1, 1, 1, 1]
        truth = [1, 1, 0, 0]
        assert _precision_recall(pred, truth) == (0.5, 1.0)

    def test_perfect_prediction(self):
        truth = [1, 0, 1, 0]
        assert _precision_recall(truth, truth) == (1.0, 1.0)

    def test_no_predicted_positives_defines_precision_zero(self):
        assert _precision_recall([0, 0, 0], [1, 0, 1]) == (0.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            _precision_recall([0, 1], [0, 1, 1])

    def test_all_negative_truth_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            f1([0, 1], [0, 0])

    def test_confusion_counts(self):
        c = Confusion.from_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)
        assert c.total == 5


class TestF1:
    def test_equal_precision_recall(self):
        # P = R = 0.5 gives F1 = 0.5.
        assert f1([1, 0, 1, 0], [1, 1, 0, 0]) == pytest.approx(0.5)

    def test_half_precision_full_recall(self):
        # P = 0.5, R = 1.0 gives 2/3.
        assert f1([1, 1, 0], [1, 0, 0]) == pytest.approx(2.0 / 3.0)

    def test_perfect(self):
        assert f1([1, 0, 1], [1, 0, 1]) == 1.0

    def test_zero_when_no_overlap(self):
        assert f1([0, 0, 1], [1, 1, 0]) == 0.0

    def test_paper_literal_variant_halves(self):
        pred, truth = [1, 1, 0], [1, 0, 0]
        assert f1(pred, truth, paper_literal=True) == pytest.approx(f1(pred, truth) / 2)


class TestClusteringF1:
    def test_complement_assignment_is_perfect(self):
        truth = [1, 0, 1, 0, 1]
        flipped = [0, 1, 0, 1, 0]
        assert clustering_f1(flipped, truth) == 1.0

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            truth = rng.integers(0, 2, size=n)
            if truth.sum() == 0:
                truth[0] = 1
            a = rng.integers(0, 2, size=n)
            assert clustering_f1(a, truth) == clustering_f1(1 - a, truth)

    def test_at_least_plain_f1(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            truth = rng.integers(0, 2, size=20)
            if truth.sum() == 0:
                truth[0] = 1
            a = rng.integers(0, 2, size=20)
            assert clustering_f1(a, truth) >= f1(a, truth) - 1e-15

    def test_random_assignment_on_balanced_truth(self):
        rng = np.random.default_rng(2)
        truth = np.repeat([0, 1], 500)
        a = rng.integers(0, 2, size=1000)
        score = clustering_f1(a, truth)
        assert 0.4 < score < 0.75  # near the coin-flip baseline, far from 1
        assert score < 1.0


def _small_cohort(seed=0):
    cohort = generate_synthetic_cohort(8, 16, 3, 20, 1.5, seed=seed)
    return apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.2, seed=seed + 1))


FAST = dict(kmeans_restarts=5, tck_q=2, tck_c=3, lps_trees=8, lps_depth=3)


class TestRunExperiment:
    def test_sweep_row_count(self):
        # 14 windows x 10 runs x 1 method x 2 splits = 280 rows.
        cohort = _small_cohort()
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),),
            windows=tuple(range(7, 21)),
            runs=10,
            **FAST,
        )
        report = run_experiment(cohort, config)
        assert not report.errors
        assert len(report.rows) == 2 * 10 * 14

    def test_single_run_omits_standard_error(self, tmp_path):
        cohort = _small_cohort()
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),), windows=(10,), runs=1, **FAST
        )
        report = run_experiment(cohort, config)
        aggs = report.aggregates()
        assert all(a.se_f1 is None for a in aggs)
        path = tmp_path / "agg.csv"
        write_aggregate_csv(report, path)
        assert path.read_text().splitlines()[1].endswith(",")

    def test_deterministic_reports(self):
        cohort = _small_cohort()
        config = ExperimentConfig(
            methods=(MethodSpec("tck"), MethodSpec("linear", "mean")),
            windows=(8, 14),
            runs=2,
            **FAST,
        )
        a = run_experiment(cohort, config)
        b = run_experiment(cohort, config)
        assert a.rows == b.rows

    def test_workers_do_not_change_rows(self):
        cohort = _small_cohort()
        config = ExperimentConfig(
            methods=(MethodSpec("tck"), MethodSpec("linear", "zero")),
            windows=(8, 14),
            runs=2,
            **FAST,
        )
        serial = run_experiment(cohort, config, n_workers=1)
        parallel = run_experiment(cohort, config, n_workers=4)
        assert serial.rows == parallel.rows

    def test_aggregate_mean_is_arithmetic_mean(self):
        cohort = _small_cohort()
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),), windows=(10,), runs=4, **FAST
        )
        report = run_experiment(cohort, config)
        for agg in report.aggregates():
            vals = [
                r.f1 for r in report.rows
                if (r.method, r.imputation, r.window, r.split)
                == (agg.method, agg.imputation, agg.window, agg.split)
            ]
            assert agg.mean_f1 == float(np.mean(vals))

    def test_no_test_leakage_into_train_metrics(self):
        # Perturbing test-split values must leave every train-side row intact.
        cohort = _small_cohort(seed=3)
        config = ExperimentConfig(
            methods=(MethodSpec("tck"), MethodSpec("lps"), MethodSpec("gak", "zero"),
                     MethodSpec("linear", "mean")),
            windows=(12,),
            runs=1,
            **FAST,
        )
        split_seed = _seed_from(config.base_seed, "split", 0)
        _, test = train_test_split(cohort, 0.8, seed=split_seed)
        test_ids = set(test.ids())

        rng = np.random.default_rng(99)
        perturbed_samples = []
        for s in cohort.samples:
            if s.id in test_ids:
                perturbed_samples.append(
                    MTSample(s.id, s.values + rng.normal(size=s.values.shape),
                             s.mask.copy(), s.label)
                )
            else:
                perturbed_samples.append(s)
        perturbed = Cohort(perturbed_samples, cohort.attribute_names, cohort.window_length)

        base = run_experiment(cohort, config)
        alt = run_experiment(perturbed, config)
        assert not base.errors and not alt.errors
        base_train = [r for r in base.rows if r.split == "train"]
        alt_train = [r for r in alt.rows if r.split == "train"]
        assert base_train == alt_train
        assert [r for r in base.rows if r.split == "test"] != [
            r for r in alt.rows if r.split == "test"
        ]

    def test_cell_failures_are_isolated(self):
        # A 1-day window starves LPS of segment rows; linear cells still run.
        cohort = _small_cohort(seed=4)
        config = ExperimentConfig(
            methods=(MethodSpec("lps"), MethodSpec("linear", "zero")),
            windows=(1, 12),
            runs=1,
            **FAST,
        )
        report = run_experiment(cohort, config)
        assert len(report.errors) == 1
        err = report.errors[0]
        assert err.method == "lps" and err.window == 1
        assert any(r.method == "linear" and r.window == 1 for r in report.rows)
        assert any(r.method == "lps" and r.window == 12 for r in report.rows)

    def test_supervised_baseline_rows(self):
        cohort = _small_cohort(seed=5)
        config = ExperimentConfig(
            methods=(MethodSpec("tck"),), windows=(12,), runs=1,
            supervised_baseline=True, **FAST,
        )
        report = run_experiment(cohort, config)
        methods = {r.method for r in report.rows}
        assert methods == {"tck", "tck+sup"}
        assert len(report.rows) == 4

    def test_manual_baseline_adds_six_schemes(self):
        cohort = _small_cohort(seed=6)
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),), windows=(12,), runs=1,
            manual_baseline=True, **FAST,
        )
        report = run_experiment(cohort, config)
        manual = {(r.method, r.imputation) for r in report.rows if r.method == "manual"}
        assert len(manual) == 6

    def test_embedding_dump_collection(self):
        cohort = _small_cohort(seed=7)
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),), windows=(12,), runs=2,
            embedding_dump_methods=("linear/zero",), embedding_dump_windows=(12,),
            **FAST,
        )
        report = run_experiment(cohort, config)
        assert ("linear/zero", 12) in report.embedding_dumps
        points, ids, labels, clusters = report.embedding_dumps[("linear/zero", 12)]
        assert len(ids) == len(labels) == len(clusters) == np.asarray(points).shape[0]

    def test_unlabeled_cohort_rejected(self):
        samples = [
            MTSample(f"p{i}", np.ones((2, 8)) * i, np.ones((2, 8))) for i in range(6)
        ]
        cohort = Cohort(samples, ["a", "b"], 8)
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),), windows=(8,), runs=1, **FAST
        )
        with pytest.raises(ValueError, match="label"):
            run_experiment(cohort, config)


class TestConfig:
    def test_full_grid_is_fourteen_methods(self):
        grid = full_method_grid()
        assert len(grid) == 14
        assert sum(1 for m in grid if m.kernel == "gak") == 6
        assert sum(1 for m in grid if m.kernel == "linear") == 6

    def test_incomplete_kernels_require_imputation(self):
        with pytest.raises(ValueError, match="incomplete"):
            MethodSpec("linear")
        with pytest.raises(ValueError, match="incomplete"):
            MethodSpec("gak", None)

    def test_missing_data_kernels_reject_imputation(self):
        with pytest.raises(ValueError, match="must be none"):
            MethodSpec("tck", "zero")

    def test_rows_csv_format(self, tmp_path):
        cohort = _small_cohort(seed=8)
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),), windows=(10,), runs=1, **FAST
        )
        report = run_experiment(cohort, config)
        path = tmp_path / "rows.csv"
        write_rows_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,imputation,window,run,split,precision,recall,f1"
        assert lines[1].startswith("linear,zero,10,0,train,")

    def test_rows_csv_round_trip(self, tmp_path):
        cohort = _small_cohort(seed=8)
        config = ExperimentConfig(
            methods=(MethodSpec("linear", "zero"),), windows=(10, 12), runs=2, **FAST
        )
        report = run_experiment(cohort, config)
        path = tmp_path / "rows.csv"
        write_rows_csv(report, path)
        assert read_rows_csv(path) == report.rows
        # Blank lines, inside the file and at its end, are skipped.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]) + "\n" + "".join(lines[3:]) + "\n")
        assert read_rows_csv(path) == report.rows

    @pytest.mark.parametrize("overrides, message", [
        ({"runs": 0}, "runs must be >= 1, got 0"),
        ({"kpca_dim": 0}, "kpca_dim must be >= 1, got 0"),
        ({"knn_k": -1}, "knn_k must be >= 1, got -1"),
        ({"kmeans_restarts": 0}, "kmeans_restarts must be >= 1, got 0"),
        ({"tck_q": 0}, "tck_q must be >= 1, got 0"),
        ({"lps_trees": 0}, "lps_trees must be >= 1, got 0"),
        ({"windows": (8, 0)}, "windows must be >= 1, got 0"),
        ({"train_fraction": 1.5}, r"train_fraction must be in \(0, 1\), got 1.5"),
        ({"train_fraction": 0.0}, r"train_fraction must be in \(0, 1\), got 0.0"),
        ({"tck_c": 1}, "tck_c must be >= 2, got 1"),
        ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
        # Repeated cells would be rerun and counted twice in the standard errors.
        ({"windows": (10, 8, 10)}, r"duplicate windows \[10\]"),
        ({"methods": (MethodSpec("tck"), MethodSpec("lps"), MethodSpec("tck"))},
         r"duplicate method labels \['tck/none'\]"),
        ({"methods": (MethodSpec("manual", "zero"),), "manual_baseline": True},
         r"duplicate method labels \['manual/zero'\]"),
        ({"tck_max_iter": -2}, "tck_max_iter must be >= 1, got -2"),
        ({"lps_depth": -3}, "lps_depth must be >= 1, got -3"),
    ])
    def test_settings_every_cell_would_reject(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{"methods": (MethodSpec("tck"),), **overrides})
