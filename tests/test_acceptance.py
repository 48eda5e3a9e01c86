"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive
synthetic-cohort sweeps are shared between criteria through session
fixtures; the whole suite is sized to finish on a desk machine.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from mtsk.cli import main as cli_main
from mtsk.cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
)
from mtsk.evaluate import ExperimentConfig, MethodSpec, clustering_f1, f1, run_experiment
from mtsk.impute import ImputationMethod, fit_imputer, impute
from mtsk.kernels import GAKParams, _gak_logs, gram_matrix
from mtsk.lps import lps_gram, lps_train
from mtsk.tck import MemberPrior, fit_diaggmm, tck_train
from mtsk.cluster import kpca_fit

from test_kernels import enumerate_gak
from test_tck import _assert_trace_monotone, single_component_map_oracle

N_SEEDS = 5
HEADLINE_WINDOWS = (7, 10, 14, 20)


def _criterion(number, name, ok, detail):
    print(f"\n[ACCEPTANCE] criterion {number:2d} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _headline_cohort(seed):
    cohort = generate_synthetic_cohort(
        n_cases=50, n_controls=150, n_attributes=5, n_days=20,
        effect_size=1.5, seed=1000 + seed,
    )
    return cohort


def _sweep(cohorts, methods, windows, supervised=False):
    """Mean test F1 per (method, window) over the given per-seed cohorts."""
    scores = {}
    for s, cohort in enumerate(cohorts):
        config = ExperimentConfig(
            methods=methods, windows=windows, runs=1, base_seed=s,
            supervised_baseline=supervised,
        )
        report = run_experiment(cohort, config)
        assert not report.errors, report.errors
        for row in report.rows:
            if row.split == "test":
                scores.setdefault((row.method, row.window), []).append(row.f1)
    return {k: float(np.mean(v)) for k, v in scores.items()}


@pytest.fixture(scope="session")
def headline_results():
    """Criterion-5 cohorts (30% MAR): TCK and LPS over the window ladder.

    Window 20 runs first and is timed separately; its wall time carries the
    criterion-5 runtime bound.
    """
    cohorts = [
        apply_missingness(
            _headline_cohort(s), MissingnessSpec(Missingness.MAR, 0.3, seed=2000 + s)
        )
        for s in range(N_SEEDS)
    ]
    methods = (MethodSpec("tck"), MethodSpec("lps"))
    start = time.monotonic()
    at_20 = _sweep(cohorts, methods, (20,), supervised=True)
    window20_seconds = time.monotonic() - start
    earlier = _sweep(cohorts, methods, (7, 10, 14), supervised=False)
    return {**earlier, **at_20}, window20_seconds


@pytest.fixture(scope="session")
def mcar_robustness_results():
    """Criterion-7: TCK and linear+mean at 20% and 50% MCAR, window 20."""
    out = {}
    methods = (MethodSpec("tck"), MethodSpec("linear", "mean"))
    for rate in (0.2, 0.5):
        cohorts = [
            apply_missingness(
                _headline_cohort(s),
                MissingnessSpec(Missingness.MCAR, rate, seed=3000 + s),
            )
            for s in range(N_SEEDS)
        ]
        out[rate] = _sweep(cohorts, methods, (20,))
    return out


class TestCriterion1KernelValidity:
    def test_kernel_validity(self):
        cohort = generate_synthetic_cohort(25, 75, 5, 20, 1.5, seed=100)
        masked = apply_missingness(cohort, MissingnessSpec(Missingness.MCAR, 0.3, seed=101))
        assert len(masked) == 100
        spec = fit_imputer(masked, ImputationMethod.ZERO)
        complete = impute(spec, masked)

        start = time.monotonic()
        grams = {
            "linear+zero": gram_matrix("linear", complete).gram,
            "gak+zero": gram_matrix("gak", complete).gram,
            "tck": tck_train(masked, seed=102)[0].gram,
            "lps": lps_gram(lps_train(masked, seed=103), masked).gram,
        }
        elapsed = time.monotonic() - start

        details = []
        ok = elapsed < 120.0
        for tag, gram in grams.items():
            scale = np.abs(gram).max()
            sym = np.abs(gram - gram.T).max() <= 1e-12 * scale
            min_eig = float(np.linalg.eigvalsh(gram)[0])
            psd = min_eig >= -1e-8 * np.trace(gram)
            ok = ok and sym and psd
            details.append(f"{tag}: sym={sym} min_eig={min_eig:.2e}")
        _criterion(1, "kernel validity", ok,
                   "; ".join(details) + f"; runtime {elapsed:.1f}s < 120s")


class TestCriterion2GAKOracle:
    def test_gak_against_alignment_enumeration(self):
        from mtsk.cohort import MTSample

        rng = np.random.default_rng(200)
        worst = 0.0
        for _ in range(50):
            T = int(rng.integers(1, 5))
            V = int(rng.integers(1, 3))
            a = MTSample("a", rng.normal(size=(V, T)), np.ones((V, T)))
            b = MTSample("b", rng.normal(size=(V, T)), np.ones((V, T)))
            params = GAKParams(float(rng.uniform(0.5, 3.0)), int(rng.integers(1, 5)))
            got = float(_gak_logs(np.stack([a.values, b.values]), params)[0, 1])
            want = enumerate_gak(a, b, params.sigma, params.triangular)
            worst = max(worst, abs(got - want))
        _criterion(2, "gak alignment oracle", worst <= 1e-9,
                   f"max |log gak - log enumeration| = {worst:.2e} over 50 pairs")


class TestCriterion3EMCorrectness:
    def test_monotone_objective_and_single_component_oracle(self):
        rng = np.random.default_rng(300)
        checked = 0
        for trial in range(20):
            n = int(rng.integers(12, 30))
            v = int(rng.integers(2, 5))
            t = int(rng.integers(6, 14))
            X = rng.normal(size=(n, v, t)) + rng.normal(size=(1, v, 1))
            R = (rng.random(X.shape) >= rng.uniform(0.1, 0.5)).astype(float)
            prior = MemberPrior(
                strength=float(np.exp(rng.uniform(math.log(0.1), math.log(10)))),
                smoothing_width=int(rng.integers(1, 4)),
                a0=float(rng.uniform(0.01, 1.0)),
                b0_scale=float(rng.uniform(0.01, 0.1)),
            )
            result = fit_diaggmm(X, R, int(rng.integers(2, 7)), prior, seed=trial)
            _assert_trace_monotone(result, tol=1e-10)
            checked += len(result.objective_trace) - 1

        rng_o = np.random.default_rng(301)
        X = rng_o.normal(size=(15, 3, 8))
        R = (rng_o.random(X.shape) >= 0.3).astype(float)
        prior = MemberPrior(1.7, 2, 0.3, 0.05)
        fit = fit_diaggmm(X, R, 1, prior, seed=5)
        mu, sigma2 = single_component_map_oracle(X, R, prior)
        mu_err = float(np.abs(fit.means[0] - mu).max())
        var_err = float(np.abs(fit.variances[0] - sigma2).max())
        ok = mu_err <= 1e-8 and var_err <= 1e-8
        _criterion(3, "EM correctness", ok,
                   f"{checked} monotone steps over 20 fits; G=1 oracle errors "
                   f"mu {mu_err:.1e}, sigma2 {var_err:.1e}")


class TestCriterion4KPCAOracle:
    def test_embedding_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(400)
        a = rng.normal(size=(10, 10))
        gram = a @ a.T
        _, emb = kpca_fit(gram, 9)

        n = 10
        H = np.eye(n) - np.ones((n, n)) / n
        w, u = np.linalg.eigh(H @ gram @ H)
        order = np.argsort(w)[::-1][:9]
        oracle = u[:, order] * np.sqrt(np.maximum(w[order], 0.0))[None, :]

        worst = 0.0
        for col in range(9):
            got, ref = emb.points[:, col], oracle[:, col]
            worst = max(worst, min(np.abs(got - ref).max(), np.abs(got + ref).max()))
        _criterion(4, "kPCA oracle", worst <= 1e-8,
                   f"max per-column deviation {worst:.2e} (up to sign)")


@pytest.mark.slow
class TestCriterion5EndToEnd:
    def test_unsupervised_detection_f1(self, headline_results):
        scores, seconds = headline_results
        tck = scores[("tck", 20)]
        lps = scores[("lps", 20)]
        ok = tck >= 0.80 and lps >= 0.80 and seconds < 600.0
        _criterion(5, "end-to-end detection", ok,
                   f"mean test F1 at window 20: tck {tck:.3f}, lps {lps:.3f} "
                   f"(threshold 0.80); window-20 runtime {seconds:.0f}s < 600s")


@pytest.mark.slow
class TestCriterion6WindowTrend:
    def test_f1_non_decreasing_in_window(self, headline_results):
        scores, _ = headline_results
        details = []
        ok = True
        for method in ("tck", "lps"):
            curve = [scores[(method, w)] for w in HEADLINE_WINDOWS]
            rho = float(spearmanr(HEADLINE_WINDOWS, curve).statistic)
            ok = ok and rho >= 0.7
            details.append(
                f"{method}: " + "/".join(f"{v:.2f}" for v in curve) + f" rho={rho:.2f}"
            )
        _criterion(6, "window trend", ok, "; ".join(details))


@pytest.mark.slow
class TestCriterion7MissingnessRobustness:
    def test_tck_stable_linear_degrades(self, mcar_robustness_results):
        res = mcar_robustness_results
        tck_drop = res[0.2][("tck", 20)] - res[0.5][("tck", 20)]
        lin_drop = res[0.2][("linear", 20)] - res[0.5][("linear", 20)]
        ok = abs(tck_drop) <= 0.10 and lin_drop > tck_drop
        _criterion(
            7, "missing-data robustness", ok,
            f"tck {res[0.2][('tck', 20)]:.3f}->{res[0.5][('tck', 20)]:.3f} "
            f"(drop {tck_drop:+.3f}, bound 0.10); linear+mean "
            f"{res[0.2][('linear', 20)]:.3f}->{res[0.5][('linear', 20)]:.3f} "
            f"(drop {lin_drop:+.3f} > tck drop)",
        )


@pytest.mark.slow
class TestCriterion8SupervisedParity:
    def test_unsupervised_close_to_supervised(self, headline_results):
        scores, _ = headline_results
        details = []
        ok = True
        for method in ("tck", "lps"):
            gap = abs(scores[(method, 20)] - scores[(method + "+sup", 20)])
            ok = ok and gap <= 0.05
            details.append(f"{method}: unsup {scores[(method, 20)]:.3f} vs "
                           f"sup {scores[(method + '+sup', 20)]:.3f} (gap {gap:.3f})")
        _criterion(8, "supervised parity", ok, "; ".join(details))


class TestCriterion9MetricUnits:
    def test_metric_examples_and_flip_symmetry(self):
        checks = [
            f1([1, 0, 1, 0], [1, 1, 0, 0]) == 0.5,
            f1([1, 1, 0], [1, 0, 0]) == 2.0 / 3.0,
            f1([1, 0, 1], [1, 0, 1]) == 1.0,
            clustering_f1([0, 1, 0, 1, 0], [1, 0, 1, 0, 1]) == 1.0,
            clustering_f1([1, 0, 1], [1, 0, 1]) == 1.0,
        ]
        rng = np.random.default_rng(900)
        sym = True
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            truth = rng.integers(0, 2, size=n)
            if truth.sum() == 0:
                truth[0] = 1
            a = rng.integers(0, 2, size=n)
            sym = sym and clustering_f1(a, truth) == clustering_f1(1 - a, truth)
        ok = all(checks) and sym
        _criterion(9, "metric units", ok,
                   f"examples {sum(checks)}/5 exact; flip symmetry on 1000 vectors: {sym}")


def _write_run_config(tmp_path, **overrides):
    doc = {
        "cohort": {
            "synthetic": {
                "cases": 8, "controls": 22, "attributes": 3, "days": 20,
                "effect_size": 1.5, "seed": 5,
                "missing": {"mechanism": "mcar", "rate": 0.2, "seed": 6},
            }
        },
        "output_dir": str(tmp_path / "out"),
        "methods": [{"kernel": "tck"}, {"kernel": "lps"},
                    {"kernel": "linear", "imputation": "zero"}],
        "windows": [8, 14],
        "runs": 2,
        "base_seed": 11,
        "pipeline": {"kmeans_restarts": 5},
        "tck": {"Q": 2, "C": 3},
        "lps": {"trees": 10, "max_depth": 4},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestCriterion10Determinism:
    def test_byte_identical_reports(self, tmp_path):
        config = _write_run_config(tmp_path)
        out = tmp_path / "out"

        def snapshot():
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        assert cli_main(["run", str(config), "--workers", "1"]) == 0
        first = snapshot()
        assert cli_main(["run", str(config), "--workers", "1"]) == 0
        second = snapshot()
        assert cli_main(["run", str(config), "--workers", "8"]) == 0
        eight = snapshot()
        ok = first == second == eight
        _criterion(10, "cmd_run determinism", ok,
                   f"{len(first)} output file(s) byte-identical across two "
                   "invocations and worker counts 1 vs 8")


class TestCriterion11GridBookkeeping:
    def test_full_grid_row_count(self, tmp_path):
        config = _write_run_config(
            tmp_path,
            methods="full",
            windows={"from": 7, "to": 20},
            runs=10,
        )
        assert cli_main(["run", str(config), "--workers", "8"]) == 0
        rows = (tmp_path / "out" / "report_rows.csv").read_text().splitlines()[1:]
        expected = 14 * 14 * 10 * 2
        aggs = (tmp_path / "out" / "report_aggregate.csv").read_text().splitlines()[1:]
        ok = len(rows) == expected and len(aggs) == 14 * 14 * 2
        methods = {line.split(",")[0] for line in rows}
        _criterion(11, "experiment-grid bookkeeping", ok,
                   f"{len(rows)} metric rows == (2+6+6) x 14 windows x 10 runs x "
                   f"2 splits = {expected}; {len(aggs)} aggregate rows; "
                   f"methods seen: {sorted(methods)}")
