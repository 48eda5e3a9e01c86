"""The four benchmark workloads and the cell rebuild used for checks and tracing.

Each workload builds its inputs from the seed in ``setup``, then offers:

* ``measured_pass``: the untraced pass that end-to-end metrics time, made
  through the package's own entry points (``run_experiment`` or ``mtsk run``) or,
  for scoring, through the public load/score/save calls;
* ``checked_pass(tracer)``: the same work rebuilt cell by cell from public
  calls in the order ``evaluate._run_cell`` makes them, checking each cell's
  Gram and cross matrix as soon as the cell is done, untimed, and keeping
  none of them.  With an enabled tracer it is the traced pass;
* ``serial_pass(measured)``: the untraced pass that the traced pass is
  compared with: the measured pass itself, except on the two-worker ladder.

Why each workload exists is in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from mtsk import cli, evaluate
from mtsk.cluster import kmeans, knn_assign, kpca_fit, kpca_project, manual_features
from mtsk.cohort import (
    Cohort, Missingness, MissingnessSpec, apply_missingness,
    generate_synthetic_cohort, load_cohort, train_test_split, truncate_window,
    write_cohort,
)
from mtsk.evaluate import (
    SUPERVISED_SUFFIX, CellError, Confusion, ExperimentConfig, ExperimentReport,
    MethodSpec, MetricRow, _clustering_scores, _prf, _seed_from,
)
from mtsk.impute import ALL_SCHEMES, fit_imputer, impute, parse_scheme
from mtsk.kernels import (
    fit_gak_params, gak_gram, gram_matrix, linear_gram, load_matrix, save_matrix,
)
from mtsk.lps import load_lps_forest, lps_gram, lps_train, save_lps_forest
from mtsk.tck import load_tck_model, save_tck_model, tck_test, tck_train

import checks
from tracing import Tracer, counting

# Paper scale: 58 cases + 163 controls, 11 attributes, 20 days, 30% MAR.
PAPER = dict(n_cases=58, n_controls=163, n_attributes=11, n_days=20)
# Acceptance scale used by the window ladder: 50 + 150, 5 attributes, 30% MCAR.
LADDER = dict(n_cases=50, n_controls=150, n_attributes=5, n_days=20)
EFFECT_SIZE = 1.5
MISSING_RATE = 0.3
# Ensemble sizes.  The package defaults (Q = 30, 200 trees) make one
# paper-scale cell take 10-20 s; the per-member and per-tree code paths are
# the same at these sizes and the cost scales linearly in them, so several
# passes fit into one run.
TCK_Q = 3
LPS_TREES = 20
NATIVE_RUNS = 1
# A GAK cell at paper scale takes 3-4 s whatever the scheme, so a pass runs
# GAK on one scheme only: a bias-corrected one, which doubles the attributes.
GAK_SCHEMES = ("zero+bc",)
LADDER_RUNS = 1
LADDER_WORKERS = 2
# Held-out patients scored by oos-scoring: new cases and new controls drawn
# from the same population as the paper-scale cohort.
OOS_NEW_CASES = 125
OOS_NEW_CONTROLS = 375


@dataclass
class PassResult:
    """What one pass produced, for metrics and checks."""

    seconds: float
    rows: list
    cells: int
    failed: int
    digests: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    cell_seconds: dict = field(default_factory=dict)  # kernel -> [s]
    cross: dict = field(default_factory=dict)  # label -> checks.matrix_summary
    matrices_checked: bool = False  # True when the pass checked its own matrices
    counted: bool = True  # False when the work ran in other processes


def paper_cohort(seed: int, n_cases: int, n_controls: int) -> Cohort:
    full = generate_synthetic_cohort(
        n_cases, n_controls, PAPER["n_attributes"], PAPER["n_days"], EFFECT_SIZE, seed=seed
    )
    return apply_missingness(full, MissingnessSpec(Missingness.MAR, MISSING_RATE, seed=seed))


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def gak_band_cells(T: int, triangular: int) -> int:
    """Lattice cells one GAK dynamic program visits for two T-day series."""
    return sum(
        min(T, i + triangular - 1) - max(1, i - triangular + 1) + 1 for i in range(1, T + 1)
    )


# ---------------------------------------------------------------------------
# Cell rebuild


def cell_kernel(method: MethodSpec, tr, te, config, seed, tracer: Tracer, counts: Counter):
    """The cell's KernelMatrix from public calls, with computed work counts."""
    if method.kernel == "tck":
        _, model = tracer.call("tck.tck_train", tck_train, tr, Q=config.tck_q, C=config.tck_c,
                               seed=seed, max_iter=config.tck_max_iter)
        km = tracer.call("tck.tck_test", tck_test, model, te)
        counts["tck.members_fitted"] += len(model.members)
        counts["tck.posterior_rows"] += len(model.members) * (len(tr) + len(te))
        return km
    if method.kernel == "lps":
        forest = tracer.call("lps.lps_train", lps_train, tr, n_trees=config.lps_trees,
                             max_depth=config.lps_depth, seed=seed)
        km = tracer.call("lps.lps_gram", lps_gram, forest, tr, te)
        count_lps(counts, forest, len(tr) + len(te))
        return km
    imp_method, bc = parse_scheme(method.imputation)
    spec = tracer.call("impute.fit_imputer", fit_imputer, tr, imp_method, bc)
    tri = tracer.call("impute.impute", impute, spec, tr)
    tei = tracer.call("impute.impute", impute, spec, te)
    if method.kernel == "manual":
        ftr = tracer.call("cluster.manual_features", manual_features, tri)
        fte = tracer.call("cluster.manual_features", manual_features, tei)
        return tracer.call("kernels.linear_gram", linear_gram, ftr, fte, method_tag="manual")
    if method.kernel == "linear":
        return tracer.call("kernels.gram_matrix", gram_matrix, "linear", tri, tei)
    params = tracer.call("kernels.fit_gak_params", fit_gak_params, tri)
    km = tracer.call("kernels.gak_gram", gak_gram, tri, params, tei)
    n, m = len(tri), len(tei)
    pairs = n + n * (n - 1) // 2 + m + n * m
    counts["kernels.gak_dp_pairs"] += pairs
    counts["kernels.gak_dp_cells"] += pairs * gak_band_cells(tri.window_length, params.triangular)
    return km


def count_lps(counts: Counter, forest, n_samples: int) -> None:
    counts["lps.leaves"] += forest.representation_length
    rows_per_sample = sum(forest.window_length - t.segment_length - t.lag + 1
                          for t in forest.trees)
    counts["lps.routed_rows"] += n_samples * rows_per_sample


def rebuild_cell(cohort, config: ExperimentConfig, run: int, window: int, method: MethodSpec,
                 tracer: Tracer, counts: Counter):
    """Metric rows and KernelMatrix of one cell, rebuilt in ``evaluate._run_cell``'s order."""
    split_seed = _seed_from(config.base_seed, "split", run)
    train, test = tracer.call("cohort.train_test_split", train_test_split, cohort,
                              config.train_fraction, seed=split_seed, stratify=config.stratify)
    tr = tracer.call("cohort.truncate_window", truncate_window, train, window)
    te = tracer.call("cohort.truncate_window", truncate_window, test, window)
    cell_seed = _seed_from(config.base_seed, "cell", run, window, method.label)

    km = cell_kernel(method, tr, te, config, cell_seed, tracer, counts)
    d = min(config.kpca_dim, len(tr) - 1)
    kpca, emb_tr = tracer.call("cluster.kpca_fit", kpca_fit, km.gram, d, ids=tr.ids())
    emb_te = tracer.call("cluster.kpca_project", kpca_project, kpca, km.cross, ids=te.ids())
    assign = tracer.call("cluster.kmeans", kmeans, emb_tr, k=config.k_clusters,
                         restarts=config.kmeans_restarts, seed=cell_seed)
    k_nn = min(config.knn_k, len(tr))
    y_tr = np.array(tr.labels(), dtype=int)
    y_te = np.array(te.labels(), dtype=int)
    lit = config.paper_literal_f1
    imp = method.imputation_label

    rows = []
    s, p, r = _clustering_scores(assign.labels, y_tr, lit)
    rows.append(MetricRow(method.kernel, imp, window, run, "train", p, r, s))
    pred_te = tracer.call("cluster.knn_assign", knn_assign, emb_tr, assign.labels, emb_te, k=k_nn)
    s, p, r = _clustering_scores(pred_te, y_te, lit)
    rows.append(MetricRow(method.kernel, imp, window, run, "test", p, r, s))
    if config.supervised_baseline:
        name = method.kernel + SUPERVISED_SUFFIX
        for emb, y, split in ((emb_tr, y_tr, "train"), (emb_te, y_te, "test")):
            pred = tracer.call("cluster.knn_assign", knn_assign, emb_tr, y_tr, emb, k=k_nn)
            p, r, s = _prf(Confusion.from_predictions(pred, y), lit)
            rows.append(MetricRow(name, imp, window, run, split, p, r, s))
    return rows, km


def rebuild_sweep(cohort, config: ExperimentConfig, tracer: Tracer, counts: Counter,
                  cell_seconds: dict) -> tuple[ExperimentReport, float]:
    """The sweep's report, and the seconds spent checking matrices between cells.

    Each cell's matrices are checked outside any span once the cell is done,
    then dropped, so neither the check nor the matrices outlive the cell.
    """
    report = ExperimentReport([], [], config)
    check_s = 0.0
    for run in range(config.runs):
        for window in config.windows:
            for method in config.effective_methods():
                start = time.perf_counter()
                try:
                    with tracer.span("evaluate.cell"):
                        rows, km = rebuild_cell(cohort, config, run, window, method,
                                                tracer, counts)
                except Exception as exc:  # mirror run_experiment's failure isolation
                    report.errors.append(CellError(method.kernel, method.imputation_label,
                                                   window, run, f"{type(exc).__name__}: {exc}"))
                    continue
                done = time.perf_counter()
                cell_seconds.setdefault(method.kernel, []).append(done - start)
                checks.check_matrix(method.label, km)
                check_s += time.perf_counter() - done
                report.rows.extend(rows)
    return report, check_s


def write_reports(report: ExperimentReport, directory: str, tracer: Tracer) -> dict:
    """Write the three report files; returns their sha256 digests."""
    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, name)
             for name in ("report_rows.csv", "report_aggregate.csv", "report.json")}
    with tracer.span("evaluate.write_reports"):
        evaluate.write_rows_csv(report, paths["report_rows.csv"])
        evaluate.write_aggregate_csv(report, paths["report_aggregate.csv"])
        evaluate.write_report_json(report, paths["report.json"])
    return {name: file_digest(path) for name, path in paths.items()}


def warm_up(workdir: str, workers: int = 1) -> None:
    """Run every measured code path once on a small cohort.

    This fills lazy imports and first-call costs (the first ``eigh`` in a
    process is the known one) before anything is timed.
    """
    small = apply_missingness(
        generate_synthetic_cohort(6, 14, 3, 10, EFFECT_SIZE, seed=0),
        MissingnessSpec(Missingness.MAR, MISSING_RATE, seed=0),
    )
    methods = [MethodSpec("tck"), MethodSpec("lps"), MethodSpec("gak", "zero"),
               MethodSpec("linear", "locf+bc")]
    config = ExperimentConfig(methods=methods, windows=(10,), runs=1, tck_q=1, lps_trees=2,
                              kmeans_restarts=2, supervised_baseline=True,
                              manual_baseline=True)
    with counting():
        evaluate.run_experiment(small, config, n_workers=workers)
        rebuild_sweep(small, config, Tracer(False), Counter(), {})
        path = os.path.join(workdir, "warmup")
        save_matrix(path + ".csv", "warm", np.full((4, 3), 0.5))
        load_matrix(path + ".csv")
        write_cohort(small, path + ".cohort.csv")
        load_cohort(path + ".cohort.csv")
        train, test = train_test_split(small, 0.8, seed=0)
        _, model = tck_train(train, Q=1, seed=0)
        save_tck_model(model, path + ".tck.npz")
        tck_test(load_tck_model(path + ".tck.npz"), test)
        save_lps_forest(lps_train(train, n_trees=2, seed=0), path + ".lps.npz")
        lps_gram(load_lps_forest(path + ".lps.npz"), train, test)


# ---------------------------------------------------------------------------
# Workloads


def n_cells(config: ExperimentConfig) -> int:
    return len(config.effective_methods()) * len(config.windows) * config.runs


def rows_per_cell(config: ExperimentConfig) -> int:
    """Train and test rows, twice over with the supervised baseline."""
    return 2 * (2 if config.supervised_baseline else 1)


class SweepWorkload:
    """A grid run in one process by ``run_experiment`` with one worker."""

    name = ""

    def config(self, seed: int) -> ExperimentConfig:
        raise NotImplementedError

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.cohort = paper_cohort(seed, PAPER["n_cases"], PAPER["n_controls"])
        self.cfg = self.config(seed)
        self.splits_per_cell = rows_per_cell(self.cfg)
        warm_up(workdir)

    def measured_pass(self) -> PassResult:
        with counting() as counts:
            start = time.perf_counter()
            report = evaluate.run_experiment(self.cohort, self.cfg, n_workers=1)
            digests = write_reports(report, os.path.join(self.workdir, "untraced"), Tracer(False))
            seconds = time.perf_counter() - start
        cells = n_cells(self.cfg)
        return PassResult(seconds, report.rows, cells, len(report.errors), digests, counts)

    def serial_pass(self, measured: PassResult) -> PassResult:
        return measured

    def checked_pass(self, tracer: Tracer) -> PassResult:
        cell_seconds: dict = {}
        with counting() as counts:
            start = time.perf_counter()
            report, check_s = rebuild_sweep(self.cohort, self.cfg, tracer, counts, cell_seconds)
            digests = write_reports(report, os.path.join(self.workdir, "rebuilt"), tracer)
            seconds = time.perf_counter() - start - check_s
        cells = n_cells(self.cfg)
        return PassResult(seconds, report.rows, cells, len(report.errors), digests, counts,
                          cell_seconds, matrices_checked=True)


class NativePaper(SweepWorkload):
    name = "native-paper"

    def config(self, seed):
        return ExperimentConfig(methods=(MethodSpec("tck"), MethodSpec("lps")), windows=(20,),
                                runs=NATIVE_RUNS, base_seed=seed, tck_q=TCK_Q,
                                lps_trees=LPS_TREES)


class ImputedPaper(SweepWorkload):
    name = "imputed-paper"

    def config(self, seed):
        methods = [MethodSpec("gak", s) for s in GAK_SCHEMES]
        methods += [MethodSpec("linear", s) for s in ALL_SCHEMES]
        return ExperimentConfig(methods=methods, windows=(20,), runs=1, base_seed=seed)


class LadderSmall:
    """``mtsk run`` from a cohort CSV over the window ladder 7-20 with two workers."""

    name = "ladder-small"
    workers = LADDER_WORKERS

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        cohort = apply_missingness(
            generate_synthetic_cohort(LADDER["n_cases"], LADDER["n_controls"],
                                      LADDER["n_attributes"], LADDER["n_days"],
                                      EFFECT_SIZE, seed=seed),
            MissingnessSpec(Missingness.MCAR, MISSING_RATE, seed=seed),
        )
        self.cohort_path = os.path.join(workdir, "ladder_cohort.csv")
        write_cohort(cohort, self.cohort_path)
        doc = {
            "cohort": {"path": self.cohort_path},
            "output_dir": os.path.join(workdir, "cli_out"),
            "methods": [{"kernel": "linear", "imputation": s} for s in ALL_SCHEMES],
            "windows": {"from": 7, "to": 20},
            "runs": LADDER_RUNS,
            "base_seed": seed,
            "baselines": {"supervised": True, "manual_features": True},
        }
        self.config_path = os.path.join(workdir, "ladder.json")
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)
        _, self.out_dir, self.cfg = cli.parse_run_config(doc)
        self.splits_per_cell = rows_per_cell(self.cfg)
        warm_up(workdir, LADDER_WORKERS)

    def _cli(self, workers: int) -> PassResult:
        with counting() as counts, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(["run", self.config_path, "--workers", str(workers)])
            seconds = time.perf_counter() - start
        if code not in (cli.EXIT_OK, cli.EXIT_CELL_FAILURES):
            raise RuntimeError(f"mtsk run exited with {code}")
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            doc = json.load(fh)
        rows = [MetricRow(**r) for r in doc["rows"]]
        digests = {name: file_digest(os.path.join(self.out_dir, name))
                   for name in ("report_rows.csv", "report_aggregate.csv", "report.json")}
        cells = n_cells(self.cfg)
        # Log records of worker processes stay in the workers.
        return PassResult(seconds, rows, cells, len(doc["errors"]), digests, counts,
                          counted=workers == 1)

    def measured_pass(self) -> PassResult:
        return self._cli(LADDER_WORKERS)

    def serial_pass(self, measured: PassResult) -> PassResult:
        """The same run with one worker: the untraced twin of the traced pass."""
        return self._cli(1)

    def checked_pass(self, tracer: Tracer) -> PassResult:
        cell_seconds: dict = {}
        with counting() as counts:
            start = time.perf_counter()
            cohort = tracer.call("cohort.load_cohort", load_cohort, self.cohort_path)
            report, check_s = rebuild_sweep(cohort, self.cfg, tracer, counts, cell_seconds)
            digests = write_reports(report, os.path.join(self.workdir, "rebuilt"), tracer)
            seconds = time.perf_counter() - start - check_s
        cells = n_cells(self.cfg)
        counts["evaluate.task_bytes"] += sum(
            len(pickle.dumps((cohort, self.cfg, run, window, method)))
            for run in range(self.cfg.runs) for window in self.cfg.windows
            for method in self.cfg.effective_methods()
        )
        return PassResult(seconds, report.rows, cells, len(report.errors), digests, counts,
                          cell_seconds, matrices_checked=True)


class OOSScoring:
    """Score a held-out cohort against TCK and LPS models trained in setup."""

    name = "oos-scoring"
    splits_per_cell = 1  # one held-out row per model

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        cfg = NativePaper().config(seed)
        cohort = paper_cohort(seed, PAPER["n_cases"], PAPER["n_controls"])
        self.train, _ = train_test_split(cohort, cfg.train_fraction,
                                         seed=_seed_from(seed, "split", 0))
        # Same seed, more patients: the first cases repeat the training
        # cohort's, so they are left out; every control is a new draw.
        big = paper_cohort(seed, PAPER["n_cases"] + OOS_NEW_CASES,
                           PAPER["n_controls"] + OOS_NEW_CONTROLS)
        repeated = set(sorted(s.id for s in big.samples if s.label == 1)[:PAPER["n_cases"]])
        held_out = Cohort([s for s in big.samples if s.id not in repeated],
                          list(big.attribute_names), big.window_length)
        self.held_out_path = os.path.join(workdir, "held_out.csv")
        write_cohort(held_out, self.held_out_path)

        cell_seed = _seed_from(seed, "cell", 0, PAPER["n_days"], "oos")
        tck_km, model = tck_train(self.train, Q=cfg.tck_q, seed=cell_seed)
        forest = lps_train(self.train, n_trees=cfg.lps_trees, max_depth=cfg.lps_depth,
                           seed=cell_seed)
        y_tr = np.array(self.train.labels(), dtype=int)
        self.knn_k = cfg.knn_k
        self.models = {}
        self.f1_train = []
        for kind, km in (("tck", tck_km), ("lps", lps_gram(forest, self.train))):
            kpca, emb = kpca_fit(km.gram, min(cfg.kpca_dim, len(self.train) - 1),
                                 ids=self.train.ids())
            assign = kmeans(emb, k=cfg.k_clusters, restarts=cfg.kmeans_restarts,
                            seed=cell_seed)
            self.models[kind] = (os.path.join(workdir, f"model.{kind}.npz"), kpca, emb, assign)
            self.f1_train.append(_clustering_scores(assign.labels, y_tr)[0])
        save_tck_model(model, self.models["tck"][0])
        save_lps_forest(forest, self.models["lps"][0])
        warm_up(workdir)

    def _pass(self, tracer: Tracer) -> PassResult:
        """One scoring pass.  Each cross matrix is checked, untimed, right after it is
        scored and reloaded; only its summary is kept."""
        rows = []
        summaries = {}
        check_s = 0.0
        with counting() as counts:
            start = time.perf_counter()
            test = tracer.call("cohort.load_cohort", load_cohort, self.held_out_path,
                               window_length=self.train.window_length,
                               attributes=self.train.attribute_names)
            y_te = np.array(test.labels(), dtype=int)
            for kind in ("tck", "lps"):
                path, kpca, emb, assign = self.models[kind]
                with tracer.span("evaluate.score"):
                    if kind == "tck":
                        model = tracer.call("tck.load_tck_model", load_tck_model, path)
                        km = tracer.call("tck.tck_test", tck_test, model, test)
                        counts["tck.posterior_rows"] += len(model.members) * len(test)
                    else:
                        forest = tracer.call("lps.load_lps_forest", load_lps_forest, path)
                        km = tracer.call("lps.lps_gram", lps_gram, forest, self.train, test)
                        count_lps(counts, forest, len(self.train) + len(test))
                    out = os.path.join(self.workdir, f"cross.{kind}.csv")
                    tracer.call("kernels.save_matrix", save_matrix, out, kind, km.cross)
                    counts["kernels.matrix_bytes"] += os.path.getsize(out)
                    _, cross = tracer.call("kernels.load_matrix", load_matrix, out)
                    emb_te = tracer.call("cluster.kpca_project", kpca_project, kpca, cross,
                                         ids=test.ids())
                    pred = tracer.call("cluster.knn_assign", knn_assign, emb, assign.labels,
                                       emb_te, k=self.knn_k)
                s, p, r = _clustering_scores(pred, y_te)
                rows.append(MetricRow(kind, "none", test.window_length, 0, "test", p, r, s))
                check_start = time.perf_counter()
                checks.check_matrix(kind, km)
                checks.require(np.array_equal(km.cross, cross),
                               f"{kind}: matrix changed on save/load")
                summaries[kind] = checks.matrix_summary(cross)
                check_s += time.perf_counter() - check_start
            seconds = time.perf_counter() - start - check_s
        return PassResult(seconds, rows, 2, 0, {}, counts, cross=summaries,
                          matrices_checked=True)

    def measured_pass(self) -> PassResult:
        return self._pass(Tracer(False))

    def serial_pass(self, measured: PassResult) -> PassResult:
        return measured

    def checked_pass(self, tracer: Tracer) -> PassResult:
        return self._pass(tracer)


WORKLOADS = {w.name: w for w in (NativePaper, ImputedPaper, LadderSmall, OOSScoring)}
