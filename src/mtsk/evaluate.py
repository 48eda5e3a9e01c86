"""Metrics and the repeated-split, window-sweep experiment driver.

F1 is reported on both splits of every (method, imputation, window, run)
cell: k-means cluster labels against the truth on the training split
(best label permutation), kNN-assigned cluster labels on the test split.
Optional baselines reuse each cell's embedding with true labels
(supervised kNN) or replace the series by static mean/max/min features.
"""
from __future__ import annotations

import json
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cohort import Cohort, train_test_split, truncate_window
from .cluster import (Embedding, _knn_neighbours, _knn_vote, dump_embedding, kmeans,
                      knn_assign, kpca_fit, kpca_project, manual_features)
from .impute import ALL_SCHEMES, fit_imputer, impute, parse_scheme
from .kernels import fit_gak_params, gram_matrix, linear_gram
from .lps import lps_gram, lps_train
from .tck import tck_test, tck_train

KERNEL_CHOICES = ("tck", "lps", "gak", "linear", "manual")
IMPUTING_KERNELS = ("gak", "linear", "manual")
SUPERVISED_SUFFIX = "+sup"
ROWS_HEADER = "method,imputation,window,run,split,precision,recall,f1"


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_predictions(cls, pred, truth) -> "Confusion":
        p = np.asarray(pred, dtype=int)
        t = np.asarray(truth, dtype=int)
        if p.shape != t.shape:
            raise ValueError(f"prediction/truth lengths differ: {p.shape} vs {t.shape}")
        return cls(
            tp=int(((p == 1) & (t == 1)).sum()),
            fp=int(((p == 1) & (t == 0)).sum()),
            tn=int(((p == 0) & (t == 0)).sum()),
            fn=int(((p == 0) & (t == 1)).sum()),
        )


def _prf(c: Confusion, paper_literal: bool) -> tuple[float, float, float]:
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    if precision + recall == 0.0:
        score = 0.0
    else:
        score = precision * recall / (precision + recall)
        if not paper_literal:
            score *= 2.0
    return precision, recall, score


def f1(pred, truth, paper_literal: bool = False) -> float:
    """Harmonic mean of precision and recall (2PR/(P+R); 0 when both are 0).

    ``paper_literal`` drops the factor 2, which rescales every score by 1/2
    and changes no comparison.
    """
    c = Confusion.from_predictions(pred, truth)
    if c.tp + c.fn == 0:
        raise ValueError("truth must contain at least one positive")
    return _prf(c, paper_literal)[2]


def _clustering_scores(assignment, truth, paper_literal=False) -> tuple[float, float, float]:
    """(f1, precision, recall) under the best of the two label permutations."""
    a = np.asarray(assignment, dtype=int)
    t = np.asarray(truth, dtype=int)
    s_id = _prf(Confusion.from_predictions(a, t), paper_literal)
    s_fl = _prf(Confusion.from_predictions(1 - a, t), paper_literal)
    best = s_id if s_id[2] >= s_fl[2] else s_fl
    return best[2], best[0], best[1]


def clustering_f1(assignment, truth, paper_literal: bool = False) -> float:
    """F1 maximized over the two mappings of cluster ids to class labels."""
    t = np.asarray(truth, dtype=int)
    if (t == 1).sum() == 0:
        raise ValueError("truth must contain at least one positive")
    return _clustering_scores(assignment, truth, paper_literal)[0]


# ---------------------------------------------------------------------------
# Experiment configuration and report


@dataclass(frozen=True)
class MethodSpec:
    """One pipeline entry: a kernel plus its imputation scheme (or none)."""

    kernel: str
    imputation: str | None = None

    def __post_init__(self):
        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.kernel in IMPUTING_KERNELS:
            if self.imputation is None:
                raise ValueError(
                    f"{self.kernel} cannot work on incomplete data; pick an "
                    "imputation scheme"
                )
            parse_scheme(self.imputation)
        elif self.imputation is not None:
            raise ValueError(f"{self.kernel} handles missing data; imputation must be none")

    @property
    def imputation_label(self) -> str:
        return self.imputation if self.imputation is not None else "none"

    @property
    def label(self) -> str:
        return f"{self.kernel}/{self.imputation_label}"


def full_method_grid() -> list[MethodSpec]:
    """TCK and LPS on raw data plus GAK and linear on the six imputations."""
    methods = [MethodSpec("tck"), MethodSpec("lps")]
    methods += [MethodSpec("gak", s) for s in ALL_SCHEMES]
    methods += [MethodSpec("linear", s) for s in ALL_SCHEMES]
    return methods


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[MethodSpec, ...]
    windows: tuple[int, ...] = tuple(range(7, 21))
    runs: int = 10
    base_seed: int = 0
    train_fraction: float = 0.8
    stratify: bool = False
    kpca_dim: int = 10
    k_clusters: ClassVar[int] = 2
    knn_k: int = 5
    kmeans_restarts: int = 20
    supervised_baseline: bool = False
    manual_baseline: bool = False
    paper_literal_f1: bool = False
    tck_q: int = 30
    tck_c: int | None = None
    tck_max_iter: int = 20
    lps_trees: int = 200
    lps_depth: int = 6
    embedding_dump_methods: tuple[str, ...] = ()
    embedding_dump_windows: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
        object.__setattr__(
            self, "embedding_dump_methods", tuple(self.embedding_dump_methods)
        )
        object.__setattr__(
            self, "embedding_dump_windows", tuple(int(w) for w in self.embedding_dump_windows)
        )
        if not self.methods:
            raise ValueError("at least one method is required")
        if not self.windows:
            raise ValueError("at least one window is required")
        # The ranges the cells would reject, checked once for the whole grid.
        counts = {"runs": self.runs, "kpca_dim": self.kpca_dim, "knn_k": self.knn_k,
                  "kmeans_restarts": self.kmeans_restarts, "tck_q": self.tck_q,
                  "tck_max_iter": self.tck_max_iter, "lps_trees": self.lps_trees,
                  "lps_depth": self.lps_depth, "windows": min(self.windows)}
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        labels = [m.label for m in self.effective_methods()]
        for name, values in (("windows", self.windows), ("method labels", labels)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"duplicate {name} {repeated}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.tck_c is not None and self.tck_c < 2:
            raise ValueError(f"tck_c must be >= 2, got {self.tck_c}")
        unknown = set(self.embedding_dump_methods) - set(labels)
        if unknown:
            raise ValueError(f"embedding dump methods {sorted(unknown)} are not in the grid")
        outside = set(self.embedding_dump_windows) - set(self.windows)
        if outside:
            raise ValueError(f"embedding dump windows {sorted(outside)} are not in windows")

    def effective_methods(self) -> tuple[MethodSpec, ...]:
        methods = list(self.methods)
        if self.manual_baseline:
            methods += [MethodSpec("manual", s) for s in ALL_SCHEMES]
        return tuple(methods)


@dataclass(frozen=True)
class MetricRow:
    method: str
    imputation: str
    window: int
    run: int
    split: str  # "train" | "test"
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class AggregateRow:
    method: str
    imputation: str
    window: int
    split: str
    mean_f1: float
    se_f1: float | None  # None when runs == 1


@dataclass(frozen=True)
class CellError:
    method: str
    imputation: str
    window: int
    run: int
    error: str


@dataclass
class ExperimentReport:
    rows: list[MetricRow]
    errors: list[CellError]
    config: ExperimentConfig
    embedding_dumps: dict = field(default_factory=dict)

    def aggregates(self) -> list[AggregateRow]:
        groups: dict[tuple, list[float]] = {}  # keys in order of first appearance
        for row in self.rows:
            key = (row.method, row.imputation, row.window, row.split)
            groups.setdefault(key, []).append(row.f1)
        out = []
        for key, f1s in groups.items():
            vals = np.array(f1s)
            se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else None
            out.append(AggregateRow(*key, mean_f1=float(vals.mean()), se_f1=se))
        return out

    def mean_f1(self, method: str, imputation: str, window: int, split: str) -> float:
        for agg in self.aggregates():
            if (agg.method, agg.imputation, agg.window, agg.split) == (
                method, imputation, window, split,
            ):
                return agg.mean_f1
        raise KeyError(f"no rows for {(method, imputation, window, split)}")


# ---------------------------------------------------------------------------
# Cell execution


def _seed_from(*parts) -> int:
    ints = []
    for p in parts:
        if isinstance(p, str):
            ints.append(zlib.crc32(p.encode()))
        else:
            ints.append(int(p))
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


def cell_kernel(method: MethodSpec, tr: Cohort, te: Cohort | None, config, seed: int):
    """``(KernelMatrix, fitted)`` of the method on ``tr``, with the cross to ``te`` if given.

    ``fitted`` is the TCKModel, the LPSForest, the GAKParams or None.
    """
    if method.kernel == "tck":
        km, model = tck_train(
            tr, Q=config.tck_q, C=config.tck_c, seed=seed, max_iter=config.tck_max_iter
        )
        return (km if te is None else tck_test(model, te)), model
    if method.kernel == "lps":
        forest = lps_train(tr, n_trees=config.lps_trees, max_depth=config.lps_depth, seed=seed)
        return lps_gram(forest, tr, te), forest
    imp_method, bc = parse_scheme(method.imputation)
    spec = fit_imputer(tr, imp_method, bc)
    tri = impute(spec, tr)
    tei = None if te is None else impute(spec, te)
    if method.kernel == "manual":
        fte = None if tei is None else manual_features(tei)
        return linear_gram(manual_features(tri), fte, method_tag="manual"), None
    params = fit_gak_params(tri) if method.kernel == "gak" else None
    return gram_matrix(method.kernel, tri, tei, params=params), params


def _run_cell(cohort: Cohort, config: ExperimentConfig, run: int, window: int,
              method: MethodSpec):
    """All metric rows for one (run, window, method) cell, plus an optional dump."""
    split_seed = _seed_from(config.base_seed, "split", run)
    train, test = train_test_split(
        cohort, config.train_fraction, seed=split_seed, stratify=config.stratify
    )
    tr = truncate_window(train, window)
    te = truncate_window(test, window)
    cell_seed = _seed_from(config.base_seed, "cell", run, window, method.label)

    km, _ = cell_kernel(method, tr, te, config, cell_seed)
    d = min(config.kpca_dim, len(tr) - 1)
    kpca, emb_tr = kpca_fit(km.gram, d, ids=tr.ids())
    emb_te = kpca_project(kpca, km.cross, ids=te.ids())
    assign = kmeans(emb_tr, k=config.k_clusters, restarts=config.kmeans_restarts,
                    seed=cell_seed)
    k_nn = min(config.knn_k, len(tr))
    y_tr = np.array(tr.labels(), dtype=int)
    y_te = np.array(te.labels(), dtype=int)
    lit = config.paper_literal_f1

    rows = []
    s, p, r = _clustering_scores(assign.labels, y_tr, lit)
    rows.append(MetricRow(method.kernel, method.imputation_label, window, run, "train", p, r, s))
    neighbours = _knn_neighbours(emb_tr, emb_te, k_nn)  # vote with cluster, then true labels
    pred_te = _knn_vote(neighbours, assign.labels)
    s, p, r = _clustering_scores(pred_te, y_te, lit)
    rows.append(MetricRow(method.kernel, method.imputation_label, window, run, "test", p, r, s))

    if config.supervised_baseline:
        name = method.kernel + SUPERVISED_SUFFIX
        # The train score is optimistic: each training point is among its own
        # k nearest neighbours and votes for its own true label.
        pred = knn_assign(emb_tr, y_tr, emb_tr, k=k_nn)
        p, r, s = _prf(Confusion.from_predictions(pred, y_tr), lit)
        rows.append(MetricRow(name, method.imputation_label, window, run, "train", p, r, s))
        pred = _knn_vote(neighbours, y_tr)
        p, r, s = _prf(Confusion.from_predictions(pred, y_te), lit)
        rows.append(MetricRow(name, method.imputation_label, window, run, "test", p, r, s))

    dump = None
    if (
        run == 0
        and method.label in config.embedding_dump_methods
        and window in config.embedding_dump_windows
    ):
        dump = (emb_tr.points, list(emb_tr.ids), tr.labels(), assign.labels.tolist())
    return rows, dump


def _run_cell_safe(cohort: Cohort, task):
    config, run, window, method = task
    try:
        rows, dump = _run_cell(cohort, config, run, window, method)
        return rows, dump, None
    except Exception as exc:  # failure isolation: one cell must not void the sweep
        err = CellError(
            method.kernel, method.imputation_label, window, run, f"{type(exc).__name__}: {exc}"
        )
        return [], None, err


# The cohort of a sweep worker process, set once by _init_worker so that
# tasks need not carry it.
_worker_cohort: Cohort | None = None


def _init_worker(cohort: Cohort) -> None:
    global _worker_cohort
    _worker_cohort = cohort


def _run_worker_cell(task):
    return _run_cell_safe(_worker_cohort, task)


def sweep_tasks(cohort: Cohort, config: ExperimentConfig, n_workers: int) -> list[tuple]:
    """The ``(config, run, window, method)`` cells of a sweep, after every check made before
    the first: at least one worker, a label on every sample, no window past the cohort."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if any(lab is None for lab in cohort.labels()):
        raise ValueError("every sample needs a binary label for evaluation")
    if max(config.windows) > cohort.window_length:
        raise ValueError(f"windows: {max(config.windows)} exceeds the cohort's "
                         f"{cohort.window_length} days")
    methods = config.effective_methods()
    return [(config, run, window, method) for run in range(config.runs)
            for window in config.windows for method in methods]


def run_experiment(cohort: Cohort, config: ExperimentConfig,
                   n_workers: int = 1) -> ExperimentReport:
    """Run the full (run x window x method) grid and collect metric rows.

    Cells are pure functions of their derived seeds, so the grid can be
    evaluated by any number of workers without changing the report; a failed
    cell is one ``CellError`` in ``report.errors`` and leaves no rows.  Each
    worker receives the cohort once, when it starts.
    """
    tasks = sweep_tasks(cohort, config, n_workers)
    n_workers = min(n_workers, len(tasks))  # the pool starts every worker at once
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker,
                                 initargs=(cohort,)) as pool:
            results = list(pool.map(_run_worker_cell, tasks, chunksize=1))
    else:
        results = [_run_cell_safe(cohort, t) for t in tasks]

    report = ExperimentReport([], [], config)
    for task, (rows, dump, err) in zip(tasks, results):
        report.rows.extend(rows)
        if dump is not None:
            _, run, window, method = task
            report.embedding_dumps[(method.label, window)] = dump
        if err is not None:
            report.errors.append(err)
    return report


# ---------------------------------------------------------------------------
# Report output


def write_rows_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ROWS_HEADER + "\n")
        for r in report.rows:
            fh.write(
                f"{r.method},{r.imputation},{r.window},{r.run},{r.split},"
                f"{r.precision!r},{r.recall!r},{r.f1!r}\n"
            )


def read_rows_csv(path) -> list[MetricRow]:
    """The metric rows of a file written by ``write_rows_csv``."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != ROWS_HEADER:
            raise ValueError(f"{path}: unrecognized rows header")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                method, imputation, window, run, split, p, r, score = line.strip().split(",")
                rows.append(MetricRow(method, imputation, int(window), int(run),
                                      split, float(p), float(r), float(score)))
            except ValueError:
                raise ValueError(f"{path} line {lineno}: malformed row {line.strip()!r}") from None
    return rows


def aggregate_csv(report: ExperimentReport) -> str:
    """The report's aggregates as CSV text, the content of ``report_aggregate.csv``."""
    lines = ["method,imputation,window,split,mean_f1,se_f1\n"]
    for a in report.aggregates():
        se = "" if a.se_f1 is None else repr(a.se_f1)
        lines.append(f"{a.method},{a.imputation},{a.window},{a.split},{a.mean_f1!r},{se}\n")
    return "".join(lines)


def write_aggregate_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(aggregate_csv(report))


def write_report_json(report: ExperimentReport, path) -> None:
    doc = {
        "rows": [vars(r) for r in report.rows],
        "aggregates": [vars(a) for a in report.aggregates()],
        "errors": [vars(e) for e in report.errors],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_embedding_dumps(report: ExperimentReport, directory) -> list[str]:
    """Write requested per-(method, window) train embeddings; returns the paths."""
    import os

    paths = []
    for (label, window), (points, ids, labels, clusters) in sorted(
        report.embedding_dumps.items()
    ):
        fname = f"embedding_{label.replace('/', '_')}_w{window}.csv"
        path = os.path.join(directory, fname)
        dump_embedding(path, Embedding(np.asarray(points), ids), labels, clusters)
        paths.append(path)
    return paths
