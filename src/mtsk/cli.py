"""Command-line entry point: synth, kernel, run and report subcommands.

Exit codes: 0 when everything succeeded, 1 when some experiment cells
failed, 2 for configuration or input errors.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import evaluate
from .cohort import (
    Missingness, MissingnessSpec, apply_missingness, generate_synthetic_cohort,
    load_cohort, write_cohort,
)
from .impute import ALL_SCHEMES, fit_imputer, impute, parse_scheme
from .kernels import fit_gak_params, gak_gram, gram_matrix, save_matrix
from .lps import lps_gram, lps_train, save_lps_forest
from .tck import save_tck_model, tck_test, tck_train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CELL_FAILURES = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    """Carries the full list of configuration problems."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cohort = generate_synthetic_cohort(
        n_cases=args.cases,
        n_controls=args.controls,
        n_attributes=args.attrs,
        n_days=args.days,
        effect_size=args.effect,
        seed=args.seed,
    )
    if args.missing != "none" and args.rate > 0:
        spec = MissingnessSpec(Missingness(args.missing), args.rate, seed=args.seed)
        cohort = apply_missingness(cohort, spec)
    write_cohort(cohort, args.out)
    print(
        f"wrote {args.out}: {len(cohort)} samples, {cohort.n_attributes} attributes, "
        f"{cohort.window_length} days, missing fraction {cohort.missing_fraction():.3f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# kernel


def cmd_kernel(args) -> int:
    if args.method in ("linear", "gak") and args.impute == "none":
        print(
            f"error: the {args.method} kernel cannot work on incomplete data; "
            "pick --impute from " + ", ".join(ALL_SCHEMES),
            file=sys.stderr,
        )
        return EXIT_USAGE
    for path in filter(None, (args.train, args.test)):
        if not os.path.exists(path):
            print(f"error: input file not found: {path}", file=sys.stderr)
            return EXIT_USAGE
    train = load_cohort(args.train)
    test = load_cohort(args.test, window_length=train.window_length,
                       attributes=train.attribute_names) if args.test else None

    tag = args.method if args.impute == "none" else f"{args.method}+{args.impute}"
    if args.impute != "none":
        method, bc = parse_scheme(args.impute)
        spec = fit_imputer(train, method, bc)
        train = impute(spec, train)
        if test is not None:
            test = impute(spec, test)

    model_path = None
    if args.method == "tck":
        km, model = tck_train(train, seed=args.seed)
        if test is not None:
            km = tck_test(model, test)
        model_path = f"{args.out_prefix}.tck.npz"
        save_tck_model(model, model_path)
    elif args.method == "lps":
        forest = lps_train(train, seed=args.seed)
        km = lps_gram(forest, train, test)
        model_path = f"{args.out_prefix}.lps.npz"
        save_lps_forest(forest, model_path)
    elif args.method == "gak":
        params = fit_gak_params(train)
        km = gak_gram(train, params, test)
        print(f"gak params: sigma={params.sigma:.6g}, triangular={params.triangular}")
    else:
        km = gram_matrix("linear", train, test)
    km.validate()

    gram_path = f"{args.out_prefix}.gram.csv"
    save_matrix(gram_path, tag, km.gram)
    written = [gram_path]
    if km.cross is not None:
        cross_path = f"{args.out_prefix}.cross.csv"
        save_matrix(cross_path, tag, km.cross)
        written.append(cross_path)
    if model_path:
        written.append(model_path)
    print(f"wrote {', '.join(written)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _check_keys(obj: dict, allowed: set[str], where: str, errors: list[str]) -> None:
    for key in obj:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")


def _parse_windows(raw, errors) -> tuple[int, ...]:
    if isinstance(raw, dict):
        _check_keys(raw, {"from", "to"}, "windows", errors)
        try:
            return tuple(range(int(raw["from"]), int(raw["to"]) + 1))
        except (KeyError, TypeError, ValueError):
            errors.append("windows: need integer 'from' and 'to'")
            return ()
    if isinstance(raw, list) and all(isinstance(w, int) for w in raw):
        return tuple(raw)
    errors.append("windows: must be a list of integers or {from, to}")
    return ()


def _parse_methods(raw, errors) -> tuple:
    if raw == "full":
        return tuple(evaluate.full_method_grid())
    if not isinstance(raw, list):
        errors.append("methods: must be \"full\" or a list of {kernel, imputation}")
        return ()
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            errors.append(f"methods[{i}]: must be an object")
            continue
        _check_keys(entry, {"kernel", "imputation"}, f"methods[{i}]", errors)
        imputation = entry.get("imputation")
        if imputation == "none":
            imputation = None
        try:
            out.append(evaluate.MethodSpec(entry.get("kernel", ""), imputation))
        except ValueError as exc:
            errors.append(f"methods[{i}]: {exc}")
    return tuple(out)


_TOP_KEYS = {
    "cohort", "output_dir", "methods", "windows", "runs", "base_seed",
    "train_fraction", "stratify", "pipeline", "baselines", "evaluation",
    "tck", "lps", "embedding_dumps",
}
_SYNTH_KEYS = {"cases", "controls", "attributes", "days", "effect_size", "seed", "missing"}


def parse_run_config(doc: dict, config_dir: str = ".") -> tuple:
    """Validate a run-config document; returns (cohort_source, output_dir, config).

    Raises ConfigError carrying the exhaustive list of problems.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be an object"])
    _check_keys(doc, _TOP_KEYS, "config", errors)

    cohort_source = None
    cohort = doc.get("cohort")
    if not isinstance(cohort, dict):
        errors.append("cohort: required object with 'path' or 'synthetic'")
    else:
        _check_keys(cohort, {"path", "window_length", "synthetic"}, "cohort", errors)
        if "path" in cohort:
            path = cohort["path"]
            if not isinstance(path, str):
                errors.append("cohort.path: must be a string")
            else:
                if not os.path.isabs(path):
                    path = os.path.join(config_dir, path)
                if not os.path.exists(path):
                    errors.append(f"cohort.path: input file not found: {path}")
                cohort_source = ("path", path, cohort.get("window_length"))
        elif "synthetic" in cohort:
            synth = cohort["synthetic"]
            if not isinstance(synth, dict):
                errors.append("cohort.synthetic: must be an object")
            else:
                _check_keys(synth, _SYNTH_KEYS, "cohort.synthetic", errors)
                missing = synth.get("missing")
                if missing is not None:
                    _check_keys(missing, {"mechanism", "rate", "seed"},
                                "cohort.synthetic.missing", errors)
                    if missing.get("mechanism") not in ("mcar", "mar", "mnar"):
                        errors.append(
                            "cohort.synthetic.missing.mechanism: must be mcar, mar or mnar"
                        )
                cohort_source = ("synthetic", synth)
        else:
            errors.append("cohort: need either 'path' or 'synthetic'")

    output_dir = doc.get("output_dir")
    if not isinstance(output_dir, str):
        errors.append("output_dir: required string")
    elif not os.path.isabs(output_dir):
        output_dir = os.path.join(config_dir, output_dir)

    methods = _parse_methods(doc.get("methods", "full"), errors)
    windows = _parse_windows(doc.get("windows", list(range(7, 21))), errors)

    pipeline = doc.get("pipeline", {})
    _check_keys(pipeline, {"kpca_dim", "k_clusters", "knn_k", "kmeans_restarts"},
                "pipeline", errors)
    baselines = doc.get("baselines", {})
    _check_keys(baselines, {"supervised", "manual_features"}, "baselines", errors)
    evaluation = doc.get("evaluation", {})
    _check_keys(evaluation, {"paper_literal_f1"}, "evaluation", errors)
    tck_opts = doc.get("tck", {})
    _check_keys(tck_opts, {"Q", "C", "max_iter"}, "tck", errors)
    lps_opts = doc.get("lps", {})
    _check_keys(lps_opts, {"trees", "max_depth"}, "lps", errors)
    dumps = doc.get("embedding_dumps", {})
    _check_keys(dumps, {"methods", "windows"}, "embedding_dumps", errors)

    if errors:
        raise ConfigError(errors)

    config = evaluate.ExperimentConfig(
        methods=methods,
        windows=windows,
        runs=int(doc.get("runs", 10)),
        base_seed=int(doc.get("base_seed", 0)),
        train_fraction=float(doc.get("train_fraction", 0.8)),
        stratify=bool(doc.get("stratify", False)),
        kpca_dim=int(pipeline.get("kpca_dim", 10)),
        k_clusters=int(pipeline.get("k_clusters", 2)),
        knn_k=int(pipeline.get("knn_k", 5)),
        kmeans_restarts=int(pipeline.get("kmeans_restarts", 20)),
        supervised_baseline=bool(baselines.get("supervised", False)),
        manual_baseline=bool(baselines.get("manual_features", False)),
        paper_literal_f1=bool(evaluation.get("paper_literal_f1", False)),
        tck_q=int(tck_opts.get("Q", 30)),
        tck_c=tck_opts.get("C"),
        tck_max_iter=int(tck_opts.get("max_iter", 20)),
        lps_trees=int(lps_opts.get("trees", 200)),
        lps_depth=int(lps_opts.get("max_depth", 6)),
        embedding_dump_methods=tuple(dumps.get("methods", ())),
        embedding_dump_windows=tuple(dumps.get("windows", ())),
    )
    return cohort_source, output_dir, config


def _load_run_cohort(source):
    if source[0] == "path":
        return load_cohort(source[1], window_length=source[2])
    synth = source[1]
    cohort = generate_synthetic_cohort(
        n_cases=int(synth.get("cases", 50)),
        n_controls=int(synth.get("controls", 150)),
        n_attributes=int(synth.get("attributes", 11)),
        n_days=int(synth.get("days", 20)),
        effect_size=float(synth.get("effect_size", 1.5)),
        seed=int(synth.get("seed", 0)),
    )
    missing = synth.get("missing")
    if missing and float(missing.get("rate", 0)) > 0:
        spec = MissingnessSpec(
            Missingness(missing["mechanism"]),
            float(missing["rate"]),
            seed=int(missing.get("seed", 0)),
        )
        cohort = apply_missingness(cohort, spec)
    return cohort


def cmd_run(args) -> int:
    if not os.path.exists(args.config):
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    with open(args.config) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        source, output_dir, config = parse_run_config(doc, os.path.dirname(args.config))
    except ConfigError as exc:
        print("error: invalid config:", file=sys.stderr)
        for problem in exc.errors:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_USAGE

    methods = config.effective_methods()
    n_cells = config.runs * len(config.windows) * len(methods)
    if args.dry_run:
        print(f"cohort: {source[0]}")
        print(f"methods ({len(methods)}): " + ", ".join(m.label for m in methods))
        print(f"windows ({len(config.windows)}): " + ", ".join(map(str, config.windows)))
        print(f"runs: {config.runs}")
        print(f"planned cells: {n_cells}")
        return EXIT_OK

    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output_dir {output_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cohort = _load_run_cohort(source)
    report = evaluate.run_experiment(cohort, config, n_workers=args.workers)
    evaluate.write_rows_csv(report, os.path.join(output_dir, "report_rows.csv"))
    evaluate.write_aggregate_csv(report, os.path.join(output_dir, "report_aggregate.csv"))
    evaluate.write_report_json(report, os.path.join(output_dir, "report.json"))
    evaluate.write_embedding_dumps(report, output_dir)
    print(f"wrote report for {n_cells} cells to {output_dir}")
    if report.errors:
        print(f"{len(report.errors)} cell(s) failed:", file=sys.stderr)
        for err in report.errors:
            print(
                f"  - {err.method}/{err.imputation} window={err.window} "
                f"run={err.run}: {err.error}",
                file=sys.stderr,
            )
        return EXIT_CELL_FAILURES
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    if not os.path.exists(args.rows):
        print(f"error: rows file not found: {args.rows}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    with open(args.rows) as fh:
        header = fh.readline().strip()
        if header != "method,imputation,window,run,split,precision,recall,f1":
            print("error: unrecognized rows header", file=sys.stderr)
            return EXIT_USAGE
        for line in fh:
            method, imputation, window, run, split, p, r, score = line.strip().split(",")
            rows.append(evaluate.MetricRow(method, imputation, int(window), int(run), split,
                                           float(p), float(r), float(score)))
    # Re-aggregation needs the rows only; the sweep's config is not in the file.
    report = evaluate.ExperimentReport(rows, [], config=None)
    if args.out:
        evaluate.write_aggregate_csv(report, args.out)
        print(f"wrote {args.out}")
    else:
        print(evaluate.aggregate_csv(report), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtsk",
        description="Multivariate time series kernels and the unsupervised "
                    "clustering pipeline built on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--controls", type=int, required=True)
    p.add_argument("--attrs", type=int, required=True)
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--effect", type=float, default=1.5)
    p.add_argument("--missing", choices=["none", "mcar", "mar", "mnar"], default="none")
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("kernel", help="compute a Gram matrix and model files")
    p.add_argument("--method", choices=["linear", "gak", "tck", "lps"], required=True)
    p.add_argument("--impute", choices=["none"] + ALL_SCHEMES, default="none")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    p.add_argument("config")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--workers", type=int,
                   default=int(os.environ.get("MTSK_WORKERS", "1")))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="re-aggregate a rows CSV")
    p.add_argument("--rows", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("MTSK_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
