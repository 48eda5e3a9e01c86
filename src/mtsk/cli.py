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
    CohortFormatError, Missingness, MissingnessSpec, apply_missingness,
    generate_synthetic_cohort, load_cohort, write_cohort,
)
from .impute import ALL_SCHEMES
from .kernels import save_matrix
from .lps import save_lps_forest
from .tck import save_tck_model

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


_SAVE_MODEL = {"tck": save_tck_model, "lps": save_lps_forest}


def cmd_kernel(args) -> int:
    try:
        method = evaluate.MethodSpec(args.method, None if args.impute == "none" else args.impute)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for path in filter(None, (args.train, args.test)):
        if not os.path.exists(path):
            print(f"error: input file not found: {path}", file=sys.stderr)
            return EXIT_USAGE
    train = load_cohort(args.train)
    test = load_cohort(args.test, window_length=train.window_length,
                       attributes=train.attribute_names) if args.test else None

    # The sweep's dispatch, with the sweep's ensemble sizes.
    config = evaluate.ExperimentConfig(methods=(method,))
    km, fitted = evaluate.cell_kernel(method, train, test, config, args.seed)
    km.validate()
    if method.kernel == "gak":
        print(f"gak params: sigma={fitted.sigma:.6g}, triangular={fitted.triangular}")

    tag = args.method if method.imputation is None else f"{args.method}+{args.impute}"
    written = []
    for name, matrix in (("gram", km.gram), ("cross", km.cross)):
        if matrix is not None:
            written.append(f"{args.out_prefix}.{name}.csv")
            save_matrix(written[-1], tag, matrix)
    if method.kernel in _SAVE_MODEL:
        written.append(f"{args.out_prefix}.{method.kernel}.npz")
        _SAVE_MODEL[method.kernel](fitted, written[-1])
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


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


# Optional keys, top level (None) and per section: JSON key -> (ExperimentConfig
# field, conversion or None to pass the value through).  Absent keys are not
# passed, so the defaults live in ExperimentConfig alone.
_OPTIONS = {
    None: {"runs": ("runs", int), "base_seed": ("base_seed", int),
           "train_fraction": ("train_fraction", float),
           "stratify": ("stratify", _json_bool)},
    "pipeline": {"kpca_dim": ("kpca_dim", int), "k_clusters": ("k_clusters", int),
                 "knn_k": ("knn_k", int), "kmeans_restarts": ("kmeans_restarts", int)},
    "baselines": {"supervised": ("supervised_baseline", _json_bool),
                  "manual_features": ("manual_baseline", _json_bool)},
    "evaluation": {"paper_literal_f1": ("paper_literal_f1", _json_bool)},
    "tck": {"Q": ("tck_q", int), "C": ("tck_c", None), "max_iter": ("tck_max_iter", int)},
    "lps": {"trees": ("lps_trees", int), "max_depth": ("lps_depth", int)},
    "embedding_dumps": {"methods": ("embedding_dump_methods", tuple),
                        "windows": ("embedding_dump_windows", tuple)},
}
_TOP_KEYS = {"cohort", "output_dir", "methods", "windows", *_OPTIONS[None],
             *filter(None, _OPTIONS)}
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

    fields = {"methods": _parse_methods(doc.get("methods", "full"), errors)}
    if "windows" in doc:
        fields["windows"] = _parse_windows(doc["windows"], errors)
    sections = {s: doc if s is None else doc.get(s, {}) for s in _OPTIONS}
    for section, obj in sections.items():
        if not isinstance(obj, dict):
            errors.append(f"{section}: must be an object")
            continue
        if section is not None:
            _check_keys(obj, _OPTIONS[section], section, errors)
        for key, (name, convert) in _OPTIONS[section].items():
            if key in obj:
                try:
                    fields[name] = obj[key] if convert is None else convert(obj[key])
                except (TypeError, ValueError) as exc:
                    where = key if section is None else f"{section}.{key}"
                    errors.append(f"{where}: {exc}")

    if errors:
        raise ConfigError(errors)
    try:
        config = evaluate.ExperimentConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError([str(exc)]) from None
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
        for lineno, line in enumerate(fh, start=2):
            try:
                method, imputation, window, run, split, p, r, score = line.strip().split(",")
                rows.append(evaluate.MetricRow(method, imputation, int(window), int(run),
                                               split, float(p), float(r), float(score)))
            except ValueError:
                print(f"error: {args.rows} line {lineno}: malformed row {line.strip()!r}",
                      file=sys.stderr)
                return EXIT_USAGE
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
    try:
        return args.func(args)
    except CohortFormatError as exc:
        print(f"error: invalid cohort file: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
