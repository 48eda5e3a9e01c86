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
            return tuple(range(_json_int(raw["from"]), _json_int(raw["to"]) + 1))
        except (KeyError, TypeError, ValueError, OverflowError):
            errors.append("windows: need integer 'from' and 'to'")
            return ()
    try:
        return _json_ints(raw)
    except (TypeError, ValueError, OverflowError):
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


def _json_int(value) -> int:
    number = int(value)  # int()'s own message for strings, null and lists
    if isinstance(value, bool) or number != value:
        raise ValueError(f"must be an integer, got {value!r}")
    return number


def _json_ints(value) -> tuple[int, ...]:
    return tuple(map(_json_int, value))


def _json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _json_mechanism(value) -> Missingness:
    if value not in ("mcar", "mar", "mnar"):
        raise ValueError("must be mcar, mar or mnar")
    return Missingness(value)


# Optional keys, top level (None) and per section: JSON key -> (ExperimentConfig
# field, conversion).  Absent keys are not passed, so the defaults live in
# ExperimentConfig alone.
_OPTIONS = {
    None: {"runs": ("runs", _json_int), "base_seed": ("base_seed", _json_int),
           "train_fraction": ("train_fraction", _json_number),
           "stratify": ("stratify", _json_bool)},
    "pipeline": {"kpca_dim": ("kpca_dim", _json_int), "k_clusters": ("k_clusters", _json_int),
                 "knn_k": ("knn_k", _json_int),
                 "kmeans_restarts": ("kmeans_restarts", _json_int)},
    "baselines": {"supervised": ("supervised_baseline", _json_bool),
                  "manual_features": ("manual_baseline", _json_bool)},
    "evaluation": {"paper_literal_f1": ("paper_literal_f1", _json_bool)},
    "tck": {"Q": ("tck_q", _json_int),
            "C": ("tck_c", lambda v: None if v is None else _json_int(v)),
            "max_iter": ("tck_max_iter", _json_int)},
    "lps": {"trees": ("lps_trees", _json_int), "max_depth": ("lps_depth", _json_int)},
    "embedding_dumps": {"methods": ("embedding_dump_methods", tuple),
                        "windows": ("embedding_dump_windows", _json_ints)},
}
_TOP_KEYS = {"cohort", "output_dir", "methods", "windows", *_OPTIONS[None],
             *filter(None, _OPTIONS)}
# cohort.synthetic keys -> (generate_synthetic_cohort argument, conversion), and
# the keys of its missing object -> (MissingnessSpec field, conversion).
_SYNTH_KEYS = {"cases": ("n_cases", _json_int), "controls": ("n_controls", _json_int),
               "attributes": ("n_attributes", _json_int), "days": ("n_days", _json_int),
               "effect_size": ("effect_size", _json_number), "seed": ("seed", _json_int)}
_MISSING_KEYS = {"mechanism": ("mechanism", _json_mechanism), "rate": ("rate", _json_number),
                 "seed": ("seed", _json_int)}


def _section(obj, options: dict, where: str | None, errors: list[str], also=()) -> dict:
    """{name: converted value} of a config object; ``options`` maps key -> (name, conversion).

    A non-object, a failed conversion and, except at the top level (``where``
    None), a key in neither ``options`` nor ``also`` are listed in ``errors``.
    """
    if not isinstance(obj, dict):
        errors.append(f"{where}: must be an object")
        return {}
    if where is not None:
        _check_keys(obj, {*options, *also}, where, errors)
    out = {}
    for key, (name, convert) in options.items():
        if key in obj:
            try:
                out[name] = convert(obj[key])
            except (TypeError, ValueError, OverflowError) as exc:
                errors.append(f"{key if where is None else f'{where}.{key}'}: {exc}")
    return out


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
            arguments = _section(synth, _SYNTH_KEYS, "cohort.synthetic", errors, {"missing"})
            missing = synth.get("missing") if isinstance(synth, dict) else None
            if isinstance(missing, dict) and "mechanism" not in missing:
                errors.append("cohort.synthetic.missing.mechanism: must be mcar, mar or mnar")
            if missing is not None:
                missing = _section(missing, _MISSING_KEYS, "cohort.synthetic.missing", errors)
            cohort_source = ("synthetic", arguments, missing)
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
    for section, options in _OPTIONS.items():
        obj = doc if section is None else doc.get(section, {})
        fields.update(_section(obj, options, section, errors))

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
    _, arguments, missing = source
    cohort = generate_synthetic_cohort(**{"n_cases": 50, "n_controls": 150, "n_attributes": 11,
                                          "n_days": 20, "effect_size": 1.5, "seed": 0,
                                          **arguments})
    if missing and missing.get("rate", 0) > 0:
        cohort = apply_missingness(cohort, MissingnessSpec(**missing))
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
