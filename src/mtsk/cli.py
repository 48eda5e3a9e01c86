"""Command-line entry point: synth, kernel, run and report subcommands.

Exit codes: 0 when everything succeeded, 1 when some experiment cells
failed, 2 for every input error (arguments, ``MTSK_WORKERS``, which only
``run`` reads, and ``MTSK_LOG``; config and cohort files; missing or
unwritable paths; out-of-range values).  Commands raise; ``main`` alone
prints the error and returns 2, and ``MTSK_LOG=debug`` adds its traceback.
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
    synthetic = {"n_cases": args.cases, "n_controls": args.controls, "n_attributes": args.attrs,
                 "n_days": args.days, "effect_size": args.effect, "seed": args.seed}
    if args.missing != "none":
        if args.rate is None:
            raise ValueError(f"--missing {args.missing} needs --rate")
        synthetic["missing"] = {"mechanism": Missingness(args.missing), "rate": args.rate,
                                "seed": args.seed}
    cohort = _load_run_cohort({"synthetic": synthetic})
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
    method = evaluate.MethodSpec(args.method, None if args.impute == "none" else args.impute)
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


def _json_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _json_strs(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ValueError(f"must be a list of strings, got {value!r}")
    return tuple(map(_json_str, value))


def _json_mechanism(value) -> Missingness:
    if value not in ("mcar", "mar", "mnar"):
        raise ValueError("must be mcar, mar or mnar")
    return Missingness(value)


def _json_windows(value) -> tuple[int, ...]:
    try:
        if not isinstance(value, dict):
            return _json_ints(value)
        if set(value) == {"from", "to"}:
            return tuple(range(_json_int(value["from"]), _json_int(value["to"]) + 1))
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("need integer 'from' and 'to' and no other key" if isinstance(value, dict)
                     else "must be a list of integers or {from, to}")


def _json_methods(value) -> tuple:
    if value == "full":
        return tuple(evaluate.full_method_grid())
    if not isinstance(value, list):
        raise ValueError("must be \"full\" or a list of {kernel, imputation}")
    errors, methods = [], []
    for i, entry in enumerate(value):
        where, before = f"methods[{i}]", len(errors)
        try:
            fields = _walk(entry, _METHOD, where, errors)
            if len(errors) == before:  # MethodSpec checks only fully converted entries
                methods.append(evaluate.MethodSpec(**fields))
        except ConfigError as exc:
            errors += exc.errors
        except (TypeError, ValueError) as exc:
            errors.append(f"{where}: {exc}")
    if errors:
        raise ConfigError(errors)
    return tuple(methods)


# Each JSON object of a run config is read through a table: key -> (name,
# conversion).  A conversion is a function of the JSON value or, for a nested
# object, that object's table; the fields of a nested object named None join
# its parent's.  Absent keys are not passed, so the defaults live in
# ExperimentConfig and _load_run_cohort alone.
_METHOD = {"kernel": ("kernel", _json_str),
           "imputation": ("imputation", lambda v: None if v in (None, "none") else _json_str(v))}
_MISSING = {"mechanism": ("mechanism", _json_mechanism), "rate": ("rate", _json_number),
            "seed": ("seed", _json_int)}
_SYNTHETIC = {"cases": ("n_cases", _json_int), "controls": ("n_controls", _json_int),
              "attributes": ("n_attributes", _json_int), "days": ("n_days", _json_int),
              "effect_size": ("effect_size", _json_number), "seed": ("seed", _json_int),
              "missing": ("missing", _MISSING)}
_CONFIG = {
    "cohort": ("cohort", {"path": ("path", _json_str),
                          "window_length": ("window_length", _json_int),
                          "synthetic": ("synthetic", _SYNTHETIC)}),
    "output_dir": ("output_dir", _json_str),
    "methods": ("methods", _json_methods),
    "windows": ("windows", _json_windows),
    "runs": ("runs", _json_int), "base_seed": ("base_seed", _json_int),
    "train_fraction": ("train_fraction", _json_number), "stratify": ("stratify", _json_bool),
    "pipeline": (None, {"kpca_dim": ("kpca_dim", _json_int),
                        "knn_k": ("knn_k", _json_int),
                        "kmeans_restarts": ("kmeans_restarts", _json_int)}),
    "baselines": (None, {"supervised": ("supervised_baseline", _json_bool),
                         "manual_features": ("manual_baseline", _json_bool)}),
    "evaluation": (None, {"paper_literal_f1": ("paper_literal_f1", _json_bool)}),
    "tck": (None, {"Q": ("tck_q", _json_int),
                   "C": ("tck_c", lambda v: None if v is None else _json_int(v)),
                   "max_iter": ("tck_max_iter", _json_int)}),
    "lps": (None, {"trees": ("lps_trees", _json_int), "max_depth": ("lps_depth", _json_int)}),
    "embedding_dumps": (None, {"methods": ("embedding_dump_methods", _json_strs),
                               "windows": ("embedding_dump_windows", _json_ints)}),
}


def _walk(obj, table: dict, where: str, errors: list[str]) -> dict:
    """{name: converted value} of one config object, read through ``table``.

    Unknown keys and failed conversions go to ``errors`` under their dotted
    path; a value that is not a JSON object raises ConfigError.
    """
    if not isinstance(obj, dict):
        raise ConfigError([f"{where}: must be an object"])
    out = {}
    for key, value in obj.items():
        path = f"{where}.{key}" if where else key
        if key not in table:
            errors.append(f"{where or 'config'}: unknown key {key!r}")
            continue
        name, convert = table[key]
        try:
            value = (_walk(value, convert, path, errors) if isinstance(convert, dict)
                     else convert(value))
        except ConfigError as exc:
            errors += exc.errors
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(f"{path}: {exc}")
        else:
            out.update(value if name is None else {name: value})
    return out


def parse_run_config(doc: dict, config_dir: str = ".") -> tuple:
    """Validate a run-config document; returns (cohort_source, output_dir, config).

    ``cohort_source`` is the converted ``cohort`` object, its path joined to
    ``config_dir``.  Raises ConfigError carrying the exhaustive list of problems.
    """
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be an object"])
    errors: list[str] = []
    fields = _walk(doc, _CONFIG, "", errors)

    cohort = fields.pop("cohort", {})
    given = doc.get("cohort", {})
    if isinstance(given, dict) and ("path" in given) == ("synthetic" in given):
        errors.append("cohort: need exactly one of 'path' or 'synthetic'")
    if isinstance(given, dict) and {"synthetic", "window_length"} <= given.keys():
        errors.append("cohort.window_length: not read for a synthetic cohort; "
                      "set synthetic.days instead")
    if "path" in cohort:
        cohort["path"] = os.path.join(config_dir, cohort["path"])
        if not os.path.exists(cohort["path"]):
            errors.append(f"cohort.path: input file not found: {cohort['path']}")
    if "missing" in cohort.get("synthetic", {}):
        errors += [f"cohort.synthetic.missing.{key}: {need}" for key, need in (
            ("mechanism", "must be mcar, mar or mnar"), ("rate", "required, a number in [0, 1]"))
            if key not in given["synthetic"]["missing"]]
    if "output_dir" not in doc:
        errors.append("output_dir: required string")
    output_dir = os.path.join(config_dir, fields.pop("output_dir", ""))

    if errors:
        raise ConfigError(errors)
    try:
        config = evaluate.ExperimentConfig(**{"methods": evaluate.full_method_grid(), **fields})
    except (TypeError, ValueError) as exc:
        raise ConfigError([str(exc)]) from None
    return cohort, output_dir, config


def _load_run_cohort(source: dict):
    if "path" in source:
        return load_cohort(source["path"], window_length=source.get("window_length"))
    arguments = {"n_cases": 50, "n_controls": 150, "n_attributes": 11, "n_days": 20,
                 "effect_size": 1.5, "seed": 0, **source["synthetic"]}
    missing = arguments.pop("missing", {})
    cohort = generate_synthetic_cohort(**arguments)
    if missing.get("rate", 0) != 0:  # any other rate meets MissingnessSpec's range check
        cohort = apply_missingness(cohort, MissingnessSpec(**missing))
    return cohort


def cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {args.config} is not valid JSON: {exc}") from None
    source, output_dir, config = parse_run_config(doc, os.path.dirname(args.config))
    cohort = _load_run_cohort(source)
    tasks = evaluate.sweep_tasks(cohort, config, args.workers)  # what run_experiment checks
    methods = config.effective_methods()
    if args.dry_run:  # every check of a run is made; nothing is written
        print(f"cohort: {source.get('path', 'synthetic')}")
        print(f"methods ({len(methods)}): " + ", ".join(m.label for m in methods))
        print(f"windows ({len(config.windows)}): " + ", ".join(map(str, config.windows)))
        print(f"runs: {config.runs}")
        print(f"planned cells: {len(tasks)}")
        return EXIT_OK

    os.makedirs(output_dir, exist_ok=True)
    report = evaluate.run_experiment(cohort, config, n_workers=args.workers)
    evaluate.write_rows_csv(report, os.path.join(output_dir, "report_rows.csv"))
    evaluate.write_aggregate_csv(report, os.path.join(output_dir, "report_aggregate.csv"))
    evaluate.write_report_json(report, os.path.join(output_dir, "report.json"))
    evaluate.write_embedding_dumps(report, output_dir)
    print(f"wrote report for {len(tasks)} cells to {output_dir}")
    if report.errors:
        print(f"{len(report.errors)} cell(s) failed:", *(
            f"  - {e.method}/{e.imputation} window={e.window} run={e.run}: {e.error}"
            for e in report.errors), sep="\n", file=sys.stderr)
        return EXIT_CELL_FAILURES
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    # Re-aggregation needs the rows only; the sweep's config is not in the file.
    report = evaluate.ExperimentReport(evaluate.read_rows_csv(args.rows), [], config=None)
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
    p.add_argument("--rate", type=float)
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
    # argparse converts a string default with ``type`` only when ``run`` runs.
    p.add_argument("--workers", type=int, default=os.environ.get("MTSK_WORKERS", "1"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="re-aggregate a rows CSV")
    p.add_argument("--rows", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place where an input error becomes exit status 2."""
    args = build_parser().parse_args(argv)
    try:
        logging.basicConfig(
            level=os.environ.get("MTSK_LOG", "WARNING").upper(),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(args)
    except ConfigError as exc:
        print("error: invalid config:", *(f"  - {p}" for p in exc.errors), sep="\n",
              file=sys.stderr)
    except CohortFormatError as exc:
        print(f"error: invalid cohort file: {exc}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        logger.debug("input error", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
