"""mtsk benchmark: one workload, one seed, one closed-loop job at a time.

    python3 perfbench/run.py --workload native-paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced and traced

A run builds its inputs from the seed and sets up, then repeats the
workload's pass until ``--seconds`` have passed and checks the outputs.
``setup_s`` is the median over this process and two more that only set up,
each timed from its first line to the workload being ready.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
Metric lines go to stdout, the last line is one JSON object; the run
record (machine, versions, counters, digests) goes to stderr.  See
README.md in this directory.
"""
import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread per process: two sweep workers x one thread = two CPUs.
# Must be set before numpy loads its BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, counting  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("native-paper", "imputed-paper", "ladder-small", "oos-scoring")
# Cold set-ups per untraced run: this process and SETUP_PROCESSES - 1 more.
SETUP_PROCESSES = 3
SETUP_TIMEOUT_S = 150
EXIT_NO_PACKAGE = 2
EXIT_FAILED = 1

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Spans recorded around public calls; each becomes "<span>_s", the summed
# time of that call in one traced pass.
SPAN_METRICS = (
    "cohort.train_test_split", "cohort.truncate_window", "cohort.load_cohort",
    "impute.fit_imputer", "impute.impute",
    "tck.tck_train", "tck.tck_test", "tck.load_tck_model",
    "lps.lps_train", "lps.lps_gram", "lps.load_lps_forest",
    "kernels.fit_gak_params", "kernels.gak_gram", "kernels.gram_matrix",
    "kernels.linear_gram", "kernels.save_matrix", "kernels.load_matrix",
    "cluster.kpca_fit", "cluster.kpca_project", "cluster.kmeans", "cluster.knn_assign",
    "cluster.manual_features",
    "evaluate.write_reports",
)
LAYERS = ("cohort", "impute", "tck", "lps", "kernels", "cluster", "evaluate")
CELL_KERNELS = ("tck", "lps", "gak", "linear", "manual")
COUNT_METRICS = (
    ("cohort.samples_dropped", "count"),
    ("tck.members_fitted", "count"),
    ("tck.member_attempts_failed", "count"),
    ("tck.members_skipped", "count"),
    ("tck.components_stayed_empty", "count"),
    ("tck.underflow_samples", "count"),
    ("tck.posterior_rows", "count"),
    ("lps.leaves", "count"),
    ("lps.routed_rows", "count"),
    ("kernels.matrix_bytes", "bytes"),
    ("kernels.gak_dp_pairs", "count"),
    ("kernels.gak_dp_cells", "count"),
    ("cluster.kpca_dims_padded", "count"),
    ("evaluate.task_bytes", "bytes"),
)
PER_LAYER = (
    tuple((f"{name}_s", "s") for name in SPAN_METRICS)
    + tuple((f"self_s.{layer}", "s") for layer in LAYERS)
    + tuple((f"cell_s.{kernel}", "s") for kernel in CELL_KERNELS)
    + COUNT_METRICS
    + (
        ("evaluate.cells", "count"),
        ("evaluate.cells_failed", "count"),
        ("evaluate.f1_test_mean", "f1"),
        ("evaluate.f1_train_mean", "f1"),
        ("evaluate.parallel_efficiency", "ratio"),
        ("warnings.other", "count"),
        ("trace.spans", "count"),
        ("trace.untraced_sweep_s", "s"),
        ("trace.traced_sweep_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed the reference was recorded at)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's rows and cross matrices as the reference "
                             "for the default seed")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    mem_kb = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        with open("/proc/meminfo") as fh:
            mem_kb = next((int(line.split()[1]) for line in fh
                           if line.startswith("MemTotal")), None)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = os.path.join(ROOT, "src", "mtsk")
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": None if mem_kb is None else mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def f1_means(wl, rows) -> tuple[float, float]:
    """Mean F1 of the unsupervised test rows and train rows."""
    from mtsk.evaluate import SUPERVISED_SUFFIX

    own = [r for r in rows if not r.method.endswith(SUPERVISED_SUFFIX)]
    test = [r.f1 for r in own if r.split == "test"]
    train = [r.f1 for r in own if r.split == "train"]
    if hasattr(wl, "f1_train"):  # scoring clusters the train split once, in setup
        train = wl.f1_train
    return statistics.fmean(test), statistics.fmean(train)


def repeat_until(seconds: float, step) -> list:
    """Closed loop: run ``step`` again as soon as it returns, until time is up."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(step())
    return out


def untraced_metrics(wl, args, own_setup_s: float, record: dict):
    measured = repeat_until(args.seconds, wl.measured_pass)
    # Read before the check rebuild and the extra set-ups, which are not the program's.
    rss = peak_rss_mb()
    # Scoring passes check their own matrices; a sweep is rebuilt once to check its own.
    checked = measured if measured[0].matrices_checked else [wl.checked_pass(Tracer(False))]
    verify(wl, args, measured, checked, record)
    record["f1_test_mean"], record["f1_train_mean"] = f1_means(wl, measured[0].rows)
    record["sweep_s_per_pass"] = [p.seconds for p in measured]
    setups = [own_setup_s] + [cold_setup_s(args) for _ in range(SETUP_PROCESSES - 1)]
    record["setup_s_per_process"] = setups
    values = {
        "setup_s": median(setups),
        # The mean, not the median, of the passes: the machine's speed switches
        # between states that last several passes, and a median of a few passes
        # jumps with whichever state held most of the run (README.md, "Measured").
        "sweep_s": statistics.fmean([p.seconds for p in measured]),
        "peak_rss_mb": rss,
    }
    return measured, values


def cold_setup_s(args) -> float:
    """Set-up time of a fresh process that only sets up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def traced_metrics(wl, args, record: dict):
    def one_round():
        measured = wl.measured_pass()
        serial = wl.serial_pass(measured)
        tracer = Tracer(True)
        return measured, serial, wl.checked_pass(tracer), tracer

    rounds = repeat_until(args.seconds, one_round)
    measured = [r[0] for r in rounds]
    serial = [r[1] for r in rounds if r[1] is not r[0]]
    traced = [r[2] for r in rounds]
    tracers = [r[3] for r in rounds]
    verify(wl, args, measured + serial, traced, record)

    def med(fn):
        return median([fn(t, p) for t, p in zip(tracers, traced)])

    counts = traced[0].counts
    workers = getattr(wl, "workers", 1)
    untraced_s = median([p.seconds for p in (serial or measured)])
    traced_s = median([p.seconds for p in traced])
    cell_sum = med(lambda t, p: sum(t.durations("evaluate.cell") + t.durations("evaluate.score")))
    values = {f"{name}_s": med(lambda t, p: t.totals().get(name, 0.0)) for name in SPAN_METRICS}
    values.update({f"self_s.{layer}": med(lambda t, p: t.self_times().get(layer, 0.0))
                   for layer in LAYERS})
    for kernel in CELL_KERNELS:
        cells = [s for p in traced for s in p.cell_seconds.get(kernel, [])]
        values[f"cell_s.{kernel}"] = median(cells)
    values.update({name: counts.get(name, 0) for name, _ in COUNT_METRICS})
    f1_test, f1_train = f1_means(wl, traced[0].rows)
    values.update({
        "evaluate.f1_test_mean": f1_test,
        "evaluate.f1_train_mean": f1_train,
        "evaluate.cells": traced[0].cells,
        "evaluate.cells_failed": traced[0].failed,
        "evaluate.parallel_efficiency":
            cell_sum / (workers * median([p.seconds for p in measured])),
        "warnings.other": sum(v for k, v in counts.items()
                              if k == "log.other" or k.startswith("warnings.")),
        "trace.spans": len(tracers[0].spans),
        "trace.untraced_sweep_s": untraced_s,
        "trace.traced_sweep_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return measured, values


def verify(wl, args, measured, checked, record) -> None:
    checks.check_passes(measured, checked, wl.splits_per_cell)
    record["digests"] = measured[0].digests
    record["counters"] = dict(sorted(checked[0].counts.items()))
    if args.write_reference:
        write_reference(wl.name, checked)
    if args.seed == checks.DEFAULT_SEED:
        checks.check_reference(wl.name, checked)
        record["reference_match"] = True


def write_reference(name: str, checked) -> None:
    ref = {}
    if os.path.exists(checks.REFERENCE_PATH):
        with open(checks.REFERENCE_PATH) as fh:
            ref = json.load(fh)
    ref[name] = checks.reference_entry(checked)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mtsk", "__init__.py")):
        print(f"error: no mtsk package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return EXIT_NO_PACKAGE
    sys.path.insert(0, src)
    import workloads

    if args.seed is None:
        args.seed = checks.DEFAULT_SEED
    if args.write_reference and args.seed != checks.DEFAULT_SEED:
        print("error: the reference is recorded at the default seed", file=sys.stderr)
        return EXIT_FAILED
    import_s = time.perf_counter() - _PROCESS_START

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "default_seed": checks.DEFAULT_SEED, "seconds": args.seconds,
              "trace": args.trace, "import_s": import_s}
    wl = workloads.WORKLOADS[args.workload]()
    try:
        with counting() as setup_counts:
            wl.setup(args.seed, workdir)
        own_setup_s = time.perf_counter() - _PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        record["machine"] = machine_record()
        record["setup_counters"] = dict(setup_counts)
        record["setup_s_this_process"] = own_setup_s
        if args.trace:
            measured, values = traced_metrics(wl, args, record)
        else:
            measured, values = untraced_metrics(wl, args, own_setup_s, record)
    except checks.CheckFailed as exc:
        return fail(record, f"check failed: {exc}")
    except Exception:  # any error in the program under test is a failed run
        return fail(record, traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"run_record": record}, default=str), file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(p.cells for p in measured),
        "failed": sum(p.failed for p in measured),
        "metrics": metrics,
    }))
    return 0


def fail(record: dict, reason: str) -> int:
    record["failure"] = reason
    print(json.dumps({"run_record": record}, default=str), file=sys.stderr)
    print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return EXIT_FAILED


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status = status or proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
