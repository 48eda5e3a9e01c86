"""Output checks run by every benchmark run, and the reference they compare with.

A failed check raises ``CheckFailed``; the run then reports a failure and
no metric values.

The reference (``reference.json``) holds, for the default seed, every metric
row and a summary of the oos-scoring cross matrices, recorded from this
package by ``run.py --write-reference``.  Tolerances:

* precision, recall and F1 of every row agree to 1e-12 absolute.  They are
  ratios of small counts, so any real change moves them by at least 1/N;
* cross-matrix shapes agree exactly; row sums, column sums and a fixed
  sample of entries agree to 1e-9 relative plus 1e-9 absolute.  A rewrite
  that only reorders floating-point sums stays well inside this, a change of
  algorithm does not.
"""
from __future__ import annotations

import json
import os

import numpy as np

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
ROW_ATOL = 1e-12
MATRIX_RTOL = 1e-9
MATRIX_ATOL = 1e-9
UNIT_RANGE_KERNELS = ("tck", "gak")
UNIT_TOL = 1e-12
# Counts that the benchmark computes from returned objects rather than reads
# from logs; passes through run_experiment or mtsk run cannot report them.
COMPUTED_COUNTS = (
    "tck.members_fitted", "tck.posterior_rows", "lps.leaves", "lps.routed_rows",
    "kernels.gak_dp_pairs", "kernels.gak_dp_cells", "kernels.matrix_bytes",
    "evaluate.task_bytes",
)


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_matrix(label: str, km) -> None:
    """Finite, valid (symmetric PSD) and, for TCK/GAK, in [0, 1] with a unit diagonal."""
    for name, arr in (("gram", km.gram), ("cross", km.cross)):
        require(arr is not None, f"{label}: no {name} matrix")
        require(bool(np.isfinite(arr).all()), f"{label}: {name} has non-finite entries")
    try:
        km.validate()
    except ValueError as exc:
        raise CheckFailed(f"{label}: {exc}") from None
    if label.split("/")[0] in UNIT_RANGE_KERNELS:
        for name, arr in (("gram", km.gram), ("cross", km.cross)):
            require(arr.min() >= -UNIT_TOL and arr.max() <= 1.0 + UNIT_TOL,
                    f"{label}: {name} entries outside [0, 1]")
        require(bool(np.all(np.abs(np.diag(km.gram) - 1.0) <= UNIT_TOL)),
                f"{label}: gram diagonal is not 1")


def row_tuple(row) -> tuple:
    return (row.method, row.imputation, row.window, row.run, row.split,
            row.precision, row.recall, row.f1)


def log_counts(counts) -> dict:
    return {k: v for k, v in counts.items() if k not in COMPUTED_COUNTS}


def check_passes(measured: list, checked: list, splits_per_cell: int) -> None:
    """Every pass-level check that does not need the reference."""
    first = measured[0]
    for p in measured + checked:
        require(p.failed == 0, f"{p.failed} cell(s) failed")
        require(len(p.rows) == p.cells * splits_per_cell,
                f"{len(p.rows)} rows, expected {p.cells} cells x {splits_per_cell} splits")
        require([row_tuple(r) for r in p.rows] == [row_tuple(r) for r in first.rows],
                "metric rows differ between passes (rebuilt cells must reproduce "
                "the untraced run exactly)")
        require(p.digests == first.digests, "report bytes differ between passes")
    # Matrices and save/load round trips are checked inside each pass.
    # Counters must repeat exactly.  Passes run by worker processes report none.
    logged = [log_counts(p.counts) for p in measured + checked if p.counted]
    require(all(c == logged[0] for c in logged), f"log counters differ between passes: {logged}")
    require(all(p.counts == checked[0].counts for p in checked),
            "computed counters differ between passes")


def matrix_summary(cross: np.ndarray) -> dict:
    n, m = cross.shape
    idx = [(i * 7 % n, i * 13 % m) for i in range(100)]
    return {
        "shape": [n, m],
        "row_sums": cross.sum(axis=1).tolist(),
        "col_sums": cross.sum(axis=0).tolist(),
        "entries": [float(cross[i, j]) for i, j in idx],
    }


def reference_entry(passes: list) -> dict:
    p = passes[0]
    return {"rows": [list(row_tuple(r)) for r in p.rows], "cross": p.cross}


def check_reference(name: str, checked: list) -> None:
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)[name]
    got = reference_entry(checked)
    require(len(got["rows"]) == len(ref["rows"]),
            f"{len(got['rows'])} rows, reference has {len(ref['rows'])}")
    for mine, theirs in zip(got["rows"], ref["rows"]):
        require(mine[:5] == theirs[:5], f"row key {mine[:5]} != reference {theirs[:5]}")
        require(bool(np.allclose(mine[5:], theirs[5:], rtol=0.0, atol=ROW_ATOL)),
                f"row {mine[:5]}: {mine[5:]} != reference {theirs[5:]}")
    require(sorted(got["cross"]) == sorted(ref["cross"]), "cross matrices differ from reference")
    for label, summary in got["cross"].items():
        want = ref["cross"][label]
        require(summary["shape"] == want["shape"], f"{label}: cross shape differs")
        for key in ("row_sums", "col_sums", "entries"):
            require(bool(np.allclose(summary[key], want[key], rtol=MATRIX_RTOL,
                                     atol=MATRIX_ATOL)),
                    f"{label}: cross {key} differ from reference")
