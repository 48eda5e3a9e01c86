"""Imputation-dependent kernels: linear kernel and the global alignment kernel.

Both require complete inputs and work on whole cohorts.  The GAK follows the
triangular, geometrically divided construction: the local similarity between
time frames s and t is w(s, t) * k/(2 - k), with k the Gaussian kernel and w
the triangular window (1 - |s - t|/triangular)+, summed over all monotone
alignments of the two time axes in the log domain.  Cells beyond the
triangular parameter carry zero weight, and the window's positive-definiteness
keeps the alignment kernel PSD (a flat cut-off band would not).  One dynamic
program runs over the upper triangle of the stacked train+test pairs at once,
each lattice cell one array step: the local similarity plus the three-term
log-sum-exp of the cell's in-band predecessors (Cuturi 2011).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dataclass_fields
from functools import reduce

import numpy as np

from .cohort import Cohort

SYMMETRY_RTOL = 1e-12
PSD_TOL = 1e-8  # min eigenvalue >= -PSD_TOL * trace


@dataclass
class KernelMatrix:
    """A train Gram matrix with an optional train x test cross-kernel."""

    gram: np.ndarray
    method_tag: str
    cross: np.ndarray | None = None

    def __post_init__(self):
        self.gram = np.asarray(self.gram, dtype=float)
        if self.gram.ndim != 2 or self.gram.shape[0] != self.gram.shape[1]:
            raise ValueError(f"gram must be square, got {self.gram.shape}")
        scale = np.abs(self.gram).max() if self.gram.size else 0.0
        if scale and np.abs(self.gram - self.gram.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("gram matrix is not symmetric")
        # Mirror the upper triangle so symmetry is exact, not just within round-off.
        lower = np.tri(self.gram.shape[0], k=-1, dtype=bool)
        self.gram = np.where(lower, self.gram.T, self.gram)
        if self.cross is not None:
            self.cross = np.asarray(self.cross, dtype=float)
            if self.cross.ndim != 2 or self.cross.shape[0] != self.gram.shape[0]:
                raise ValueError(
                    f"cross kernel {self.cross.shape} does not align with gram "
                    f"{self.gram.shape}"
                )

    def validate(self) -> "KernelMatrix":
        """Check positive semi-definiteness up to accumulation round-off."""
        if self.gram.size:
            eigvals = np.linalg.eigvalsh(self.gram)
            floor = -PSD_TOL * max(np.trace(self.gram), 0.0)
            if eigvals[0] < floor:
                raise ValueError(
                    f"{self.method_tag} gram min eigenvalue {eigvals[0]:.3e} "
                    f"below PSD tolerance {floor:.3e}"
                )
        return self


def _require_complete(cohort: Cohort, kernel: str) -> None:
    """Raise unless every cell of every sample in the cohort is observed."""
    if not cohort.is_complete:
        sid = cohort.ids()[int(np.argmin(cohort.mask.min(axis=(1, 2))))]
        raise ValueError(f"{kernel} kernel requires complete inputs; impute sample {sid!r} first")


def _require_shape(cohort: Cohort, shape: tuple[int, int], whose: str) -> None:
    """Raise unless the cohort's (V, T) is ``shape``, the (V, T) of ``whose`` fit."""
    got = cohort.values.shape[1:]
    if got != shape:
        advice = ""
        if got[1] != shape[1]:
            advice = f"; use a {'larger' if got[1] < shape[1] else 'smaller'} window"
        raise ValueError(f"cohort (V, T) = {got} differs from {whose} {shape}{advice}")


# ---------------------------------------------------------------------------
# Linear kernel


def linear_gram(
    features: np.ndarray, test_features: np.ndarray | None = None,
    method_tag: str = "linear",
) -> KernelMatrix:
    """Gram (and optional cross-kernel) of plain feature rows."""
    F = np.asarray(features, dtype=float)
    cross = None
    if test_features is not None:
        cross = F @ np.asarray(test_features, dtype=float).T
    return KernelMatrix(F @ F.T, method_tag, cross)


# ---------------------------------------------------------------------------
# Global alignment kernel


@dataclass(frozen=True)
class GAKParams:
    """GAK hyperparameters: Gaussian bandwidth and band half-width in steps."""

    sigma: float
    triangular: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.triangular < 1:
            raise ValueError("triangular must be >= 1")


def fit_gak_params(train: Cohort) -> GAKParams:
    """Bandwidth and band heuristics from the training set.

    sigma is twice the median pairwise Frobenius distance scaled by the
    square root of the median series length; the band half-width is 0.2
    times the median length (at least 1).  All series share length T here.
    """
    if len(train) < 2:
        raise ValueError("need at least 2 training samples")
    _require_complete(train, "gak")
    F = train.values.reshape(len(train), -1)
    sq = np.sum(F * F, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (F @ F.T), 0.0)
    iu = np.triu_indices(len(train), k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med == 0.0:
        raise ValueError("median pairwise distance is zero; training set is degenerate")
    T = train.window_length
    sigma = 2.0 * med * math.sqrt(T)
    triangular = max(1, int(math.floor(0.2 * T + 0.5)))
    return GAKParams(sigma=sigma, triangular=triangular)


def _gak_logs(x: np.ndarray, params: GAKParams) -> np.ndarray:
    """Log of the unnormalized GAK between every pair of x's series: a symmetric (K, K) array.

    ``x`` is (K, V, T).  The dynamic program over monotone alignments runs on
    every upper-triangle pair at once, diagonal included, and holds only the
    band of cells less than ``triangular`` steps off the diagonal.  A cell adds
    its local similarity, read from one (K, K) frame product, to
    m + log(sum exp(p - m)) over its in-band predecessors p (up, left, diag, in
    that order; m their maximum).  A cell whose predecessors are all -inf stays
    -inf.  Log-domain throughout, so no underflow for long windows.
    """
    frames = np.moveaxis(x, 2, 0)  # frame-major: (T, K, V)
    sq = np.sum(frames * frames, axis=2)
    T, tri = frames.shape[0], params.triangular
    rows, cols = np.triu_indices(len(x))
    flat = rows * len(x) + cols
    prev = {0: np.zeros(rows.size)}  # the last row's band cells, by column
    for i in range(1, T + 1):
        cur, sq_row = {}, sq[i - 1][rows]
        for j in range(max(1, i - tri + 1), min(T, i + tri - 1) + 1):
            dot = (frames[i - 1] @ frames[j - 1].T).take(flat)
            d2 = np.maximum(sq_row + sq[j - 1][cols] - 2.0 * dot, 0.0)
            logk = -d2 / (2.0 * params.sigma * params.sigma)
            local = logk - np.log1p(-np.expm1(logk)) + math.log(1.0 - abs(i - j) / tri)
            terms = [t for t in (prev.get(j), cur.get(j - 1), prev.get(j - 1)) if t is not None]
            # Floored at the least finite float: all -inf predecessors give log(0) = -inf.
            m = np.maximum(reduce(np.maximum, terms), np.finfo(float).min)
            s = reduce(np.add, [np.exp(t - m) for t in terms])
            with np.errstate(divide="ignore"):
                cur[j] = m + np.log(s) + local
        prev = cur
    logs = np.empty((len(x), len(x)))
    logs[rows, cols] = logs[cols, rows] = prev[T]
    return logs


def gak_gram(train: Cohort, params: GAKParams, test: Cohort | None = None) -> KernelMatrix:
    """Normalized GAK exp(log k(x,y) - (log k(x,x) + log k(y,y))/2) over train and test stacked."""
    _require_complete(train, "gak")
    x = train.values
    if test is not None:
        _require_complete(test, "gak")
        _require_shape(test, train.values.shape[1:], "train's")
        x = np.concatenate([x, test.values])
    logs = _gak_logs(x, params)
    self_log = np.diag(logs)
    k = np.exp(logs - 0.5 * (self_log[:, None] + self_log[None, :]))[:len(train)]
    return KernelMatrix(k[:, :len(train)], "gak", None if test is None else k[:, len(train):])


def gram_matrix(
    kernel: str,
    train: Cohort,
    test: Cohort | None = None,
    params: GAKParams | None = None,
) -> KernelMatrix:
    """Assemble the Gram (and cross-kernel) for one of the baseline kernels.

    ``kernel`` is "linear" or "gak".  GAK output is normalized per pair so
    its diagonal is exactly one; the linear Gram is raw inner products.
    """
    if kernel == "linear":
        _require_complete(train, "linear")
        Ftr = train.values.reshape(len(train), -1)
        Fte = None
        if test is not None:
            _require_complete(test, "linear")
            _require_shape(test, train.values.shape[1:], "train's")
            Fte = test.values.reshape(len(test), -1)
        return linear_gram(Ftr, Fte)
    if kernel == "gak":
        if params is None:
            params = fit_gak_params(train)
        return gak_gram(train, params, test)
    raise ValueError(f"unknown kernel {kernel!r}; expected 'linear' or 'gak'")


# ---------------------------------------------------------------------------
# Serialization


def save_matrix(path, tag: str, matrix: np.ndarray) -> None:
    """Write a dense matrix as CSV rows under a one-line ``tag,N,M`` header."""
    if not set(tag).isdisjoint(",\r\n"):  # load_matrix could not split the header back
        raise ValueError(f"matrix tag {tag!r} must not hold a comma or a line break")
    if tag != tag.lstrip() or any("\ud800" <= c <= "\udfff" for c in tag):  # load strips; no UTF-8
        raise ValueError(f"matrix tag {tag!r} must not start with whitespace or hold a surrogate")
    arr = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{tag},{arr.shape[0]},{arr.shape[1]}\n")
        for row in arr:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def load_matrix(path) -> tuple[str, np.ndarray]:
    """Read a ``save_matrix`` file whose body must hold the N rows of M values its header names."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 3 or not (header[1].isdecimal() and header[2].isdecimal()):
            raise ValueError(f"{path}, line 1: expected a tag,N,M header with counts N, M >= 0, "
                             f"got {header}")
        tag, n, m = header[0], int(header[1]), int(header[2])
        rows, at = [], 1
        for at, line in enumerate(fh, 2):
            if line.strip():
                try:
                    rows.append([float(v) for v in line.split(",")])
                except ValueError as exc:
                    raise ValueError(f"{path}, line {at}: {exc}") from None
                if len(rows[-1]) != m or len(rows) > n:
                    raise ValueError(f"{path}, line {at}: row {len(rows)} has {len(rows[-1])} "
                                     f"values; the header says {n} rows of {m}")
    if len(rows) < n and m:  # an N x 0 body is N blank lines
        raise ValueError(f"{path}, line {at + 1}: the file ends after {len(rows)} rows; "
                         f"the header says {n} rows of {m}")
    return tag, np.array(rows, dtype=float).reshape(n, m)


# Model archives (TCK models, LPS forests), format version 2: a JSON header and
# records (members, trees) stored field by field.  A field's values over all
# records lie end to end in "<field>.values", and each record's shape is one row
# of "<field>.shape".  Any other entry, as an older archive's, is not read.
_FORMAT_VERSION = 2


def _save_npz(path, meta: dict, records: list[dict]) -> None:
    """Write one archive.  Records share their keys; a field keeps its ndim across records."""
    fields = list(records[0]) if records else []
    out = {}
    for f in fields:
        column = [np.asarray(r[f]) for r in records]
        out[f"{f}.values"] = np.concatenate([c.ravel() for c in column])
        out[f"{f}.shape"] = np.array([c.shape for c in column], dtype=int)
    header = {"version": _FORMAT_VERSION, "fields": fields, **meta}
    np.savez_compressed(path, __meta__=json.dumps(header, sort_keys=True), **out)


def _load_npz(path, what: str) -> tuple[dict, list[dict]]:
    """Header and records of an archive; 0-d fields come back as Python scalars."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        version = meta.pop("version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported {what} version {version}")
        fields = meta.pop("fields")
        columns = []
        for f in fields:
            flat, shapes = data[f"{f}.values"], data[f"{f}.shape"]
            if shapes.shape[1] == 0:
                columns.append(flat.tolist())
            else:
                ends = np.cumsum(np.prod(shapes, axis=1))[:-1]
                columns.append([p.reshape(s) for p, s in zip(np.split(flat, ends), shapes)])
    records = [dict(zip(fields, values)) for values in zip(*columns)]
    if not records:
        raise ValueError(f"{what} {path} is empty")
    return meta, records


def _records(path, rows: list[dict], record, whole, old=()):
    """``whole`` of the ``record``s made from an archive's rows, less the ``old`` fields of older
    archives; ``whole`` checks all records at once.  An error names the archive, with the field
    that the rows lack or the record does not know, or with the first record failing alone."""
    known = [f.name for f in dataclass_fields(record)]
    if odd := sorted(set(known).symmetric_difference(rows[0]) - set(old)):
        raise ValueError(f"{path}: the records have {'no' if odd[0] in known else 'an unknown'} "
                         f"field {odd[0]!r}")
    made = [record(**{f: row[f] for f in known}) for row in rows]
    try:
        return whole(made)
    except ValueError:
        for i, record in enumerate(made):
            try:
                whole([record])
            except ValueError as exc:
                raise ValueError(f"{path}, record {i}: {exc}") from None
        raise


def _require_kind(record, names: str, message: str, kinds="iu", ndim=0) -> None:
    """Raise ``message`` for the first named field without ``ndim`` axes and a kind in ``kinds``."""
    for name in names.split():
        a = np.asarray(getattr(record, name))
        if a.ndim != ndim or a.dtype.kind not in kinds:
            shape = f" of shape {a.shape}" if a.ndim != ndim else ""
            raise ValueError(f"{message.format(name)}, got {a.dtype}{shape}")
