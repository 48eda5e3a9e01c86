"""Imputation-dependent kernels: linear kernel and the global alignment kernel.

Both require complete inputs.  The GAK follows the triangular, geometrically
divided construction: the local similarity between time frames s and t is
w(s, t) * k/(2 - k), with k the Gaussian kernel and w the triangular window
(1 - |s - t|/triangular)+, summed over all monotone alignments of the two
time axes in the log domain.  Cells beyond the triangular parameter carry
zero weight, and the window's positive-definiteness keeps the alignment
kernel PSD (a flat cut-off band would not).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort, MTSample

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
        if self.cross is not None:
            self.cross = np.asarray(self.cross, dtype=float)
            if self.cross.ndim != 2 or self.cross.shape[0] != self.gram.shape[0]:
                raise ValueError(
                    f"cross kernel {self.cross.shape} does not align with gram "
                    f"{self.gram.shape}"
                )

    @property
    def n_train(self) -> int:
        return self.gram.shape[0]

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


def _require_complete(x: MTSample | Cohort, kernel: str) -> None:
    """Raise unless every cell of the sample, or of every sample in the cohort, is observed."""
    if not x.is_complete:
        if isinstance(x, MTSample):
            sid = x.id
        else:
            sid = x.ids()[int(np.argmin(x.mask.min(axis=(1, 2))))]
        raise ValueError(f"{kernel} kernel requires complete inputs; impute sample {sid!r} first")


# ---------------------------------------------------------------------------
# Linear kernel


def linear_kernel(x: MTSample, y: MTSample, c: float = 0.0) -> float:
    """Inner product of the row-major vectorizations, plus a constant c."""
    _require_complete(x, "linear")
    _require_complete(y, "linear")
    if x.values.shape != y.values.shape:
        raise ValueError("samples must share V x T dimensions")
    return float(np.dot(x.values.ravel(), y.values.ravel()) + c)


def linear_gram(
    features: np.ndarray, test_features: np.ndarray | None = None, c: float = 0.0,
    method_tag: str = "linear",
) -> KernelMatrix:
    """Gram (and optional cross-kernel) of plain feature rows."""
    F = np.asarray(features, dtype=float)
    gram = F @ F.T + c
    # Mirror the upper triangle so symmetry is exact, not just within round-off.
    i, j = np.tril_indices(gram.shape[0], k=-1)
    gram[i, j] = gram[j, i]
    cross = None
    if test_features is not None:
        cross = F @ np.asarray(test_features, dtype=float).T + c
    return KernelMatrix(gram, method_tag, cross)


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
    F = train.values.reshape(len(train), -1)
    if not train.is_complete:
        raise ValueError("gak heuristics require complete (imputed) data")
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


def _log_local_similarity(
    a: np.ndarray, b: np.ndarray, sigma: float, triangular: int
) -> np.ndarray:
    """log of w * k/(2-k) for all (s, t): Gaussian k, triangular window w."""
    sa = np.sum(a * a, axis=0)
    sb = np.sum(b * b, axis=0)
    d2 = np.maximum(sa[:, None] + sb[None, :] - 2.0 * (a.T @ b), 0.0)
    logk = -d2 / (2.0 * sigma * sigma)
    out = logk - np.log1p(-np.expm1(logk))
    offset = np.abs(np.arange(a.shape[1])[:, None] - np.arange(b.shape[1])[None, :])
    with np.errstate(divide="ignore"):
        out += np.log(np.maximum(1.0 - offset / triangular, 0.0))
    return out


def gak_log(x: MTSample, y: MTSample, params: GAKParams) -> float:
    """Log of the unnormalized global alignment kernel between two samples.

    Dynamic program over monotone alignments of the two time axes; the
    triangular window zeroes every lattice cell at or beyond ``triangular``
    steps from the diagonal.  Log-domain throughout, so no underflow for
    long windows.
    """
    _require_complete(x, "gak")
    _require_complete(y, "gak")
    if x.n_attributes != y.n_attributes:
        raise ValueError("samples must share the attribute dimension")
    ll = _log_local_similarity(x.values, y.values, params.sigma, params.triangular).tolist()
    tx, ty = x.n_days, y.n_days
    tri = params.triangular
    neg_inf = float("-inf")
    prev = [neg_inf] * (ty + 1)
    prev[0] = 0.0
    for i in range(1, tx + 1):
        cur = [neg_inf] * (ty + 1)
        row = ll[i - 1]
        lo = max(1, i - tri + 1)
        hi = min(ty, i + tri - 1)
        for j in range(lo, hi + 1):
            up, left, diag = prev[j], cur[j - 1], prev[j - 1]
            m = up if up > left else left
            if diag > m:
                m = diag
            if m == neg_inf:
                continue
            s = math.exp(up - m) + math.exp(left - m) + math.exp(diag - m)
            cur[j] = m + math.log(s) + row[j - 1]
        prev = cur
    return prev[ty]


def gak_gram(train: Cohort, params: GAKParams, test: Cohort | None = None) -> KernelMatrix:
    """Per-pair normalized GAK Gram: exp(log k(x,y) - (log k(x,x) + log k(y,y))/2)."""
    samples = train.samples
    n = len(samples)
    self_log = np.array([gak_log(s, s, params) for s in samples])
    gram = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lg = gak_log(samples[i], samples[j], params)
            gram[i, j] = gram[j, i] = math.exp(lg - 0.5 * (self_log[i] + self_log[j]))
    cross = None
    if test is not None:
        test_samples = test.samples
        test_self = np.array([gak_log(s, s, params) for s in test_samples])
        cross = np.empty((n, len(test_samples)))
        for i in range(n):
            for j, t in enumerate(test_samples):
                lg = gak_log(samples[i], t, params)
                cross[i, j] = math.exp(lg - 0.5 * (self_log[i] + test_self[j]))
    return KernelMatrix(gram, "gak", cross)


def gram_matrix(
    kernel: str,
    train: Cohort,
    test: Cohort | None = None,
    params: GAKParams | None = None,
    c: float = 0.0,
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
            Fte = test.values.reshape(len(test), -1)
        return linear_gram(Ftr, Fte, c=c)
    if kernel == "gak":
        if params is None:
            params = fit_gak_params(train)
        return gak_gram(train, params, test)
    raise ValueError(f"unknown kernel {kernel!r}; expected 'linear' or 'gak'")


# ---------------------------------------------------------------------------
# Serialization


def save_matrix(path, tag: str, matrix: np.ndarray) -> None:
    """Write a dense matrix as CSV rows under a one-line ``tag,N,M`` header."""
    arr = np.asarray(matrix, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{tag},{arr.shape[0]},{arr.shape[1]}\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        tag, n, m = fh.readline().strip().split(",")
        rows = [
            [float(v) for v in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    arr = np.array(rows, dtype=float).reshape(int(n), int(m))
    return tag, arr


# Model archives (TCK models, LPS forests): named arrays plus a JSON header.
_FORMAT_VERSION = 1


def _save_npz(path, meta: dict, arrays: dict) -> None:
    """Write ``arrays`` with ``meta`` and the format version as a ``__meta__`` JSON entry."""
    meta = {"version": _FORMAT_VERSION, **meta}
    np.savez_compressed(path, __meta__=json.dumps(meta, sort_keys=True), **arrays)


def _load_npz(path, what: str) -> tuple[dict, dict]:
    """The header and the arrays of an archive written by ``_save_npz``."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta["version"] != _FORMAT_VERSION:
            raise ValueError(f"unsupported {what} version {meta['version']}")
        return meta, {k: data[k] for k in data.files if k != "__meta__"}
