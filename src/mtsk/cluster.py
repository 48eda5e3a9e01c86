"""Unsupervised classification head: kernel PCA, k-means and kNN assignment.

The pipeline is kPCA on the train Gram, k-means (k = 2) on the embedding,
and kNN out-of-sample assignment using the cluster labels.  The same kNN
routine with true labels is the supervised baseline, and manual_features
provides the static mean/max/min feature baseline.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .kernels import _require_complete

EIGENVALUE_FLOOR = 1e-10  # relative to the centered Gram's trace
KMEANS_MAX_ITER = 300  # Lloyd steps per restart


@dataclass
class KPCAModel:
    """Train-side state needed to embed new points from a cross-kernel."""

    eigenvectors: np.ndarray  # (N, d)
    eigenvalues: np.ndarray   # (d,) descending, zeros for discarded directions
    row_means: np.ndarray     # (N,) of the raw train Gram
    total_mean: float


@dataclass
class Embedding:
    points: np.ndarray  # (N, d)
    ids: list[str]

    def __post_init__(self):
        if len(self.ids) != self.points.shape[0]:
            raise ValueError("ids must align with the embedded points")


@dataclass
class ClusterAssignment:
    labels: np.ndarray  # (N,) cluster indices
    inertia: float


def _as_points(emb) -> np.ndarray:
    return emb.points if isinstance(emb, Embedding) else np.asarray(emb, dtype=float)


def _require_finite(X: np.ndarray, name: str) -> None:
    if not np.isfinite(X).all():
        raise ValueError(f"{name} holds non-finite points")


def kpca_fit(gram: np.ndarray, d: int,
             ids: list[str] | None = None) -> tuple[KPCAModel, Embedding]:
    """Double-center the Gram, eigendecompose, and scale by sqrt(eigenvalue).

    Eigenvalues below 1e-10 of the centered trace count as zero and their
    coordinates are zeroed; asking for more dimensions than the numerical
    rank pads with zero columns and warns.  Column signs are fixed by
    making each eigenvector's largest-magnitude entry positive.
    """
    gram = np.asarray(gram, dtype=float)
    N = gram.shape[0]
    if not 1 <= d <= N - 1:
        raise ValueError(f"embedding dimension must be in [1, {N - 1}], got {d}")
    row_means = gram.mean(axis=1)
    total = float(gram.mean())
    centered = gram - row_means[:, None] - row_means[None, :] + total

    eigvals, eigvecs = np.linalg.eigh(centered)
    order = np.argsort(eigvals)[::-1][:d]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    # Below 1e-10 of the trace counts as rank-deficient; the second term covers
    # grams whose centered image is pure round-off (e.g. constant matrices).
    floor = max(
        EIGENVALUE_FLOOR * max(np.trace(centered), 0.0),
        N * np.finfo(float).eps * np.linalg.norm(centered),
    )
    zero = eigvals <= floor
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} of {d} requested kPCA dimensions exceed the "
            "numerical rank; padding with zeros"
        )
    eigvals = np.where(zero, 0.0, eigvals)
    flip = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(d)] < 0
    eigvecs = np.where(flip[None, :], -eigvecs, eigvecs)
    eigvecs = np.where(zero[None, :], 0.0, eigvecs)

    points = eigvecs * np.sqrt(eigvals)[None, :]
    ids = ids if ids is not None else [str(i) for i in range(N)]
    model = KPCAModel(eigvecs, eigvals, row_means, total)
    return model, Embedding(points, list(ids))


def kpca_project(model: KPCAModel, cross: np.ndarray,
                 ids: list[str] | None = None) -> Embedding:
    """Embed test points from their train x test kernel columns."""
    cross = np.asarray(cross, dtype=float)
    if cross.ndim != 2 or cross.shape[0] != model.row_means.shape[0]:
        raise ValueError("cross kernel rows must match the fitted training set")
    centered = (
        cross
        - cross.mean(axis=0)[None, :]
        - model.row_means[:, None]
        + model.total_mean
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(model.eigenvalues > 0, 1.0 / np.sqrt(model.eigenvalues), 0.0)
    points = (centered.T @ model.eigenvectors) * scale[None, :]
    ids = ids if ids is not None else [str(i) for i in range(cross.shape[1])]
    return Embedding(points, list(ids))


def dump_embedding(path, emb: Embedding, labels, clusters) -> None:
    """Write ``id,label,cluster,e1..ed`` rows; the 2-D prefix is scatter-ready."""
    if bad := [i for i in emb.ids if any("\ud800" <= c <= "\udfff" for c in i)]:
        raise ValueError(f"id {bad[0]!r} holds a surrogate and has no UTF-8 form")
    d = emb.points.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "cluster"] + [f"e{i + 1}" for i in range(d)])
        for i, sid in enumerate(emb.ids):
            lab = "NA" if labels[i] is None else int(labels[i])
            writer.writerow([sid, lab, int(clusters[i])] +
                            [repr(float(v)) for v in emb.points[i]])


# ---------------------------------------------------------------------------
# k-means


def _kmeans_pp(X: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeds (Arthur & Vassilvitskii 2007), (k, d)."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for i in range(1, k):
        d2 = np.minimum(d2, ((X - centroids[i - 1]) ** 2).sum(axis=1))
        total = d2.sum()
        if total == 0:
            centroids[i:] = X[rng.integers(n, size=k - i)]
            break
        centroids[i] = X[rng.choice(n, p=d2 / total)]
    return centroids


def _first_argmin(dist: np.ndarray) -> np.ndarray:
    """argmin over axis 1 of (A, k, n) distances; the first of equal distances wins.

    k - 1 whole-array comparisons; ``dist.argmin(axis=1)`` runs one short
    argmin per (restart, point) and is the slowest step of a Lloyd pass.
    """
    labels = np.zeros((dist.shape[0], dist.shape[2]), dtype=np.intp)
    best = dist[:, 0]
    for c in range(1, dist.shape[1]):
        closer = dist[:, c] < best
        labels[closer] = c
        best = np.minimum(best, dist[:, c])
    return labels


def kmeans(emb, k: int = 2, restarts: int = 20, seed: int = 0) -> ClusterAssignment:
    """Lloyd iterations from k-means++ seeds; best of ``restarts`` by inertia.

    Restart r seeds from ``default_rng([31, seed, r])``, and all restarts
    step together, each until its labels stop changing.  A cluster left
    empty is re-seeded at the point farthest from its centroid.  Centroids
    add their members in point order, and the first of equal inertias wins.
    """
    X = _as_points(emb)
    n, d = X.shape
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _require_finite(X, "emb")
    C = np.stack([_kmeans_pp(X, k, np.random.default_rng([31, seed, r]))
                  for r in range(restarts)])  # (R, k, d)
    labels = np.full((restarts, n), -1)
    active = np.arange(restarts)
    points = np.arange(n)
    XT = X.T.copy()  # (d, n): the distance sums over d add whole rows
    for _ in range(KMEANS_MAX_ITER):
        diff = XT - C[active][..., None]  # (A, k, d, n)
        dist = np.square(diff, out=diff).sum(axis=2)
        new = _first_argmin(dist)  # (A, n)
        slots = new + k * np.arange(active.size)[:, None]
        counts = np.bincount(slots.ravel(), minlength=active.size * k).reshape(-1, k)
        for a in np.flatnonzero(counts.min(axis=1) == 0):
            for c in range(k):
                if not (new[a] == c).any():
                    # Re-seed an emptied cluster at the point farthest from its centroid.
                    far = dist[a, new[a], points].argmax()
                    C[active[a], c] = X[far]
                    new[a, far] = c
            counts[a] = np.bincount(new[a], minlength=k)
        moved = (new != labels[active]).any(axis=1)
        labels[active] = new
        active, new, counts = active[moved], new[moved], counts[moved]
        if active.size == 0:
            break
        # Scatter each point into its cluster's slot and add rows in point
        # order, so every centroid sums its members as X[members].mean would.
        rows = np.zeros((n, active.size * k, d))
        rows[points, new + k * np.arange(active.size)[:, None]] = X
        sums = rows.sum(axis=0).reshape(-1, k, d)
        counts = counts[..., None]
        C[active] = np.where(counts > 0, sums / np.maximum(counts, 1), C[active])
    sq = (X - C[np.arange(restarts)[:, None], labels]) ** 2
    inertia = sq.reshape(restarts, -1).sum(axis=1)
    best = int(np.argmin(inertia))  # the first of equal inertias wins
    return ClusterAssignment(labels[best], float(inertia[best]))


# ---------------------------------------------------------------------------
# kNN assignment


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, nearest first; overwrites d2.

    k passes of argmin give the order of ``argsort(kind="stable")``: ties go
    to the lower index.  +inf and NaN entries rank as the largest finite
    float, so the +inf that marks a taken entry stays above every entry left.
    """
    np.fmin(d2, np.finfo(float).max, out=d2)
    rows = np.arange(d2.shape[0])
    order = np.empty((d2.shape[0], k), dtype=np.intp)
    for j in range(k):
        order[:, j] = d2.argmin(axis=1)
        d2[rows, order[:, j]] = np.inf
    return order


def knn_assign(train_emb, train_labels, test_emb, k: int = 5) -> np.ndarray:
    """Majority vote of the k nearest training points (Euclidean).

    ``train_labels`` are binary (0 or 1).  A tied vote falls back to the
    single nearest neighbor's label.  With cluster ids as ``train_labels``
    this is the unsupervised out-of-sample step; with true labels it is the
    supervised baseline.
    """
    y = np.asarray(train_labels)
    if y.shape != (_as_points(train_emb).shape[0],):
        raise ValueError("one label per training point required")
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("train_labels must be 0 or 1")
    return _knn_vote(_knn_neighbours(train_emb, test_emb, k), y.astype(int))


def _knn_neighbours(train_emb, test_emb, k: int) -> np.ndarray:
    """(M, k) indices of each test point's k nearest training points, nearest first."""
    Xtr, Xte = _as_points(train_emb), _as_points(test_emb)
    if not 1 <= k <= Xtr.shape[0]:
        raise ValueError(f"k must be in [1, {Xtr.shape[0]}]")
    _require_finite(Xtr, "train_emb")
    _require_finite(Xte, "test_emb")
    # (|a|^2 + |b|^2) - 2 a.b built in place: adding -2 a.b rounds as subtracting 2 a.b.
    d2 = Xte @ Xtr.T
    d2 *= -2.0
    d2 += (Xte * Xte).sum(axis=1)[:, None] + (Xtr * Xtr).sum(axis=1)[None, :]
    return _nearest(d2, k)


def _knn_vote(order: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Majority of the neighbours' 0/1 int labels ``y``; a tied vote takes the nearest one's."""
    votes = y[order].sum(axis=1)
    pred = np.where(2 * votes > order.shape[1], 1, 0)
    tie = 2 * votes == order.shape[1]
    if tie.any():
        pred[tie] = y[order[tie, 0]]
    return pred


# ---------------------------------------------------------------------------
# Manual static-feature baseline


def manual_features(cohort: Cohort) -> np.ndarray:
    """Per attribute (mean, max, min) over the window, (N, 3V); needs complete data."""
    _require_complete(cohort, "manual")
    X = cohort.values
    feats = np.stack([X.mean(axis=2), X.max(axis=2), X.min(axis=2)], axis=2)
    return feats.reshape(len(cohort), -1)
