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
    d = emb.points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label", "cluster"] + [f"e{i + 1}" for i in range(d)])
        for i, sid in enumerate(emb.ids):
            lab = "NA" if labels[i] is None else int(labels[i])
            writer.writerow([sid, lab, int(clusters[i])] +
                            [repr(float(v)) for v in emb.points[i]])


# ---------------------------------------------------------------------------
# k-means


def _kmeans_once(X: np.ndarray, k: int, rng) -> ClusterAssignment:
    n = X.shape[0]
    # k-means++ seeding
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total == 0:
            centroids[i:] = X[rng.integers(n, size=k - i)]
            break
        centroids[i] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centroids[i]) ** 2).sum(axis=1))

    labels = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        dist = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        for c in range(k):
            if not (new_labels == c).any():
                # Re-seed an emptied cluster at the point farthest from its centroid.
                far = dist[np.arange(n), new_labels].argmax()
                centroids[c] = X[far]
                new_labels[far] = c
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = X[members].mean(axis=0)
    return ClusterAssignment(labels, float(((X - centroids[labels]) ** 2).sum()))


def kmeans(emb, k: int = 2, restarts: int = 20, seed: int = 0) -> ClusterAssignment:
    """Lloyd iterations from k-means++ seeds; best of ``restarts`` by inertia."""
    X = _as_points(emb)
    n = X.shape[0]
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([31, seed, r])
        fit = _kmeans_once(X, k, rng)
        if best is None or fit.inertia < best.inertia:  # the first of equal inertias wins
            best = fit
    return best


# ---------------------------------------------------------------------------
# kNN assignment


def knn_assign(train_emb, train_labels, test_emb, k: int = 5) -> np.ndarray:
    """Majority vote of the k nearest training points (Euclidean).

    A tied vote falls back to the single nearest neighbor's label.  With
    cluster ids as ``train_labels`` this is the unsupervised out-of-sample
    step; with true labels it is the supervised baseline.
    """
    Xtr = _as_points(train_emb)
    Xte = _as_points(test_emb)
    y = np.asarray(train_labels, dtype=int)
    if y.shape[0] != Xtr.shape[0]:
        raise ValueError("one label per training point required")
    if not 1 <= k <= Xtr.shape[0]:
        raise ValueError(f"k must be in [1, {Xtr.shape[0]}]")
    d2 = (
        (Xte * Xte).sum(axis=1)[:, None]
        + (Xtr * Xtr).sum(axis=1)[None, :]
        - 2.0 * (Xte @ Xtr.T)
    )
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = y[order].sum(axis=1)
    pred = np.where(2 * votes > k, 1, 0)
    tie = 2 * votes == k
    if tie.any():
        pred[tie] = y[order[tie, 0]]
    return pred


# ---------------------------------------------------------------------------
# Manual static-feature baseline


def manual_features(cohort: Cohort) -> np.ndarray:
    """Per attribute (mean, max, min) over the window, (N, 3V); needs complete data."""
    if not cohort.is_complete:
        raise ValueError("manual features require a complete (imputed) cohort")
    X = cohort.values
    feats = np.stack([X.mean(axis=2), X.max(axis=2), X.min(axis=2)], axis=2)
    return feats.reshape(len(cohort), -1)
