import numpy as np
import pytest

from mtsk.cluster import (
    KMEANS_MAX_ITER,
    ClusterAssignment,
    Embedding,
    _nearest,
    dump_embedding,
    kmeans,
    knn_assign,
    kpca_fit,
    kpca_project,
    manual_features,
)
from mtsk.cohort import Cohort, MTSample, generate_synthetic_cohort


def kpca_oracle(gram, d):
    """Independent kPCA: explicit double centering + numpy eigensolver.

    The library path centers with row means; this one builds H K H
    literally.  Both decompose with numpy.linalg.eigh.
    """
    n = gram.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    centered = H @ gram @ H
    w, u = np.linalg.eigh(centered)
    order = np.argsort(w)[::-1][:d]
    w = np.maximum(w[order], 0.0)
    return u[:, order] * np.sqrt(w)[None, :], w


def kmeans_once_oracle(X, k, rng):
    """One restart, one Lloyd step at a time: k-means++ seeds, then Lloyd.

    Returns the assignment and how many emptied clusters were re-seeded.
    """
    n = X.shape[0]
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
    reseeds = 0
    for _ in range(KMEANS_MAX_ITER):
        dist = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        for c in range(k):
            if not (new_labels == c).any():
                far = dist[np.arange(n), new_labels].argmax()
                centroids[c] = X[far]
                new_labels[far] = c
                reseeds += 1
        if (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            members = labels == c
            if members.any():
                centroids[c] = X[members].mean(axis=0)
    return ClusterAssignment(labels, float(((X - centroids[labels]) ** 2).sum())), reseeds


def kmeans_oracle(X, k, restarts, seed):
    """Best of the restarts run one after another; the first of equal inertias wins."""
    best, reseeds = None, 0
    for r in range(restarts):
        fit, n_reseeds = kmeans_once_oracle(X, k, np.random.default_rng([31, seed, r]))
        reseeds += n_reseeds
        if best is None or fit.inertia < best.inertia:
            best = fit
    return best, reseeds


def _random_psd(rng, n, rank=None):
    a = rng.normal(size=(n, rank or n))
    return a @ a.T


class TestKPCA:
    def test_matches_direct_eigendecomposition_oracle(self):
        rng = np.random.default_rng(0)
        gram = _random_psd(rng, 10)
        _, emb = kpca_fit(gram, 3)
        want, _ = kpca_oracle(gram, 3)
        for col in range(3):
            got = emb.points[:, col]
            ref = want[:, col]
            assert min(np.abs(got - ref).max(), np.abs(got + ref).max()) < 1e-8

    def test_rank_one_gram(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=12)
        y -= y.mean()
        gram = np.outer(y, y)
        with pytest.warns(UserWarning, match="padding"):
            _, emb = kpca_fit(gram, 3)
        first = emb.points[:, 0]
        ratio = first / y
        assert np.allclose(ratio, ratio[0], atol=1e-8)
        assert np.allclose(emb.points[:, 1:], 0.0)

    def test_constant_gram_embeds_to_zero(self):
        gram = np.full((6, 6), 4.2)
        with pytest.warns(UserWarning):
            _, emb = kpca_fit(gram, 2)
        assert np.allclose(emb.points, 0.0)

    def test_eigenvalues_descending_and_clamped(self):
        rng = np.random.default_rng(2)
        model, _ = kpca_fit(_random_psd(rng, 8), 5)
        w = model.eigenvalues
        assert (w[:-1] >= w[1:]).all()
        assert (w >= 0).all()

    def test_columns_orthogonal_with_variance_eigenvalue_over_n(self):
        rng = np.random.default_rng(3)
        gram = _random_psd(rng, 15)
        model, emb = kpca_fit(gram, 4)
        inner = emb.points.T @ emb.points
        off = inner - np.diag(np.diag(inner))
        assert np.abs(off).max() <= 1e-8 * max(np.diag(inner))
        cov = emb.points.T @ emb.points / 15  # columns are mean-free
        assert np.allclose(np.diag(cov), model.eigenvalues / 15, rtol=1e-8)

    def test_projection_of_train_gram_reproduces_embedding(self):
        rng = np.random.default_rng(4)
        gram = _random_psd(rng, 12)
        model, emb = kpca_fit(gram, 4)
        back = kpca_project(model, gram)
        assert np.abs(back.points - emb.points).max() <= 1e-10

    def test_duplicated_test_column_duplicates_row(self):
        rng = np.random.default_rng(5)
        gram = _random_psd(rng, 9)
        cross = rng.normal(size=(9, 3))
        cross[:, 2] = cross[:, 0]
        model, _ = kpca_fit(gram, 3)
        proj = kpca_project(model, cross)
        assert np.array_equal(proj.points[0], proj.points[2])

    def test_dimension_bounds(self):
        rng = np.random.default_rng(6)
        gram = _random_psd(rng, 5)
        with pytest.raises(ValueError):
            kpca_fit(gram, 5)  # d must stay below N
        with pytest.raises(ValueError):
            kpca_fit(gram, 0)

    def test_scale_invariance_of_cluster_assignments(self):
        rng = np.random.default_rng(7)
        gram = _random_psd(rng, 20, rank=6)
        model_a, emb_a = kpca_fit(gram, 4)
        model_b, emb_b = kpca_fit(3.7 * gram, 4)
        assert np.allclose(model_b.eigenvalues, 3.7 * model_a.eigenvalues, rtol=1e-10)
        a = kmeans(emb_a, 2, restarts=5, seed=0).labels
        b = kmeans(emb_b, 2, restarts=5, seed=0).labels
        assert np.array_equal(a, b) or np.array_equal(a, 1 - b)


BATTERY_KINDS = ("gaussian", "integer-rounded", "half-duplicated", "all-zero")


def _battery_points(kind, rng, n, d):
    if kind == "all-zero":
        return np.zeros((n, d))
    X = rng.normal(size=(n, d))
    if kind == "integer-rounded":
        return np.round(2 * X)
    if kind == "half-duplicated":
        return np.concatenate([X[: n - n // 2], X[: n // 2]])
    return X


class TestKMeans:
    def test_separated_clusters(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        out = kmeans(points, 2, restarts=3, seed=0)
        assert out.labels[0] == out.labels[1]
        assert out.labels[2] == out.labels[3]
        assert out.labels[0] != out.labels[2]

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(40, 3))
        one = kmeans(points, 2, restarts=1, seed=9).inertia
        ten = kmeans(points, 2, restarts=10, seed=9).inertia
        assert ten <= one

    def test_identical_points_fall_back_to_two_nonempty_clusters(self):
        points = np.zeros((5, 2))
        out = kmeans(points, 2, restarts=2, seed=0)
        assert set(out.labels.tolist()) == {0, 1}
        assert out.inertia == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(30, 4))
        a = kmeans(points, 2, restarts=4, seed=11)
        b = kmeans(points, 2, restarts=4, seed=11)
        assert np.array_equal(a.labels, b.labels)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((1, 2)), 2, restarts=1, seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            kmeans(np.zeros((4, 2)), k, restarts=1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        points = np.arange(12.0).reshape(6, 2)
        points[3, 1] = bad
        with pytest.raises(ValueError, match="emb holds non-finite points"):
            kmeans(points, 2, restarts=2, seed=0)

    @pytest.mark.parametrize("kind", BATTERY_KINDS)
    def test_restart_battery_matches_oracle(self, kind):
        # 22 inputs x 20 restarts per kind; k in 2..4, d in 1..11, n up to 300.
        rng = np.random.default_rng(BATTERY_KINDS.index(kind))
        reseeds = 0
        for i in range(22):
            k, d = 2 + i % 3, 1 + i % 11
            n = int(rng.integers(k, 301)) if i % 4 else int(rng.integers(k, k + 6))
            X = _battery_points(kind, rng, n, d)
            want, n_reseeds = kmeans_oracle(X, k, 20, seed=i)
            got = kmeans(X, k, restarts=20, seed=i)
            reseeds += n_reseeds
            assert np.array_equal(got.labels, want.labels), (kind, i)
            if d == 1:
                # numpy sums a lone column pairwise, and the batched centroids row by row.
                assert got.inertia == pytest.approx(want.inertia, rel=1e-12, abs=0), (kind, i)
            else:
                assert got.inertia == want.inertia, (kind, i)
        if kind in ("half-duplicated", "all-zero"):
            assert reseeds > 0  # the emptied-cluster re-seed ran


class TestKNN:
    def test_majority_vote(self):
        train = np.arange(5.0).reshape(-1, 1)
        labels = [1, 1, 1, 0, 0]
        pred = knn_assign(train, labels, np.array([[0.0]]), k=5)
        assert pred.tolist() == [1]

    def test_coincident_point_with_k_one(self):
        train = np.array([[0.0], [5.0]])
        pred = knn_assign(train, [1, 0], np.array([[5.0]]), k=1)
        assert pred.tolist() == [0]

    def test_k_equals_n_gives_global_majority(self):
        rng = np.random.default_rng(12)
        train = rng.normal(size=(9, 2))
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0]
        test = rng.normal(size=(4, 2))
        pred = knn_assign(train, labels, test, k=9)
        assert pred.tolist() == [1, 1, 1, 1]

    def test_tied_vote_uses_nearest_neighbor(self):
        train = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = [1, 1, 0, 0]
        pred = knn_assign(train, labels, np.array([[0.5], [10.5]]), k=4)
        assert pred.tolist() == [1, 0]

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        train = rng.normal(size=(25, 3))
        labels = (rng.random(25) < 0.5).astype(int)
        test = rng.normal(size=(8, 3))
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = knn_assign(train, labels, test, k=5)
        b = knn_assign(train @ rot, labels, test @ rot, k=5)
        assert np.array_equal(a, b)

    def test_supervised_baseline_is_same_code_path(self):
        # One routine, two label sources: identical labels, identical output.
        rng = np.random.default_rng(14)
        train = rng.normal(size=(20, 2))
        test = rng.normal(size=(6, 2))
        cluster_labels = (rng.random(20) < 0.5).astype(int)
        unsup = knn_assign(train, cluster_labels, test, k=5)
        sup = knn_assign(train, cluster_labels.copy(), test, k=5)
        assert np.array_equal(unsup, sup)

    def test_k_bounds(self):
        train = np.zeros((3, 2))
        with pytest.raises(ValueError):
            knn_assign(train, [0, 1, 0], np.zeros((1, 2)), k=4)

    def test_labels_must_be_binary(self):
        # A sum-against-k/2 vote would call three neighbours labelled 2 a 1.
        train = np.arange(8.0).reshape(-1, 1)
        with pytest.raises(ValueError, match="train_labels must be 0 or 1"):
            knn_assign(train, [0, 0, 0, 1, 1, 2, 2, 2], np.array([[7.0]]), k=3)

    @pytest.mark.parametrize("name", ["train_emb", "test_emb"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, name, bad):
        points = {"train_emb": np.arange(8.0).reshape(4, 2), "test_emb": np.zeros((2, 2))}
        points[name][1, 0] = bad
        with pytest.raises(ValueError, match=f"{name} holds non-finite points"):
            knn_assign(points["train_emb"], [0, 1, 0, 1], points["test_emb"], k=3)

    def test_matches_stable_sort_oracle_with_tied_distances(self):
        rng = np.random.default_rng(15)
        for trial in range(40):
            train = np.round(rng.normal(size=(30, 2)))  # duplicates tie distances
            test = np.round(rng.normal(size=(12, 2)))
            labels = (rng.random(30) < 0.5).astype(int)
            k = 1 + trial % 7
            assert np.array_equal(knn_assign(train, labels, test, k=k),
                                  knn_oracle(train, labels, test, k))


def knn_oracle(train, labels, test, k):
    """Vote over a full stable sort of the distances."""
    d2 = ((test * test).sum(axis=1)[:, None] + (train * train).sum(axis=1)[None, :]
          - 2.0 * (test @ train.T))
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    votes = labels[order].sum(axis=1)
    pred = np.where(2 * votes > k, 1, 0)
    tie = 2 * votes == k
    pred[tie] = labels[order[tie, 0]]
    return pred


INF = np.inf


class TestNearest:
    @pytest.mark.parametrize("d2", [
        [[1.0, 0.0, 1.0, 0.0, 2.0], [2.0, 2.0, 1.0, 1.0, 0.0]],  # ties
        [[3.0, 3.0, 3.0, 3.0, 3.0], [-1.0, -1.0, -1.0, -1.0, -1.0]],  # constant rows
        [[INF, 1.0, INF, 0.0, INF], [INF, INF, INF, INF, INF]],  # +inf distances
        [[INF, 0.5, INF, 0.5, -0.0], [0.0, INF, 0.0, INF, 0.0]],
    ], ids=["ties", "constant", "inf", "inf-and-ties"])
    def test_matches_stable_argsort(self, d2):
        d2 = np.array(d2)
        want = np.argsort(d2, axis=1, kind="stable")
        for k in range(1, d2.shape[1] + 1):
            got = _nearest(d2.copy(), k)
            assert np.array_equal(got, want[:, :k]), k
            assert all(len(set(row)) == k for row in got.tolist())  # no neighbour twice

    def test_random_rows_with_ties_and_inf(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            d2 = rng.integers(0, 4, size=(6, 9)).astype(float)
            d2[rng.random(d2.shape) < 0.3] = INF
            k = int(rng.integers(1, 10))
            want = np.argsort(d2, axis=1, kind="stable")[:, :k]
            assert np.array_equal(_nearest(d2, k), want)

    def test_nan_ranks_as_largest_finite_float(self):
        big = np.finfo(float).max
        d2 = np.array([[np.nan, 1.0, INF, 0.0, big], [INF, np.nan, 2.0, np.nan, INF]])
        want = np.argsort(np.fmin(d2, big), axis=1, kind="stable")
        for k in range(1, 6):
            got = _nearest(d2.copy(), k)
            assert np.array_equal(got, want[:, :k]), k
            assert all(len(set(row)) == k for row in got.tolist())



class TestManualFeatures:
    def test_mean_max_min_per_attribute(self):
        sample = MTSample("p", np.array([[1.0, 2.0, 3.0]]), np.ones((1, 3)))
        other = MTSample("q", np.array([[5.0, 5.0, 5.0]]), np.ones((1, 3)))
        cohort = Cohort([sample, other], ["a"], 3)
        feats = manual_features(cohort)
        assert feats[0].tolist() == [2.0, 3.0, 1.0]
        assert feats[1].tolist() == [5.0, 5.0, 5.0]

    def test_eleven_attributes_give_33_features(self):
        cohort = generate_synthetic_cohort(3, 3, 11, 8, 1.0, seed=0)
        assert manual_features(cohort).shape == (6, 33)

    def test_incomplete_cohort_rejected(self):
        mask = np.ones((2, 4))
        mask[0, 0] = 0.0
        s = MTSample("p", np.zeros((2, 4)), mask)
        cohort = Cohort([s], ["a", "b"], 4)
        with pytest.raises(ValueError, match="^manual kernel requires complete inputs; "
                                             "impute sample 'p' first$"):
            manual_features(cohort)


class TestDumpEmbedding:
    def test_surrogate_id_refused_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "embedding.csv"
        with pytest.raises(ValueError, match=r"^id 'b\\ud800' holds a surrogate and has no "
                                             "UTF-8 form$"):
            dump_embedding(path, Embedding(np.zeros((2, 2)), ["a", "b\ud800"]), [0, 1], [0, 1])
        assert not path.exists()
