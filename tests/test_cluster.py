import numpy as np
import pytest

from mtsk.cluster import (
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
        with pytest.raises(ValueError, match="complete"):
            manual_features(cohort)
