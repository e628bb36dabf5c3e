import numpy as np
import pytest

from ddjacobi import InvalidOptions, IsolatedVertex, SolveOptions, SolveStatus
from ddjacobi.spectral import (
    PointCloud,
    fiedler_partition,
    gaussian_similarity,
    normalized_laplacian,
)


def two_blobs(rng, per_side=25, sep=8.0, std=0.2):
    a = rng.normal([0.0, 0.0], std, size=(per_side, 2))
    b = rng.normal([sep, 0.0], std, size=(per_side, 2))
    return PointCloud(np.vstack([a, b]))


class TestPointCloud:
    def test_accepts_2d_float_data(self):
        pc = PointCloud([[0.0, 1.0], [2.0, 3.0]])
        assert pc.n == 2
        assert pc.points.dtype == np.float64

    @pytest.mark.parametrize("bad", [
        np.zeros(4),                 # 1-d
        np.zeros((1, 3)),            # one point
        np.zeros((3, 0)),            # no coordinates
    ])
    def test_shape_validation(self, bad):
        with pytest.raises(ValueError):
            PointCloud(bad)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.nan], [1.0, 2.0]]))


class TestGaussianSimilarity:
    def test_uses_unsquared_distance(self):
        pc = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0]]))  # distance 5
        sigma = 2.0
        W = gaussian_similarity(pc, sigma)
        assert W.a[0, 1] == pytest.approx(np.exp(-5.0 / (2.0 * sigma**2)), rel=1e-15)
        assert W.a[0, 0] == 0.0 and W.a[1, 1] == 0.0

    def test_matches_bruteforce(self, rng):
        pts = rng.standard_normal((17, 3))
        W = gaussian_similarity(PointCloud(pts), 1.3)
        for i in range(17):
            for j in range(17):
                if i == j:
                    continue
                d = np.linalg.norm(pts[i] - pts[j])
                assert W.a[i, j] == pytest.approx(np.exp(-d / (2 * 1.3**2)), rel=1e-12)
        assert np.array_equal(W.a, W.a.T)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_sigma_validation(self, rng, sigma):
        pc = two_blobs(rng, per_side=3)
        with pytest.raises(InvalidOptions):
            gaussian_similarity(pc, sigma)


class TestNormalizedLaplacian:
    def test_path_graph_hand_values(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        L = normalized_laplacian(W)
        assert np.array_equal(L.a, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_unit_diagonal_exact_when_no_self_weight(self, rng):
        pc = two_blobs(rng, per_side=10)
        L = normalized_laplacian(gaussian_similarity(pc, 1.0))
        assert np.all(L.a.diagonal() == 1.0)

    def test_self_weights_shrink_diagonal(self):
        W = np.array([[0.5, 1.0], [1.0, 0.0]])
        L = normalized_laplacian(W)
        # degree(0) = 1.5, so L_00 = (1.5 - 0.5)/1.5
        assert L.a[0, 0] == pytest.approx(1.0 / 1.5, rel=1e-15)
        assert L.a[1, 1] == 1.0

    def test_constant_vector_in_kernel(self, rng):
        a = rng.uniform(0.0, 1.0, size=(12, 12))
        W = a.T @ a  # nonnegative, symmetric, with self-weights
        L = normalized_laplacian(W)
        v = np.sqrt(W.sum(axis=1))
        assert np.linalg.norm(L.a @ v) <= 1e-12 * np.linalg.norm(v)
        w = np.linalg.eigvalsh(L.a)
        assert w[0] >= -1e-12  # positive semidefinite

    def test_isolated_vertex(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(IsolatedVertex) as exc:
            normalized_laplacian(W)
        assert exc.value.position == 3

    def test_negative_weights_rejected(self):
        W = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(ValueError):
            normalized_laplacian(W)


class TestFiedlerPartition:
    def test_separated_blobs_split_cleanly(self, rng):
        pc = two_blobs(rng, per_side=10)
        L = normalized_laplacian(gaussian_similarity(pc, 1.0))
        res = fiedler_partition(L)
        assert res.solve_status is SolveStatus.CONVERGED
        assert set(res.labels[:10]) != set(res.labels[10:])
        assert len(set(res.labels[:10])) == 1 and len(set(res.labels[10:])) == 1
        # second-smallest eigenvalue of L
        w = np.linalg.eigvalsh(L.a)
        assert res.lambda2 == pytest.approx(w[1], abs=1e-9 * np.linalg.norm(L.a))

    def test_labels_follow_fiedler_signs(self, rng):
        pc = two_blobs(rng, per_side=6)
        res = fiedler_partition(normalized_laplacian(gaussian_similarity(pc, 1.0)))
        assert np.array_equal(res.labels, np.where(res.fiedler < 0, 0, 1))
        assert res.history  # sweeps recorded for plotting

    def test_rank_and_vector_are_forced(self, rng):
        pc = two_blobs(rng, per_side=5)
        L = normalized_laplacian(gaussian_similarity(pc, 1.0))
        res = fiedler_partition(L, SolveOptions(m=7, want_vector=False))
        w = np.linalg.eigvalsh(L.a)
        assert res.lambda2 == pytest.approx(w[1], abs=1e-9)
        assert res.fiedler is not None

    def test_complete_graph_still_labels(self):
        # K3: lambda = 3/2 twice; the partition is arbitrary but well-formed
        W = np.ones((3, 3)) - np.eye(3)
        res = fiedler_partition(normalized_laplacian(W))
        assert res.lambda2 == pytest.approx(1.5, abs=1e-9)
        assert res.labels.shape == (3,)
        assert set(res.labels) <= {0, 1}
