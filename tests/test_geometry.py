import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recloud.geometry import (AffineTransform, Neighborhood, _sqdist_to, affine_apply,
                              as_cloud, compose, denormalize_patches, farthest_point_sample,
                              knn, normalize_patches, patchify)

from oracles import fps_oracle, knn_oracle


def random_cloud(rng, w):
    return rng.standard_normal((w, 3))


class TestCloudValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            as_cloud(np.zeros((4, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_cloud(np.zeros((0, 3)))

    def test_rejects_nonfinite(self):
        pts = np.zeros((3, 3))
        pts[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            as_cloud(pts)


class TestAffineApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        pts = random_cloud(rng, 32)
        out = affine_apply(pts, AffineTransform.identity())
        np.testing.assert_array_equal(out, pts)

    def test_rotation_90_about_z(self):
        m = np.zeros((3, 4))
        m[0, 1] = -1.0
        m[1, 0] = 1.0
        m[2, 2] = 1.0
        out = affine_apply(np.array([[1.0, 0.0, 0.0]]), AffineTransform(m))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-15)

    def test_pure_translation(self):
        m = np.hstack([np.eye(3), np.array([[1.0], [2.0], [3.0]])])
        out = affine_apply(np.array([[0.0, 0.0, 0.0]]), AffineTransform(m))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_count_preserved(self):
        rng = np.random.default_rng(1)
        pts = random_cloud(rng, 77)
        out = affine_apply(pts, AffineTransform(rng.standard_normal((3, 4))))
        assert out.shape == (77, 3)

    def test_overflow_rejected(self):
        m = np.hstack([np.eye(3) * 1e308, np.zeros((3, 1))])
        with pytest.raises(ValueError, match="non-finite"):
            affine_apply(np.full((2, 3), 1e10), AffineTransform(m))

    def test_composition_matches_matrix_product(self):
        # applying t1 then t2 equals the single composed transform
        rng = np.random.default_rng(2)
        for _ in range(200):
            t1 = AffineTransform(rng.uniform(-2, 2, size=(3, 4)))
            t2 = AffineTransform(rng.uniform(-2, 2, size=(3, 4)))
            pts = random_cloud(rng, 16)
            two_step = affine_apply(affine_apply(pts, t1), t2)
            one_step = affine_apply(pts, compose(t2, t1))
            np.testing.assert_allclose(one_step, two_step, rtol=1e-9, atol=1e-12)


class TestSqdistTo:
    def test_equals_summed_squares_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            pts = random_cloud(rng, int(rng.integers(1, 500))) * rng.uniform(0.01, 100.0)
            cols = np.ascontiguousarray(pts.T)
            one = rng.standard_normal(3)
            many = rng.standard_normal((int(rng.integers(1, 9)), 3))
            for q in (one, many, pts[0], pts[:3]):
                want = np.sum((pts - q[..., None, :]) ** 2, axis=-1)
                got = _sqdist_to(cols, q)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # leading batch axes: (2, 3, w) points against (2, n, 3) queries
            batch = np.stack([pts, pts[::-1]])
            queries = np.stack([many, many[::-1]])
            want = np.sum((batch[:, None, :, :] - queries[:, :, None, :]) ** 2, axis=-1)
            got = _sqdist_to(np.ascontiguousarray(np.swapaxes(batch, -1, -2)), queries)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFarthestPointSample:
    def test_three_point_line(self):
        # seed 11 starts at index 0; the farthest point from 0 is index 2
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [10, 0, 0]])
        idx = farthest_point_sample(pts, 2, np.random.default_rng(11))
        assert idx.tolist() == [0, 2]

    def test_n_equals_w_is_permutation(self):
        rng = np.random.default_rng(3)
        pts = random_cloud(rng, 17)
        idx = farthest_point_sample(pts, 17, rng)
        assert sorted(idx.tolist()) == list(range(17))

    def test_n_one_returns_seeded_start(self):
        pts = random_cloud(np.random.default_rng(4), 9)
        idx = farthest_point_sample(pts, 1, np.random.default_rng(5))
        start = int(np.random.default_rng(5).integers(9))
        assert idx.tolist() == [start]

    def test_errors(self):
        pts = random_cloud(np.random.default_rng(6), 5)
        with pytest.raises(ValueError):
            farthest_point_sample(pts, 6, np.random.default_rng(0))
        with pytest.raises(ValueError):
            farthest_point_sample(pts, 0, np.random.default_rng(0))

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            w = int(rng.integers(2, 40))
            n = int(rng.integers(1, w + 1))
            pts = random_cloud(rng, w)
            got = farthest_point_sample(pts, n, np.random.default_rng(trial))
            expected = fps_oracle(pts, n, start=int(got[0]))
            assert got.tolist() == expected

    def test_duplicate_points_never_reselected(self):
        pts = np.zeros((6, 3))  # all identical
        idx = farthest_point_sample(pts, 6, np.random.default_rng(8))
        assert sorted(idx.tolist()) == list(range(6))


class TestKnn:
    def test_query_on_cloud_point(self):
        pts = random_cloud(np.random.default_rng(9), 12)
        hood = knn(pts, pts[5], 1)
        assert hood.indices.tolist() == [5]
        assert hood.sq_distances[0] == 0.0

    def test_collinear(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        hood = knn(pts, [0.0, 0, 0], 2)
        assert hood.indices.tolist() == [0, 1]

    def test_k_equals_w(self):
        rng = np.random.default_rng(10)
        pts = random_cloud(rng, 8)
        q = rng.standard_normal(3)
        hood = knn(pts, q, 8)
        assert hood.indices.tolist() == knn_oracle(pts, q, 8)

    def test_errors(self):
        pts = random_cloud(np.random.default_rng(11), 4)
        with pytest.raises(ValueError):
            knn(pts, [0, 0, 0], 5)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            w = int(rng.integers(2, 30))
            # quantized coordinates force distance ties
            pts = np.round(rng.standard_normal((w, 3)) * 2) / 2
            q = np.round(rng.standard_normal(3) * 2) / 2
            k = int(rng.integers(1, w + 1))
            hood = knn(pts, q, k)
            assert hood.indices.tolist() == knn_oracle(pts, q, k)
            assert np.all(np.diff(hood.sq_distances) >= 0)

    def test_neighborhood_invariants_enforced(self):
        with pytest.raises(ValueError, match="distinct"):
            Neighborhood(np.array([1, 1]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="non-decreasing"):
            Neighborhood(np.array([1, 2]), np.array([1.0, 0.0]))

    def test_neighborhood_invariants_enforced_per_row(self):
        good_d = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
        Neighborhood(np.array([[0, 1, 2], [2, 1, 0]]), good_d)
        with pytest.raises(ValueError, match="distinct"):
            Neighborhood(np.array([[0, 1, 2], [3, 1, 3]]), good_d)
        with pytest.raises(ValueError, match="non-decreasing"):
            Neighborhood(np.array([[0, 1, 2], [2, 1, 0]]),
                         np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.5]]))


class TestBatchedKnn:
    @staticmethod
    def check_rows(pts, queries, k):
        hood = knn(pts, queries, k)
        assert hood.indices.shape == hood.sq_distances.shape == (len(queries), k)
        for row, q in zip(hood.indices, queries):
            assert row.tolist() == knn_oracle(pts, q, k)

    def test_rows_match_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            w = int(rng.integers(1, 40))
            pts = random_cloud(rng, w)
            queries = np.concatenate([pts[rng.integers(w, size=3)], random_cloud(rng, 4)])
            self.check_rows(pts, queries, int(rng.integers(1, w + 1)))

    def test_rows_match_oracle_with_duplicate_points(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            base = random_cloud(rng, int(rng.integers(1, 8)))
            pts = base[rng.integers(len(base), size=int(rng.integers(2, 30)))]
            self.check_rows(pts, pts[:5], int(rng.integers(1, len(pts) + 1)))

    def test_rows_match_oracle_on_integer_grid(self):
        # many points share each distance from a grid query
        axis = np.arange(-2.0, 3.0)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        queries = np.concatenate([pts[::7], [[0.5, 0.5, 0.5], [0.0, 0.0, 0.5]]])
        for k in (1, 6, 7, 19, 27, 50, len(pts)):
            self.check_rows(pts, queries, k)

    def test_single_query_shapes(self):
        pts = random_cloud(np.random.default_rng(32), 10)
        assert knn(pts, pts[3], 4).indices.shape == (4,)
        assert knn(pts, pts[3:4], 4).indices.shape == (1, 4)
        assert knn(pts, pts[3], 4).indices.tolist() == knn(pts, pts[3:4], 4).indices[0].tolist()

    def test_bad_query_shape_rejected(self):
        pts = random_cloud(np.random.default_rng(33), 10)
        for bad in (np.zeros(2), np.zeros((4, 2)), np.zeros((2, 2, 3)), 0.0):
            with pytest.raises(ValueError, match="query"):
                knn(pts, bad, 3)


class TestPatchify:
    def test_single_patch_whole_cloud(self):
        rng = np.random.default_rng(13)
        pts = random_cloud(rng, 10)
        ps = patchify(pts, 1, 10, rng)
        assert ps.patches.shape == (1, 10, 3)
        assert sorted(ps.indices[0].tolist()) == list(range(10))

    def test_collinear_pairs(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        ps = patchify(pts, 2, 2, np.random.default_rng(0))
        for i in range(2):
            center_idx = int(ps.indices[i][0])
            assert ps.indices[i].tolist() == knn_oracle(pts, pts[center_idx], 2)

    def test_shape_contract(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            w = int(rng.integers(8, 40))
            n = int(rng.integers(1, w + 1))
            k = int(rng.integers(1, w + 1))
            ps = patchify(random_cloud(rng, w), n, k, rng)
            assert ps.patches.shape == (n, k, 3)
            assert ps.centers.shape == (n, 3)
            assert not ps.normalized

    def test_membership_against_oracle(self):
        rng = np.random.default_rng(15)
        pts = random_cloud(rng, 50)
        ps = patchify(pts, 6, 7, rng)
        for i in range(6):
            assert ps.indices[i].tolist() == knn_oracle(pts, ps.centers[i], 7)
            np.testing.assert_array_equal(ps.patches[i], pts[ps.indices[i]])


class TestPatchNormalization:
    def test_round_trip(self):
        rng = np.random.default_rng(16)
        ps = patchify(random_cloud(rng, 30), 4, 5, rng)
        back = denormalize_patches(normalize_patches(ps))
        np.testing.assert_allclose(back.patches, ps.patches, atol=1e-12)
        assert not back.normalized

    def test_center_maps_to_origin(self):
        rng = np.random.default_rng(17)
        ps = normalize_patches(patchify(random_cloud(rng, 20), 3, 4, rng))
        for i in range(3):
            # the center is its own nearest neighbor: first patch point is 0
            np.testing.assert_allclose(ps.patches[i, 0], np.zeros(3), atol=1e-15)

    def test_single_point_patch(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        ps = normalize_patches(patchify(pts, 1, 1, np.random.default_rng(0)))
        np.testing.assert_array_equal(ps.patches, np.zeros((1, 1, 3)))

    def test_double_normalize_rejected(self):
        rng = np.random.default_rng(18)
        ps = patchify(random_cloud(rng, 10), 2, 3, rng)
        with pytest.raises(ValueError):
            normalize_patches(normalize_patches(ps))
        with pytest.raises(ValueError):
            denormalize_patches(ps)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=10**6))
def test_fps_oracle_equivalence_property(w, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((w, 3))
    n = int(rng.integers(1, w + 1))
    got = farthest_point_sample(pts, n, np.random.default_rng(seed))
    assert got.tolist() == fps_oracle(pts, n, start=int(got[0]))
