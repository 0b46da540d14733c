import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recloud.geometry import (_sqdist_to, affine_apply, as_cloud, denormalize_patches, farthest_point_sample,
                              knn, normalize_patches, patchify)

from oracles import fps_oracle, knn_oracle, sqdist


def random_cloud(rng, w):
    return rng.standard_normal((w, 3))


def assert_knn_rows(pts, queries, rows):
    """Each ``knn`` row holds distinct indices in non-decreasing distance,
    the lowest index first among equal distances, and is the oracle's; the
    distances are computed here, not taken from ``knn``."""
    assert rows.dtype == np.int64 and len(rows) == len(queries)
    for row, q in zip(rows.tolist(), queries):
        assert len(set(row)) == len(row)
        keys = [(sqdist(pts[i], q), i) for i in row]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # by distance, then index
        assert row == knn_oracle(pts, q, len(row))


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
    """``affine_apply`` moves each cloud of a batch by its own ``(3, 4)`` map;
    a single cloud is a batch of one."""

    def test_identity(self):
        rng = np.random.default_rng(0)
        pts = random_cloud(rng, 32)
        out = affine_apply(pts[None], np.eye(3, 4)[None])
        np.testing.assert_array_equal(out[0], pts)

    def test_rotation_90_about_z(self):
        m = np.zeros((3, 4))
        m[0, 1] = -1.0
        m[1, 0] = 1.0
        m[2, 2] = 1.0
        out = affine_apply(np.array([[[1.0, 0.0, 0.0]]]), m[None])
        np.testing.assert_allclose(out[0], [[0.0, 1.0, 0.0]], atol=1e-15)

    def test_pure_translation(self):
        m = np.hstack([np.eye(3), np.array([[1.0], [2.0], [3.0]])])
        out = affine_apply(np.array([[[0.0, 0.0, 0.0]]]), m[None])
        np.testing.assert_array_equal(out[0], [[1.0, 2.0, 3.0]])

    def test_count_preserved(self):
        rng = np.random.default_rng(1)
        pts = random_cloud(rng, 77)
        out = affine_apply(pts[None], rng.standard_normal((1, 3, 4)))
        assert out.shape == (1, 77, 3)

    def test_overflow_rejected(self):
        m = np.hstack([np.eye(3) * 1e308, np.zeros((3, 1))])
        pts = np.zeros((3, 2, 3))
        pts[2, 1] = 1e10
        with pytest.raises(ValueError, match=r"non-finite coordinates \(first bad point: "
                                             r"cloud 2, point 1;"):
            affine_apply(pts, np.stack([np.eye(3, 4), np.eye(3, 4), m]))

    def test_composition_matches_matrix_product(self):
        # applying t1 then t2 equals the single composed transform
        rng = np.random.default_rng(2)
        for _ in range(200):
            t1 = rng.uniform(-2, 2, size=(1, 3, 4))
            t2 = rng.uniform(-2, 2, size=(1, 3, 4))
            pts = random_cloud(rng, 16)[None]
            two_step = affine_apply(affine_apply(pts, t1), t2)
            h1, h2 = np.eye(4), np.eye(4)
            h1[:3], h2[:3] = t1[0], t2[0]
            one_step = affine_apply(pts, (h2 @ h1)[None, :3])
            np.testing.assert_allclose(one_step, two_step, rtol=1e-9, atol=1e-12)

    def test_batch_equals_each_clouds_own_product_bit_for_bit(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((3, 5, 4, 3)) * 7.0
        maps = rng.standard_normal((3, 3, 4))
        out = affine_apply(pts, maps)
        assert out.shape == pts.shape and out.dtype == np.float64
        for b in range(3):
            want = pts[b] @ maps[b, :, :3].T + maps[b, :, 3]
            assert out[b].tobytes() == want.tobytes()

    @pytest.mark.parametrize("points,maps", [
        (np.zeros((2, 6, 2)), np.zeros((2, 3, 4))),  # (B, w, 2): not reshaped to (B, -1, 3)
        (np.zeros((2, 5, 3)), np.zeros((1, 3, 4))),  # B - 1 maps
        (np.zeros((5, 3)), np.zeros((1, 3, 4))),  # a cloud without its batch axis
        (np.zeros((1, 5, 3)), np.zeros((1, 4, 4))),  # not a (3, 4) map
    ], ids=["two-coordinates", "one-map-short", "unbatched", "square-map"])
    def test_shape_mismatch_rejected(self, points, maps):
        with pytest.raises(ValueError, match="must have shape"):
            affine_apply(points, maps)

    def test_non_finite_input_rejected(self):
        pts = np.zeros((2, 4, 3))
        pts[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="point cloud contains non-finite"):
            affine_apply(pts, np.stack([np.eye(3, 4)] * 2))


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
        idx = knn(pts, pts[5], 1)
        assert idx.dtype == np.int64 and idx.tolist() == [5]
        assert sqdist(pts[idx[0]], pts[5]) == 0.0

    def test_collinear(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        assert knn(pts, [0.0, 0, 0], 2).tolist() == [0, 1]

    def test_k_equals_w(self):
        rng = np.random.default_rng(10)
        pts = random_cloud(rng, 8)
        q = rng.standard_normal(3)
        assert knn(pts, q, 8).tolist() == knn_oracle(pts, q, 8)

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
            assert_knn_rows(pts, [q], knn(pts, q, k)[None])


class TestBatchedKnn:
    @staticmethod
    def check_rows(pts, queries, k):
        rows = knn(pts, queries, k)
        assert rows.shape == (len(queries), k)
        assert_knn_rows(pts, queries, rows)

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

    def test_rows_with_surplus_ties_match_oracle(self):
        # rounded clouds and clouds of repeated points put more points at a
        # row's k-th distance than the row has places left, so only the
        # lowest-index ones may be kept
        rng = np.random.default_rng(34)
        surplus_rows = 0
        for trial in range(16):
            if trial % 2:
                base = random_cloud(rng, 10)
                pts = base[rng.integers(10, size=120)]
            else:
                pts = np.round(rng.standard_normal((120, 3)) * 2) / 2
            queries = np.concatenate([pts[rng.integers(len(pts), size=5)],
                                      np.round(random_cloud(rng, 3) * 2) / 2])
            k = int(rng.integers(2, 40))
            rows = knn(pts, queries, k)
            assert_knn_rows(pts, queries, rows)
            for row, q in zip(rows, queries):
                kth = sqdist(pts[row[-1]], q)
                surplus_rows += sum(sqdist(p, q) <= kth for p in pts) > k
        assert surplus_rows > 20

    def test_single_query_shapes(self):
        pts = random_cloud(np.random.default_rng(32), 10)
        assert knn(pts, pts[3], 4).shape == (4,)
        assert knn(pts, pts[3:4], 4).shape == (1, 4)
        assert knn(pts, pts[3], 4).tolist() == knn(pts, pts[3:4], 4)[0].tolist()
        assert knn(pts[None], pts[None, 3:5], 4).shape == (1, 2, 4)

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
        assert ps.patches[0].tobytes() == pts[knn_oracle(pts, ps.centers[0], 10)].tobytes()

    def test_collinear_pairs(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        ps = patchify(pts, 2, 2, np.random.default_rng(0))
        for i in range(2):
            assert ps.patches[i].tobytes() == pts[knn_oracle(pts, ps.centers[i], 2)].tobytes()

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
            assert ps.patches[i].tobytes() == pts[knn_oracle(pts, ps.centers[i], 7)].tobytes()


def cloud_batch(rng, kind: str, b: int, w: int) -> np.ndarray:
    """``b`` clouds of ``w`` points: random, with duplicated points, or on an
    integer grid, whose distances tie exactly."""
    if kind == "random":
        return rng.standard_normal((b, w, 3))
    if kind == "duplicates":
        base = rng.standard_normal((b, w // 3, 3))
        return np.take_along_axis(base, rng.integers(0, w // 3, (b, w, 1)), axis=1)
    return rng.integers(-2, 3, (b, w, 3)).astype(float)


KINDS = ["random", "duplicates", "grid"]


def distinct_start_seeds(b: int, w: int) -> list[int]:
    """Seeds of ``b`` generators whose first draw, the FPS start, differs."""
    seeds, starts = [], set()
    for seed in range(100):
        start = int(np.random.default_rng(seed).integers(w))
        if start not in starts:
            seeds.append(seed)
            starts.add(start)
        if len(seeds) == b:
            return seeds
    raise AssertionError("no distinct starts")


class TestBatchedGrouping:
    """A (B, w, 3) batch, one generator per cloud, is grouped as each cloud
    alone, and each cloud as the oracles say."""

    W, N, K = 27, 7, 5

    @pytest.mark.parametrize("b", [1, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_patchify_batch_equals_the_oracles_per_cloud(self, b, kind):
        clouds = cloud_batch(np.random.default_rng(b * 10 + KINDS.index(kind)), kind, b, self.W)
        seeds = distinct_start_seeds(b, self.W)
        picks = farthest_point_sample(clouds, self.N,
                                      [np.random.default_rng(s) for s in seeds])
        ps = patchify(clouds, self.N, self.K, [np.random.default_rng(s) for s in seeds])
        assert picks.shape == (b, self.N)
        assert ps.centers.shape == (b, self.N, 3) and ps.patches.shape == (b, self.N, self.K, 3)
        for i, (pts, seed) in enumerate(zip(clouds, seeds)):
            start = int(np.random.default_rng(seed).integers(self.W))
            centers = fps_oracle(pts, self.N, start)
            assert picks[i].tolist() == centers
            assert ps.centers[i].tobytes() == pts[centers].tobytes()
            for j, c in enumerate(centers):
                assert ps.patches[i, j].tobytes() == pts[knn_oracle(pts, pts[c], self.K)].tobytes()
            alone = patchify(pts, self.N, self.K, np.random.default_rng(seed))
            for got, want in ((ps.centers[i], alone.centers), (ps.patches[i], alone.patches)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [None, 1, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_fps_hands_knn_the_centers_distances(self, b, kind, monkeypatch):
        import recloud.geometry as geometry
        clouds = cloud_batch(np.random.default_rng(40 + KINDS.index(kind)), kind, b or 1, self.W)
        seeds = distinct_start_seeds(b or 1, self.W)
        rngs = [np.random.default_rng(s) for s in seeds]
        if b is None:  # one (w, 3) cloud and its generator
            clouds, rngs = clouds[0], rngs[0]
        handed = []

        def spy(points, query, k, sq=None):
            handed.append((query, sq))
            return knn(points, query, k, sq=sq)

        monkeypatch.setattr(geometry, "knn", spy)
        ps = patchify(clouds, self.N, self.K, rngs)
        [(centers, sq)] = handed
        assert centers.tobytes() == ps.centers.tobytes()
        cols = np.ascontiguousarray(np.swapaxes(clouds, -1, -2))
        assert sq.tobytes() == _sqdist_to(cols, centers).tobytes()
        # the patches are the points of knn's own rows, the distances computed again
        idx = knn(clouds, centers, self.K).reshape(b or 1, self.N, self.K)
        want = np.stack([pts[i] for pts, i in zip(clouds.reshape(-1, self.W, 3), idx)])
        assert ps.patches.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_knn_of_a_batch_matches_the_oracle_per_cloud(self, kind):
        rng = np.random.default_rng(45 + KINDS.index(kind))
        clouds = cloud_batch(rng, kind, 3, self.W)
        queries = np.concatenate([clouds[:, rng.integers(self.W, size=4)],
                                  np.round(rng.standard_normal((3, 2, 3)) * 2) / 2], axis=1)
        for k in (1, self.K, self.W):
            rows = knn(clouds, queries, k)
            assert rows.shape == (3, 6, k)
            for pts, q, r in zip(clouds, queries, rows):
                assert_knn_rows(pts, q, r)

    def test_batch_errors(self):
        clouds = cloud_batch(np.random.default_rng(50), "random", 3, 10)
        with pytest.raises(ValueError, match="one generator per cloud"):
            farthest_point_sample(clouds, 4, [np.random.default_rng(0)] * 2)
        with pytest.raises(ValueError, match="rows"):
            farthest_point_sample(clouds, 4, [np.random.default_rng(0)] * 3,
                                  rows=np.empty((3, 4, 9)))
        with pytest.raises(ValueError, match="query"):
            knn(clouds, clouds[0, :2], 3)
        with pytest.raises(ValueError, match="distances"):
            knn(clouds, clouds[:, :2], 3, sq=np.zeros((3, 2, 9)))
        with pytest.raises(ValueError, match="shape"):
            as_cloud(clouds)
        assert as_cloud(clouds, batch=True).shape == (3, 10, 3)


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
