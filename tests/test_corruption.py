import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recloud.corruption import (DegenerateMaskError, MaskPlan, mask_fixed_clusters,
                                mask_patches, mask_random_clusters, mask_view_occlusion,
                                sample_affine)
from recloud.geometry import affine_apply
from recloud.losses import chamfer
from recloud.trainer import TrainConfig

from oracles import replay_cluster_mask, view_occlusion_oracle


def degenerate_cfg():
    """All magnitudes collapsed to zero effect: sampling yields the identity."""
    return TrainConfig(affine_rotate="0:0", affine_translate="0:0", affine_reflect=0.0,
                       affine_shear="0:0", affine_scale="1:1")


class TestAffineConfig:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(affine_scale="0:1")

    def test_ranges_well_ordered(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            TrainConfig(affine_rotate="1:-1")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            TrainConfig(affine_families="warp")

    @pytest.mark.parametrize("field,value", [
        ("affine_translate", "0.2:-0.2"), ("affine_shear", "0.1:0"), ("affine_scale", "1.5:1")])
    def test_every_range_well_ordered(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a range with lo <= hi"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_reflect_is_a_probability(self, value):
        with pytest.raises(ValueError, match=r"affine_reflect must be in \[0, 1\]"):
            TrainConfig(affine_reflect=value)

    def test_boundary_values_accepted(self):
        TrainConfig(affine_rotate="1:1", affine_scale="1e-9:1e-9", affine_reflect=1.0)
        TrainConfig(affine_reflect=0.0, affine_families="none")


class TestSampleAffine:
    def test_degenerate_spec_gives_identity(self):
        t = sample_affine(degenerate_cfg(), np.random.default_rng(0))
        assert t.shape == (3, 4) and t.dtype == np.float64
        np.testing.assert_array_equal(t, np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_empty_enabled_gives_identity(self):
        t = sample_affine(TrainConfig(affine_families="none"), np.random.default_rng(1))
        np.testing.assert_array_equal(t, np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_single_reflection_has_negative_determinant(self):
        cfg = TrainConfig(affine_reflect=1.0, affine_families="reflect")
        t = sample_affine(cfg, np.random.default_rng(2))
        assert np.linalg.det(t[:, :3]) == -1.0

    def test_determinism(self):
        cfg = TrainConfig()
        a = sample_affine(cfg, np.random.default_rng(42))
        b = sample_affine(cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_matrix_equals_explicit_component_product(self):
        # re-deriving the component matrices from the same stream must
        # reproduce the composed matrix
        from recloud.corruption import COMPOSITION_ORDER, _family_matrix

        cfg = TrainConfig()
        for seed in range(50):
            t = sample_affine(cfg, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            h = np.eye(4)
            for family in COMPOSITION_ORDER:
                h = _family_matrix(family, cfg, rng) @ h
            np.testing.assert_allclose(t, h[:3, :], atol=1e-12)

    def test_identity_spec_keeps_chamfer_zero(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((32, 3))
        t = sample_affine(degenerate_cfg(), rng)
        assert float(chamfer(pts, affine_apply(pts[None], t[None])[0]).data) == 0.0


def check_plan(plan: MaskPlan, total: int, expected_masked: int):
    assert len(plan.masked) == expected_masked
    assert plan.total_count == total
    assert sum(plan.cluster_sizes) == expected_masked
    assert all(s > 0 for s in plan.cluster_sizes)
    assert len(np.unique(plan.masked)) == len(plan.masked)
    assert np.array_equal(np.union1d(plan.masked, plan.visible), np.arange(total))


class TestMaskRandomClusters:
    def test_collinear_masked_set(self):
        # seed 74 draws one cluster centered at index 7
        cloud = np.array([[float(i), 0, 0] for i in range(8)])
        plan, visible = mask_random_clusters(cloud, 0.5, np.random.default_rng(74))
        assert len(plan.cluster_sizes) == 1 and plan.cluster_centers == (7,)
        assert plan.masked.tolist() == [4, 5, 6, 7]
        assert visible.shape == (4, 3)

    def test_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = int(rng.integers(4, 200))
            ratio = float(rng.uniform(0.05, 0.95))
            budget = int(np.floor(ratio * w))
            if not 1 <= budget < w:
                continue
            plan, visible = mask_random_clusters(rng.standard_normal((w, 3)), ratio, rng)
            check_plan(plan, w, budget)
            assert len(visible) == w - budget

    def test_cluster_membership_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = int(rng.integers(16, 128))
            pts = rng.standard_normal((w, 3))
            plan, _ = mask_random_clusters(pts, 0.4, rng)
            expected = replay_cluster_mask(pts, plan.cluster_centers, plan.cluster_sizes)
            assert plan.masked.tolist() == expected

    def test_kappa_equals_budget_gives_singletons(self):
        # with max_clusters >= budget, seeds exist where every cluster is size 1
        cloud = np.random.default_rng(7).standard_normal((10, 3))
        for seed in range(200):
            plan, _ = mask_random_clusters(cloud, 0.3, np.random.default_rng(seed),
                                           max_clusters=8)
            if len(plan.cluster_sizes) == len(plan.masked):
                assert plan.cluster_sizes == (1,) * len(plan.masked)
                return
        pytest.fail("no seed produced kappa == budget")

    def test_degenerate_ratios(self):
        cloud = np.random.default_rng(8).standard_normal((10, 3))
        with pytest.raises(DegenerateMaskError, match="empty"):
            mask_random_clusters(cloud, 0.05, np.random.default_rng(0))
        with pytest.raises(DegenerateMaskError, match="consume all"):
            mask_random_clusters(cloud, 1.0, np.random.default_rng(0))


class TestMaskFixedClusters:
    def test_even_split(self):
        cloud = np.random.default_rng(9).standard_normal((12, 3))
        plan, _ = mask_fixed_clusters(cloud, 0.5, 3, np.random.default_rng(0))
        assert plan.cluster_sizes == (3, 3)

    def test_truncated_last(self):
        cloud = np.random.default_rng(10).standard_normal((10, 3))
        plan, _ = mask_fixed_clusters(cloud, 0.7, 3, np.random.default_rng(0))
        assert plan.cluster_sizes == (3, 3, 1)

    def test_visible_count(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            w = int(rng.integers(6, 150))
            ratio = float(rng.uniform(0.1, 0.9))
            budget = int(np.floor(ratio * w))
            if not 1 <= budget < w:
                continue
            plan, visible = mask_fixed_clusters(rng.standard_normal((w, 3)), ratio, 4, rng)
            check_plan(plan, w, budget)
            assert len(visible) == w - budget

    def test_membership_oracle(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((60, 3))
        plan, _ = mask_fixed_clusters(pts, 0.5, 7, rng)
        assert plan.masked.tolist() == replay_cluster_mask(
            pts, plan.cluster_centers, plan.cluster_sizes)


class TestMaskViewOcclusion:
    def test_stacked_points_drop_farther(self):
        # two points on a line: whichever is farther along the drawn view
        # direction must be the masked one
        cloud = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            view = rng.standard_normal(3)
            view /= np.linalg.norm(view)
            plan, _ = mask_view_occlusion(cloud, 0.5, np.random.default_rng(seed))
            farther = int(np.argmax(cloud @ view))
            assert plan.masked.tolist() == [farther]

    def test_exact_count(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            w = int(rng.integers(4, 300))
            ratio = float(rng.uniform(0.1, 0.9))
            budget = int(np.floor(ratio * w))
            if not 1 <= budget < w:
                continue
            plan, visible = mask_view_occlusion(rng.standard_normal((w, 3)), ratio, rng)
            check_plan(plan, w, budget)
            assert len(visible) == w - budget

    def test_reversed_view_swaps_two_point_case(self):
        cloud = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        outcomes = set()
        for seed in range(40):
            plan, _ = mask_view_occlusion(cloud, 0.5, np.random.default_rng(seed))
            outcomes.add(int(plan.masked[0]))
        assert outcomes == {0, 1}  # both orientations occur across draws

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((40, 3))
        grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        clouds = [rng.standard_normal((int(w), 3)) for w in rng.integers(5, 200, 6)]
        clouds += [np.concatenate([base, base[:25], base[:10]]),  # duplicate points
                   grid, grid[:, [0, 1, 1]]]  # integer grid; a flat one stacks points
        for cloud in clouds:
            for ratio in (0.3, 0.6, 0.9):
                for seed in range(4):
                    plan, _ = mask_view_occlusion(cloud, ratio, np.random.default_rng(seed))
                    expected = view_occlusion_oracle(cloud, ratio, np.random.default_rng(seed))
                    assert plan.masked.tolist() == expected


class TestMaskPatches:
    def test_counts(self):
        plan = mask_patches(10, 0.6, np.random.default_rng(0))
        assert len(plan.masked) == 6 and len(plan.visible) == 4

    def test_64_patches(self):
        plan = mask_patches(64, 0.6, np.random.default_rng(1))
        assert len(plan.masked) == 38

    def test_partition(self):
        for seed in range(30):
            plan = mask_patches(17, 0.4, np.random.default_rng(seed))
            check_plan(plan, 17, int(np.floor(0.4 * 17)))

    def test_degenerate(self):
        with pytest.raises(DegenerateMaskError):
            mask_patches(3, 0.1, np.random.default_rng(0))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=4, max_value=256),
       st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=0, max_value=10**6))
def test_mask_contract_property(w, ratio, seed):
    budget = int(np.floor(ratio * w))
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((w, 3))
    if not 1 <= budget < w:
        with pytest.raises(DegenerateMaskError):
            mask_random_clusters(pts, ratio, rng)
        return
    plan, visible = mask_random_clusters(pts, ratio, rng)
    check_plan(plan, w, budget)
    assert len(visible) == w - budget
