import numpy as np
import pytest

from recloud import autograd as ag
from recloud.autograd import Tensor, backward
from recloud.corruption import mask_patches
from recloud.geometry import PatchSet, normalize_patches, patchify
from recloud.layers import LayerNorm, Linear, SelfAttention, TransformerBlock
from recloud.models import (CloudAutoencoder, FCDecoder, FoldDecoder, GlobalCenterHead,
                            PatchAutoencoder, PatchDecoder, PointNetEncoder, PositionalEmbed,
                            TokenEmbedder, TransformerEncoder, folding_grid)
from recloud.trainer import TrainConfig

from oracles import fold_head_oracle
from test_autograd import mul, total


def rng_():
    return np.random.default_rng(0)


def patch_cfg(**overrides):
    """A small transformer config; the layers below are built in float64."""
    base = dict(encoder="transformer", feature_dim=16, encoder_depth=2, decoder_depth=1,
                num_heads=2, ffn_mult=2, num_patches=8, patch_size=8, pe_hidden=16,
                token_hidden=16, fc_hidden=32, fold_hidden=16)
    return TrainConfig(**{**base, **overrides})


def batch_of_one(ps):
    """``ps`` as a batch of one set."""
    return PatchSet(centers=ps.centers[None], patches=ps.patches[None], normalized=ps.normalized)


class TestConfigs:
    def test_decoder_must_be_shallower(self):
        with pytest.raises(ValueError, match="smaller"):
            PatchAutoencoder(patch_cfg(encoder_depth=2, decoder_depth=2), rng_())

    def test_heads_divide_dim(self):
        with pytest.raises(ValueError, match="divisible"):
            PatchAutoencoder(patch_cfg(feature_dim=30, num_heads=4), rng_())

    def test_pointnet_widths(self):
        with pytest.raises(ValueError):
            PointNetEncoder((4, 8), rng_())


class TestPointNetEncoder:
    def test_permutation_invariance_bitwise(self):
        enc = PointNetEncoder((3, 16, 8), rng_())
        pts = np.random.default_rng(1).standard_normal((40, 3))
        perm = np.random.default_rng(2).permutation(40)
        a = enc(pts[None]).data
        b = enc(pts[perm][None]).data
        np.testing.assert_array_equal(a, b)

    def test_single_point_equals_mlp(self):
        # the float64 input enters in the dtype of the encoder's weights
        enc = PointNetEncoder((3, 16, 8), rng_())
        enc.cast(np.float32)
        pt = np.array([[[0.3, -0.2, 0.9]]])
        from recloud.layers import run_mlp
        direct = run_mlp(enc.layers, Tensor(pt.astype(np.float32))).data[:, 0]
        np.testing.assert_array_equal(enc(pt).data, direct)

    def test_output_dim_independent_of_count(self):
        enc = PointNetEncoder((3, 16, 8), rng_())
        for w in (1, 5, 64):
            assert enc(np.zeros((1, w, 3))).shape == (1, 8)


class TestFreeze:
    def test_frozen_forward_is_equal_and_records_no_graph(self):
        enc = PointNetEncoder((3, 16, 8), rng_())
        pts = np.random.default_rng(3).standard_normal((2, 40, 3))
        want = enc(pts)
        assert want._parents
        enc.freeze()
        got = enc(pts)
        assert got._parents == () and got.data.tobytes() == want.data.tobytes()
        assert all(not p.requires_grad for p in enc.parameters())


class TestTokenEmbedder:
    def _patches(self, n=4, k=6, w=50):
        rng = np.random.default_rng(3)
        return normalize_patches(patchify(rng.standard_normal((w, 3)), n, k, rng))

    def test_within_patch_permutation(self):
        emb = TokenEmbedder(16, 32, rng_())
        ps = self._patches()
        shuffled = ps.patches.copy()
        shuffled[1] = shuffled[1][::-1]
        reordered = PatchSet(centers=ps.centers, patches=shuffled, normalized=True)
        np.testing.assert_array_equal(emb(batch_of_one(ps)).data,
                                      emb(batch_of_one(reordered)).data)

    def test_shape(self):
        emb = TokenEmbedder(16, 32, rng_())
        ps = self._patches(n=5, k=7)
        assert emb(batch_of_one(ps)).shape == (1, 5, 16)

    def test_identical_patches_identical_tokens(self):
        emb = TokenEmbedder(16, 32, rng_())
        patch = np.random.default_rng(4).standard_normal((1, 6, 3))
        two = PatchSet(centers=np.zeros((1, 2, 3)), patches=np.concatenate([patch, patch])[None],
                       normalized=True)
        tokens = emb(two).data[0]
        np.testing.assert_array_equal(tokens[0], tokens[1])

    def test_unnormalized_rejected(self):
        emb = TokenEmbedder(16, 32, rng_())
        rng = np.random.default_rng(5)
        ps = patchify(rng.standard_normal((30, 3)), 3, 4, rng)
        with pytest.raises(ValueError, match="normalized"):
            emb(batch_of_one(ps))


class TestPositionalEmbed:
    def test_zero_init_final_layer(self):
        pe = PositionalEmbed(16, 32, rng_())
        out = pe(np.random.default_rng(6).standard_normal((1, 5, 3)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 5, 16)))

    def test_separate_instances_diverge_after_update(self):
        rng = np.random.default_rng(7)
        a = PositionalEmbed(8, 16, rng)
        b = PositionalEmbed(8, 16, rng)
        # independent update of one instance only
        a.fc2.weight.data = a.fc2.weight.data + 0.1
        centers = np.random.default_rng(8).standard_normal((1, 4, 3))
        assert not np.array_equal(a(centers).data, b(centers).data)

    def test_shape(self):
        pe = PositionalEmbed(16, 32, rng_())
        assert pe(np.zeros((1, 9, 3))).shape == (1, 9, 16)


class TestTransformerEncoder:
    def test_shape_preserved(self):
        enc = TransformerEncoder(16, 3, 4, 2, rng_())
        x = Tensor(np.random.default_rng(9).standard_normal((1, 6, 16)).astype(np.float32))
        pe = Tensor(np.zeros((1, 6, 16), dtype=np.float32))
        assert enc(x, pe).shape == (1, 6, 16)

    def test_depth_zero_is_identity(self):
        enc = TransformerEncoder(16, 0, 4, 2, rng_())
        x = Tensor(np.random.default_rng(10).standard_normal((1, 6, 16)))
        pe = Tensor(np.random.default_rng(11).standard_normal((1, 6, 16)))
        assert enc(x, pe) is x

    def test_permutation_equivariance(self):
        # float64 keeps the reordered reductions at round-off scale
        enc = TransformerEncoder(16, 2, 4, 2, rng_())
        rng = np.random.default_rng(12)
        x = rng.standard_normal((7, 16))
        pe = rng.standard_normal((7, 16))
        perm = rng.permutation(7)
        out = enc(Tensor(x[None]), Tensor(pe[None])).data[0]
        out_perm = enc(Tensor(x[perm][None]), Tensor(pe[perm][None])).data[0]
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


class TestPatchDecoder:
    def test_mask_rows_identical_before_first_block(self):
        dec = PatchDecoder(8, 0, 2, 2, rng_())
        plan = mask_patches(6, 0.6, np.random.default_rng(13))
        encoded = Tensor(np.random.default_rng(14)
                         .standard_normal((1, len(plan.visible), 8)).astype(np.float32))
        seq = dec.assemble(encoded, [plan]).data[0]
        for idx in plan.masked:
            np.testing.assert_array_equal(seq[idx], dec.mask_token.data[0])
        for row, idx in enumerate(plan.visible):
            np.testing.assert_array_equal(seq[idx], encoded.data[0, row])

    def test_single_visible_token(self):
        dec = PatchDecoder(8, 1, 2, 2, rng_())
        plan = mask_patches(5, 0.8, np.random.default_rng(15))
        assert len(plan.visible) == 1
        encoded = Tensor(np.zeros((1, 1, 8), dtype=np.float32))
        pe = Tensor(np.zeros((1, 5, 8), dtype=np.float32))
        assert dec(encoded, pe, [plan]).shape == (1, 4, 8)

    def test_output_order_is_ascending_masked_index(self):
        # with no blocks the output rows are exactly the assembled rows at
        # the (sorted) masked indices
        dec = PatchDecoder(8, 0, 2, 2, rng_())
        plan = mask_patches(7, 0.5, np.random.default_rng(16))
        assert np.all(np.diff(plan.masked) > 0)
        encoded = Tensor(np.random.default_rng(17)
                         .standard_normal((1, len(plan.visible), 8)).astype(np.float32))
        pe = Tensor(np.zeros((1, 7, 8), dtype=np.float32))
        out = dec(encoded, pe, [plan]).data[0]
        seq = dec.assemble(encoded, [plan]).data[0]
        np.testing.assert_array_equal(out, seq[plan.masked])

    def test_inconsistent_plan_rejected(self):
        dec = PatchDecoder(8, 1, 2, 2, rng_())
        plan = mask_patches(6, 0.5, np.random.default_rng(18))
        bad = Tensor(np.zeros((1, 2, 8), dtype=np.float32))  # plan has 3 visible
        with pytest.raises(ValueError, match="visible"):
            dec(bad, Tensor(np.zeros((1, 6, 8), dtype=np.float32)), [plan])


class TestHeads:
    def test_fc_decoder_shapes(self):
        head = FCDecoder(16, 32, 64, rng_())
        assert head(Tensor(np.zeros((1, 16), dtype=np.float32))).shape == (1, 32, 3)

    def test_fc_decoder_nondegenerate(self):
        head = FCDecoder(16, 32, 64, rng_())
        rng = np.random.default_rng(19)
        a = head(Tensor(rng.standard_normal((1, 16)).astype(np.float32))).data
        b = head(Tensor(rng.standard_normal((1, 16)).astype(np.float32))).data
        assert not np.array_equal(a, b)

    def test_fold_decoder_shapes(self):
        head = FoldDecoder(16, 9, 32, rng_())
        feats = Tensor(np.random.default_rng(20).standard_normal((1, 5, 16)).astype(np.float32))
        assert head(feats).shape == (1, 5, 9, 3)

    def test_fold_identical_features_identical_patches(self):
        head = FoldDecoder(16, 8, 32, rng_())
        row = np.random.default_rng(21).standard_normal((1, 16)).astype(np.float32)
        out = head(Tensor(np.concatenate([row, row])[None])).data[0]
        np.testing.assert_array_equal(out[0], out[1])

    def test_fold_grid_k1(self):
        head = FoldDecoder(16, 1, 32, rng_())
        assert head(Tensor(np.zeros((1, 3, 16), dtype=np.float32))).shape == (1, 3, 1, 3)

    @pytest.mark.parametrize("head_cls", [FCDecoder, FoldDecoder])
    def test_heads_map_any_leading_axes_row_by_row(self, head_cls):
        # (B, ..., d) rows to (B, ..., k, 3) sets, each row as if alone
        head = head_cls(16, 5, 32, rng_())
        rows = np.random.default_rng(25).standard_normal((2, 3, 4, 16))
        out = head(Tensor(rows)).data
        assert out.shape == (2, 3, 4, 5, 3)
        for r, c in np.ndindex(3, 4):
            alone = head(Tensor(rows[:, r, c])).data
            assert alone.shape == (2, 5, 3)
            np.testing.assert_allclose(out[:, r, c], alone, rtol=1e-12, atol=1e-12)

    # patch-dae's local head: 38 masked tokens (or one pooled row) per sample
    # of 4, 128-wide, folded onto 32 seeds through 64 hidden units. Measured
    # worst |got - ref| / max|ref| over output and gradients: 4.3e-15 in
    # float64, 2.5e-6 in float32
    FOLD_TOL = {np.float32: 1e-5, np.float64: 1e-12}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(4, 38), (4,)], ids=["per-token", "pooled"])
    def test_fold_head_matches_the_dense_reference(self, dtype, lead):
        rng = np.random.default_rng(26)
        head = FoldDecoder(128, 32, 64, rng)
        head.cast(dtype)
        x = rng.standard_normal(lead + (128,)).astype(dtype)
        g = rng.standard_normal(lead + (32, 3)).astype(dtype)
        tx = Tensor(x, requires_grad=True)
        out = head(tx)
        backward(total(mul(out, Tensor(g))))
        b, m = lead[0], int(np.prod(lead[1:]))
        ref_out, ref_x, ref_w, ref_b = fold_head_oracle(
            x.reshape(b, m, 128), head.grid, [layer.weight.data for layer in head.layers],
            [layer.bias.data for layer in head.layers], g.reshape(b, m, 32, 3))
        got = [out.data.reshape(b, m, 32, 3), tx.grad.reshape(b, m, 128),
               *(layer.weight.grad for layer in head.layers),
               *(layer.bias.grad for layer in head.layers)]
        for have, ref in zip(got, [ref_out, ref_x, *ref_w, *ref_b], strict=True):
            assert have.dtype == dtype
            err = np.max(np.abs(have - ref)) / np.max(np.abs(ref))
            assert err <= self.FOLD_TOL[dtype], err

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(4, 38), (4,)], ids=["per-token", "pooled"])
    def test_fold_head_rows_equal_each_sample_alone(self, dtype, lead):
        rng = np.random.default_rng(27)
        head = FoldDecoder(128, 32, 64, rng)
        head.cast(dtype)
        x = rng.standard_normal(lead + (128,)).astype(dtype)
        out = head(Tensor(x)).data
        for i in range(lead[0]):
            assert out[i:i + 1].tobytes() == head(Tensor(x[i:i + 1])).data.tobytes()

    def test_folding_grid_properties(self):
        for k in (1, 2, 9, 10, 16, 37):
            g = folding_grid(k)
            assert g.shape == (k, 2)
            assert g.min() >= -0.5 and g.max() <= 0.5

    def test_center_head_shapes_and_pooling_invariance(self):
        head = GlobalCenterHead(FCDecoder(16, 12, 256, rng_()))
        rng = np.random.default_rng(22)
        enc = rng.standard_normal((1, 5, 16)).astype(np.float32)
        out = head(Tensor(enc)).data
        assert out.shape == (1, 12, 3)
        perm = rng.permutation(5)
        np.testing.assert_array_equal(head(Tensor(enc[:, perm])).data, out)

    def test_center_head_single_token_pools_to_itself(self):
        enc = Tensor(np.random.default_rng(23).standard_normal((1, 1, 16)))
        np.testing.assert_array_equal(ag.max_pool_over_axis(enc, axis=1).data, enc.data[0])
        np.testing.assert_array_equal(enc.data.mean(axis=1), enc.data[0])


def linear_count(i, o):
    return i * o + o


def num_parameters(module):
    return sum(p.data.size for p in module.parameters())


def block_count(d, mult):
    attn = 4 * linear_count(d, d)
    ffn = linear_count(d, d * mult) + linear_count(d * mult, d)
    return attn + ffn + 2 * (2 * d)


class TestParameterCounts:
    def test_pointnet_autoencoder(self):
        cfg = TrainConfig(encoder="pointnet", pointnet_hidden="32,64", feature_dim=16,
                          num_points=50, decoder="fc", fc_hidden=128)
        model = CloudAutoencoder(cfg, rng_())
        expected = (linear_count(3, 32) + linear_count(32, 64) + linear_count(64, 16)
                    + linear_count(16, 128) + linear_count(128, 150))
        assert num_parameters(model) == expected

    def test_patch_autoencoder(self):
        cfg = patch_cfg(pe_hidden=32, token_hidden=32, fc_hidden=64, fold_hidden=32)
        model = PatchAutoencoder(cfg, rng_())
        d = 16
        expected = (
            linear_count(3, 32) + linear_count(32, d)          # token embed
            + 2 * (linear_count(3, 32) + linear_count(32, d))  # two PEs
            + 2 * block_count(d, 2)                            # encoder blocks
            + d + 1 * block_count(d, 2)                        # mask token + decoder
            + linear_count(d + 2, 32) + linear_count(32, 32) + linear_count(32, 3)  # fold
            + linear_count(d, 64) + linear_count(64, 3 * 8)    # center head
        )
        assert num_parameters(model) == expected

    def test_patch_fc_head_count(self):
        head = FCDecoder(16, 8, 64, rng_())
        assert num_parameters(head) == linear_count(16, 64) + linear_count(64, 24)


class TestGradientFlow:
    def test_every_parameter_reached_by_decomposed_loss(self):
        from recloud.losses import loss_global, loss_local
        model = PatchAutoencoder(patch_cfg(), rng_())
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((64, 3))
        ps = normalize_patches(patchify(pts, 8, 8, rng))
        plan = mask_patches(8, 0.6, rng)
        vis = PatchSet(centers=ps.centers[plan.visible][None],
                       patches=ps.patches[plan.visible][None], normalized=True)
        encoded = model.encode_visible(vis)
        pred = model.predict_patches(encoded, ps.centers[None], [plan])
        local = loss_local(pred, ps.patches[plan.masked][None])
        global_ = loss_global(model.predict_centers(encoded), ps.centers[None])
        backward(ag.add(local, global_))
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert missing == []
