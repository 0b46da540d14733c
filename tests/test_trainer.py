import dataclasses
import errno
import hashlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from recloud import cli
from recloud import evaluation as ev
from recloud.autograd import Tensor, backward
from recloud.corruption import DegenerateMaskError, sample_affine
from recloud.data import (SynthSpec, load_split, read_cloud, stream, synth_generate,
                          write_cloud)
from recloud.geometry import PatchSet, affine_apply, denormalize_patches
from recloud.layers import Parameter
from recloud.losses import chamfer
from recloud.trainer import (STEP_BLOCK, AdamW, Checkpoint, DivergenceError, Sample,
                             TrainConfig, build_model, cosine_lr, load_checkpoint,
                             parse_config_text, prepare_sample, pretrain, restore, sample_loss,
                             save_checkpoint, scheduled_lr, snapshot)

from oracles import adamw_step_oracle


def tiny_cfg(**overrides):
    base = dict(encoder="transformer", epochs=3, num_points=64, num_patches=8,
                patch_size=8, feature_dim=16, encoder_depth=2, decoder_depth=1,
                num_heads=2, ffn_mult=2, pe_hidden=16, token_hidden=16, fc_hidden=32,
                fold_hidden=16, batch_size=4, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    spec = SynthSpec(samples_per_family=4, points_per_cloud=64, seed=5)
    return synth_generate(spec, out)


# helper processes share the trainer's memory through os.memfd_create (Linux)
helpers_need_shared_memory = pytest.mark.skipif(not hasattr(os, "memfd_create"),
                                                reason="no os.memfd_create")


def record_helpers(monkeypatch, patch=None) -> list[subprocess.Popen]:
    """The helper processes ``pretrain`` starts from now on, in a list. With
    ``patch``, a statement, each helper runs it once it has imported
    ``test_trainer`` and ``recloud.trainer as tr``, before its work begins."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, args, **kwargs):
            if patch is not None:
                args = [args[0], "-c", f"import sys; sys.path[:] = {sys.path!r}; "
                        f"import test_trainer, recloud.trainer as tr; {patch}; tr._helper_main()"]
            super().__init__(args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


@pytest.fixture
def spawned(monkeypatch):
    return record_helpers(monkeypatch)


def poisoned(epoch: int, sample: int, kind: str):
    """``trainer._micro_batch``, but at ``epoch``, for the micro-batch holding
    ``sample``, with a NaN total loss for that sample (``kind`` "nan"), a
    raised ``DegenerateMaskError`` ("raise"), or an infinite last element
    of the gradient row ("inf-grad")."""
    import recloud.trainer as tr
    compute = tr._micro_batch

    def micro_batch(model, clouds, cfg, at, batch_size, micro, row):
        rows = compute(model, clouds, cfg, at, batch_size, micro, row)
        if (at, kind) == (epoch, "raise") and sample in micro:
            raise DegenerateMaskError(f"poisoned sample {sample}")
        if (at, kind) == (epoch, "inf-grad") and sample in micro:
            row[-1] = np.inf
        elif at == epoch and sample in micro:
            rows[0] = rows[0].copy()
            rows[0][micro.index(sample)] = np.nan
        return rows

    return micro_batch


def killed_in_step(n: int):
    """``trainer.AdamW.step``, but the owner of the parameters' last range
    kills itself with SIGKILL as it enters its ``n``-th step."""
    import recloud.trainer as tr
    step, calls = tr.AdamW.step, []

    def killed(opt, *args, **kwargs):
        calls.append(opt.span)
        if len(calls) == n and opt.span[1] == opt.offsets[-1]:
            os.kill(os.getpid(), signal.SIGKILL)
        return step(opt, *args, **kwargs)

    return killed


class TestTrainConfig:
    def test_text_round_trip(self):
        cfg = tiny_cfg(mask_ratio=0.4, affine_families="rotate,scale")
        again = TrainConfig.from_text(cfg.to_text())
        assert again == cfg
        assert again.fingerprint() == cfg.fingerprint()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("bogus = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config_text("epochs = soon\n")

    def test_enum_validation(self):
        with pytest.raises(ValueError, match="encoder"):
            TrainConfig(encoder="voxelnet")
        with pytest.raises(ValueError, match="mask strategy"):
            TrainConfig(encoder="transformer", mask_strategy="random")
        with pytest.raises(ValueError, match="mask strategy"):
            TrainConfig(encoder="pointnet", mask_strategy="patch")

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("lr_min", float("inf")), ("global_weight", float("nan")),
        ("mask_ratio", float("nan")), ("weight_decay", float("-inf")), ("beta1", float("nan")),
        ("adam_eps", float("inf")), ("affine_reflect", float("nan")),
        ("affine_rotate", "-inf:3.0"), ("affine_scale", "0.5:nan"), ("affine_shear", "nan:inf"),
        ("affine_translate", "-0.2:inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("num_heads", 0), ("patch_size", 0), ("feature_dim", 0), ("ffn_mult", 0),
        ("pe_hidden", 0), ("token_hidden", 0), ("fc_hidden", 0), ("fold_hidden", 0),
        ("max_clusters", 0), ("num_patches", -1), ("encoder_depth", 0),
        ("decoder_depth", -1), ("warmup_epochs", -1), ("epochs", 0),
        ("pointnet_hidden", "16,0"), ("pointnet_hidden", "16,x"),
        ("decoder", "mlp"), ("local_decoder", "FC"), ("global_decoder", "")])
    def test_bad_sizes_and_head_kinds_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_transformer_config_its_model_can_build(self):
        # the patch model needs a shallower decoder and heads that divide the
        # dim; the PointNet model reads neither field
        with pytest.raises(ValueError, match="smaller"):
            TrainConfig(encoder="transformer", encoder_depth=2, decoder_depth=2)
        with pytest.raises(ValueError, match="divisible"):
            TrainConfig(encoder="transformer", num_heads=3)
        TrainConfig(encoder="pointnet", encoder_depth=2, decoder_depth=2, num_heads=3)

    def test_zero_warmup_and_decoder_depth_allowed(self):
        TrainConfig(warmup_epochs=0, decoder_depth=0)

    def test_auto_mask_resolution(self):
        # "auto" is resolved when the config is built, so every config is concrete
        for encoder, mask in (("pointnet", "random"), ("transformer", "patch")):
            cfg = TrainConfig(encoder=encoder)
            assert cfg.mask_strategy == mask
            assert cfg == TrainConfig(encoder=encoder, mask_strategy=mask)
            assert f"mask_strategy = {mask!r}\n" in cfg.to_text()


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 300, 0.001) == pytest.approx(0.001)
        assert cosine_lr(300, 300, 0.001, 1e-5) == pytest.approx(1e-5)

    def test_midpoint(self):
        assert cosine_lr(150, 300, 0.001, 0.0002) == pytest.approx((0.001 + 0.0002) / 2)

    def test_clamps_past_total(self):
        assert cosine_lr(400, 300, 0.001, 1e-5) == 1e-5

    def test_closed_form_everywhere(self):
        for t in range(0, 301):
            want = 1e-5 + 0.5 * (0.001 - 1e-5) * (1 + np.cos(np.pi * t / 300))
            assert cosine_lr(t, 300, 0.001, 1e-5) == pytest.approx(want, rel=1e-15)

    def test_returns_python_float(self):
        # a NumPy scalar lr would upcast float32 arrays under NEP 50 and be
        # written to metrics.csv as "np.float64(...)"
        assert type(cosine_lr(1, 300, 0.001)) is float
        assert type(cosine_lr(400, 300, 0.001)) is float

    def test_warmup_then_cosine(self):
        cfg = tiny_cfg(warmup_epochs=2, epochs=10, learning_rate=0.01)
        assert scheduled_lr(cfg, 0) == pytest.approx(0.005)
        assert scheduled_lr(cfg, 1) == pytest.approx(0.01)
        assert scheduled_lr(cfg, 2) == pytest.approx(cosine_lr(0, 8, 0.01))


class TestAdamW:
    def _param(self, value=1.0, n=4):
        return Parameter(np.full(n, value, dtype=np.float64))

    def test_zero_grad_zero_decay_keeps_params(self):
        p = self._param()
        before = p.data.copy()
        AdamW([p], weight_decay=0.0).step(0.1, np.zeros((1, 4)))
        np.testing.assert_array_equal(p.data, before)

    def test_zero_grad_with_decay_scales(self):
        p = self._param(2.0)
        AdamW([p], weight_decay=0.5).step(0.1, np.zeros((1, 4)))
        np.testing.assert_allclose(p.data, 2.0 * (1 - 0.1 * 0.5), rtol=1e-15)

    def test_unit_grad_first_step_magnitude(self):
        p = self._param(0.0)
        AdamW([p], weight_decay=0.0).step(0.01, np.ones((1, 4)))
        # bias-corrected first step moves by ~lr
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-6)

    def test_moments_update(self):
        p = self._param(0.0)
        opt = AdamW([p], weight_decay=0.0)
        opt.step(0.01, np.full((1, 4), 2.0))
        np.testing.assert_allclose(opt.moment1[0], 0.2)
        np.testing.assert_allclose(opt.moment2[0], 0.004)
        assert opt.step_count == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_blocked_step_is_the_per_tensor_step(self, dtype, weight_decay):
        # 3 blocks and a part: tensors cross block boundaries and one spans a
        # whole block. Micro-batch 1 reaches only tensor 0, none reaches 2:
        # their rows are zero there, and the oracle sums only what is reached
        rng = np.random.default_rng(3)
        shapes = [(5,), (STEP_BLOCK + 7,), (3, 11), (2 * STEP_BLOCK // 3, 2), (1,)]
        params = [Parameter(rng.standard_normal(s).astype(dtype)) for s in shapes]
        want = [p.data.copy() for p in params]
        want1, want2 = ([np.zeros_like(w) for w in want] for _ in range(2))
        grads = [[rng.standard_normal(s).astype(dtype) for s in shapes] for _ in range(3)]
        grads[1][1:] = [None] * 4
        for micro in grads:
            micro[2] = None
        rows = np.stack([np.concatenate([np.zeros(np.prod(s, dtype=int), dtype) if g is None
                                         else g.ravel() for s, g in zip(shapes, micro)])
                         for micro in grads])
        whole = AdamW(params, weight_decay=weight_decay)
        # the same state stepped as three owners' spans, one cut inside a tensor
        shards = [Parameter(p.data.copy()) for p in params]
        first = AdamW(shards, weight_decay=weight_decay, span=(0, 9))
        owners = [first] + [AdamW(shards, weight_decay=weight_decay, state=first.state, span=s)
                            for s in ((9, STEP_BLOCK + 20), (STEP_BLOCK + 20, first.offsets[-1]))]
        for t, lr in enumerate((1e-2, 3e-3), 1):
            whole.step(lr, rows)
            for opt in owners:
                opt.step(lr, rows)
            adamw_step_oracle(want, want1, want2, [[g[i] for g in grads if g[i] is not None]
                                                   for i in range(len(shapes))],
                              lr, t, weight_decay=weight_decay)
        for opt in (whole, first):
            for got, expected in (([p.data for p in opt.params], want), (opt.moment1, want1),
                                  (opt.moment2, want2)):
                for a, b in zip(got, expected):
                    assert a.dtype == dtype and a.tobytes() == b.tobytes()
        # one row is the whole gradient of a one-micro-batch step
        whole.step(1e-2, rows[:1])
        adamw_step_oracle(want, want1, want2, [[] if g is None else [g] for g in grads[0]],
                          1e-2, 3, weight_decay=weight_decay)
        assert all(p.data.tobytes() == w.tobytes() for p, w in zip(params, want))

    def test_step_counts_the_non_finite_values_of_its_span(self):
        params = [Parameter(np.zeros(STEP_BLOCK + 3, np.float32)),
                  Parameter(np.zeros(4, np.float32))]
        grads = np.ones((1, STEP_BLOCK + 7), np.float32)
        grads[0, STEP_BLOCK + 5] = np.inf  # its moments turn inf and its weight NaN
        whole = AdamW(params)
        halves = [AdamW(params, state=whole.state, span=s)
                  for s in ((0, STEP_BLOCK), (STEP_BLOCK, STEP_BLOCK + 7))]
        with np.errstate(invalid="ignore"):  # inf / inf
            assert whole.step(1e-3, grads) == 0
            assert whole.step(1e-3, grads, count=True) == 3
            assert [opt.step(1e-3, grads, count=True) for opt in halves] == [0, 3]

    def test_float64_lr_keeps_float32(self):
        p = Parameter(np.full(4, 1.0, dtype=np.float32))
        opt = AdamW([p], weight_decay=0.05)
        opt.step(np.float64(0.01), np.full((1, 4), 0.5, dtype=np.float32))
        for arr in (p.data, opt.moment1[0], opt.moment2[0]):
            assert arr.dtype == np.float32
        assert np.all(p.data != 1.0) and np.all(opt.moment1[0] != 0.0)


class TestSampleStep:
    def test_eq1_fidelity_replay(self, dataset):
        # the trainer's per-sample loss equals a manual replay of
        # decode(encode(mask(affine(x)))) against x, bit for bit
        cfg = tiny_cfg()
        model = build_model(cfg)
        from recloud.data import load_split
        clouds = load_split(dataset, "train", cfg.num_points, seed=cfg.seed)
        x = clouds[0]
        total, got_local, got_global = sample_loss(
            model, prepare_sample(x[None], cfg, [stream(cfg.seed, "sample", 0, 0)]), cfg)

        # manual replay with the same derived rng
        from recloud.corruption import mask_patches
        from recloud.geometry import normalize_patches, patchify
        from recloud.losses import loss_global, loss_local
        rng = stream(cfg.seed, "sample", 0, 0)
        transform = sample_affine(cfg, rng)
        clean = patchify(x, cfg.num_patches, cfg.patch_size, rng)
        linear, shift = transform[:, :3].T, transform[:, 3]
        corrupted = PatchSet(centers=clean.centers @ linear + shift,
                             patches=(clean.patches.reshape(-1, 3) @ linear + shift)
                             .reshape(clean.patches.shape), normalized=False)
        clean_n = normalize_patches(clean)
        corr_n = normalize_patches(corrupted)
        plan = mask_patches(cfg.num_patches, cfg.mask_ratio, rng)
        vis = PatchSet(centers=corrupted.centers[plan.visible][None],
                       patches=corr_n.patches[plan.visible][None], normalized=True)
        encoded = model.encode_visible(vis)
        local = loss_local(model.predict_patches(encoded, clean.centers[None], [plan]),
                           clean_n.patches[plan.masked][None])
        global_ = loss_global(model.predict_centers(encoded), clean.centers[None])
        assert got_local.data.tobytes() == local.data.tobytes()
        assert got_global.data.tobytes() == global_.data.tobytes()
        expected = local.data + cfg.global_weight * global_.data
        assert total.data.tobytes() == expected.tobytes()

    def test_lambda_zero_keeps_center_head_grads_zero(self):
        cfg = tiny_cfg(global_weight=0.0)
        model = build_model(cfg)
        x = np.random.default_rng(0).standard_normal((64, 3))
        total, *_ = sample_loss(model, prepare_sample(x[None], cfg, [stream(1, "sample", 0, 0)]),
                                cfg)
        backward(total)
        for name, p in model.named_parameters():
            if name.startswith("center_head"):
                assert p.grad is not None
                assert np.all(p.grad == 0.0), name

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_gradient_row_holds_each_gradient_in_model_order(self, dataset, precision):
        # a local-only loss does not reach the center head: its part of the
        # row is zeros, written over what the row held before
        import recloud.trainer as tr
        cfg = tiny_cfg(objective="local-only", precision=precision)
        model = build_model(cfg)
        clouds = load_split(dataset, "train", cfg.num_points, seed=cfg.seed)
        named = list(model.named_parameters())
        row = np.full(sum(p.data.size for _, p in named), np.nan, cfg.dtype)
        tr._micro_batch(model, clouds, cfg, 0, 8, [3, 0, 5], row)
        unreached, at = [], 0
        for name, p in named:
            part, at = row[at:at + p.data.size], at + p.data.size
            if p.grad is None:
                unreached.append(name)
                assert part.tobytes() == bytes(part.nbytes), name
            else:
                assert p.grad.dtype == cfg.dtype and part.tobytes() == p.grad.tobytes(), name
        assert unreached == [name for name, _ in named if name.startswith("center_head")]
        assert unreached

    def test_augmentation_mode_targets_transformed_cloud(self):
        cfg = tiny_cfg(encoder="pointnet", affine_role="augmentation",
                       mask_strategy="none", pointnet_hidden="16")
        x = np.random.default_rng(1).standard_normal((64, 3))
        sample = prepare_sample(x[None], cfg, [stream(2, "sample", 0, 0)])
        np.testing.assert_array_equal(sample.target[0],
                                      affine_apply(x[None], sample.transforms)[0])
        np.testing.assert_array_equal(sample.visible, sample.target)

    def test_corruption_mode_targets_clean_cloud(self):
        cfg = tiny_cfg(encoder="pointnet", mask_strategy="none", pointnet_hidden="16")
        x = np.random.default_rng(2).standard_normal((64, 3))
        sample = prepare_sample(x[None], cfg, [stream(3, "sample", 0, 0)])
        np.testing.assert_array_equal(sample.target[0], x)


class TestCorruptCommand:
    """``recloud corrupt`` masks a cloud as the trainer does its first sample."""

    @pytest.mark.parametrize("mask", ["none", "random", "fixed", "view", "patch"])
    def test_writes_the_visible_points_of_prepare_sample(self, tmp_path, mask):
        rng = np.random.default_rng(8)
        write_cloud(tmp_path / "in.xyz", rng.standard_normal((120, 3)))
        rc = cli.main(["corrupt", "--input", str(tmp_path / "in.xyz"), "--out",
                       str(tmp_path / "out"), "--mask", mask, "--alpha", "0.4",
                       "--cluster-size", "7", "--max-clusters", "5", "--patches", "8",
                       "--patch-size", "8", "--seed", "13"])
        assert rc == 0
        encoder = "transformer" if mask == "patch" else "pointnet"
        cfg = TrainConfig(encoder=encoder, mask_strategy=mask, mask_ratio=0.4,
                          cluster_size=7, max_clusters=5, num_patches=8, patch_size=8,
                          seed=13)
        sample = prepare_sample(read_cloud(tmp_path / "in.xyz")[None], cfg,
                                [stream(13, "sample", 0, 0)])
        # the patch mask writes the visible patches in absolute coordinates
        visible = (denormalize_patches(sample.visible).patches[0].reshape(-1, 3)
                   if mask == "patch" else sample.visible[0])
        write_cloud(tmp_path / "want.xyz", visible)
        got = (tmp_path / "out" / "corrupted.xyz").read_bytes()
        assert got == (tmp_path / "want.xyz").read_bytes()
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert sample.transforms.shape == (1, 3, 4)
        assert plan["transform"] == sample.transforms[0].tolist()
        if mask == "none":
            assert sample.plans is None and "masked" not in plan
        else:
            assert plan["masked"] == sample.plans[0].masked.tolist()

    @pytest.mark.parametrize("extra", [(), ("--num-points", "100")], ids=["as-is", "resampled"])
    @pytest.mark.parametrize("seed", ["-1", str(2**32)])
    def test_out_of_range_seed_exits_bad_config(self, tmp_path, capsys, seed, extra):
        write_cloud(tmp_path / "in.xyz", np.random.default_rng(8).standard_normal((120, 3)))
        rc = cli.main(["corrupt", "--input", str(tmp_path / "in.xyz"), "--out",
                       str(tmp_path / "out"), "--mask", "random", "--seed", seed, *extra])
        assert rc == cli.EXIT_BAD_CONFIG
        assert "seed must be in" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [(), ("--num-points", "100")], ids=["as-is", "resampled"])
    @pytest.mark.parametrize("option", ["--patches", "--patch-size"])
    def test_patches_larger_than_the_cloud_exit_bad_config(self, tmp_path, capsys, option,
                                                           extra):
        write_cloud(tmp_path / "in.xyz", np.random.default_rng(8).standard_normal((120, 3)))
        rc = cli.main(["corrupt", "--input", str(tmp_path / "in.xyz"), "--out",
                       str(tmp_path / "out"), "--mask", "patch", option, "121", *extra])
        assert rc == cli.EXIT_BAD_CONFIG
        field = "num_patches" if option == "--patches" else "patch_size"
        points = extra[1] if extra else "120"
        assert f"{field} 121 exceeds num_points {points}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_input_is_reported_before_a_bad_config(self, tmp_path, capsys):
        rc = cli.main(["corrupt", "--input", str(tmp_path / "nope.xyz"), "--out",
                       str(tmp_path / "out"), "--mask", "patch", "--patches", "0"])
        assert rc == cli.EXIT_MISSING_FILE
        assert "error: missing-file: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad,lineno", [("format", 2), ("element vertex", 3),
                                            ("property float", 4), ("element vertex two", 3)],
                             ids=["format", "element", "property", "count"])
    def test_incomplete_ply_header_exits_bad_config(self, tmp_path, capsys, bad, lineno):
        header = ["ply", "format ascii 1.0", "element vertex 2",
                  "property float x", "property float y", "property float z"]
        header[lineno - 1] = bad
        path = tmp_path / "in.ply"
        path.write_text("\n".join(header + ["end_header", "0 0 0", "1 2 3"]) + "\n")
        rc = cli.main(["corrupt", "--input", str(path), "--out", str(tmp_path / "out"),
                       "--mask", "random"])
        assert rc == cli.EXIT_BAD_CONFIG
        assert f"error: invalid-config: {path}:{lineno}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_end_header_in_a_comment_does_not_end_the_header(self, tmp_path, eol):
        header = ["ply", "format ascii 1.0", "element vertex 3", "property float x",
                  "property float y", "property float z", "end_header"]
        body = ["0 0 0", "1 2 3", "-1 0.5 2"]
        outputs = []
        for name, extra in (("plain", []), ("comment", ["comment exported up to end_header"])):
            path = tmp_path / f"{name}.ply"
            path.write_bytes(eol.join(header[:1] + extra + header[1:] + body).encode() + b"\n")
            rc = cli.main(["corrupt", "--input", str(path), "--out", str(tmp_path / name),
                           "--mask", "none", "--seed", "3"])
            assert rc == 0
            outputs.append((tmp_path / name / "corrupted.xyz").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_negative_element_count_exits_bad_config(self, tmp_path, capsys, fmt):
        header = ["ply", f"format {fmt} 1.0", "element junk -4", "property float a",
                  "element vertex 3", "property float x", "property float y",
                  "property float z", "end_header"]
        vertices = np.array([[0, 0, 0], [1, 2, 3], [-1, 0.5, 2]], dtype="<f4")
        body = (b"7\n" + b"".join(b"%g %g %g\n" % tuple(v) for v in vertices)
                if fmt == "ascii" else np.float32(7).tobytes() + vertices.tobytes())
        path = tmp_path / "in.ply"
        path.write_bytes("\n".join(header).encode() + b"\n" + body)
        rc = cli.main(["corrupt", "--input", str(path), "--out", str(tmp_path / "out"),
                       "--mask", "none", "--affine", "none"])
        assert rc == cli.EXIT_BAD_CONFIG
        assert (f"error: invalid-config: {path}:3: element count -4 is negative"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_num_points_exits_bad_config(self, tmp_path, capsys, count):
        write_cloud(tmp_path / "in.xyz", np.random.default_rng(8).standard_normal((50, 3)))
        rc = cli.main(["corrupt", "--input", str(tmp_path / "in.xyz"), "--out",
                       str(tmp_path / "out"), "--mask", "none", "--num-points", count])
        assert rc == cli.EXIT_BAD_CONFIG
        assert "target count must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("affine,families", [
        ([], ["scale", "shear", "reflect", "rotate", "translate"]),
        (["--affine", "none"], []),
        (["--affine", "rotate"], ["rotate"])], ids=["default", "none", "rotate"])
    def test_plan_provenance_lists_the_enabled_families_in_composition_order(
            self, tmp_path, affine, families):
        write_cloud(tmp_path / "in.xyz", np.random.default_rng(8).standard_normal((50, 3)))
        rc = cli.main(["corrupt", "--input", str(tmp_path / "in.xyz"), "--out",
                       str(tmp_path / "out"), "--mask", "none", "--seed", "3", *affine])
        assert rc == 0
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert plan["provenance"] == families
        if not families:
            assert plan["transform"] == np.eye(3, 4).tolist()

    def test_overflowing_affine_map_exits_bad_config(self, tmp_path, capsys):
        write_cloud(tmp_path / "in.xyz", np.random.default_rng(8).standard_normal((50, 3)))
        spec = tmp_path / "affine.txt"
        spec.write_text("affine_scale = 1.7e308:1.7e308\naffine_shear = 0.25:0.25\n")
        rc = cli.main(["corrupt", "--input", str(tmp_path / "in.xyz"), "--out",
                       str(tmp_path / "out"), "--mask", "none", "--affine-spec", str(spec)])
        assert rc == cli.EXIT_BAD_CONFIG
        assert ("error: invalid-config: affine application produced non-finite coordinates "
                "(first bad point: cloud 0, point 0;" in capsys.readouterr().err)

    @pytest.mark.parametrize("args,code,err", [
        (["--mask", "random", "--alpha", "0.001"], cli.EXIT_DEGENERATE_MASK, "degenerate-mask"),
        (["--mask", "patch", "--patches", "8", "--patch-size", "80"], cli.EXIT_BAD_CONFIG,
         "invalid-config")], ids=["empty-mask", "patches-larger-than-cloud"])
    def test_failed_corruption_creates_no_out(self, tmp_path, capsys, args, code, err):
        write_cloud(tmp_path / "in.xyz", np.random.default_rng(8).standard_normal((50, 3)))
        rc = cli.main(["corrupt", "--input", str(tmp_path / "in.xyz"), "--out",
                       str(tmp_path / "out"), *args])
        assert rc == code
        assert f"error: {err}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_header_without_an_end_header_line_exits_bad_config(self, tmp_path, capsys):
        path = tmp_path / "in.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                        "property float y\nproperty float z\nend_header")
        rc = cli.main(["corrupt", "--input", str(path), "--out", str(tmp_path / "out"),
                       "--mask", "random"])
        assert rc == cli.EXIT_BAD_CONFIG
        assert (f"error: invalid-config: {path}: missing end_header line"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestPretrainLoop:
    def test_frozen_run_constant_loss(self, dataset, tmp_path):
        # identity corruption + no masking + lr 0: the loss cannot move
        cfg = tiny_cfg(encoder="pointnet", pointnet_hidden="16", epochs=3,
                       learning_rate=0.0, mask_strategy="none", affine_families="none",
                       weight_decay=0.0)
        pretrain(dataset, cfg, metrics_path=tmp_path / "m.csv")
        rows = (tmp_path / "m.csv").read_text().splitlines()[1:]
        totals = {row.split(",")[1] for row in rows}
        assert len(totals) == 1
        # every field is a plain number (an lr written as "np.float64(0.0)" is not)
        for row in rows:
            for value in row.split(","):
                float(value)

    def test_metrics_deterministic(self, dataset, tmp_path):
        cfg = tiny_cfg(epochs=2)
        pretrain(dataset, cfg, metrics_path=tmp_path / "a.csv")
        pretrain(dataset, cfg, metrics_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_loss_decreases_on_tiny_run(self, dataset, tmp_path):
        cfg = tiny_cfg(epochs=20, learning_rate=0.002)
        pretrain(dataset, cfg, metrics_path=tmp_path / "m.csv")
        rows = (tmp_path / "m.csv").read_text().splitlines()[1:]
        first = float(rows[0].split(",")[1])
        last = float(rows[-1].split(",")[1])
        assert last < first

    def test_resume_matches_uninterrupted(self, dataset, tmp_path, monkeypatch):
        cfg = tiny_cfg(epochs=4)
        # resume needs the same config fingerprint: a shorter run is rejected
        bad = pretrain(dataset, tiny_cfg(epochs=2))
        with pytest.raises(ValueError, match="fingerprint"):
            pretrain(dataset, cfg, resume=bad)

        # the uninterrupted run, with its epoch-2 state captured on the way
        import recloud.trainer as tr
        mid_holder = {}
        orig_snapshot = tr.snapshot

        def spy(model, opt, c, epoch):
            ck = orig_snapshot(model, opt, c, epoch)
            if epoch == 2:
                mid_holder["ckpt"] = ck
            return ck

        monkeypatch.setattr(tr, "snapshot", spy)
        full = pretrain(dataset, cfg, metrics_path=tmp_path / "full.csv")
        monkeypatch.undo()

        # resume from that state as written to and read back from disk
        save_checkpoint(mid_holder["ckpt"], tmp_path / "mid.ckpt")
        resumed = pretrain(dataset, cfg, metrics_path=tmp_path / "resumed.csv",
                           resume=load_checkpoint(tmp_path / "mid.ckpt"))
        assert resumed.epoch == full.epoch == 4
        assert resumed.step == full.step
        for got, want in ((resumed.params, full.params), (resumed.moments1, full.moments1),
                          (resumed.moments2, full.moments2)):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].dtype == want[name].dtype, name
                np.testing.assert_array_equal(got[name], want[name])
        full_lines = (tmp_path / "full.csv").read_bytes().splitlines()
        resumed_lines = (tmp_path / "resumed.csv").read_bytes().splitlines()
        # header, then the rows of epochs 3 and 4
        assert resumed_lines == [full_lines[0]] + full_lines[3:5]

    def test_metrics_written_as_each_epoch_ends(self, dataset, tmp_path):
        # a run stopped after epoch 1 keeps the header and the row of epoch 1
        cfg = tiny_cfg(epochs=3)
        pretrain(dataset, cfg, metrics_path=tmp_path / "full.csv")

        class Stop(Exception):
            pass

        def stop(epoch, report, lr):
            if epoch == 1:
                raise Stop

        with pytest.raises(Stop):
            pretrain(dataset, cfg, metrics_path=tmp_path / "m.csv", epoch_callback=stop)
        full = (tmp_path / "full.csv").read_text().splitlines()
        assert (tmp_path / "m.csv").read_text() == "\n".join(full[:2]) + "\n"

    def test_streams_of_a_run_are_distinct(self, tmp_path, monkeypatch):
        # SeedSequence ignores trailing zeros, so [seed, f, s] once made the
        # synthetic clouds of a run's own seed its init, shuffle and sample
        # streams. One seed for the data, the run and every evaluation; clouds
        # of 128 points resampled to 64 draw
        seed = 7
        # `recloud corrupt` masks its cloud as the trainer does its first sample
        shared = stream(seed, "sample", 0, 0).bit_generator.seed_seq.generate_state(4).tobytes()
        phase, built = [""], []

        class Recorded(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((phase[0], self.generate_state(4).tobytes()))

        monkeypatch.setattr(np.random, "SeedSequence", Recorded)

        def run(name, fn, *args, **kwargs):
            phase[0] = name
            return fn(*args, **kwargs)

        manifest = run("synth", synth_generate,
                       SynthSpec(samples_per_family=3, points_per_cloud=128, seed=seed),
                       tmp_path / "data")
        ckpt = run("pretrain", pretrain, manifest, tiny_cfg(epochs=2, num_points=64, seed=seed))
        train, test = (run("extract", ev.extract_features, ckpt, manifest, split)
                       for split in ("train", "test"))
        run("sweep", ev.probe_with_sweep, train, test, seed=seed)
        run("fewshot", ev.fewshot_eval, train,
            ev.EpisodeSpec(ways=2, shots=1, queries=1, repetitions=5, seed=seed))
        cloud = read_cloud(manifest.resolve(manifest.entries[0]))
        run("reconstruct", ev.reconstruct_export, ckpt, cloud, tmp_path / "recon", seed=seed)
        assert run("corrupt", cli.main, [
            "corrupt", "--input", str(manifest.resolve(manifest.entries[0])), "--out",
            str(tmp_path / "corrupt"), "--mask", "patch", "--patches", "8", "--patch-size",
            "8", "--num-points", "100", "--seed", str(seed)]) == 0

        assert {("pretrain", shared), ("corrupt", shared)} <= set(built)
        owners: dict[bytes, str] = {}
        for name, state in built:
            if (name, state) != ("corrupt", shared):
                assert state not in owners, f"{name} draws a stream of {owners[state]}"
                owners[state] = name
        # every phase draws, each stream through the recorded constructor
        assert {name for name, _ in built} == {"synth", "pretrain", "extract", "sweep",
                                               "fewshot", "reconstruct", "corrupt"}
        assert len(owners) > 40

    # 1e30 overflows the forward gemm in float32 after the first step. With
    # one step per epoch (12 train clouds, batch 16), 3.4e38 overflows float32
    # weights, and 1e30 in double a second moment, while every loss of the
    # epoch stays finite, so only a check of the state itself catches them
    @pytest.mark.parametrize("lr,overrides,epoch", [
        pytest.param(1e6, {}, 0, id="1000000.0"),
        pytest.param(1e30, {}, 0, id="1e+30"),
        pytest.param(3.4e38, dict(encoder="transformer", epochs=1, batch_size=16), 0,
                     id="weights-overflow-in-last-epoch"),
        pytest.param(3.4e38, dict(encoder="transformer", epochs=2, batch_size=16), 0,
                     id="weights-overflow"),
        pytest.param(1e30, dict(precision="double", epochs=2, batch_size=16), 1,
                     id="moments-overflow-double"),
    ])
    def test_divergence_aborts_with_last_finite(self, dataset, tmp_path, lr, overrides, epoch):
        cfg = tiny_cfg(**{"encoder": "pointnet", "pointnet_hidden": "16", "epochs": 5,
                          "learning_rate": lr, **overrides})  # guaranteed blow-up
        with pytest.raises(DivergenceError) as exc:
            pretrain(dataset, cfg)
        ckpt = exc.value.checkpoint
        assert ckpt.epoch == epoch
        for arrays in (ckpt.params, ckpt.moments1, ckpt.moments2):
            assert all(np.isfinite(a).all() for a in arrays.values())


class TestNonFiniteCli:
    """A non-finite config value is a bad configuration (exit 4), not a run."""

    @pytest.mark.parametrize("args", [["--lr", "nan"], ["--lr", "inf"], ["--alpha", "nan"],
                                      ["--global-weight=-inf"]])
    def test_pretrain_exits_bad_config(self, dataset, tmp_path, args):
        rc = cli.main(["pretrain", "--manifest", str(dataset), "--out", str(tmp_path / "run"),
                       "--epochs", "1", "--num-points", "64", "--encoder", "pointnet"] + args)
        assert rc == cli.EXIT_BAD_CONFIG
        assert not (tmp_path / "run" / "checkpoint.ckpt").exists()

    def test_config_file_range_exits_bad_config(self, dataset, tmp_path):
        (tmp_path / "c.cfg").write_text("affine_rotate = -inf:inf\n")
        rc = cli.main(["pretrain", "--manifest", str(dataset), "--out", str(tmp_path / "run"),
                       "--config", str(tmp_path / "c.cfg"), "--epochs", "1",
                       "--num-points", "64"])
        assert rc == cli.EXIT_BAD_CONFIG


class TestDivergenceCli:
    """A run whose loss leaves the finite range exits 1 with its last finite
    checkpoint written."""

    def test_pretrain_exits_error_and_keeps_the_last_finite_checkpoint(
            self, dataset, tmp_path, capsys):
        rc = cli.main(["pretrain", "--manifest", str(dataset.root / "manifest.tsv"),
                       "--out", str(tmp_path / "run"), "--epochs", "3", "--num-points", "64",
                       "--encoder", "pointnet", "--lr", "1e30"])
        assert rc == cli.EXIT_ERROR == 1
        assert re.search(r"^error: divergence: non-finite loss at epoch 1, sample \d+; ",
                         capsys.readouterr().err, re.MULTILINE)
        ckpt = load_checkpoint(tmp_path / "run" / "checkpoint.ckpt")
        assert ckpt.epoch == 0
        for arrays in (ckpt.params, ckpt.moments1, ckpt.moments2):
            assert all(np.isfinite(a).all() for a in arrays.values())


class TestResumeCheck:
    """A resume checkpoint with a non-finite parameter or moment is rejected
    before the first step, naming its first such tensor in the model's order."""

    CFG = dict(encoder="pointnet", pointnet_hidden="16")

    @staticmethod
    def poisoned(cfg, bad):
        """An epoch-1 snapshot of ``cfg`` with ``bad[(field, name)]`` written
        into the named tensors at their first entry, or everywhere for None."""
        model = build_model(cfg)
        ckpt = snapshot(model, AdamW(model.parameters()), cfg, epoch=1)
        for (field, name), value in bad.items():
            arrays = getattr(ckpt, field)
            if name is None:
                for arr in arrays.values():
                    arr[...] = value
            else:
                arrays[name].flat[0] = value
        return ckpt

    @pytest.mark.parametrize("bad,named", [
        pytest.param({("params", None): np.nan},
                     "parameter 'encoder.layers.0.weight' (48 of 48 values)", id="nan-params"),
        pytest.param({("params", "decoder.layers.0.weight"): np.nan,
                      ("moments2", "encoder.layers.1.bias"): np.inf},
                     "second moment 'encoder.layers.1.bias' (1 of 16 values)",
                     id="first-bad-tensor"),
        pytest.param({("moments1", "decoder.layers.1.bias"): -np.inf},
                     "first moment 'decoder.layers.1.bias' (1 of 192 values)", id="moment-only"),
    ])
    def test_pretrain_rejects_before_the_first_step(self, dataset, tmp_path, bad, named):
        cfg = tiny_cfg(**self.CFG)
        steps = []
        with pytest.raises(ValueError, match=re.escape(named)):
            pretrain(dataset, cfg, metrics_path=tmp_path / "m.csv",
                     resume=self.poisoned(cfg, bad), epoch_callback=lambda *a: steps.append(a))
        assert steps == [] and not (tmp_path / "m.csv").exists()

    def test_cli_exits_bad_config_and_writes_no_checkpoint(self, dataset, tmp_path, capsys):
        cfg = tiny_cfg(**self.CFG)
        save_checkpoint(self.poisoned(cfg, {("params", None): np.nan}), tmp_path / "nan.ckpt")
        (tmp_path / "c.cfg").write_text(cfg.to_text())
        rc = cli.main(["pretrain", "--manifest", str(dataset.root / "manifest.tsv"),
                       "--out", str(tmp_path / "run"), "--config", str(tmp_path / "c.cfg"),
                       "--resume", str(tmp_path / "nan.ckpt")])
        assert rc == cli.EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "invalid-config" in err and "'encoder.layers.0.weight'" in err
        assert not (tmp_path / "run").exists()


class TestModelConfigCli:
    """A model the config cannot describe, or a mask ratio outside (0, 1), is
    a bad configuration (exit 4); an in-range ratio whose mask would hold no
    point or patch is a degenerate mask (exit 5). Neither leaves an --out."""

    @pytest.mark.parametrize("lines,err", [
        ("encoder_depth = 2\ndecoder_depth = 2\n", "decoder depth 2 must be smaller"),
        ("feature_dim = 30\nnum_heads = 4\n", "divisible"),
        ("num_heads = 3\n", "divisible"),
        ("num_patches = 128\n", "num_patches 128 exceeds num_points 64"),
        ("patch_size = 128\n", "patch_size 128 exceeds num_points 64"),
        # AdamW's bias correction is zero at beta = 1; with adam_eps = 0 a
        # parameter whose gradient is zero (the first layer of a positional
        # embedding, behind its zero-initialized second) steps by 0 / 0
        ("beta1 = 1.0\n", "beta1 must be in [0, 1)"),
        ("beta1 = -0.1\n", "beta1 must be in [0, 1)"),
        ("beta2 = 1.0\n", "beta2 must be in [0, 1)"),
        ("adam_eps = 0.0\n", "adam_eps must be positive"),
        ("adam_eps = -1e-08\n", "adam_eps must be positive"),
        ("weight_decay = -0.01\n", "weight_decay must be at least 0.0")],
        ids=["decoder-not-shallower", "heads-do-not-divide-dim", "three-heads",
             "more-patches-than-points", "patch-larger-than-cloud", "beta1-one",
             "beta1-negative", "beta2-one", "eps-zero", "eps-negative", "negative-decay"])
    def test_transformer_config_is_rejected_before_out_exists(self, dataset, tmp_path, capsys,
                                                              lines, err):
        (tmp_path / "c.cfg").write_text(lines)
        rc = cli.main(["pretrain", "--manifest", str(dataset.root / "manifest.tsv"),
                       "--out", str(tmp_path / "run"), "--config", str(tmp_path / "c.cfg"),
                       "--encoder", "transformer", "--epochs", "1", "--num-points", "64"])
        assert rc == cli.EXIT_BAD_CONFIG
        assert err in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_resume_checkpoint_creates_no_out(self, dataset, tmp_path, capsys):
        rc = cli.main(["pretrain", "--manifest", str(dataset.root / "manifest.tsv"),
                       "--out", str(tmp_path / "run"), "--encoder", "pointnet",
                       "--resume", str(tmp_path / "nope.ckpt")])
        assert rc == cli.EXIT_MISSING_FILE
        assert "error: missing-file: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lines,args,code,err", [
        pytest.param("pointnet_hidden = 16,0\n", ["--encoder", "pointnet"], 4,
                     "pointnet_hidden", id="zero-width"),
        pytest.param("", ["--encoder", "transformer", "--alpha", "1.0"], 4,
                     "mask ratio", id="patch-mask-ratio-1"),
        pytest.param("", ["--encoder", "transformer", "--alpha", "1.5", "--mask", "none"], 4,
                     "mask ratio", id="unmasked-ratio-1.5"),
        pytest.param("", ["--encoder", "pointnet", "--alpha", "1.0", "--mask", "random"], 4,
                     "mask ratio", id="point-mask-ratio-1"),
        # in range, but floor(ratio * count) masks nothing: 64 points, 16 patches
        pytest.param("", ["--encoder", "pointnet", "--alpha", "0.01", "--mask", "view"], 5,
                     "degenerate-mask", id="point-mask-empty"),
        pytest.param("", ["--encoder", "transformer", "--alpha", "0.05"], 5,
                     "degenerate-mask", id="patch-mask-empty"),
    ] + [
        # a size or head kind the config cannot hold names its field
        pytest.param(line + "\n", ["--encoder", "transformer"], 4, line.split()[0],
                     id=line.replace(" ", ""))
        for line in ("num_heads = 0", "patch_size = 0", "decoder_depth = -1",
                     "warmup_epochs = -1", "feature_dim = 0", "ffn_mult = 0", "pe_hidden = 0",
                     "token_hidden = 0", "fc_hidden = 0", "fold_hidden = 0",
                     "max_clusters = 0", "local_decoder = 'mlp'")
    ])
    def test_pretrain_exit_code(self, dataset, tmp_path, capsys, lines, args, code, err):
        (tmp_path / "c.cfg").write_text(lines)
        rc = cli.main(["pretrain", "--manifest", str(dataset.root / "manifest.tsv"),
                       "--out", str(tmp_path / "run"), "--config", str(tmp_path / "c.cfg"),
                       "--epochs", "1", "--num-points", "64"] + args)
        assert rc == code
        assert err in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestReconstructCommand:
    """``recloud reconstruct`` writes each stage with its point count."""

    @staticmethod
    def export(dataset, tmp_path, name, **overrides):
        cfg = tiny_cfg(epochs=1, **overrides)
        ckpt = tmp_path / f"{name}.ckpt"
        save_checkpoint(pretrain(dataset, cfg), ckpt)
        cloud = dataset.resolve(dataset.split("test")[0])
        files = {}
        for copy in ("a", "b"):
            out = tmp_path / f"{name}-{copy}"
            assert cli.main(["reconstruct", "--checkpoint", str(ckpt), "--input", str(cloud),
                             "--out", str(out), "--seed", "3"]) == 0
            files[copy] = {p.stem: p.read_bytes() for p in sorted(out.iterdir())}
        # the same seed writes the same bytes
        assert files["a"] == files["b"]
        return cfg, {stem: len(read_cloud(tmp_path / f"{name}-a" / f"{stem}.xyz"))
                     for stem in files["a"]}

    def test_pointnet(self, dataset, tmp_path):
        cfg, counts = self.export(dataset, tmp_path, "pn", encoder="pointnet",
                                  pointnet_hidden="16", mask_strategy="random")
        assert set(counts) == {"clean", "corrupted", "reconstruction"}
        assert counts["clean"] == counts["reconstruction"] == cfg.num_points
        assert 0 < counts["corrupted"] < cfg.num_points

    def test_patch_mask(self, dataset, tmp_path):
        cfg, counts = self.export(dataset, tmp_path, "patch", mask_strategy="patch")
        n, k = cfg.num_patches, cfg.patch_size
        m = int(np.floor(cfg.mask_ratio * n))
        assert counts == {"clean": cfg.num_points, "corrupted": (n - m) * k,
                          "recon_masked": m * k, "recon_visible": (n - m) * k,
                          "recon_centers": n}

    def test_no_mask(self, dataset, tmp_path):
        cfg, counts = self.export(dataset, tmp_path, "none", mask_strategy="none")
        n, k = cfg.num_patches, cfg.patch_size
        assert counts == {"clean": cfg.num_points, "corrupted": n * k,
                          "recon_masked": n * k, "recon_centers": n}

    @pytest.mark.parametrize("objective", ["whole", "global-only", "local-only"])
    def test_only_the_trained_heads(self, dataset, tmp_path, objective):
        cfg, counts = self.export(dataset, tmp_path, objective, mask_strategy="patch",
                                  objective=objective)
        n, k = cfg.num_patches, cfg.patch_size
        m = int(np.floor(cfg.mask_ratio * n))
        heads = {"whole": {"reconstruction": cfg.num_points},
                 "global-only": {"recon_centers": n},
                 "local-only": {"recon_masked": m * k, "recon_visible": (n - m) * k}}
        assert counts == {"clean": cfg.num_points, "corrupted": (n - m) * k,
                          **heads[objective]}


# Configs whose runs must rerun bit for bit at the fixed micro-batch size and
# agree across sizes (1 is the per-sample loop) up to rounding: every
# objective, both patch masks and both choices of each head for the
# transformer; both decoders and all four point masks for PointNet; and both
# affine roles for each encoder.
MICRO_BATCH_CONFIGS = [
    dict(mask_strategy="patch", objective="decomposed", local_decoder="fold", global_decoder="fc"),
    dict(mask_strategy="patch", objective="whole", local_decoder="fc", global_decoder="fold"),
    dict(mask_strategy="none", objective="local-only", local_decoder="fold", global_decoder="fold"),
    dict(mask_strategy="none", objective="global-only", local_decoder="fc", global_decoder="fc"),
    dict(mask_strategy="none", objective="decomposed", local_decoder="fc", global_decoder="fold"),
    dict(mask_strategy="patch", objective="local-only", local_decoder="fc", global_decoder="fc",
         precision="double"),
    dict(encoder="pointnet", pointnet_hidden="16", decoder="fc", mask_strategy="random"),
    dict(encoder="pointnet", pointnet_hidden="16", decoder="fold", mask_strategy="fixed",
         cluster_size=5),
    dict(encoder="pointnet", pointnet_hidden="16", decoder="fc", mask_strategy="view",
         precision="double"),
    dict(encoder="pointnet", pointnet_hidden="16", decoder="fold", mask_strategy="none"),
    dict(mask_strategy="patch", objective="whole", local_decoder="fold", global_decoder="fc",
         affine_role="augmentation"),
    dict(encoder="pointnet", pointnet_hidden="16", decoder="fold", mask_strategy="view",
         affine_role="augmentation"),
    dict(encoder="pointnet", pointnet_hidden="16", decoder="fc", mask_strategy="fixed",
         cluster_size=3, affine_role="augmentation", precision="double"),
    dict(encoder="pointnet", pointnet_hidden="16", decoder="fc", mask_strategy="none",
         affine_role="augmentation"),
]


def join(samples):
    """One ``Sample`` of the clouds of ``samples``, batches of one, in order."""
    def cat(arrays):
        return None if arrays[0] is None else np.concatenate(arrays)
    visible = [s.visible for s in samples]
    if isinstance(visible[0], PatchSet):
        visible = PatchSet(centers=cat([v.centers for v in visible]),
                           patches=cat([v.patches for v in visible]), normalized=True)
    else:
        visible = cat(visible)
    plans = None if samples[0].plans is None else [p for s in samples for p in s.plans]
    return Sample(visible, cat([s.target for s in samples]),
                  np.concatenate([s.transforms for s in samples]), plans,
                  cat([s.centers for s in samples]), cat([s.patches for s in samples]))


class TestMicroBatches:
    """A run does not depend on the micro-batch size beyond the rounding of
    its gradient sums, and reruns bit for bit at the fixed ``MICRO_BATCH``;
    grouping and feature extraction do not depend on it at all."""

    @staticmethod
    def run(dataset, cfg, tmp_path, micro, monkeypatch, cpus=1):
        """The checkpoint and metrics bytes of a run at micro-batch size
        ``micro`` with ``cpus`` usable CPUs (one: no helper process, so a
        spy in this process sees every micro-batch)."""
        import recloud.trainer as tr
        monkeypatch.setattr(tr, "MICRO_BATCH", micro)
        monkeypatch.setattr(tr, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"b{cfg.batch_size}-m{micro}"
        out.mkdir(parents=True)
        save_checkpoint(pretrain(dataset, cfg, metrics_path=out / "metrics.csv"),
                        out / "checkpoint.ckpt")
        return (out / "checkpoint.ckpt").read_bytes(), (out / "metrics.csv").read_bytes()

    @helpers_need_shared_memory
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("overrides", MICRO_BATCH_CONFIGS,
                             ids=lambda o: "-".join(str(v) for v in o.values()))
    def test_rerun_at_fixed_micro_batch_is_byte_identical(self, dataset, tmp_path, monkeypatch,
                                                         spawned, overrides, precision):
        import recloud.trainer as tr
        # batch 5 runs micro-batches of 4 and 1, and batch 9 of 4, 4 and 1, so
        # each step adds two or three gradients. Each parameter takes one
        # gradient per micro-batch graph, so their sum in micro-batch order
        # is the same bytes when two helper processes compute the last two
        # (3 usable CPUs); ``TestHelpers`` varies the CPU count
        for batch_size, reruns in ((5, (1, 1)), (9, (1, 3))):
            cfg = tiny_cfg(epochs=2, batch_size=batch_size, **{**overrides, "precision": precision})
            runs = []
            for i, cpus in enumerate(reruns):
                spawned.clear()
                runs.append(self.run(dataset, cfg, tmp_path / f"run{i}", tr.MICRO_BATCH,
                                     monkeypatch, cpus))
                assert len(spawned) == cpus - 1
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("overrides", MICRO_BATCH_CONFIGS,
                             ids=lambda o: "-".join(str(v) for v in o.values()))
    def test_double_runs_agree_across_micro_batches(self, dataset, tmp_path, monkeypatch,
                                                    overrides):
        # a shared weight's gradient is one sum over a micro-batch's rows, so
        # only its rounding may depend on the micro-batch size
        def run(cfg, micro):
            self.run(dataset, cfg, tmp_path, micro, monkeypatch)
            out = tmp_path / f"b{cfg.batch_size}-m{micro}"
            metrics = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1, ndmin=2)
            return load_checkpoint(out / "checkpoint.ckpt"), metrics

        for batch_size, micros in ((5, (4, 64)), (3, (4,))):
            cfg = tiny_cfg(epochs=2, batch_size=batch_size, **{**overrides, "precision": "double"})
            want, want_metrics = run(cfg, 1)
            for micro in micros:
                got, metrics = run(cfg, micro)
                assert (got.config_text, got.fingerprint, got.epoch, got.step) == \
                    (want.config_text, want.fingerprint, want.epoch, want.step)
                for field in ("params", "moments1", "moments2"):
                    arrays, want_arrays = getattr(got, field), getattr(want, field)
                    assert arrays.keys() == want_arrays.keys()
                    for name, arr in arrays.items():
                        assert arr.dtype == np.float64
                        np.testing.assert_allclose(arr, want_arrays[name], rtol=0, atol=1e-12,
                                                   err_msg=f"{field} {name} at micro {micro}")
                # epoch and lr columns equal, the three loss columns to rtol 1e-12
                np.testing.assert_array_equal(metrics[:, [0, 4]], want_metrics[:, [0, 4]])
                np.testing.assert_allclose(metrics[:, 1:4], want_metrics[:, 1:4],
                                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_grouped_micro_batch_equals_each_cloud_grouped_alone(self, dataset, tmp_path,
                                                                monkeypatch, precision):
        # the paper's patch-dae shape: patch mask, both terms, fold local head
        import recloud.trainer as tr
        cfg = tiny_cfg(epochs=2, batch_size=5, precision=precision, **MICRO_BATCH_CONFIGS[0])
        want_calls = []

        def alone(points, c, rngs):
            want_calls.append(len(rngs))
            return join([prepare_sample(p[None], c, [r]) for p, r in zip(points, rngs)])

        got = self.run(dataset, cfg, tmp_path / "grouped", 4, monkeypatch)
        monkeypatch.setattr(tr, "prepare_sample", alone)
        assert self.run(dataset, cfg, tmp_path / "alone", 4, monkeypatch) == got
        # the run hands prepare_sample whole micro-batches
        n = len(load_split(dataset, "train", cfg.num_points, seed=cfg.seed))
        sizes = [min(4, b - lo) for b in (min(5, n - s) for s in range(0, n, 5))
                 for lo in range(0, b, 4)]
        assert max(sizes) == 4 and want_calls == sizes * cfg.epochs

    @pytest.mark.parametrize("encoder", ["transformer", "pointnet"])
    def test_features_independent_of_micro_batch(self, dataset, monkeypatch, encoder):
        import recloud.evaluation as ev
        cfg = tiny_cfg(encoder=encoder, pointnet_hidden="16", epochs=1)
        ckpt = pretrain(dataset, cfg)
        tables = {}
        for micro in (1, 3, 64):
            monkeypatch.setattr(ev, "MICRO_BATCH", micro)
            tables[micro] = ev.extract_features(ckpt, dataset, "train")
        for table in tables.values():
            assert table.ids == tables[1].ids and table.labels == tables[1].labels
            assert table.features.tobytes() == tables[1].features.tobytes()


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@helpers_need_shared_memory
class TestHelpers:
    """With more usable CPUs, helper processes compute the later micro-batches
    of each step, and no output byte moves (here for every CPU count on two
    configs, in ``TestMicroBatches`` with two helpers on every config). Their
    failures surface in the trainer as they would without them, and no
    helper outlives ``pretrain``."""

    # 12 train clouds: a batch of 8, whose second micro-batch a helper computes
    # with 2 usable CPUs, then a batch of 4
    CFG = dict(epochs=3, batch_size=8)

    @staticmethod
    def helper_sample(cfg, dataset, epoch):
        """A sample the helper computes at ``epoch`` with 2 usable CPUs."""
        n = len(load_split(dataset, "train", cfg.num_points, seed=cfg.seed))
        return int(stream(cfg.seed, "shuffle", epoch).permutation(n)[5])

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("overrides", [MICRO_BATCH_CONFIGS[0], MICRO_BATCH_CONFIGS[6]],
                             ids=["patch-decomposed", "pointnet-random"])
    def test_runs_are_the_same_bytes_for_any_usable_cpu_count(self, dataset, tmp_path,
                                                              monkeypatch, spawned, overrides,
                                                              precision):
        # the shares and gradient rows do not depend on the model, so two
        # configs cover them: at batch 5 one helper computes the last
        # micro-batch, at batch 9 one computes the last two or two compute
        # one each, and the short last batch of each epoch has fewer. Each
        # process sums and steps its own range of the parameters: in the
        # PointNet config every cut between two ranges splits the FC weight
        import recloud.trainer as tr
        for batch_size in (5, 9):
            cfg = tiny_cfg(epochs=2, batch_size=batch_size, **{**overrides, "precision": precision})
            if cfg.encoder == "pointnet":
                named = list(build_model(cfg).named_parameters())
                ends = np.cumsum([p.data.size for _, p in named])
                cuts = [ends[-1] * j // w for w in (2, 3) for j in range(1, w)]
                assert {named[int(np.searchsorted(ends, c, side="right"))][0]
                        for c in cuts} == {"decoder.layers.1.weight"}
            runs = []
            for cpus in (1, 2, 3):
                spawned.clear()
                runs.append(TestMicroBatches.run(dataset, cfg, tmp_path / f"cpus{cpus}",
                                                 tr.MICRO_BATCH, monkeypatch, cpus))
                assert len(spawned) == min(cpus, -(-batch_size // tr.MICRO_BATCH)) - 1
            assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("case", ["loss-in-a-helper", "state-in-a-helper-range",
                                      "loss-1e+30", "moments-overflow-double"])
    def test_divergence_is_the_same_with_helpers(self, dataset, tmp_path, monkeypatch, case):
        import recloud.trainer as tr
        poison, trainer_poisoned = None, (1,)
        if case == "loss-in-a-helper":
            cfg = tiny_cfg(**self.CFG)
            poison = (1, self.helper_sample(cfg, dataset, 1), "nan")
        elif case == "state-in-a-helper-range":
            # the trainer computes the one micro-batch of epoch 2's last step,
            # whose gradient turns infinite in the last element: the helper
            # sums and steps it, and alone counts the non-finite values
            cfg = tiny_cfg(**self.CFG)
            n = len(load_split(dataset, "train", cfg.num_points, seed=cfg.seed))
            poison = (1, int(stream(cfg.seed, "shuffle", 1).permutation(n)[-1]), "inf-grad")
            trainer_poisoned = (1, 2)
            name, last = list(build_model(cfg).named_parameters())[-1]
        else:
            cfg = tiny_cfg(encoder="pointnet", pointnet_hidden="16", epochs=5, learning_rate=1e30,
                           batch_size=16, precision="double" if "double" in case else "single")
        spawned = record_helpers(
            monkeypatch, poison and f"tr._micro_batch = test_trainer.poisoned(*{poison!r})")
        outcomes = []
        for cpus in (1, 2):
            monkeypatch.setattr(tr, "_usable_cpus", lambda: cpus)
            with monkeypatch.context() as m:
                if poison is not None and cpus in trainer_poisoned:
                    m.setattr(tr, "_micro_batch", poisoned(*poison))
                with pytest.raises(DivergenceError) as exc:
                    pretrain(dataset, cfg)
            save_checkpoint(exc.value.checkpoint, tmp_path / "last.ckpt")
            outcomes.append((str(exc.value), (tmp_path / "last.ckpt").read_bytes()))
        assert len(spawned) == 1
        assert outcomes[0] == outcomes[1]
        if case == "loss-in-a-helper":
            assert outcomes[0][0].startswith(
                f"non-finite loss at epoch 2, sample {poison[1]}; aborting with the "
                f"checkpoint from epoch 1")
        elif case == "state-in-a-helper-range":
            assert outcomes[0][0] == (
                f"non-finite values in parameter {name!r} (1 of {last.data.size} values) "
                f"after epoch 2; aborting with the checkpoint from epoch 1")

    def test_an_exception_in_a_helper_is_raised_with_its_type(self, dataset, tmp_path,
                                                               monkeypatch, capsys):
        import recloud.trainer as tr
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)
        cfg = tiny_cfg(**self.CFG)
        sample = self.helper_sample(cfg, dataset, 1)
        spawned = record_helpers(
            monkeypatch, f"tr._micro_batch = test_trainer.poisoned(1, {sample}, 'raise')")
        (tmp_path / "c.cfg").write_text(cfg.to_text())
        rc = cli.main(["pretrain", "--manifest", str(dataset.root / "manifest.tsv"),
                       "--out", str(tmp_path / "run"), "--config", str(tmp_path / "c.cfg")])
        assert rc == cli.EXIT_DEGENERATE_MASK
        assert f"error: degenerate-mask: poisoned sample {sample}\n" in capsys.readouterr().err
        assert [p.returncode for p in spawned] == [0]

    def test_a_dead_helper_fails_the_run_naming_its_exit_code(self, dataset, monkeypatch,
                                                               spawned):
        import recloud.trainer as tr
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)

        def kill(epoch, report, lr):
            spawned[0].kill()
            spawned[0].wait()

        with pytest.raises(RuntimeError, match=f"exited with code {-signal.SIGKILL}$"):
            pretrain(dataset, tiny_cfg(**self.CFG), epoch_callback=kill)

    def test_a_helper_killed_while_it_steps_fails_the_run(self, dataset, monkeypatch):
        import recloud.trainer as tr
        # batch 9 holds three micro-batches, so with 3 usable CPUs two
        # helpers own the second and third ranges; the second dies as it
        # enters its third step, the first of epoch 2
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 3)
        spawned = record_helpers(monkeypatch, "tr.AdamW.step = test_trainer.killed_in_step(3)")
        with pytest.raises(RuntimeError) as exc:
            pretrain(dataset, tiny_cfg(**{**self.CFG, "batch_size": 9}))
        assert str(exc.value) == (f"pretraining helper {spawned[1].pid} exited with code "
                                  f"{-signal.SIGKILL}")
        assert [p.returncode for p in spawned] == [0, -signal.SIGKILL]
        assert not any(running(p.pid) for p in spawned)

    def test_no_helper_outlives_pretrain(self, dataset, monkeypatch, spawned):
        import recloud.trainer as tr
        # two micro-batches a step need one helper, however many CPUs are free
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 3)
        cfg = tiny_cfg(**self.CFG)
        pretrain(dataset, cfg)

        class Stop(Exception):
            pass

        def stop(epoch, report, lr):
            raise Stop

        with pytest.raises(Stop):
            pretrain(dataset, cfg, epoch_callback=stop)
        assert [p.returncode for p in spawned] == [0, 0]

    def test_helpers_exit_when_the_trainer_is_killed(self, dataset):
        script = (
            "import subprocess, sys\n"
            "import recloud.trainer as tr\n"
            "class Announced(subprocess.Popen):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        super().__init__(*args, **kwargs)\n"
            "        print('helper', self.pid, flush=True)\n"
            "subprocess.Popen = Announced\n"
            "tr._usable_cpus = lambda: 2\n"
            "tr.pretrain(sys.argv[1], tr.TrainConfig.from_text(sys.stdin.read()),\n"
            "            epoch_callback=lambda *a: print('epoch', flush=True))\n")
        trainer = subprocess.Popen(
            [sys.executable, "-c", script, str(dataset.root / "manifest.tsv")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        trainer.stdin.write(tiny_cfg(**{**self.CFG, "epochs": 1000}).to_text())
        trainer.stdin.close()
        helpers = []
        for line in trainer.stdout:
            if line.startswith("helper"):
                helpers.append(int(line.split()[1]))
            elif line.startswith("epoch"):
                break  # the second epoch has begun
        os.kill(trainer.pid, signal.SIGKILL)
        assert trainer.wait(timeout=10) == -signal.SIGKILL
        trainer.stdout.close()
        deadline = time.monotonic() + 5
        while any(map(running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(helpers) == 1 and not any(map(running, helpers))

    def test_a_finished_run_resumes_without_a_helper(self, dataset, tmp_path, monkeypatch,
                                                    spawned):
        import recloud.trainer as tr
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)
        cfg = tiny_cfg(**{**self.CFG, "epochs": 1})
        save_checkpoint(pretrain(dataset, cfg), tmp_path / "done.ckpt")
        assert len(spawned) == 1  # two micro-batches a step: a helper computes one
        spawned.clear()
        resumed = pretrain(dataset, cfg, resume=load_checkpoint(tmp_path / "done.ckpt"))
        save_checkpoint(resumed, tmp_path / "resumed.ckpt")
        assert spawned == []
        assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "done.ckpt").read_bytes()

    @pytest.mark.parametrize("case", ["non-finite-resume", "empty-train-split",
                                      "patch-mask-ratio-1", "point-mask-ratio-1"])
    def test_a_rejected_run_starts_no_helper_and_leaves_no_out(self, dataset, tmp_path,
                                                              monkeypatch, capsys, spawned, case):
        import recloud.trainer as tr
        monkeypatch.setattr(tr, "_usable_cpus", lambda: 2)
        manifest, args = dataset.root / "manifest.tsv", []
        if case.endswith("mask-ratio-1"):
            cfg = tiny_cfg(batch_size=8,
                           encoder="pointnet" if case.startswith("point") else "transformer")
            args = ["--alpha", "1.0"]
        else:
            cfg = tiny_cfg(**TestResumeCheck.CFG, batch_size=8)
        if case == "non-finite-resume":
            save_checkpoint(TestResumeCheck.poisoned(cfg, {("params", None): np.nan}),
                            tmp_path / "nan.ckpt")
            args = ["--resume", str(tmp_path / "nan.ckpt")]
        elif case == "empty-train-split":
            manifest = dataset.root / "test-only.tsv"
            lines = (dataset.root / "manifest.tsv").read_text().splitlines(keepends=True)
            manifest.write_text("".join(line for line in lines if line.endswith("\ttest\n")))
        (tmp_path / "c.cfg").write_text(cfg.to_text())
        rc = cli.main(["pretrain", "--manifest", str(manifest), "--out", str(tmp_path / "run"),
                       "--config", str(tmp_path / "c.cfg"), *args])
        assert rc == cli.EXIT_BAD_CONFIG
        assert "error: invalid-config: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and spawned == []


class TestPrecisionContract:
    """``precision`` fixes the dtype of parameters and both moment sets."""

    @staticmethod
    def _dtypes(ck):
        return {arr.dtype for arrays in (ck.params, ck.moments1, ck.moments2)
                for arr in arrays.values()}

    @pytest.mark.parametrize("encoder", ["pointnet", "transformer"])
    @pytest.mark.parametrize("precision,dtype", [("single", np.float32),
                                                 ("double", np.float64)])
    def test_checkpoint_dtype_follows_precision(self, dataset, encoder, precision, dtype):
        cfg = tiny_cfg(encoder=encoder, pointnet_hidden="16", precision=precision,
                       epochs=2)
        assert self._dtypes(pretrain(dataset, cfg)) == {np.dtype(dtype)}

    @pytest.mark.parametrize("encoder", ["pointnet", "transformer"])
    def test_single_sample_graph_is_float32(self, dataset, encoder):
        # no node of the forward graph, and no gradient, widens to float64
        cfg = tiny_cfg(encoder=encoder, pointnet_hidden="16", precision="single")
        model = build_model(cfg)
        clouds = load_split(dataset, "train", cfg.num_points, seed=cfg.seed)
        sample = prepare_sample(clouds[0][None], cfg, [stream(cfg.seed, "sample", 0, 0)])
        total, *_ = sample_loss(model, sample, cfg)
        backward(total)
        seen, stack, dtypes = set(), [total], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                dtypes.add(node.data.dtype)
                stack.extend(node._parents)
        assert dtypes == {np.dtype(np.float32)}
        assert {p.grad.dtype for p in model.parameters() if p.grad is not None} \
            == {np.dtype(np.float32)}

    @pytest.mark.parametrize("encoder,grad_tol", [("transformer", 1e-5), ("pointnet", None)])
    def test_single_matches_double_with_same_weights(self, dataset, encoder, grad_tol):
        # float32 losses within 1e-6 relative of float64; transformer gradients
        # within 1e-5 by global L2 norm. PointNet gradients are not gated: at
        # init the FC decoder's points cluster, so float32 nearest-neighbor
        # near-ties route Chamfer gradients to other points.
        runs = {}
        for precision in ("single", "double"):
            cfg = tiny_cfg(encoder=encoder, pointnet_hidden="16", precision=precision)
            runs[precision] = (cfg, build_model(cfg))
        for narrow, wide in zip(runs["single"][1].parameters(), runs["double"][1].parameters()):
            wide.data = narrow.data.astype(np.float64)
        cfg = runs["single"][0]
        clouds = load_split(dataset, "train", cfg.num_points, seed=cfg.seed)
        for i, x in enumerate(clouds):
            out = {}
            for precision, (cfg, model) in runs.items():
                sample = prepare_sample(x[None], cfg, [stream(cfg.seed, "sample", 0, i)])
                model.zero_grad()
                total, *_ = sample_loss(model, sample, cfg)
                backward(total)
                grads = [p.grad.astype(np.float64).ravel() for p in model.parameters()
                         if p.grad is not None]
                out[precision] = (float(total.data[0]), np.concatenate(grads))
            (loss32, grad32), (loss64, grad64) = out["single"], out["double"]
            assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
            if grad_tol is not None:
                assert np.linalg.norm(grad32 - grad64) <= grad_tol * np.linalg.norm(grad64)

    def test_single_resume_from_float64_checkpoint(self, dataset):
        # checkpoints of single runs once held float64 params and moments;
        # resuming one trains and checkpoints in float32 again
        cfg = tiny_cfg(precision="single", epochs=2)
        model = build_model(cfg)
        start = snapshot(model, AdamW(model.parameters()), cfg, epoch=0)
        wide = {field: {name: arr.astype(np.float64) for name, arr in arrays.items()}
                for field, arrays in (("params", start.params), ("moments1", start.moments1),
                                      ("moments2", start.moments2))}
        old = dataclasses.replace(start, **wide)
        assert self._dtypes(old) == {np.dtype(np.float64)}
        assert self._dtypes(pretrain(dataset, cfg, resume=old)) == {np.dtype(np.float32)}


class TestCheckpointFile:
    def test_round_trip_bits(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg)
        opt = AdamW(model.parameters())
        ck = snapshot(model, opt, cfg, epoch=3)
        path = tmp_path / "c.ckpt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.epoch == 3 and back.fingerprint == cfg.fingerprint()
        assert back.config_text == cfg.to_text()
        for name in ck.params:
            np.testing.assert_array_equal(back.params[name], ck.params[name])
            np.testing.assert_array_equal(back.moments1[name], ck.moments1[name])

    def test_identical_bytes_for_identical_params(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg)
        opt = AdamW(model.parameters())
        ck = snapshot(model, opt, cfg, epoch=1)
        save_checkpoint(ck, tmp_path / "a.ckpt")
        save_checkpoint(ck, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_cfg()
        model = build_model(cfg)
        ck = snapshot(model, AdamW(model.parameters()), cfg, epoch=1)
        path = tmp_path / "checkpoint.ckpt"
        save_checkpoint(ck, path)
        before = path.read_bytes()

        def write_half_then_fail(self, data):
            with open(self, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", write_half_then_fail)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(dataclasses.replace(ck, epoch=2), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 1
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.ckpt"]

    def test_save_replaces_existing_file_and_leaves_no_temporary(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg)
        ck = snapshot(model, AdamW(model.parameters()), cfg, epoch=1)
        save_checkpoint(ck, tmp_path / "fresh.ckpt")
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"previous")
        save_checkpoint(ck, path)
        assert path.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", "fresh.ckpt"]

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a recloud checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg)
        ck = snapshot(model, AdamW(model.parameters()), cfg, epoch=0)
        path = tmp_path / "v.ckpt"
        save_checkpoint(ck, path)
        blob = bytearray(path.read_bytes())
        blob[12] = 99  # version field follows the 12-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg)
        ck = snapshot(model, AdamW(model.parameters()), cfg, epoch=0)
        path = tmp_path / "t.ckpt"
        save_checkpoint(ck, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path, capsys):
        cfg = tiny_cfg()
        model = build_model(cfg)
        ck = snapshot(model, AdamW(model.parameters()), cfg, epoch=0)
        path = tmp_path / "t.ckpt"
        save_checkpoint(ck, path)
        path.write_bytes(path.read_bytes() + b"7 bytes")
        with pytest.raises(ValueError, match=re.escape(f"{path}: 7 bytes after the last array")):
            load_checkpoint(path)
        rc = cli.main(["probe", "--checkpoint", str(path), "--manifest", "unread.tsv",
                       "--out", str(tmp_path / "probe")])
        assert rc == cli.EXIT_BAD_CONFIG
        assert "error: invalid-config: " in capsys.readouterr().err

    def test_restore_into_mismatched_model(self, tmp_path):
        cfg = tiny_cfg()
        model = build_model(cfg)
        ck = snapshot(model, AdamW(model.parameters()), cfg, epoch=0)
        other = build_model(tiny_cfg(encoder="pointnet", pointnet_hidden="16"))
        with pytest.raises(ValueError, match="does not match"):
            restore(other, ck, AdamW(other.parameters()))


class TestInitStream:
    """The weights a fresh ``build_model`` draws, pinned: a change to the
    constructors that re-draws or reorders them changes these digests."""

    TINY = {
        "pointnet": dict(encoder="pointnet", num_points=32, pointnet_hidden="8",
                         feature_dim=8, fc_hidden=8),
        "transformer": dict(encoder="transformer", num_points=32, num_patches=4,
                            patch_size=4, feature_dim=8, encoder_depth=2, decoder_depth=1,
                            num_heads=2, ffn_mult=2, pe_hidden=8, token_hidden=8,
                            fc_hidden=8, fold_hidden=8),
    }

    @pytest.mark.parametrize("encoder,precision,count,digest", [
        ("pointnet", "single", 1040,
         "568be7eee0195975354119d5b8d47bc18a847d2b9f423e62dc47403154e10962"),
        ("pointnet", "double", 1040,
         "52785b503a2e5c3f08caef8d1b5dbcfd484bbc9d23d946df0db1d4caffd59656"),
        ("transformer", "single", 2487,
         "061f1cb39fb02cefdc24f8cc256ecb761ec632920b98f0d41b14308c2a9f6490"),
        ("transformer", "double", 2487,
         "a438d6127a006ce21c441cd7e1b183364220f8c4fe4d2b84c2de3aba5b8f3f9d"),
    ])
    def test_fresh_weights_are_pinned(self, encoder, precision, count, digest):
        model = build_model(TrainConfig(seed=7, precision=precision, **self.TINY[encoder]))
        h = hashlib.sha256()
        for name, p in model.named_parameters():
            h.update(name.encode() + b"\0" + str(p.data.dtype).encode() + b"\0"
                     + p.data.tobytes())
        assert sum(p.data.size for p in model.parameters()) == count
        assert h.hexdigest() == digest

    def test_an_allocated_model_has_zeros_where_a_fresh_one_draws(self):
        cfg = TrainConfig(seed=7, **self.TINY["transformer"])
        drawn, allocated = build_model(cfg), build_model(cfg, draw=False)
        assert [n for n, _ in drawn.named_parameters()] == [
            n for n, _ in allocated.named_parameters()]
        for p, q in zip(drawn.parameters(), allocated.parameters()):
            assert q.data.dtype == p.data.dtype and q.data.shape == p.data.shape
            # biases, layer-norm gains and zero-initialized layers draw nothing
            assert np.array_equal(q.data, p.data) or not q.data.any()
