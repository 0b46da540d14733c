"""Learnable components: global point encoder, patch-token transformer
encoder/decoder, positional embeddings, and the reconstruction heads.

Every component is built from the autograd primitives, takes an explicit
construction RNG (so initialization is reproducible), and runs batch-first:
axis 0 of every input and output is the sample. No operation mixes samples,
and the shared weights receive their gradients one sample at a time (see
``autograd``), so a batch computes exactly what a loop over its samples
would, bit for bit.

The two autoencoders are built from one resolved ``TrainConfig``. Layers
draw their parameters in float64, and ``trainer.build_model`` casts each
one once to the run's ``precision``; from then on the parameters own the
model's dtype. Geometry (``PatchSet``, point clouds) stays float64;
``_as_tensor`` casts it to the dtype of the layer it enters, and that is
the only cast at run time: every primitive keeps its operands' dtype, the
constants a layer makes take the dtype of its weights or its input, and the
losses cast their targets to the prediction's dtype.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corruption import MaskPlan
from .geometry import PatchSet
from .layers import Linear, Module, Parameter, TransformerBlock, mlp_chain, run_mlp

if TYPE_CHECKING:
    from .trainer import TrainConfig


def _as_tensor(x, like: Linear) -> Tensor:
    """Model input as a tensor in the dtype of the layer it enters."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.weight.data.dtype))


class PointNetEncoder(Module):
    """Shared per-point MLP followed by a max pool over all points (Eq.-4 style
    global feature); permutation-invariant by construction. ``widths`` runs
    from 3 to the feature dim."""

    def __init__(self, widths: tuple[int, ...], rng: np.random.Generator):
        if len(widths) < 2 or widths[0] != 3:
            raise ValueError(f"widths must start at 3 with at least one layer, got {widths}")
        if any(w <= 0 for w in widths):
            raise ValueError("widths must be positive")
        self.layers = mlp_chain(widths, rng)

    def __call__(self, points) -> Tensor:
        x = _as_tensor(points, self.layers[0])  # (B, w, 3)
        feat = run_mlp(self.layers, x)          # (B, w, d)
        return ag.max_pool_over_axis(feat, axis=1)  # (B, d)


class TokenEmbedder(Module):
    """Per-patch PointNet: shared MLP on coordinates, max pool across the k
    neighbors; ``(B, n, k, 3)`` patches to ``(B, n, d)`` tokens. Input patches
    must be center-normalized."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.layers = mlp_chain((3, hidden, dim), rng)

    def __call__(self, patches) -> Tensor:
        if isinstance(patches, PatchSet):
            raise TypeError("pass PatchSet.patches after normalization, not the PatchSet")
        x = _as_tensor(patches, self.layers[0])  # (B, n, k, 3)
        b, n, k, _ = x.shape
        flat = ag.reshape(x, (b, n * k, 3))
        feat = ag.reshape(run_mlp(self.layers, flat), (b, n, k, -1))
        return ag.max_pool_over_axis(feat, axis=2)  # (B, n, d)


def embed_tokens(embedder: TokenEmbedder, patches: PatchSet) -> Tensor:
    """Tokenize a normalized patch set; rejects unnormalized input."""
    if not patches.normalized:
        raise ValueError("token embedding requires center-normalized patches")
    return embedder(patches.patches)


class PositionalEmbed(Module):
    """Learnable MLP from 3-D centers to the model dim.

    The final layer is zero-initialized so embeddings start at zero; the
    encoder and decoder each own an independent instance.
    """

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(3, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng, zero_init=True)

    def __call__(self, centers) -> Tensor:
        x = _as_tensor(centers, self.fc1)
        return self.fc2(ag.gelu(self.fc1(x)))


class TransformerEncoder(Module):
    """Stack of pre-norm blocks; the positional embedding is added to the
    block input at every block (patch coordinates are normalized, so the
    tokens carry no absolute position themselves)."""

    def __init__(self, dim: int, depth: int, heads: int, ffn_mult: int,
                 rng: np.random.Generator):
        self.blocks = [TransformerBlock(dim, heads, ffn_mult, rng) for _ in range(depth)]

    def __call__(self, tokens: Tensor, pe: Tensor) -> Tensor:
        x = tokens
        for block in self.blocks:
            x = block(ag.add(x, pe))
        return x


class PatchDecoder(Module):
    """Transformer decoder over the full n-token sequence.

    Visible positions carry encoded tokens, masked positions carry the
    duplicated learnable mask token; its own positional embedding is added
    per block. Returns the masked rows in ascending masked-index order.
    ``plans`` holds one mask plan per batch entry, all with the same counts.
    """

    def __init__(self, dim: int, depth: int, heads: int, ffn_mult: int,
                 rng: np.random.Generator):
        self.mask_token = Parameter(rng.normal(0.0, 0.02, size=(1, dim)))
        self.blocks = [TransformerBlock(dim, heads, ffn_mult, rng) for _ in range(depth)]

    def assemble(self, encoded: Tensor, plans: list[MaskPlan]) -> Tensor:
        visible = np.stack([p.visible for p in plans])
        masked = np.stack([p.masked for p in plans])
        b, v, _ = encoded.shape
        if visible.shape != (b, v):
            raise ValueError(
                f"plans have {visible.shape} visible positions but got "
                f"{(b, v)} encoded tokens")
        n = plans[0].total_count
        vis = ag.scatter_rows(encoded, visible, n)
        m = masked.shape[1]
        if m == 0:
            return vis
        ones = Tensor(np.ones((b, m, 1), dtype=self.mask_token.data.dtype))
        dup = ag.linear(ones, self.mask_token.tensor)  # (B, m, d), one stored vector
        return ag.add(vis, ag.scatter_rows(dup, masked, n))

    def __call__(self, encoded: Tensor, pe_all: Tensor, plans: list[MaskPlan]) -> Tensor:
        n = plans[0].total_count
        if pe_all.shape[1] != n:
            raise ValueError(f"decoder PE covers {pe_all.shape[1]} positions, plan has {n}")
        x = self.assemble(encoded, plans)
        for block in self.blocks:
            x = block(ag.add(x, pe_all))
        return ag.gather_rows(x, np.stack([p.masked for p in plans]))

    def decode_all(self, encoded: Tensor, pe_all: Tensor) -> Tensor:
        """Run the decoder with no masked slots and return every position
        (used when masking is disabled and all patches are reconstructed)."""
        x = encoded
        for block in self.blocks:
            x = block(ag.add(x, pe_all))
        return x


class FCDecoder(Module):
    """Fully connected head: ``(B, d)`` feature vectors to ``(B, out_points, 3)``
    clouds."""

    def __init__(self, in_dim: int, out_points: int, hidden: int, rng: np.random.Generator):
        self.out_points = out_points
        self.layers = mlp_chain((in_dim, hidden, 3 * out_points), rng)

    def __call__(self, feature: Tensor) -> Tensor:
        b, d = feature.shape
        flat = run_mlp(self.layers, ag.reshape(feature, (b, 1, d)))  # (B, 1, 3w)
        return ag.reshape(flat, (b, self.out_points, 3))


def folding_grid(k: int) -> np.ndarray:
    """k seeds on the smallest near-square grid covering k.

    Coordinates span [-0.5, 0.5] per axis, row-major, truncated to k.
    """
    rows = int(np.ceil(np.sqrt(k)))
    cols = int(np.ceil(k / rows))
    u = np.linspace(-0.5, 0.5, rows)
    v = np.linspace(-0.5, 0.5, cols)
    grid = np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1).reshape(-1, 2)
    return grid[:k]


class FoldDecoder(Module):
    """Folding head: deform a canonical 2-D grid conditioned on each feature
    row through one shared MLP pass; ``(B, m, d)`` rows to ``(B, m, k, 3)``,
    or one ``(B, d)`` row per sample to ``(B, k, 3)``."""

    def __init__(self, feat_dim: int, points_per_patch: int, hidden: int,
                 rng: np.random.Generator):
        self.points_per_patch = points_per_patch
        self.grid = folding_grid(points_per_patch)
        self.layers = mlp_chain((feat_dim + 2, hidden, hidden, 3), rng)

    def __call__(self, features: Tensor) -> Tensor:
        k = self.points_per_patch
        if features.data.ndim == 2:
            b, d = features.shape
            return ag.reshape(self(ag.reshape(features, (b, 1, d))), (b, k, 3))
        b, m, d = features.shape
        # broadcast each row over its k seeds; add's backward sums them back
        rep = ag.add(ag.reshape(features, (b, m, 1, d)), Tensor(np.zeros((k, 1), features.dtype)))
        rep = ag.reshape(rep, (b, m * k, d))                                # (B, m*k, d)
        grid = self.grid.astype(features.dtype)
        seeds = Tensor(np.broadcast_to(np.tile(grid, (m, 1)), (b, m * k, 2)))
        x = ag.concat([seeds, rep], axis=2)
        pts = run_mlp(self.layers, x)                                       # (B, m*k, 3)
        return ag.reshape(pts, (b, m, k, 3))


class PatchFCHead(Module):
    """Per-token fully connected head: each d-vector of ``(B, m, d)`` to a
    (k, 3) patch."""

    def __init__(self, feat_dim: int, points_per_patch: int, hidden: int,
                 rng: np.random.Generator):
        self.points_per_patch = points_per_patch
        self.layers = mlp_chain((feat_dim, hidden, 3 * points_per_patch), rng)

    def __call__(self, features: Tensor) -> Tensor:
        b, m, _ = features.shape
        flat = run_mlp(self.layers, features)  # (B, m, 3k)
        return ag.reshape(flat, (b, m, self.points_per_patch, 3))


def pool_tokens(encoded: Tensor, kind: str = "max") -> Tensor:
    """Merge the ``(B, n, d)`` token rows into one ``(B, d)`` feature each."""
    if kind == "max":
        return ag.max_pool_over_axis(encoded, axis=1)
    if kind == "mean":
        return ag.mean_pool_over_axis(encoded, axis=1)
    raise ValueError(f"unknown pooling {kind!r}")


class GlobalCenterHead(Module):
    """Max-pool the visible encoded tokens and predict all n patch centers."""

    def __init__(self, dim: int, num_centers: int, rng: np.random.Generator,
                 decoder: str = "fc", fc_hidden: int = 256, fold_hidden: int = 64):
        if decoder == "fc":
            self.head = FCDecoder(dim, num_centers, fc_hidden, rng)
        elif decoder == "fold":
            self.head = FoldDecoder(dim, num_centers, fold_hidden, rng)
        else:
            raise ValueError(f"unknown center decoder {decoder!r}")

    def __call__(self, encoded: Tensor) -> Tensor:
        return self.head(pool_tokens(encoded, "max"))


class CloudAutoencoder(Module):
    """Whole-cloud autoencoder: global encoder plus a cloud decoder.

    Reconstructs a fixed-size cloud from the (masked, transformed) input;
    the decoder is either fully connected or folding-based.
    """

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        hidden = tuple(int(x) for x in cfg.pointnet_hidden.split(",") if x.strip())
        self.encoder = PointNetEncoder((3,) + hidden + (cfg.feature_dim,), rng)
        if cfg.decoder == "fc":
            self.decoder = FCDecoder(cfg.feature_dim, cfg.num_points, cfg.fc_hidden, rng)
        elif cfg.decoder == "fold":
            self.decoder = FoldDecoder(cfg.feature_dim, cfg.num_points, cfg.fold_hidden, rng)
        else:
            raise ValueError(f"unknown decoder {cfg.decoder!r}")

    def reconstruct(self, visible_points) -> Tensor:
        """``(B, num_points, 3)`` clouds from ``(B, w, 3)`` visible points."""
        return self.decoder(self.encoder(visible_points))


class PatchAutoencoder(Module):
    """Masked patch autoencoder: token embedding, transformer encoder over
    visible tokens, transformer patch decoder with a duplicated mask token,
    a local patch head, and a pooled global center head.

    Encoder and decoder carry separate positional embeddings because they
    receive transformed and vanilla centers respectively.
    """

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        if cfg.decoder_depth >= cfg.encoder_depth:
            raise ValueError(
                f"decoder depth {cfg.decoder_depth} must be smaller than "
                f"encoder depth {cfg.encoder_depth}")
        if not 0.0 < cfg.mask_ratio < 1.0:
            raise ValueError(f"mask ratio must be in (0, 1), got {cfg.mask_ratio}")
        d, ffn = cfg.feature_dim, cfg.ffn_mult
        self.token_embed = TokenEmbedder(d, cfg.token_hidden, rng)
        self.pos_embed_encoder = PositionalEmbed(d, cfg.pe_hidden, rng)
        self.pos_embed_decoder = PositionalEmbed(d, cfg.pe_hidden, rng)
        self.encoder = TransformerEncoder(d, cfg.encoder_depth, cfg.num_heads, ffn, rng)
        self.patch_decoder = PatchDecoder(d, cfg.decoder_depth, cfg.num_heads, ffn, rng)
        if cfg.local_decoder == "fold":
            self.local_head = FoldDecoder(d, cfg.patch_size, cfg.fold_hidden, rng)
        elif cfg.local_decoder == "fc":
            self.local_head = PatchFCHead(d, cfg.patch_size, cfg.fc_hidden, rng)
        else:
            raise ValueError(f"unknown local decoder {cfg.local_decoder!r}")
        self.center_head = GlobalCenterHead(d, cfg.num_patches, rng, decoder=cfg.global_decoder,
                                            fc_hidden=cfg.fc_hidden, fold_hidden=cfg.fold_hidden)
        # head for the direct whole-cloud objective variant
        self.whole_head = (FCDecoder(d, cfg.num_points, cfg.fc_hidden, rng)
                           if cfg.objective == "whole" else None)

    def encode_visible(self, visible_patches: PatchSet) -> Tensor:
        """``(B, v, d)`` encoded tokens of a batch of visible (normalized)
        patch sets (``PatchSet.stack``)."""
        tokens = embed_tokens(self.token_embed, visible_patches)
        pe = self.pos_embed_encoder(visible_patches.centers)
        return self.encoder(tokens, pe)

    def decode_masked(self, encoded: Tensor, target_centers: np.ndarray,
                      plans: list[MaskPlan]) -> Tensor:
        """Decoded mask tokens guided by the reconstruction-target centers."""
        pe_all = self.pos_embed_decoder(target_centers)
        return self.patch_decoder(encoded, pe_all, plans)

    def predict_masked_patches(self, encoded: Tensor, target_centers: np.ndarray,
                               plans: list[MaskPlan]) -> Tensor:
        """(B, m, k, 3) normalized patch predictions at the masked positions."""
        return self.local_head(self.decode_masked(encoded, target_centers, plans))

    def predict_all_patches(self, encoded: Tensor, target_centers: np.ndarray) -> Tensor:
        """(B, n, k, 3) predictions for every patch (no-masking mode)."""
        pe_all = self.pos_embed_decoder(target_centers)
        decoded = self.patch_decoder.decode_all(encoded, pe_all)
        return self.local_head(decoded)

    def predict_centers(self, encoded: Tensor) -> Tensor:
        return self.center_head(encoded)

    def predict_whole(self, encoded: Tensor) -> Tensor:
        if self.whole_head is None:
            raise ValueError("model was built without a whole-cloud head")
        return self.whole_head(pool_tokens(encoded, "max"))

    def encode_all(self, patches: PatchSet) -> Tensor:
        """Encoded tokens for a full (unmasked, uncorrupted) patch set;
        used at probe time."""
        return self.encode_visible(patches)
