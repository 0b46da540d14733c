"""Learnable components: global point encoder, patch-token transformer
encoder/decoder, positional embeddings, and the reconstruction heads.

Every component is built from the autograd primitives, takes an explicit
construction RNG (so initialization is reproducible; with none it draws
nothing and its weights are ``layers.unfilled`` zeros for a checkpoint to
fill), and runs batch-first: axis 0 of every input and output is the
sample. No forward operation mixes samples, so every output row of a
batch equals that of its sample alone, bit for bit; the shared weights'
gradients are summed over the whole batch at once (see ``autograd``).

The two autoencoders are built from one ``TrainConfig``. Layers
draw their parameters in float64, and ``trainer.build_model`` casts each
one once to the run's ``precision``; from then on the parameters own the
model's dtype. Geometry (``PatchSet``, point clouds) stays float64;
``_as_tensor`` casts it to the dtype of the layer it enters, and that is
the only cast at run time: every primitive keeps its operands' dtype, the
constants a layer makes take the dtype of its weights or its input, and the
losses cast their targets to the prediction's dtype.

Every reconstruction head (``FCDecoder``, ``FoldDecoder``; ``point_head``
builds one by kind) maps ``(B, ..., d)`` feature rows to ``(B, ..., k, 3)``
point sets: one pooled row per sample for a whole cloud or the patch
centers, one row per decoded token for local patches; the folding head
never copies a row per grid seed (``autograd.fold_linear``). The patch
model makes every local prediction through
``PatchAutoencoder.predict_patches``, with mask plans for the masked
patches or without them for all patches.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corruption import MaskPlan
from .geometry import PatchSet
from .layers import (Linear, Module, Parameter, TransformerBlock, init_normal, mlp_chain,
                     run_mlp)

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

    def __init__(self, widths: tuple[int, ...], rng: np.random.Generator | None):
        if len(widths) < 2 or widths[0] != 3:
            raise ValueError(f"widths must start at 3 with at least one layer, got {widths}")
        self.layers = mlp_chain(widths, rng)

    def __call__(self, points) -> Tensor:
        x = _as_tensor(points, self.layers[0])  # (B, w, 3)
        feat = run_mlp(self.layers, x)          # (B, w, d)
        return ag.max_pool_over_axis(feat, axis=1)  # (B, d)


class TokenEmbedder(Module):
    """Per-patch PointNet: shared MLP on coordinates, max pool across the k
    neighbors; a center-normalized ``PatchSet`` of ``(B, n, k, 3)`` patches
    to ``(B, n, d)`` tokens. Each layer takes the ``(B, n, k, w)`` rows as
    they are: ``ag.linear`` makes the ``(B, n·k, w)`` view itself."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator | None):
        self.layers = mlp_chain((3, hidden, dim), rng)

    def __call__(self, patches: PatchSet) -> Tensor:
        if not patches.normalized:
            raise ValueError("token embedding requires center-normalized patches")
        x = _as_tensor(patches.patches, self.layers[0])  # (B, n, k, 3)
        feat = run_mlp(self.layers, x)  # (B, n, k, d)
        return ag.max_pool_over_axis(feat, axis=2)  # (B, n, d)


class PositionalEmbed(Module):
    """Learnable MLP from 3-D centers to the model dim.

    The final layer is zero-initialized so embeddings start at zero; the
    encoder and decoder each own an independent instance.
    """

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator | None):
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
                 rng: np.random.Generator | None):
        self.blocks = [TransformerBlock(dim, heads, ffn_mult, rng) for _ in range(depth)]

    def __call__(self, tokens: Tensor, pe: Tensor) -> Tensor:
        x = tokens
        for block in self.blocks:
            x = block(ag.add(x, pe))
        return x


class PatchDecoder(Module):
    """Transformer decoder over the full n-token sequence.

    With ``plans`` (one mask plan per batch entry, all with the same counts)
    visible positions carry the encoded tokens and masked positions the
    duplicated learnable mask token, and the masked rows are returned in
    ascending masked-index order. Without plans every position is encoded
    and every row is returned. Its own positional embedding is added per
    block.
    """

    def __init__(self, dim: int, depth: int, heads: int, ffn_mult: int,
                 rng: np.random.Generator | None):
        self.mask_token = Parameter(init_normal((1, dim), rng))
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
        # broadcast the stored token over the masked rows; add's backward sums them back
        dup = ag.add(Tensor(np.zeros((b, m, 1), self.mask_token.dtype)),
                     self.mask_token)  # (B, m, d)
        return ag.add(vis, ag.scatter_rows(dup, masked, n))

    def __call__(self, encoded: Tensor, pe_all: Tensor,
                 plans: list[MaskPlan] | None = None) -> Tensor:
        x = encoded if plans is None else self.assemble(encoded, plans)
        if pe_all.shape[1] != x.shape[1]:
            raise ValueError(f"decoder PE covers {pe_all.shape[1]} positions, "
                             f"the sequence has {x.shape[1]}")
        for block in self.blocks:
            x = block(ag.add(x, pe_all))
        return x if plans is None else ag.gather_rows(x, np.stack([p.masked for p in plans]))


class FCDecoder(Module):
    """Fully connected head: ``(B, ..., d)`` feature rows to ``(B, ..., k, 3)``
    point sets, each row through the same two layers."""

    def __init__(self, in_dim: int, points: int, hidden: int, rng: np.random.Generator | None):
        self.points = points
        self.layers = mlp_chain((in_dim, hidden, 3 * points), rng)

    def __call__(self, features: Tensor) -> Tensor:
        flat = run_mlp(self.layers, features)  # (B, ..., 3k)
        return ag.reshape(flat, features.shape[:-1] + (self.points, 3))


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
    """Folding head: deform a canonical 2-D grid of k seeds conditioned on
    each feature row through one shared ReLU MLP over ``[seed | row]``
    (FoldingNet's first folding, arXiv 1712.07262), whose first layer is
    ``ag.fold_linear``; ``(B, ..., d)`` rows to ``(B, ..., k, 3)`` point sets."""

    def __init__(self, feat_dim: int, points: int, hidden: int, rng: np.random.Generator | None):
        self.grid = folding_grid(points)
        self.layers = mlp_chain((feat_dim + 2, hidden, hidden, 3), rng)

    def __call__(self, features: Tensor) -> Tensor:
        first, *rest = self.layers
        x = ag.fold_linear(features, self.grid, first.weight, first.bias)  # (B, ..., k, hidden)
        return run_mlp(rest, ag.relu(x))


HEAD_KINDS = ("fc", "fold")


def point_head(kind: str, dim: int, points: int, cfg: TrainConfig,
               rng: np.random.Generator | None) -> Module:
    """The ``kind`` head (one of ``HEAD_KINDS``) from ``dim`` features to
    ``points`` points per row, with the config's hidden width for that kind."""
    if kind == "fc":
        return FCDecoder(dim, points, cfg.fc_hidden, rng)
    if kind == "fold":
        return FoldDecoder(dim, points, cfg.fold_hidden, rng)
    raise ValueError(f"unknown head kind {kind!r}")


class GlobalCenterHead(Module):
    """Max-pool the visible encoded tokens and predict all n patch centers
    with ``head``."""

    def __init__(self, head: Module):
        self.head = head

    def __call__(self, encoded: Tensor) -> Tensor:
        return self.head(ag.max_pool_over_axis(encoded, axis=1))


class CloudAutoencoder(Module):
    """Whole-cloud autoencoder: global encoder plus a cloud decoder.

    Reconstructs a fixed-size cloud from the (masked, transformed) input;
    the decoder is either fully connected or folding-based.
    """

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator | None):
        self.encoder = PointNetEncoder(cfg.pointnet_widths, rng)
        self.decoder = point_head(cfg.decoder, cfg.feature_dim, cfg.num_points, cfg, rng)

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

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator | None):
        d, ffn = cfg.feature_dim, cfg.ffn_mult
        self.token_embed = TokenEmbedder(d, cfg.token_hidden, rng)
        self.pos_embed_encoder = PositionalEmbed(d, cfg.pe_hidden, rng)
        self.pos_embed_decoder = PositionalEmbed(d, cfg.pe_hidden, rng)
        self.encoder = TransformerEncoder(d, cfg.encoder_depth, cfg.num_heads, ffn, rng)
        self.patch_decoder = PatchDecoder(d, cfg.decoder_depth, cfg.num_heads, ffn, rng)
        self.local_head = point_head(cfg.local_decoder, d, cfg.patch_size, cfg, rng)
        self.center_head = GlobalCenterHead(
            point_head(cfg.global_decoder, d, cfg.num_patches, cfg, rng))
        # head for the direct whole-cloud objective variant
        self.whole_head = (FCDecoder(d, cfg.num_points, cfg.fc_hidden, rng)
                           if cfg.objective == "whole" else None)

    def encode_visible(self, visible_patches: PatchSet) -> Tensor:
        """``(B, v, d)`` encoded tokens of a batch of visible (normalized)
        patch sets, one ``PatchSet`` with a leading batch axis."""
        tokens = self.token_embed(visible_patches)
        pe = self.pos_embed_encoder(visible_patches.centers)
        return self.encoder(tokens, pe)

    def predict_patches(self, encoded: Tensor, centers: np.ndarray,
                        plans: list[MaskPlan] | None = None) -> Tensor:
        """Normalized patch predictions, the decoder guided by the ``(B, n, 3)``
        reconstruction-target centers: ``(B, m, k, 3)`` at the plans' masked
        positions in ascending order, or ``(B, n, k, 3)`` for every patch
        when there are no plans (no masking)."""
        pe_all = self.pos_embed_decoder(centers)
        return self.local_head(self.patch_decoder(encoded, pe_all, plans))

    def predict_centers(self, encoded: Tensor) -> Tensor:
        return self.center_head(encoded)

    def predict_whole(self, encoded: Tensor) -> Tensor:
        if self.whole_head is None:
            raise ValueError("model was built without a whole-cloud head")
        return self.whole_head(ag.max_pool_over_axis(encoded, axis=1))

    def encode_all(self, patches: PatchSet) -> Tensor:
        """Encoded tokens for a full (unmasked, uncorrupted) patch set;
        used at probe time."""
        return self.encode_visible(patches)
