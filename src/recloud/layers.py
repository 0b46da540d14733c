"""Trainable building blocks on top of the autograd engine."""
from __future__ import annotations

from typing import Iterator

import numpy as np

from . import autograd as ag
from .autograd import Tensor


class Parameter(Tensor):
    """A trainable tensor, named by its path in the model (see
    :meth:`Module.named_parameters`).

    Layers hand the parameter itself to the autograd primitives, so it is a
    leaf of every graph it enters and its ``grad`` accumulates there;
    :meth:`Module.freeze` makes it a constant in place.

    The parameter owns the dtype of its values: layers draw their values
    in float64, ``build_model`` casts each parameter once to the run's
    precision (a model built without drawing holds :func:`unfilled` views
    in it), and ``trainer.restore`` casts a checkpoint's values and moments
    to it. The optimizer moments live on ``trainer.AdamW``.
    """

    __slots__ = ()

    def __init__(self, data: np.ndarray):
        super().__init__(data, requires_grad=True)


class Module:
    """Base for anything holding parameters or sub-modules.

    Attribute definition order (insertion order of ``__dict__``) fixes the
    parameter walk order, so construction is deterministic.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in self.__dict__.items():
            path = f"{prefix}{attr}" if prefix else attr
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def cast(self, dtype, values: bool = True) -> None:
        """Give every parameter ``dtype``; a model is cast once, when built.
        Without ``values`` each parameter becomes an :func:`unfilled` view in
        ``dtype``, for ``trainer.restore`` to give it its one array."""
        for p in self.parameters():
            p.data = (p.data.astype(dtype, copy=False) if values
                      else unfilled(p.data.shape, dtype))

    def freeze(self) -> None:
        """Make every parameter a constant, for inference: a forward pass
        then records no graph (see ``autograd.Tensor``)."""
        for p in self.parameters():
            p.requires_grad = p._needs = False


def unfilled(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Read-only zeros of ``shape`` that allocate nothing (every element is
    one shared zero): the value of a parameter a checkpoint will fill."""
    return np.ndarray(shape, dtype, buffer=bytes(8), strides=(0,) * len(shape))


def init_normal(shape: tuple[int, ...], rng: np.random.Generator | None) -> np.ndarray:
    """Initial weights drawn from N(0, 0.02^2) with ``rng``, in float64. With
    no ``rng`` nothing is drawn: :func:`unfilled` zeros, for a model a
    checkpoint will fill."""
    return unfilled(shape) if rng is None else rng.normal(0.0, 0.02, size=shape)


class Linear(Module):
    """Affine map on the last axis of a ``(B, ..., d_in)`` batch: y = x W + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None,
                 zero_init: bool = False):
        self.weight = Parameter(np.zeros((in_dim, out_dim)) if zero_init
                                else init_normal((in_dim, out_dim), rng))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Parameter(np.ones(dim))
        self.shift = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.layer_norm(x, self.gain, self.shift)


class FeedForward(Module):
    """Transformer MLP: linear, GELU, linear."""

    def __init__(self, dim: int, mult: int, rng: np.random.Generator | None):
        self.fc1 = Linear(dim, dim * mult, rng)
        self.fc2 = Linear(dim * mult, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ag.gelu(self.fc1(x)))


class SelfAttention(Module):
    """Multi-head self-attention over the tokens of a ``(B, n, d)`` batch."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator | None):
        if dim % heads:
            raise ValueError(f"model dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = dim // heads
        self.q = Linear(dim, dim, rng)
        self.k = Linear(dim, dim, rng)
        self.v = Linear(dim, dim, rng)
        self.proj = Linear(dim, dim, rng)

    def _split(self, x: Tensor, axes: tuple[int, ...] = (0, 2, 1, 3)) -> Tensor:
        # (B, n, d) -> (B, n, heads, head_dim), permuted by ``axes``
        b, n, _ = x.shape
        return ag.transpose(ag.reshape(x, (b, n, self.heads, self.head_dim)), axes)

    def __call__(self, x: Tensor) -> Tensor:
        q = self._split(self.q(x))  # (B, heads, n, head_dim)
        k = self._split(self.k(x), (0, 2, 3, 1))  # (B, heads, head_dim, n)
        v = self._split(self.v(x))
        logits = ag.scale(ag.matmul(q, k), self.head_dim ** -0.5)
        attn = ag.softmax(logits, axis=-1)
        out = ag.matmul(attn, v)  # (B, heads, n, head_dim)
        return self.proj(ag.reshape(ag.transpose(out, (0, 2, 1, 3)), x.shape))


class TransformerBlock(Module):
    """Pre-norm block: x + attn(ln(x)), then x + ffn(ln(x))."""

    def __init__(self, dim: int, heads: int, ffn_mult: int, rng: np.random.Generator | None):
        self.ln1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_mult, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = ag.add(x, self.attn(self.ln1(x)))
        return ag.add(x, self.ffn(self.ln2(x)))


def mlp_chain(widths: tuple[int, ...], rng: np.random.Generator | None) -> list[Linear]:
    """Linear layers for a ReLU MLP with the given widths."""
    return [Linear(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)]


def run_mlp(layers: list[Linear], x: Tensor) -> Tensor:
    """Apply the chain with ReLU between layers (none after the last)."""
    for layer in layers[:-1]:
        x = ag.relu(layer(x))
    return layers[-1](x)
