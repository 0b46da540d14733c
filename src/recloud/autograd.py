"""A minimal reverse-mode differentiation engine over dense numpy arrays.

Each primitive returns a new :class:`Tensor` recording its parents and a
closure that routes the output gradient back to them. ``backward`` runs a
topological sweep from a scalar loss; gradients accumulate, both across
multiple uses of a tensor inside one graph and across repeated backward
calls (callers zero gradients between optimizer steps).

Verification mode runs in float64; :func:`finite_difference_check` compares
analytic gradients against central differences.

``losses.chamfer`` is one node built outside this module: row-blocked
distances by ``geometry._sqdist_to``, first-index (first-NaN) minima, and
the sparse backward :func:`_add_pair_grads` that :func:`pairwise_sqdist`
shares.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .geometry import _sqdist_to

# Python floats, not numpy scalars: under NEP 50 a ``np.float64`` scalar
# promotes a float32 array to float64.
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class Tensor:
    """A shape-tagged dense array with an optional gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_needs")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn
        self._needs = requires_grad or any(p._needs for p in parents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar over the module-level primitives
    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t._needs:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g.astype(t.data.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] > 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _shapes(*ts: Tensor) -> str:
    return " vs ".join(str(t.data.shape) for t in ts)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable tensor that needs one.

    ``loss`` must be a scalar (a single element). Gradients accumulate into
    existing ``grad`` buffers, so zero them between optimizer steps.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    # iterative topological sort over parents
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p._needs:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add: incompatible shapes {_shapes(a, b)}") from None

    def bw(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: incompatible shapes {_shapes(a, b)}") from None

    def bw(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * s)

    return Tensor(a.data * s, parents=(a,), backward_fn=bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul requires >=2-D operands, got {_shapes(a, b)}")
    if a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul: leading dimensions must match exactly, got {_shapes(a, b)}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul: inner dimensions disagree, got {_shapes(a, b)}")
    out_data = a.data @ b.data

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return Tensor(out_data, parents=(a, b), backward_fn=bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple(tensors)
    if not ts:
        raise ValueError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g: np.ndarray) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return Tensor(out_data, parents=ts, backward_fn=bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    in_shape = a.data.shape
    out_data = a.data.reshape(shape)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(in_shape))

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(a.data, axes)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, np.transpose(g, inverse))

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return Tensor(a.data * mask, parents=(a,), backward_fn=bw)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def bw(g: np.ndarray) -> None:
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        _accumulate(a, g * (cdf + x * pdf))

    return Tensor(x * cdf, parents=(a,), backward_fn=bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - dot))

    return Tensor(y, parents=(a,), backward_fn=bw)


def layer_norm(a: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis`` (no affine)."""
    x = a.data
    mean = x.mean(axis=axis, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv

    def bw(g: np.ndarray) -> None:
        g_mean = g.mean(axis=axis, keepdims=True)
        gy_mean = (g * y).mean(axis=axis, keepdims=True)
        _accumulate(a, inv * (g - g_mean - y * gy_mean))

    return Tensor(y, parents=(a,), backward_fn=bw)


def _pool(a: Tensor, axis: int, reduce: Callable) -> Tensor:
    """Reduce ``a`` over ``axis`` (``reduce`` is ``np.min`` or ``np.max``),
    keeping the index of the first extremum for the backward pass.

    The index is the first ``True`` of ``(x == extremum) | isnan(x)``, which
    equals ``np.argmin``/``np.argmax`` on ties, NaN (the first NaN wins) and
    -0.0 (equal to 0.0). On a strided axis it is about twice as fast as
    ``np.argmin``, which first copies ``x`` transposed (Chamfer's column
    minimum).
    """
    x = a.data
    hit = x == reduce(x, axis=axis, keepdims=True)
    hit |= np.isnan(x)
    arg = np.argmax(hit, axis=axis)
    arg = np.expand_dims(arg, axis)
    out_data = np.take_along_axis(x, arg, axis=axis).squeeze(axis)

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(x)
        np.put_along_axis(full, arg, np.expand_dims(g, axis), axis=axis)
        _accumulate(a, full)

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def max_pool_over_axis(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; gradient routes to the first argmax on ties."""
    return _pool(a, axis, np.max)


def min_over_axis(a: Tensor, axis: int) -> Tensor:
    """Min over one axis; gradient routes to the first argmin on ties."""
    return _pool(a, axis, np.min)


def mean_pool_over_axis(a: Tensor, axis: int) -> Tensor:
    n = a.data.shape[axis]
    out_data = a.data.mean(axis=axis)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out_data = np.asarray(a.data.mean())

    def bw(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.data, float(g) / n))

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def sum_in_order(a: Tensor) -> Tensor:
    """Sum over axis 0 adding entries first to last, the order of a Python
    loop of ``add`` (so a looped sum is reproduced bit for bit)."""
    def bw(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor(np.add.accumulate(a.data, axis=0)[-1], parents=(a,), backward_fn=bw)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum())

    def bw(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.data, float(g)))

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0; repeated indices accumulate in backward."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows expects 1-D indices, got shape {idx.shape}")
    out_data = a.data[idx]

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def scatter_rows(a: Tensor, indices, num_rows: int) -> Tensor:
    """Place row j of ``a`` at ``indices[j]`` in a zero tensor of ``num_rows`` rows.

    Indices must be distinct.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != a.data.shape[0]:
        raise ValueError(
            f"scatter_rows: need one index per row, got {idx.shape} for {a.data.shape}")
    if len(np.unique(idx)) != len(idx):
        raise ValueError("scatter_rows indices must be distinct")
    out_data = np.zeros((num_rows,) + a.data.shape[1:], dtype=a.data.dtype)
    out_data[idx] = a.data

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g[idx])

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All squared Euclidean distances between the rows of ``a`` and ``b``.

    ``a`` is ``(..., p, d)`` and ``b`` is ``(..., q, d)`` with equal leading
    (batch) axes; the result is ``(..., p, q)``, computed by
    ``geometry._sqdist_to`` (overflow to inf stays silent). The backward
    visits only the nonzero entries of ``g`` (see :func:`_add_pair_grads`).
    """
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sa) != len(sb) or sa[:-2] != sb[:-2] or sa[-1] != sb[-1]:
        raise ValueError(f"pairwise_sqdist expects (..., p, d) and (..., q, d), got {_shapes(a, b)}")
    with np.errstate(over="ignore", invalid="ignore"):
        out_data = _sqdist_to(np.ascontiguousarray(np.swapaxes(b.data, -1, -2)), a.data)

    def bw(g: np.ndarray) -> None:
        nz = np.flatnonzero(g != 0)
        _add_pair_grads(a, b, nz, g.reshape(-1)[nz])

    return Tensor(out_data, parents=(a, b), backward_fn=bw)


def _add_pair_grads(a: Tensor, b: Tensor, flat: np.ndarray, w: np.ndarray) -> None:
    """Accumulate the gradients of ``sum(w * |a[i] - b[j]|^2)`` over the
    entries ``flat`` of a ``(..., p, q)`` distance array into ``a`` and ``b``.

    ``flat`` must ascend (batch, row, column), as ``np.flatnonzero`` gives.
    Each term is ``(2 * w) * (a[i] - b[j])``; a row of ``a`` adds its terms in
    ascending column order and a column of ``b`` in ascending row order,
    the order of a dense sum over the strided axis. So the gradients equal
    the dense ``2 * g[..., None] * diff`` summed over that axis bit for bit,
    except that an all-zero sum is +0.0 and that a dense sum would turn an
    infinite difference times a zero entry of ``g`` into NaN. A side that
    needs no gradient (Chamfer's target) is skipped.
    """
    sa, sb = a.data.shape, b.data.shape
    p, q, d = sa[-2], sb[-2], sa[-1]
    rows, j = np.divmod(flat, q)  # row of the flattened a, column within its batch
    cols = rows // p * q + j  # row of the flattened b
    a2, b2 = a.data.reshape(-1, d), b.data.reshape(-1, d)
    terms = 2.0 * w[:, None] * (a2[rows] - b2[cols])
    if a._needs:
        ga = np.zeros(a2.shape, dtype=terms.dtype)
        np.add.at(ga, rows, terms)
        _accumulate(a, ga.reshape(sa))
    if b._needs:
        gb = np.zeros(b2.shape, dtype=terms.dtype)
        np.add.at(gb, cols, terms)
        _accumulate(b, -gb.reshape(sb))


# ---------------------------------------------------------------------------
# verification


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            eps: float = 1e-4,
                            coords: np.ndarray | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map ``x`` to a scalar Tensor deterministically. ``coords``
    optionally restricts the check to a subset of flat coordinates of
    ``x`` (all coordinates by default). Run in float64.
    """
    if x.data.dtype != np.float64:
        raise ValueError("finite_difference_check requires float64 tensors")
    x.grad = None
    out = f(x)
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    analytic_flat = analytic.reshape(-1)
    if coords is None:
        coords = np.arange(flat.size)
    worst = 0.0
    for c in np.asarray(coords, dtype=np.int64):
        orig = flat[c]
        flat[c] = orig + eps
        f_plus = float(f(x).data)
        flat[c] = orig - eps
        f_minus = float(f(x).data)
        flat[c] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic_flat[c])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
