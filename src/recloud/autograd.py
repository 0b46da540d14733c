"""A minimal reverse-mode differentiation engine over dense numpy arrays.

Each primitive returns a new :class:`Tensor` recording its parents and a
closure that routes the output gradient back to them. ``backward`` runs a
topological sweep from a scalar loss. Gradients accumulate across multiple
uses of a tensor inside one graph. Only tensors with ``requires_grad`` (the
leaves: parameters, inputs under test) keep their ``grad``, which also
accumulates across backward calls (callers zero it between optimizer
steps); any other ``grad`` is freed once passed on, so a second sweep over
one graph adds exactly one more gradient. A result no gradient can reach
records no graph, so a frozen model's forward pass is inference only: its
pools reduce without keeping the pick a backward pass would read.

Where a shared tensor meets per-sample rows (:func:`linear`,
:func:`fold_linear`, :func:`layer_norm`), axis 0 is the batch, and the
shared tensor's gradient is one product or sum over the rows of every
sample at once. Its rounding therefore depends on how many samples a pass
holds; a fixed micro-batch (``trainer.MICRO_BATCH``) keeps runs
bit-identical.

Verification mode runs in float64; :func:`finite_difference_check` compares
analytic gradients against central differences.

``losses.chamfer`` is one node built outside this module: row-blocked
distances by ``geometry._sqdist_to``, first-index (first-NaN) minima, and
the sparse backward :func:`_add_pair_grads` that :func:`pairwise_sqdist`
shares.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .geometry import _sqdist_to

# Python floats, not numpy scalars: under NEP 50 a ``np.float64`` scalar
# promotes a float32 array to float64.
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class Tensor:
    """A shape-tagged dense array with an optional gradient.

    ``_needs`` marks a tensor a gradient can reach. For a leaf it equals
    ``requires_grad``, so ``layers.Module.freeze`` clears both to make a
    ``layers.Parameter`` (the trainable subclass) a constant.
    """

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
        self._needs = requires_grad or any(p._needs for p in parents)
        # a result no gradient can reach records no graph, so a forward pass
        # over constants frees each intermediate once it is used
        self._parents = parents if self._needs else ()
        self._backward_fn = backward_fn if self._needs else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # no grad is ever written in place, so ``g`` may be kept without a copy
    if not t._needs:
        return
    g = g.astype(t.data.dtype, copy=False)
    t.grad = g if t.grad is None else t.grad + g


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
    the existing ``grad`` of every tensor with ``requires_grad``, so zero
    them between optimizer steps; the ``grad`` of every other tensor is
    dropped once its backward has run.
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
            if not node.requires_grad:
                node.grad = None


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` on the last axis of a ``(B, ..., d_in)`` batch.

    The forward is one stacked product ``x.reshape(B, -1, d_in) @ w``, which
    numpy runs as one gemm per sample, so every row equals the product of
    its sample alone bit for bit. (A flattened ``(B*n, d_in) @ w`` does not:
    BLAS takes another path for a one-row sample.) The backward takes one
    product each for the gradients of ``x`` and ``w`` and one row sum for
    ``b`` over the ``(B*n, d)`` rows of all samples, and skips ``x`` when it
    needs no gradient.
    """
    xs, ws = x.data.shape, w.data.shape
    if x.data.ndim < 2 or w.data.ndim != 2 or xs[-1] != ws[0] or b.data.shape != ws[1:]:
        raise ValueError(f"linear expects (B, ..., d_in), (d_in, d_out) and (d_out,), "
                         f"got {_shapes(x, w, b)}")
    x3 = x.data.reshape(xs[0], -1, ws[0])
    out_data = x3 @ w.data
    out_data += b.data

    def bw(g: np.ndarray) -> None:
        g2 = g.reshape(-1, ws[1])
        if x._needs:
            _accumulate(x, (g2 @ w.data.T).reshape(xs))
        if w._needs:
            _accumulate(w, x3.reshape(-1, ws[0]).T @ g2)
        if b._needs:
            _accumulate(b, g2.sum(axis=0))

    return Tensor(out_data.reshape(xs[:-1] + ws[1:]), parents=(x, w, b), backward_fn=bw)


def fold_linear(x: Tensor, grid: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """``[grid[j] | x[i]] @ w + b`` for every feature row ``x[i]`` of a
    ``(B, ..., d)`` batch and every seed ``grid[j]`` of a constant ``(k, c)``
    grid: the first layer of a folding head, ``(B, ..., k, h)`` for a
    ``(c + d, h)`` weight whose first c rows act on the grid (cast to the
    weight's dtype).

    No row is tiled over the seeds: the stacked ``x.reshape(B, -1, d) @
    w[c:]`` plus ``b`` (each row its sample's alone bit for bit, as in
    :func:`linear`) is broadcast against the seed rows ``grid @ w[:c]``. The
    backward sums the gradient over the seeds before the row products and
    writes both row blocks of the one weight gradient.
    """
    xs, ws = x.data.shape, w.data.shape
    if (x.data.ndim < 2 or grid.ndim != 2 or w.data.ndim != 2
            or ws[0] != grid.shape[1] + xs[-1] or b.data.shape != ws[1:]):
        raise ValueError(f"fold_linear expects (B, ..., d), (k, c), (c + d, h) and (h,), "
                         f"got {xs}, {grid.shape}, {ws} and {b.data.shape}")
    k, c = grid.shape
    grid = grid.astype(w.data.dtype, copy=False)
    x3 = x.data.reshape(xs[0], -1, xs[-1])
    rows = x3 @ w.data[c:]
    rows += b.data
    out_data = rows[:, :, None, :] + grid @ w.data[:c]  # (B, m, k, h)

    def bw(g: np.ndarray) -> None:
        g3 = g.reshape(-1, k, ws[1])
        g_rows = g3.sum(axis=1)  # (B*m, h)
        if x._needs:
            _accumulate(x, (g_rows @ w.data[c:].T).reshape(xs))
        if w._needs:
            gw = np.empty(ws, dtype=g.dtype)
            gw[:c] = grid.T @ g3.sum(axis=0)
            gw[c:] = x3.reshape(-1, xs[-1]).T @ g_rows
            _accumulate(w, gw)
        if b._needs:
            _accumulate(b, g_rows.sum(axis=0))

    return Tensor(out_data.reshape(xs[:-1] + (k, ws[1])), parents=(x, w, b), backward_fn=bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    in_shape = a.data.shape
    out_data = a.data.reshape(shape)

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(in_shape))

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
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
    # imported on first use: scipy.special takes about 0.3 s to import, which
    # a process running no GELU (the PointNet model, a helper of its
    # pretraining) does not pay
    from scipy.special import erf
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


def layer_norm(a: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize a ``(B, ..., d)`` batch to zero mean / unit variance along
    the last axis, then ``y * gain + shift`` with ``(d,)`` tensors; the
    gradients of ``gain`` and ``shift`` are sums over all its rows at once.
    """
    x = a.data
    if x.ndim < 2 or gain.data.shape != x.shape[-1:] or shift.data.shape != x.shape[-1:]:
        raise ValueError(f"layer_norm expects (B, ..., d) with (d,) gain and shift, "
                         f"got {_shapes(a, gain, shift)}")
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv

    def bw(g: np.ndarray) -> None:
        d = x.shape[-1]
        if gain._needs:
            _accumulate(gain, (g * y).reshape(-1, d).sum(axis=0))
        if shift._needs:
            _accumulate(shift, g.reshape(-1, d).sum(axis=0))
        g = g * gain.data
        if a._needs:
            g_mean = g.mean(axis=-1, keepdims=True)
            gy_mean = (g * y).mean(axis=-1, keepdims=True)
            _accumulate(a, inv * (g - g_mean - y * gy_mean))

    return Tensor(y * gain.data + shift.data, parents=(a, gain, shift), backward_fn=bw)


def _first_hit(x: np.ndarray, extremum: np.ndarray, axis: int) -> np.ndarray:
    """The index along ``axis`` of the first entry of ``x`` equal to its
    slice's ``extremum`` (``keepdims`` shape) or NaN, with ``axis`` kept."""
    hit = x == extremum
    hit |= np.isnan(x)
    return np.expand_dims(np.argmax(hit, axis=axis), axis)


def _pool(a: Tensor, axis: int, reduce: Callable) -> Tensor:
    """Reduce ``a`` over ``axis`` (``reduce`` is ``np.min`` or ``np.max``),
    keeping the index of the first extremum for the backward pass.

    The value is the first extremum's: the first ``True`` of
    ``(x == extremum) | isnan(x)``, which equals ``np.argmin``/``np.argmax``
    on ties, NaN (the first NaN wins) and -0.0 (equal to 0.0). On a strided
    axis it is about twice as fast as ``np.argmin``, which first copies ``x``
    transposed (Chamfer's column minimum).

    When no gradient can reach ``a`` there is no backward pass, so only
    ``reduce`` runs. Its value has the first extremum's bits except where it
    is zero, whose sign it may take from another zero, or NaN, whose payload
    it may take from another NaN; only those slices are picked from again.
    """
    x = a.data
    if not a._needs:
        out_data = np.asarray(reduce(x, axis=axis))
        redo = out_data == 0
        redo |= np.isnan(out_data)
        if redo.any():
            rows = np.moveaxis(x, axis, -1)[redo]  # (r, n): only the slices to redo
            arg = _first_hit(rows, out_data[redo][:, None], -1)
            out_data[redo] = np.take_along_axis(rows, arg, axis=-1)[:, 0]
        return Tensor(out_data)
    arg = _first_hit(x, reduce(x, axis=axis, keepdims=True), axis)
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


def sum_in_order(a: Tensor, axis: int = 0) -> Tensor:
    """Sum over ``axis`` adding entries first to last, the order of a Python
    loop of ``add`` (so a looped sum is reproduced bit for bit)."""
    def bw(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    out_data = np.add.accumulate(a.data, axis=axis).take(-1, axis=axis)
    return Tensor(out_data, parents=(a,), backward_fn=bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Rows ``indices[i]`` along axis 1 of batch entry ``i``, for ``(B, r)``
    indices into a ``(B, n, ...)`` tensor; repeated indices accumulate in
    backward."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or a.data.ndim < 2 or a.data.shape[0] != idx.shape[0]:
        raise ValueError(f"gather_rows: indices of shape {idx.shape} do not fit {a.data.shape}")
    key = (np.arange(idx.shape[0])[:, None], idx)
    out_data = a.data[key]

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        _accumulate(a, full)

    return Tensor(out_data, parents=(a,), backward_fn=bw)


def scatter_rows(a: Tensor, indices, num_rows: int) -> Tensor:
    """Place row j of batch entry i of a ``(B, r, ...)`` tensor at
    ``indices[i, j]`` along axis 1 of a zero tensor of ``num_rows`` rows, for
    ``(B, r)`` indices, distinct within each entry."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2 or a.data.shape[:2] != idx.shape:
        raise ValueError(
            f"scatter_rows: need one index per row, got {idx.shape} for {a.data.shape}")
    if np.any(np.diff(np.sort(idx, axis=-1), axis=-1) == 0):
        raise ValueError("scatter_rows indices must be distinct")
    key = (np.arange(idx.shape[0])[:, None], idx)
    shape = a.data.shape
    out_data = np.zeros(shape[:1] + (num_rows,) + shape[2:], dtype=a.data.dtype)
    out_data[key] = a.data

    def bw(g: np.ndarray) -> None:
        _accumulate(a, g[key])

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
