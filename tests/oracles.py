"""Brute-force reference implementations used only by the tests.

These deliberately stay dumb (python loops, full sorts) and independent of
the library code paths they check.
"""
from __future__ import annotations

import numpy as np


def sqdist(a, b) -> float:
    """(dx*dx + dy*dy) + dz*dz in Python floats. Each square is a product:
    ``d ** 2`` goes through libm's ``pow``, which is not always correctly
    rounded (1 in 20 differences of two points near 1e6)."""
    total = 0.0
    for x, y in zip(a, b):
        d = float(x) - float(y)
        total += d * d
    return total


def fps_oracle(points: np.ndarray, n: int, start: int) -> list[int]:
    """Greedy max-min selection from a given start index; lowest-index ties."""
    w = len(points)
    selected = [start]
    while len(selected) < n:
        best_idx, best_d = None, -1.0
        for i in range(w):
            if i in selected:
                continue
            d = min(sqdist(points[i], points[j]) for j in selected)
            if d > best_d:  # strict: first (lowest) index wins ties
                best_d, best_idx = d, i
        selected.append(best_idx)
    return selected


def knn_oracle(points: np.ndarray, query, k: int) -> list[int]:
    """Full sort by (squared distance, index)."""
    order = sorted(range(len(points)), key=lambda i: (sqdist(points[i], query), i))
    return order[:k]


def chamfer_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Double-loop Chamfer distance, squared form."""
    forward = sum(min(sqdist(p, q) for q in b) for p in a) / len(a)
    backward = sum(min(sqdist(q, p) for p in a) for q in b) / len(b)
    return forward + backward


def replay_cluster_mask(points: np.ndarray, centers: tuple[int, ...],
                        sizes: tuple[int, ...]) -> list[int]:
    """Re-derive the masked set from recorded cluster centers and sizes:
    each cluster drops the nearest surviving points to its center."""
    surviving = list(range(len(points)))
    dropped: list[int] = []
    for center, size in zip(centers, sizes):
        order = sorted(surviving, key=lambda i: (sqdist(points[i], points[center]), i))
        take = order[:size]
        dropped += take
        surviving = [i for i in surviving if i not in take]
    return sorted(dropped)


def view_occlusion_oracle(points: np.ndarray, ratio: float,
                          rng: np.random.Generator) -> list[int]:
    """Masked indices of a view-occlusion mask, one grid at a time: the view
    is drawn from ``rng`` as the library draws it, each grid's frontmost
    points are found by walking the points in (depth, index) order and
    keeping the first of each bin, and the grid whose visible count is
    nearest the target (the first on ties, stopping at an exact hit) is
    fixed up point by point in depth order."""
    w = len(points)
    budget = int(np.floor(ratio * w))
    target = w - budget
    view = rng.standard_normal(3)
    view /= np.linalg.norm(view)
    helper = np.array([1.0, 0.0, 0.0]) if abs(view[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u1 = np.cross(view, helper)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(view, u1)
    depth = points @ view
    proj = np.stack([points @ u1, points @ u2], axis=1)
    lo = proj.min(axis=0)
    span = proj.max(axis=0) - lo
    span[span == 0] = 1.0
    order = sorted(range(w), key=lambda i: (depth[i], i))

    def frontmost(grid: int) -> list[bool]:
        cell = np.minimum((proj - lo) / span * grid, grid - 1).astype(np.int64)
        visible, seen = [False] * w, set()
        for i in order:
            b = int(cell[i, 0]) * grid + int(cell[i, 1])
            if b not in seen:
                seen.add(b)
                visible[i] = True
        return visible

    best = frontmost(1)
    best_err = abs(sum(best) - target)
    for grid in range(2, int(np.ceil(np.sqrt(w))) + 2):
        vis = frontmost(grid)
        err = abs(sum(vis) - target)
        if err < best_err:
            best, best_err = vis, err
        if err == 0:
            break
    extra = sum(best) - target
    for i in reversed(order):  # occlude the farthest visible points
        if extra > 0 and best[i]:
            best[i] = False
            extra -= 1
    for i in order:  # reveal the nearest hidden points
        if extra < 0 and not best[i]:
            best[i] = True
            extra += 1
    return [i for i in range(w) if not best[i]]


def svm_train_oracle(x: np.ndarray, y: np.ndarray, lam: float,
                     iters: int) -> tuple[np.ndarray, float]:
    """One-column Pegasos-style subgradient descent on hinge + L2, the
    solver ``evaluation._svm_train`` batches over columns: zero init, the
    hinge gradient over the active rows, step 1/(lam t), then projection
    onto the ||w|| <= 1/sqrt(lam) ball."""
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    radius = 1.0 / np.sqrt(lam)
    for t in range(1, iters + 1):
        margins = y * (x @ w + b)
        active = margins < 1.0
        grad_w = lam * w - (y[active, None] * x[active]).sum(axis=0) / n
        grad_b = -float(y[active].sum()) / n
        eta = 1.0 / (lam * t)
        w = w - eta * grad_w
        b = b - eta * grad_b
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w = w * (radius / norm)
    return w, b


def probe_accuracy_oracle(xtr: np.ndarray, ytr: list, xte: np.ndarray, yte: list,
                          c: float, iters: int = 500) -> float:
    """One-vs-rest accuracy from one ``svm_train_oracle`` solve per class,
    on features centered on the train mean row, then scaled by the mean
    centered train row norm."""
    mean = np.mean(xtr, axis=0)
    xtr, xte = xtr - mean, xte - mean
    scale = float(np.mean(np.linalg.norm(xtr, axis=1))) or 1.0
    xtr, xte = xtr / scale, xte / scale
    classes = sorted(set(ytr))
    lam = 1.0 / (c * len(xtr))
    scores = np.empty((len(xte), len(classes)))
    for ci, cls in enumerate(classes):
        w, b = svm_train_oracle(xtr, np.where(np.asarray(ytr) == cls, 1.0, -1.0), lam, iters)
        scores[:, ci] = xte @ w + b
    truth = np.asarray([classes.index(label) for label in yte])
    return float(np.mean(np.argmax(scores, axis=1) == truth))


def linear_grads_oracle(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Gradients ``(gx, gw, gb)`` of ``sum(g * (x @ w + b))`` for a
    ``(B, n, d_in)`` batch, in float64, one sample at a time: each sample's
    own products, and the shared ``w`` and ``b`` summed over the samples."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    gx = np.stack([gi @ w.T for gi in g])
    gw = sum(xi.T @ gi for xi, gi in zip(x, g))
    gb = sum(gi.sum(axis=0) for gi in g)
    return gx, gw, gb


def layer_norm_grads_oracle(x: np.ndarray, g: np.ndarray, eps: float = 1e-5):
    """Gradients ``(g_gain, g_shift)`` of ``sum(g * (norm(x) * gain + shift))``
    for a ``(B, n, d)`` batch, in float64, summed one sample at a time."""
    x, g = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
    g_gain = g_shift = 0.0
    for xi, gi in zip(x, g):
        centered = xi - xi.mean(axis=-1, keepdims=True)
        y = centered / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
        g_gain = g_gain + (gi * y).sum(axis=0)
        g_shift = g_shift + gi.sum(axis=0)
    return g_gain, g_shift


def fold_head_oracle(features: np.ndarray, grid: np.ndarray, weights, biases, g: np.ndarray):
    """Output and gradients ``(out, g_features, g_weights, g_biases)`` of
    ``sum(g * head(features))`` for a folding head, in float64, by the dense
    form: every ``(B, m, d)`` feature row tiled over the ``(k, 2)`` grid's
    seeds, the grid concatenated in front, then the ReLU MLP of ``weights``
    and ``biases`` over those ``(B, m, k, 2 + d)`` rows."""
    f, grid, g = (np.asarray(a, dtype=np.float64) for a in (features, grid, g))
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    biases = [np.asarray(b, dtype=np.float64) for b in biases]
    b, m, d = f.shape
    k = len(grid)
    tiled = np.tile(f[:, :, None, :], (1, 1, k, 1))
    seeds = np.tile(grid, (b, m, 1, 1))
    acts = [np.concatenate([seeds, tiled], axis=-1)]
    for i, (w, bias) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + bias
        acts.append(z if i == len(weights) - 1 else np.maximum(z, 0.0))
    g_weights, g_biases = [None] * len(weights), [None] * len(weights)
    gz = g
    for i in reversed(range(len(weights))):
        rows, g2 = acts[i].reshape(-1, acts[i].shape[-1]), gz.reshape(-1, gz.shape[-1])
        g_weights[i], g_biases[i] = rows.T @ g2, g2.sum(axis=0)
        g_in = gz @ weights[i].T
        gz = g_in * (acts[i] > 0)
    return acts[-1], g_in[..., 2:].sum(axis=2), g_weights, g_biases


def adamw_step_oracle(values, moments1, moments2, grads, lr: float, t: int,
                      beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                      weight_decay: float = 0.05) -> None:
    """Step ``t`` of AdamW, in place, one whole parameter at a time:
    ``grads[i]`` lists parameter i's micro-batch gradients, added in order
    into a new array (zeros when empty)."""
    bias1 = 1.0 - beta1 ** t
    bias2 = 1.0 - beta2 ** t
    for w, m1, m2, gs in zip(values, moments1, moments2, grads):
        if weight_decay:
            w *= 1.0 - lr * weight_decay
        g = np.zeros_like(w)
        for i, grad in enumerate(gs):
            g = grad if i == 0 else g + grad
        m1 *= beta1
        m1 += (1.0 - beta1) * g
        m2 *= beta2
        m2 += (1.0 - beta2) * (g * g)
        update = lr * (m1 / bias1)
        update /= np.sqrt(m2 / bias2) + eps
        w -= update


def occlusion_grid_oracle(unit: np.ndarray, target_visible: int) -> int:
    """The view-occlusion grid one grid at a time: from 1 bin per side up,
    count each grid's occupied bins, keep the first nearest
    ``target_visible``, and stop at an exact hit."""
    best_grid, best_err = 1, abs(1 - target_visible)
    for grid in range(2, int(np.ceil(np.sqrt(len(unit)))) + 2):
        cell = np.minimum(unit * grid, grid - 1).astype(np.int64)
        err = abs(len(np.unique(cell[:, 0] * grid + cell[:, 1])) - target_visible)
        if err < best_err:
            best_grid, best_err = grid, err
        if err == 0:
            break
    return best_grid
