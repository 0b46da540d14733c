import inspect

import numpy as np
import pytest

from recloud import autograd as ag
from recloud import losses
from recloud.autograd import Tensor, backward, finite_difference_check
from recloud.losses import chamfer

from oracles import layer_norm_grads_oracle, linear_grads_oracle, sqdist

TOL = 1e-3


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def total(x):
    """The sum of every entry of ``x``: a scalar loss made of graph nodes."""
    return ag.sum_in_order(ag.reshape(x, (-1,)))


def mean(x):
    return ag.scale(total(x), 1.0 / x.data.size)


def mul(a, b):
    """The elementwise product ``a * b``, broadcasting: a primitive only the
    tests use, to weight an output by a constant or square it."""
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: incompatible shapes {ag._shapes(a, b)}") from None

    def bw(g):
        ag._accumulate(a, ag._unbroadcast(g * b.data, a.data.shape))
        ag._accumulate(b, ag._unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward_fn=bw)


class TestForwardValues:
    def test_relu(self):
        out = ag.relu(t([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_constant(self):
        out = ag.softmax(t([3.0, 3.0, 3.0, 3.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_max_pool_shape(self):
        x = t(np.random.default_rng(0).standard_normal((5, 4, 3)))
        assert ag.max_pool_over_axis(x, axis=1).shape == (5, 3)

    def test_gelu_keeps_float32(self):
        x = Tensor(np.linspace(-3.0, 3.0, 12, dtype=np.float32), requires_grad=True)
        y = ag.gelu(x)
        backward(total(y))
        assert y.dtype == np.float32 and x.grad.dtype == np.float32

    def test_shape_mismatch_reports_both(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ag.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = t(np.arange(6.0).reshape(2, 3))
        backward(total(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = t([3.0])
        backward(total(mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_two_uses_accumulate(self):
        x = t([1.0, 2.0])
        y = ag.add(total(x), total(ag.scale(x, 2.0)))
        backward(y)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(t([1.0, 2.0]))

    def test_unreached_parameter_gets_no_grad(self):
        x = t([1.0])
        unused = t([5.0])
        backward(total(ag.scale(x, 3.0)))
        assert unused.grad is None

    def test_grad_accumulates_across_calls(self):
        x = t([1.0])
        backward(total(x))
        backward(total(x))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_repeated_backward_adds_one_gradient_per_call(self):
        # intermediate grads are freed after each sweep, so a second sweep
        # over the same graph adds exactly one more gradient
        x = t([1.0, 2.0])
        y = total(mul(ag.scale(x, 3.0), x))
        backward(y)
        np.testing.assert_array_equal(x.grad, [6.0, 12.0])
        backward(y)
        np.testing.assert_array_equal(x.grad, [12.0, 24.0])

    def test_only_requires_grad_tensors_keep_grad(self):
        x = t([1.0, 2.0])
        hidden = ag.scale(x, 2.0)
        kept = ag.scale(x, 3.0)
        kept.requires_grad = True
        backward(total(mul(hidden, kept)))
        assert hidden.grad is None
        np.testing.assert_array_equal(kept.grad, hidden.data)

    def test_constant_result_records_no_graph(self):
        # nothing can send a gradient back through constants, so their
        # intermediates are not kept alive by the result
        y = ag.gelu(ag.add(t([1.0, 2.0], requires_grad=False), t([3.0, 4.0], requires_grad=False)))
        assert y._parents == () and y._backward_fn is None

    def test_linear_function_fd_is_exact(self):
        # central differences are exact for affine functions
        x = t(np.random.default_rng(1).standard_normal(5))
        err = finite_difference_check(lambda v: total(ag.scale(v, 3.5)), x)
        assert err < 1e-9


def fd_cases():
    rng = np.random.default_rng(1234)

    def r(*shape):
        return rng.standard_normal(shape)

    consts = {}

    def case(name, fn, x_data):
        return pytest.param(fn, x_data, id=name)

    b2 = Tensor(r(4, 3))
    m2 = Tensor(r(3, 5))
    m3 = Tensor(r(2, 5, 3))
    b3 = Tensor(r(2, 4, 3))
    # Chamfer operands that require grad: the node then builds both sides
    c2, c3 = Tensor(r(4, 3), requires_grad=True), Tensor(r(2, 4, 3), requires_grad=True)
    consts.update(b2=b2, m2=m2, m3=m3, b3=b3, c2=c2, c3=c3)
    # a batch of 2 samples x 3 rows of width 4, mapped to width 5; the weights
    # require grad, so the backward builds every gradient
    lx, lw, lb = (Tensor(r(*shape), requires_grad=True) for shape in ((2, 3, 4), (4, 5), (5,)))
    ln_gain, ln_shift = Tensor(r(4), requires_grad=True), Tensor(r(4), requires_grad=True)
    w_ln, w_scatter = Tensor(r(2, 3, 4)), Tensor(r(2, 5, 2))
    # constant gain and shift for the layer_norm case, from their own
    # generator so that the other cases draw the data they always drew
    ln3_gain, ln3_shift = (Tensor(a) for a in np.random.default_rng(4321).standard_normal((2, 3)))

    def sq(y):  # a quadratic reducer: every gradient depends on every input
        return total(mul(y, y))

    cases = [
        case("linear_x", lambda x: sq(ag.linear(x, lw, lb)), r(2, 3, 4)),
        case("linear_w", lambda w: sq(ag.linear(lx, w, lb)), r(4, 5)),
        case("linear_b", lambda b: sq(ag.linear(lx, lw, b)), r(5)),
        case("layer_norm_affine_x", lambda x: total(
            mul(ag.layer_norm(x, ln_gain, ln_shift), w_ln)), r(2, 3, 4)),
        case("layer_norm_gain", lambda g: sq(ag.layer_norm(lx, g, ln_shift)), r(4)),
        case("layer_norm_shift", lambda b: sq(ag.layer_norm(lx, ln_gain, b)), r(4)),
        case("gather_batched", lambda x: sq(ag.gather_rows(x, [[0, 2, 2], [1, 0, 3]])),
             r(2, 4, 3)),
        case("scatter_batched", lambda x: total(mul(
            ag.scatter_rows(x, [[4, 1, 0], [2, 3, 1]], 5), w_scatter)), r(2, 3, 2)),
        case("sum_in_order_axis1", lambda x: sq(ag.sum_in_order(x, axis=1)), r(2, 5, 3)),
        case("add_broadcast", lambda x: total(mul(ag.add(x, consts["b2"]),
                                                          ag.add(x, consts["b2"]))), r(4, 3)),
        case("add_bias_row", lambda x: total(mul(ag.add(consts["b2"], x),
                                                         ag.add(consts["b2"], x))), r(3)),
        case("mul", lambda x: total(mul(x, consts["b2"])), r(4, 3)),
        case("scale", lambda x: total(ag.scale(x, -2.5)), r(4, 3)),
        case("matmul_2d", lambda x: total(mul(ag.matmul(x, consts["m2"]),
                                                      ag.matmul(x, consts["m2"]))), r(4, 3)),
        case("matmul_stacked", lambda x: total(ag.matmul(x, consts["m3"])), r(2, 4, 5)),
        case("reshape", lambda x: total(mul(ag.reshape(x, (6, 2)),
                                                    ag.reshape(x, (6, 2)))), r(3, 4)),
        case("transpose", lambda x: total(mul(ag.transpose(x, (1, 2, 0)),
                                                      ag.transpose(x, (1, 2, 0)))), r(2, 3, 4)),
        case("relu", lambda x: total(ag.relu(x)), r(4, 4) + 0.05),
        case("gelu", lambda x: total(ag.gelu(x)), r(4, 4)),
        case("softmax", lambda x: total(mul(ag.softmax(x, axis=-1), consts["b2"])),
             r(4, 3)),
        case("layer_norm", lambda x: total(mul(ag.layer_norm(x, ln3_gain, ln3_shift),
                                               consts["b2"])), r(4, 3)),
        case("max_pool", lambda x: total(ag.max_pool_over_axis(x, axis=1)), r(4, 5)),
        case("min_over_axis", lambda x: total(ag.min_over_axis(x, axis=0)), r(4, 5)),
        case("mean_pool", lambda x: total(mul(ag.mean_pool_over_axis(x, axis=0),
                                                      ag.mean_pool_over_axis(x, axis=0))),
             r(4, 3)),
        case("pairwise_sqdist", lambda x: mean(ag.pairwise_sqdist(x, consts["b2"])),
             r(5, 3)),
        case("pairwise_sqdist_batched", lambda x: ag.add(
            mean(ag.pairwise_sqdist(x, consts["b3"])),
            mean(mul(ag.pairwise_sqdist(consts["b3"], x),
                               ag.pairwise_sqdist(consts["b3"], x)))), r(2, 5, 3)),
        case("sum_in_order", lambda x: total(mul(ag.sum_in_order(x),
                                                         ag.sum_in_order(x))), r(5, 3)),
        case("chamfer_composite", lambda x: ag.add(
            mean(ag.min_over_axis(ag.pairwise_sqdist(x, consts["b2"]), axis=1)),
            mean(ag.min_over_axis(ag.pairwise_sqdist(x, consts["b2"]), axis=0))),
             r(6, 3)),
        case("chamfer", lambda x: ag.add(chamfer(x, consts["c2"]),
                                         mul(chamfer(consts["c2"], x), chamfer(consts["c2"], x))),
             r(6, 3)),
        case("chamfer_batched", lambda x: ag.add(
            total(chamfer(x, consts["c3"])),
            total(mul(chamfer(consts["c3"], x), chamfer(consts["c3"], x)))), r(2, 5, 3)),
    ]
    # one-row samples, the shape of the global and whole heads: the flat
    # weight gradient then takes another BLAS path than a stacked one would
    one = Tensor(r(2, 1, 4), requires_grad=True)
    cases += [
        case("linear_w_one_row", lambda w: sq(ag.linear(one, w, lb)), r(4, 5)),
        case("linear_b_one_row", lambda b: sq(ag.linear(one, lw, b)), r(5)),
        case("layer_norm_gain_one_row", lambda g: sq(ag.layer_norm(one, g, ln_shift)), r(4)),
        case("layer_norm_shift_one_row", lambda b: sq(ag.layer_norm(one, ln_gain, b)), r(4)),
    ]
    # a folding head's first layer: 2 samples x 3 rows of width 4 against a
    # grid of 5 two-wide seeds, mapped to width 6 (a (2 + 4, 6) weight)
    grid = r(5, 2)
    fx, fw, fb = (Tensor(r(*shape), requires_grad=True) for shape in ((2, 3, 4), (6, 6), (6,)))
    return cases + [
        case("fold_linear_x", lambda x: sq(ag.fold_linear(x, grid, fw, fb)), r(2, 3, 4)),
        case("fold_linear_w", lambda w: sq(ag.fold_linear(fx, grid, w, fb)), r(6, 6)),
        case("fold_linear_b", lambda b: sq(ag.fold_linear(fx, grid, fw, b)), r(6)),
        # one pooled row per sample, the shape of a fold center or cloud head
        case("fold_linear_x_pooled", lambda x: sq(ag.fold_linear(x, grid, fw, fb)), r(2, 4)),
    ]


@pytest.mark.parametrize("fn,x_data", fd_cases())
def test_primitive_gradients(fn, x_data):
    err = finite_difference_check(fn, t(x_data))
    assert err < TOL, f"finite-difference mismatch: {err}"


def test_every_public_primitive_has_a_gradient_case(monkeypatch):
    # every public autograd function but the two that are not graph
    # operations is called by at least one case test_primitive_gradients
    # checks, so a new primitive without a case fails here
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    public = [name for name, fn in vars(ag).items()
              if inspect.isfunction(fn) and fn.__module__ == ag.__name__
              and not name.startswith("_") and name not in ("backward", "finite_difference_check")]
    for name in public:
        monkeypatch.setattr(ag, name, counting(name, getattr(ag, name)))
    for case in fd_cases():
        fn, x_data = case.values
        fn(t(x_data))
    assert sorted(set(public) - called) == []


def test_every_primitive_many_shapes():
    # 100 random shape/seed draws across the unary primitives
    rng = np.random.default_rng(7)
    ln_rng, ln_affine = np.random.default_rng(8), {}

    def layer_norm(x):
        # a constant drawn gain and shift per width, from their own generator
        # so that the trials keep their shapes
        d = x.shape[-1]
        if d not in ln_affine:
            ln_affine[d] = [Tensor(a) for a in ln_rng.standard_normal((2, d))]
        return ag.layer_norm(x, *ln_affine[d])

    unary = [ag.relu, ag.gelu, lambda x: ag.softmax(x, axis=-1),
             layer_norm,
             lambda x: ag.max_pool_over_axis(x, axis=0),
             lambda x: ag.min_over_axis(x, axis=0),
             lambda x: ag.mean_pool_over_axis(x, axis=0)]
    for trial in range(100):
        op = unary[trial % len(unary)]
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 6))
        x = t(rng.standard_normal((rows, cols)))
        err = finite_difference_check(lambda v: total(op(v)), x)
        assert err < TOL, f"trial {trial}: {err}"


class TestBatchedPairwise:
    def test_each_batch_entry_equals_unbatched(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((3, 5, 3)), rng.standard_normal((3, 4, 3))
        batched = ag.pairwise_sqdist(t(a), t(b)).data
        for i in range(3):
            np.testing.assert_array_equal(batched[i], ag.pairwise_sqdist(t(a[i]), t(b[i])).data)

    def test_mismatched_leading_axes_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 5, 3\).*\(3, 4, 3\)"):
            ag.pairwise_sqdist(t(np.zeros((2, 5, 3))), t(np.zeros((3, 4, 3))))
        with pytest.raises(ValueError, match="pairwise_sqdist"):
            ag.pairwise_sqdist(t(np.zeros((5, 3))), t(np.zeros((2, 4, 3))))

    def test_sum_in_order_is_a_left_fold(self):
        # large and small terms: the sum depends on the order of additions
        x = t(np.array([1e16, 1.0, -1e16, 1.0, 3.0]))
        folded = 0.0
        for v in x.data:
            folded = folded + v
        assert float(ag.sum_in_order(x).data) == folded == 4.0


class TestPoolTieBreaking:
    def test_max_pool_routes_to_first_argmax(self):
        x = t(np.array([[1.0, 1.0, 0.5]]))
        backward(total(ag.max_pool_over_axis(x, axis=1)))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_min_routes_to_first_argmin(self):
        x = t(np.array([[0.5, 0.1, 0.1]]))
        backward(total(ag.min_over_axis(x, axis=1)))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


def dense_pairwise_grads(a, b, g):
    """The dense pairwise_sqdist backward: every entry of ``g``, summed over
    the strided axis."""
    weighted = 2.0 * g[..., None] * (a[..., :, None, :] - b[..., None, :, :])
    return weighted.sum(axis=-2), -weighted.sum(axis=-3)


class TestSparsePairwiseBackward:
    @staticmethod
    def check(a, b, loss_of):
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        d = ag.pairwise_sqdist(ta, tb)
        d.requires_grad = True  # keep the non-leaf grad the assertions read
        backward(loss_of(d))
        ga, gb = dense_pairwise_grads(a, b, d.grad)
        assert ta.grad.dtype == tb.grad.dtype == a.dtype
        assert ta.grad.tobytes() == ga.tobytes() and tb.grad.tobytes() == gb.tobytes()

    @staticmethod
    def chamfer_of(d):
        # the graph losses.chamfer builds: one nonzero per row and per column
        fwd = ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-1), axis=-1)
        bwd = ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-2), axis=-1)
        return total(ag.add(fwd, bwd))

    def test_chamfer_graphs_equal_dense_sum(self):
        rng = np.random.default_rng(21)
        shapes = [((), 1, 1), ((), 1, 17), ((), 23, 1), ((), 64, 40), ((), 300, 257),
                  ((5,), 16, 12), ((2, 3), 9, 1), ((4,), 1, 6)]
        for dtype in (np.float64, np.float32):
            for lead, p, q in shapes:
                for kind in ("random", "integer grid"):
                    if kind == "random":
                        a = rng.standard_normal(lead + (p, 3))
                        b = rng.standard_normal(lead + (q, 3))
                    else:  # exact nearest-neighbour ties and zero differences
                        a = rng.integers(-2, 3, lead + (p, 3)).astype(float)
                        b = rng.integers(-2, 3, lead + (q, 3)).astype(float)
                    self.check(a.astype(dtype), b.astype(dtype), self.chamfer_of)

    def test_dense_g_equals_dense_sum(self):
        # g is another pairwise_sqdist output: (nearly) every entry nonzero
        rng = np.random.default_rng(22)
        for dtype in (np.float64, np.float32):
            for lead, p, q in [((), 30, 20), ((3,), 7, 11), ((), 1, 5)]:
                a, b = (rng.standard_normal(lead + (n, 3)).astype(dtype) for n in (p, q))
                other = ag.pairwise_sqdist(Tensor(rng.standard_normal(lead + (p, 3)).astype(dtype)),
                                           Tensor(rng.standard_normal(lead + (q, 3)).astype(dtype)))
                self.check(a, b, lambda d: total(mul(d, other)))

    def test_constant_side_gets_no_grad(self):
        # Chamfer's target is a constant; the other side's gradient is unchanged
        rng = np.random.default_rng(24)
        for lead, p, q in [((), 40, 30), ((3,), 5, 8)]:
            a, b = rng.standard_normal(lead + (p, 3)), rng.standard_normal(lead + (q, 3))
            for grad_a in (True, False):
                ta, tb = Tensor(a, requires_grad=grad_a), Tensor(b, requires_grad=not grad_a)
                d = ag.pairwise_sqdist(ta, tb)
                d.requires_grad = True  # keep the non-leaf grad the assertions read
                backward(self.chamfer_of(d))
                want = dense_pairwise_grads(a, b, d.grad)[0 if grad_a else 1]
                live, const = (ta, tb) if grad_a else (tb, ta)
                assert const.grad is None
                assert live.grad.tobytes() == want.tobytes()


def composed_chamfer(ta, tb):
    """The graph ``losses.chamfer`` replaces with one node."""
    d = ag.pairwise_sqdist(ta, tb)
    return ag.add(ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-1), axis=-1),
                  ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-2), axis=-1))


def chamfer_clouds(rng, lead, p, q, kind):
    a, b = rng.standard_normal(lead + (p, 3)), rng.standard_normal(lead + (q, 3))
    if kind == "integer grid":  # exact nearest-neighbour ties
        a, b = rng.integers(-2, 3, a.shape).astype(float), rng.integers(-2, 3, b.shape).astype(float)
    elif kind == "duplicates":  # repeated points on both sides, shared between them
        b[..., 1::2, :] = b[..., :q // 2, :]
        a[..., ::3, :] = b[..., :1, :]
    elif kind == "nan":
        a.reshape(-1)[rng.integers(a.size, size=2)] = np.nan
        b.reshape(-1)[rng.integers(b.size)] = np.nan
    return a, b


KINDS = ("random", "integer grid", "duplicates", "nan")
# p = 1300 against 257 targets and the batch of three 1024-point targets
# span several row blocks, so the running column minimum is exercised
SHAPES = [((), 1, 1), ((), 1, 40), ((), 40, 1), ((), 64, 64), ((), 300, 257),
          ((38,), 32, 32), ((2, 3), 129, 7), ((4,), 1, 5), ((3,), 200, 1024),
          ((), 1300, 257)]


class TestChamferNode:
    @staticmethod
    def run(loss_of, a, b, weights):
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        value = loss_of(ta, tb)
        backward(total(mul(value, Tensor(weights))))
        return value.data, ta.grad, tb.grad

    def test_equals_composition_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for dtype in (np.float64, np.float32):
            for lead, p, q in SHAPES:
                for kind in KINDS:
                    a, b = (x.astype(dtype) for x in chamfer_clouds(rng, lead, p, q, kind))
                    for weights in (rng.standard_normal(lead), np.zeros(lead)):
                        weights = weights.astype(dtype)
                        got = self.run(chamfer, a, b, weights)
                        want = self.run(composed_chamfer, a, b, weights)
                        assert got[0].dtype == want[0].dtype == dtype
                        for x, y in zip(got, want):
                            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), \
                                (dtype, lead, p, q, kind)

    @staticmethod
    def first_picks(a, b):
        """Row and column minima and their first-index picks by brute force:
        the first NaN of a row or column, else its first minimum."""
        d = np.array([[sqdist(x, y) for y in b] for x in a])

        def pick(line):
            nan = np.flatnonzero(np.isnan(line))
            if len(nan):
                return int(nan[0])
            best = 0
            for j, v in enumerate(line):
                if v < line[best]:
                    best = j
            return best

        rows = [pick(line) for line in d]
        cols = [pick(line) for line in d.T]
        return d, rows, cols

    def test_picks_equal_first_index_brute_force(self):
        # float64: oracles.sqdist adds (dx*dx + dy*dy) + dz*dz, the kernel's order
        rng = np.random.default_rng(42)
        for lead, p, q in [((), 1, 1), ((), 1, 9), ((), 9, 1), ((), 30, 25), ((), 300, 40),
                           ((3,), 140, 6)]:
            for kind in KINDS:
                a, b = chamfer_clouds(rng, lead, p, q, kind)
                got, ga, gb = self.run(chamfer, a, b, np.ones(lead))
                for k in np.ndindex(*lead):
                    d, rows, cols = self.first_picks(a[k], b[k])
                    row_min = np.array([d[i, j] for i, j in enumerate(rows)])
                    col_min = np.array([d[i, j] for j, i in enumerate(cols)])
                    want = row_min.mean() + col_min.mean()
                    assert np.asarray(got[k]).tobytes() == np.float64(want).tobytes()
                    # the gradient of the picks, in ascending (row, column) order
                    weight = {}
                    for i, j in enumerate(rows):
                        weight[i, j] = weight.get((i, j), 0.0) + 1.0 / p
                    for j, i in enumerate(cols):
                        weight[i, j] = weight.get((i, j), 0.0) + 1.0 / q
                    want_ga, want_gb = np.zeros((p, 3)), np.zeros((q, 3))
                    for i, j in sorted(weight):
                        term = 2.0 * weight[i, j] * (a[k][i] - b[k][j])
                        want_ga[i] += term
                        want_gb[j] += term
                    np.testing.assert_array_equal(ga[k], want_ga)
                    np.testing.assert_array_equal(gb[k], -want_gb)
                    if kind != "nan":
                        assert ga[k].tobytes() == want_ga.tobytes()
                        assert gb[k].tobytes() == (-want_gb).tobytes()

    def test_constant_side_gets_no_grad(self):
        rng = np.random.default_rng(43)
        a, b = rng.standard_normal((200, 3)), rng.standard_normal((150, 3))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b)
        backward(chamfer(ta, tb))
        both = Tensor(a, requires_grad=True)
        backward(chamfer(both, Tensor(b, requires_grad=True)))
        assert tb.grad is None and ta.grad.tobytes() == both.grad.tobytes()

    @staticmethod
    def block_rows(b):
        """Rows of the first cloud per distance block of ``chamfer`` against
        ``b``, by its block rule: as many as fit in ``_BLOCK_BYTES`` across
        the batch."""
        return max(1, losses._BLOCK_BYTES // (b.size // 3 * b.itemsize))

    def assert_equals_composition(self, a, b):
        blocks = -(-a.shape[-2] // self.block_rows(b))
        assert blocks >= 3, f"the case spans {blocks} row blocks"
        weights = np.random.default_rng(44).standard_normal(a.shape[:-2]).astype(a.dtype)
        got = self.run(chamfer, a, b, weights)
        want = self.run(composed_chamfer, a, b, weights)
        for x, y in zip(got, want):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    @classmethod
    def placed_clouds(cls, dtype, placed):
        """A batch of two integer clouds, the first far from the second
        (every distance exact, every placed distance below every other),
        spanning three whole row blocks and part of a fourth. ``placed``
        maps ``rows`` to (column, row, offset) triples: each puts a row of
        the first cloud at ``offset`` from a column's point of the second.
        Returns the clouds and the row count per block."""
        q = 16
        rows = cls.block_rows(np.empty((2, q, 3), dtype))
        rng = np.random.default_rng(45)
        a = rng.integers(100, 200, (2, 3 * rows + 9, 3)).astype(dtype)
        b = rng.integers(-50, 50, (2, q, 3)).astype(dtype)
        for col, row, offset in placed(rows):
            a[:, row] = b[:, col] + offset
        return a, b, rows

    @staticmethod
    def column_picks(a, b):
        """Each column's pick over the whole distance array: its first NaN,
        else its first minimum."""
        return np.argmin(ag.pairwise_sqdist(Tensor(a), Tensor(b)).data, axis=-2)

    def test_column_minimum_moves_in_later_blocks(self):
        def placed(rows):
            return [(0, 1, (0, 0, 2)),              # block 0, distance 4
                    (0, rows + 2, (0, 1, 1)),       # block 1, distance 2
                    (0, 2 * rows + 3, (0, 0, 1)),   # block 2, distance 1
                    (1, 3 * rows + 1, (0, 0, 0))]   # first near point in the last block
        for dtype in (np.float64, np.float32):
            a, b, rows = self.placed_clouds(dtype, placed)
            picks = self.column_picks(a, b)
            assert (picks[:, 0] == 2 * rows + 3).all() and (picks[:, 1] == 3 * rows + 1).all()
            self.assert_equals_composition(a, b)

    def test_equal_minimum_in_later_block_keeps_first_pick(self):
        def placed(rows):
            return [(2, 4, (1, 0, 0)),              # all at distance 1: block 0 keeps it
                    (2, 2 * rows + 5, (-1, 0, 0)),
                    (2, 3 * rows + 2, (0, -1, 0)),
                    (3, rows + 6, (0, 0, 1)),       # block 1 moves it; the first row
                    (3, 2 * rows, (0, 1, 0))]       # of block 2 only equals it
        for dtype in (np.float64, np.float32):
            a, b, rows = self.placed_clouds(dtype, placed)
            picks = self.column_picks(a, b)
            assert (picks[:, 2] == 4).all() and (picks[:, 3] == rows + 6).all()
            self.assert_equals_composition(a, b)

    def test_first_nan_after_finite_minimum(self):
        for dtype in (np.float64, np.float32):
            a, b, rows = self.placed_clouds(dtype, lambda rows: [(0, 0, (0, 0, 0))])
            a[:, 2 * rows + 7, 1] = np.nan  # every column's first NaN, in block 2
            a[:, 3 * rows + 1, 0] = np.nan  # a later NaN must not take the pick
            assert (self.column_picks(a, b) == 2 * rows + 7).all()
            self.assert_equals_composition(a, b)

    def test_overflowed_column_keeps_first_index(self):
        # squares past the dtype's range are +inf: a column at +inf from
        # every row keeps index 0, as argmin gives; the others are +inf
        # through the first block and take their minimum from a later one
        for dtype in (np.float64, np.float32):
            a, b, rows = self.placed_clouds(dtype, lambda rows: [])
            big = 2 * np.sqrt(np.finfo(dtype).max)
            a[:, :rows + 3, 0] = big
            b[:, 5, 2] = -big
            with np.errstate(over="ignore"):
                picks = self.column_picks(a, b)
                assert (picks[:, 5] == 0).all()
                assert (np.delete(picks, 5, axis=-1) >= rows + 3).all()
                self.assert_equals_composition(a, b)

    def test_cloud_ae_shape(self):
        # the whole-cloud objective's micro-batch: four 1024-point pairs
        rng = np.random.default_rng(47)
        for kind in KINDS:
            a, b = (x.astype(np.float32) for x in chamfer_clouds(rng, (4,), 1024, 1024, kind))
            self.assert_equals_composition(a, b)

    def test_gradient_fd_across_blocks(self):
        # both clouds' gradients, each at a batched shape that spans several blocks
        rng = np.random.default_rng(46)
        first, second = rng.standard_normal((2, 1024, 3)), rng.standard_normal((2, 960, 3))
        x = rng.standard_normal((2, 3 * self.block_rows(first) + 10, 3))
        assert second.shape[-2] > 2 * self.block_rows(x)
        coords = rng.choice(x.size, 30, replace=False)
        assert len(np.unique(coords // 3 % x.shape[-2] // self.block_rows(first))) >= 3

        def f(v):
            return ag.add(total(chamfer(v, first)), total(chamfer(second, v)))
        # a step of 1e-4 moves the nearest neighbor of some point of the two targets
        err = finite_difference_check(f, t(x), eps=1e-6, coords=coords)
        assert err < TOL, f"finite-difference mismatch: {err}"


class TestPoolPicksFirstExtremum:
    def test_equals_numpy_arg_on_every_axis(self):
        # ties, NaN and -0.0 next to 0.0: the pick must be np.argmin/np.argmax's
        rng = np.random.default_rng(23)
        for trial in range(60):
            shape = tuple(int(n) for n in rng.integers(1, 6, int(rng.integers(1, 4))))
            x = rng.integers(-2, 3, shape).astype(float)
            x[rng.random(shape) < 0.2] = -0.0
            if trial % 3 == 0:
                x[rng.random(shape) < 0.1] = np.nan
            for dtype in (np.float64, np.float32):
                for axis in range(len(shape)):
                    for pool, arg in ((ag.min_over_axis, np.argmin),
                                      (ag.max_pool_over_axis, np.argmax)):
                        xt = Tensor(x.astype(dtype), requires_grad=True)
                        out = pool(xt, axis)
                        backward(total(out))
                        pick = np.expand_dims(arg(xt.data, axis=axis), axis)
                        expected = np.zeros_like(xt.data)
                        np.put_along_axis(expected, pick, 1.0, axis=axis)
                        want = np.take_along_axis(xt.data, pick, axis=axis).squeeze(axis)
                        assert out.data.tobytes() == want.tobytes()
                        np.testing.assert_array_equal(xt.grad, expected)

    def test_constants_give_the_graph_values(self):
        # no gradient can reach a constant, so its pool runs only np.min/np.max
        # and picks again only where that gives a zero or a NaN: the values
        # must still be the first extremum's bytes, the graph path's
        rng = np.random.default_rng(29)
        neg_nan = np.copysign(np.nan, -1.0)
        differs = 0
        for trial in range(80):
            shape = tuple(int(n) for n in rng.integers(1, 7, int(rng.integers(1, 4))))
            x = rng.integers(-2, 3, shape).astype(float)
            x[rng.random(shape) < 0.3] = -0.0
            if trial % 3 == 0:
                x[rng.random(shape) < 0.1] = np.nan
                x[rng.random(shape) < 0.1] = neg_nan
            if trial % 4 == 1:
                x[rng.random(shape) < 0.2] = -np.inf
                x[rng.random(shape) < 0.2] = np.inf
            for dtype in (np.float64, np.float32):
                for axis in range(len(shape)):
                    for pool, reduce in ((ag.min_over_axis, np.min),
                                         (ag.max_pool_over_axis, np.max)):
                        data = x.astype(dtype)
                        graph = pool(Tensor(data, requires_grad=True), axis)
                        const = pool(Tensor(data), axis)
                        assert const.data.dtype == graph.data.dtype
                        assert const.data.shape == graph.data.shape
                        assert const.data.tobytes() == graph.data.tobytes()
                        differs += reduce(data, axis=axis).tobytes() != graph.data.tobytes()
        # the cases include slices where np.min/np.max alone give other bytes
        assert differs > 0


class TestDeterminism:
    def test_forward_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((8, 8)).astype(np.float32))
            w = Tensor(rng.standard_normal((8, 8)).astype(np.float32))
            return ag.softmax(ag.matmul(ag.gelu(x), w)).data.tobytes()

        assert run() == run()

    def test_scatter_requires_distinct_indices(self):
        with pytest.raises(ValueError, match="distinct"):
            ag.scatter_rows(t(np.zeros((1, 2, 3))), [[1, 1]], 4)


class TestBatchAxis:
    """A batched node's forward rows equal its per-sample computation bit
    for bit; the gradients of the shared tensors, summed over the whole
    batch at once, match a per-sample float64 reference within a tolerance
    of its largest magnitude."""

    # (batch, rows, d_in, d_out): model shapes, with the one-row FC head and
    # the fold head's three-wide last layer
    SHAPES = [(4, 26, 128, 128), (4, 1, 128, 256), (3, 1216, 64, 3), (2, 26, 512, 128),
              (4, 832, 3, 128)]
    # measured worst |got - ref| / max|ref|: 2.7e-15 in float64, 1.9e-6 in float32
    GRAD_TOL = {np.float32: 1e-5, np.float64: 1e-12}

    @classmethod
    def assert_close(cls, got, want, dtype):
        assert got.dtype == dtype
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= cls.GRAD_TOL[dtype], err

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_matches_per_sample_reference(self, dtype):
        rng = np.random.default_rng(51)
        for b, n, d_in, d_out in self.SHAPES:
            x, w, bias, g = (rng.standard_normal(s).astype(dtype)
                             for s in ((b, n, d_in), (d_in, d_out), (d_out,), (b, n, d_out)))
            tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, bias))
            out = ag.linear(tx, tw, tb)
            backward(total(mul(out, Tensor(g))))
            for i in range(b):
                assert out.data[i].tobytes() == (x[i] @ w + bias).tobytes()
            for got, want in zip((tx.grad, tw.grad, tb.grad), linear_grads_oracle(x, w, g)):
                self.assert_close(got, want, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_matches_per_sample_reference(self, dtype):
        rng = np.random.default_rng(52)
        x, g = rng.standard_normal((4, 26, 128)).astype(dtype), rng.standard_normal((4, 26, 128))
        gain, shift = (rng.standard_normal(128).astype(dtype) for _ in range(2))
        tx, tg, ts = (Tensor(a, requires_grad=True) for a in (x, gain, shift))
        out = ag.layer_norm(tx, tg, ts)
        backward(total(mul(out, Tensor(g.astype(dtype)))))
        for i in range(4):
            row = Tensor(x[i][None], requires_grad=True)  # a batch of one
            want = ag.layer_norm(row, Tensor(gain), Tensor(shift))
            backward(total(mul(want, Tensor(g[i][None].astype(dtype)))))
            assert out.data[i].tobytes() == want.data[0].tobytes()
            assert tx.grad[i].tobytes() == row.grad[0].tobytes()
        want_gain, want_shift = layer_norm_grads_oracle(x, g.astype(dtype))
        self.assert_close(tg.grad, want_gain, dtype)
        self.assert_close(ts.grad, want_shift, dtype)

    def test_batched_rows_equal_per_entry_rows(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((3, 6, 2))
        idx = np.array([rng.permutation(6)[:4] for _ in range(3)])
        gathered = ag.gather_rows(t(x), idx).data
        scattered = ag.scatter_rows(t(x[:, :4]), idx, 6).data
        for i in range(3):
            np.testing.assert_array_equal(gathered[i], x[i][idx[i]])
            placed = np.zeros((6, 2))
            placed[idx[i]] = x[i, :4]
            np.testing.assert_array_equal(scattered[i], placed)
        with pytest.raises(ValueError, match="distinct"):
            ag.scatter_rows(t(x[:, :2]), [[0, 1], [3, 3], [1, 2]], 6)
