import numpy as np
import pytest

from recloud import autograd as ag
from recloud.autograd import Tensor, backward, finite_difference_check

TOL = 1e-3


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


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
        backward(ag.sum_all(y))
        assert y.dtype == np.float32 and x.grad.dtype == np.float32

    def test_shape_mismatch_reports_both(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ag.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = t(np.arange(6.0).reshape(2, 3))
        backward(ag.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = t([3.0])
        backward(ag.sum_all(ag.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_two_uses_accumulate(self):
        x = t([1.0, 2.0])
        y = ag.add(ag.sum_all(x), ag.sum_all(ag.scale(x, 2.0)))
        backward(y)
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(t([1.0, 2.0]))

    def test_unreached_parameter_gets_no_grad(self):
        x = t([1.0])
        unused = t([5.0])
        backward(ag.sum_all(ag.scale(x, 3.0)))
        assert unused.grad is None

    def test_grad_accumulates_across_calls(self):
        x = t([1.0])
        backward(ag.sum_all(x))
        backward(ag.sum_all(x))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_linear_function_fd_is_exact(self):
        # central differences are exact for affine functions
        x = t(np.random.default_rng(1).standard_normal(5))
        err = finite_difference_check(lambda v: ag.sum_all(ag.scale(v, 3.5)), x)
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
    cat_other = Tensor(r(2, 3))
    b3 = Tensor(r(2, 4, 3))
    consts.update(b2=b2, m2=m2, m3=m3, cat_other=cat_other, b3=b3)

    return [
        case("add_broadcast", lambda x: ag.sum_all(ag.mul(ag.add(x, consts["b2"]),
                                                          ag.add(x, consts["b2"]))), r(4, 3)),
        case("add_bias_row", lambda x: ag.sum_all(ag.mul(ag.add(consts["b2"], x),
                                                         ag.add(consts["b2"], x))), r(3)),
        case("mul", lambda x: ag.sum_all(ag.mul(x, consts["b2"])), r(4, 3)),
        case("scale", lambda x: ag.sum_all(ag.scale(x, -2.5)), r(4, 3)),
        case("matmul_2d", lambda x: ag.sum_all(ag.mul(ag.matmul(x, consts["m2"]),
                                                      ag.matmul(x, consts["m2"]))), r(4, 3)),
        case("matmul_stacked", lambda x: ag.sum_all(ag.matmul(x, consts["m3"])), r(2, 4, 5)),
        case("concat", lambda x: ag.sum_all(ag.mul(ag.concat([x, consts["cat_other"]], axis=0),
                                                   ag.concat([x, consts["cat_other"]], axis=0))),
             r(3, 3)),
        case("reshape", lambda x: ag.sum_all(ag.mul(ag.reshape(x, (6, 2)),
                                                    ag.reshape(x, (6, 2)))), r(3, 4)),
        case("transpose", lambda x: ag.sum_all(ag.mul(ag.transpose(x, (1, 2, 0)),
                                                      ag.transpose(x, (1, 2, 0)))), r(2, 3, 4)),
        case("relu", lambda x: ag.sum_all(ag.relu(x)), r(4, 4) + 0.05),
        case("gelu", lambda x: ag.sum_all(ag.gelu(x)), r(4, 4)),
        case("softmax", lambda x: ag.sum_all(ag.mul(ag.softmax(x, axis=-1), consts["b2"])),
             r(4, 3)),
        case("layer_norm", lambda x: ag.sum_all(ag.mul(ag.layer_norm(x), consts["b2"])),
             r(4, 3)),
        case("max_pool", lambda x: ag.sum_all(ag.max_pool_over_axis(x, axis=1)), r(4, 5)),
        case("min_over_axis", lambda x: ag.sum_all(ag.min_over_axis(x, axis=0)), r(4, 5)),
        case("mean_pool", lambda x: ag.sum_all(ag.mul(ag.mean_pool_over_axis(x, axis=0),
                                                      ag.mean_pool_over_axis(x, axis=0))),
             r(4, 3)),
        case("mean_all", lambda x: ag.mean_all(ag.mul(x, x)), r(4, 3)),
        case("gather_repeated", lambda x: ag.sum_all(
            ag.mul(ag.gather_rows(x, [0, 2, 2, 1]), ag.gather_rows(x, [0, 2, 2, 1]))), r(3, 4)),
        case("scatter", lambda x: ag.sum_all(
            ag.mul(ag.scatter_rows(x, [4, 1, 0], 6), ag.scatter_rows(x, [4, 1, 0], 6))),
             r(3, 2)),
        case("pairwise_sqdist", lambda x: ag.mean_all(ag.pairwise_sqdist(x, consts["b2"])),
             r(5, 3)),
        case("pairwise_sqdist_batched", lambda x: ag.add(
            ag.mean_all(ag.pairwise_sqdist(x, consts["b3"])),
            ag.mean_all(ag.mul(ag.pairwise_sqdist(consts["b3"], x),
                               ag.pairwise_sqdist(consts["b3"], x)))), r(2, 5, 3)),
        case("sum_in_order", lambda x: ag.sum_all(ag.mul(ag.sum_in_order(x),
                                                         ag.sum_in_order(x))), r(5, 3)),
        case("chamfer_composite", lambda x: ag.add(
            ag.mean_all(ag.min_over_axis(ag.pairwise_sqdist(x, consts["b2"]), axis=1)),
            ag.mean_all(ag.min_over_axis(ag.pairwise_sqdist(x, consts["b2"]), axis=0))),
             r(6, 3)),
    ]


@pytest.mark.parametrize("fn,x_data", fd_cases())
def test_primitive_gradients(fn, x_data):
    err = finite_difference_check(fn, t(x_data))
    assert err < TOL, f"finite-difference mismatch: {err}"


def test_every_primitive_many_shapes():
    # 100 random shape/seed draws across the unary primitives
    rng = np.random.default_rng(7)
    unary = [ag.relu, ag.gelu, lambda x: ag.softmax(x, axis=-1),
             lambda x: ag.layer_norm(x, axis=-1),
             lambda x: ag.max_pool_over_axis(x, axis=0),
             lambda x: ag.min_over_axis(x, axis=0),
             lambda x: ag.mean_pool_over_axis(x, axis=0)]
    for trial in range(100):
        op = unary[trial % len(unary)]
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 6))
        x = t(rng.standard_normal((rows, cols)))
        err = finite_difference_check(lambda v: ag.sum_all(op(v)), x)
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
        backward(ag.sum_all(ag.max_pool_over_axis(x, axis=1)))
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])

    def test_min_routes_to_first_argmin(self):
        x = t(np.array([[0.5, 0.1, 0.1]]))
        backward(ag.sum_all(ag.min_over_axis(x, axis=1)))
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
        backward(loss_of(d))
        ga, gb = dense_pairwise_grads(a, b, d.grad)
        assert ta.grad.dtype == tb.grad.dtype == a.dtype
        assert ta.grad.tobytes() == ga.tobytes() and tb.grad.tobytes() == gb.tobytes()

    @staticmethod
    def chamfer_of(d):
        # the graph losses.chamfer builds: one nonzero per row and per column
        fwd = ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-1), axis=-1)
        bwd = ag.mean_pool_over_axis(ag.min_over_axis(d, axis=-2), axis=-1)
        return ag.sum_all(ag.add(fwd, bwd))

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
                self.check(a, b, lambda d: ag.sum_all(ag.mul(d, other)))

    def test_constant_side_gets_no_grad(self):
        # Chamfer's target is a constant; the other side's gradient is unchanged
        rng = np.random.default_rng(24)
        for lead, p, q in [((), 40, 30), ((3,), 5, 8)]:
            a, b = rng.standard_normal(lead + (p, 3)), rng.standard_normal(lead + (q, 3))
            for grad_a in (True, False):
                ta, tb = Tensor(a, requires_grad=grad_a), Tensor(b, requires_grad=not grad_a)
                d = ag.pairwise_sqdist(ta, tb)
                backward(self.chamfer_of(d))
                want = dense_pairwise_grads(a, b, d.grad)[0 if grad_a else 1]
                live, const = (ta, tb) if grad_a else (tb, ta)
                assert const.grad is None
                assert live.grad.tobytes() == want.tobytes()


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
                        backward(ag.sum_all(out))
                        pick = np.expand_dims(arg(xt.data, axis=axis), axis)
                        expected = np.zeros_like(xt.data)
                        np.put_along_axis(expected, pick, 1.0, axis=axis)
                        want = np.take_along_axis(xt.data, pick, axis=axis).squeeze(axis)
                        assert out.data.tobytes() == want.tobytes()
                        np.testing.assert_array_equal(xt.grad, expected)


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
            ag.scatter_rows(t(np.zeros((2, 3))), [1, 1], 4)
