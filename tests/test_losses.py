import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recloud import autograd as ag
from recloud.autograd import Tensor, backward, finite_difference_check
from recloud.losses import LossReport, chamfer, loss_all, loss_global, loss_local

from oracles import chamfer_oracle


class TestChamfer:
    def test_self_distance_zero(self):
        pts = np.random.default_rng(0).standard_normal((20, 3))
        assert float(chamfer(pts, pts).data) == 0.0

    def test_single_points(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0]])
        assert float(chamfer(a, b).data) == 2.0

    def test_asymmetric_counts(self):
        a = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        b = np.array([[0.0, 0, 0]])
        # (0 + 4)/2 + 0/1 = 2, confirmed by the brute-force oracle
        assert chamfer_oracle(a, b) == 2.0
        assert float(chamfer(a, b).data) == 2.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(1, 30)), 3))
            b = rng.standard_normal((int(rng.integers(1, 30)), 3))
            assert float(chamfer(a, b).data) == pytest.approx(float(chamfer(b, a).data),
                                                              rel=1e-12)

    def test_nonnegative_and_zero_iff_mutual_coverage(self):
        a = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        b = np.array([[1.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0]])
        assert float(chamfer(a, b).data) == 0.0
        c = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
        assert float(chamfer(a, c).data) > 0.0

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal((int(rng.integers(1, 40)), 3))
            b = rng.standard_normal((int(rng.integers(1, 40)), 3))
            got = float(chamfer(a, b).data)
            want = chamfer_oracle(a, b)
            assert got == pytest.approx(want, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty|shape"):
            chamfer(np.zeros((0, 3)), np.zeros((1, 3)))

    def test_gradient_fd(self):
        rng = np.random.default_rng(3)
        target = rng.standard_normal((7, 3))
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        err = finite_difference_check(lambda v: chamfer(v, target), x)
        assert err < 1e-3

    def test_permuting_rows_preserves_value(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 3))
        b = rng.standard_normal((12, 3))
        perm = rng.permutation(12)
        assert float(chamfer(a, b).data) == pytest.approx(
            float(chamfer(a, b[perm]).data), rel=1e-12)


class TestLossNonTransformer:
    """The whole-cloud (PointNet) objective is ``chamfer`` itself."""

    def test_perfect_reconstruction(self):
        pts = np.random.default_rng(5).standard_normal((15, 3))
        assert float(chamfer(pts, pts).data) == 0.0


class TestLossLocal:
    def test_perfect(self):
        patches = np.random.default_rng(7).standard_normal((4, 6, 3))
        t = Tensor(patches, requires_grad=True)
        assert float(loss_local(t, patches).data) == 0.0

    def test_single_patch_equals_chamfer(self):
        rng = np.random.default_rng(8)
        pred = rng.standard_normal((1, 5, 3))
        gt = rng.standard_normal((1, 5, 3))
        got = float(loss_local(Tensor(pred, requires_grad=True), gt).data)
        assert got == pytest.approx(float(chamfer(pred[0], gt[0]).data), rel=1e-12)

    def test_two_patches_average(self):
        rng = np.random.default_rng(9)
        pred = rng.standard_normal((2, 5, 3))
        gt = rng.standard_normal((2, 5, 3))
        v1 = float(chamfer(pred[0], gt[0]).data)
        v2 = float(chamfer(pred[1], gt[1]).data)
        got = float(loss_local(Tensor(pred, requires_grad=True), gt).data)
        assert got == pytest.approx((v1 + v2) / 2.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_local(Tensor(np.zeros((2, 4, 3))), np.zeros((2, 5, 3)))

    def test_gradient_reaches_predictions(self):
        rng = np.random.default_rng(10)
        pred = Tensor(rng.standard_normal((3, 4, 3)), requires_grad=True)
        gt = rng.standard_normal((3, 4, 3))
        err = finite_difference_check(lambda v: loss_local(v, gt), pred)
        assert err < 1e-3


def looped_loss_local(pred: np.ndarray, gt: np.ndarray):
    """Reference: one ``chamfer`` per patch, added in patch order.

    Returns the loss value and the gradient with respect to ``pred``.
    """
    rows = [Tensor(p.copy(), requires_grad=True) for p in pred]
    total = chamfer(rows[0], gt[0])
    for row, target in zip(rows[1:], gt[1:]):
        total = ag.add(total, chamfer(row, target))
    total = ag.scale(total, 1.0 / len(rows))
    backward(total)
    return total.data, np.stack([row.grad for row in rows])


class TestBatchedChamfer:
    @pytest.mark.parametrize("seed", range(5))
    def test_loss_local_equals_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        # small-integer coordinates: many exact nearest-neighbor ties per patch
        pred = rng.integers(-2, 3, size=(m, k, 3)).astype(np.float64)
        gt = rng.integers(-2, 3, size=(m, k, 3)).astype(np.float64)
        want_value, want_grad = looped_loss_local(pred, gt)
        x = Tensor(pred, requires_grad=True)
        got = loss_local(x, gt)
        backward(got)
        assert got.data.tobytes() == want_value.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()

    def test_batched_chamfer_per_entry(self):
        rng = np.random.default_rng(20)
        a, b = rng.standard_normal((4, 6, 3)), rng.standard_normal((4, 9, 3))
        got = chamfer(a, b).data
        assert got.shape == (4,)
        for i in range(4):
            assert got[i] == float(chamfer(a[i], b[i]).data)
            assert got[i] == pytest.approx(chamfer_oracle(a[i], b[i]), rel=1e-9)

    def test_mismatched_leading_axes_rejected(self):
        with pytest.raises(ValueError, match=r"chamfer.*\(2, 4, 3\) vs \(3, 4, 3\)"):
            chamfer(np.zeros((2, 4, 3)), np.zeros((3, 4, 3)))
        with pytest.raises(ValueError, match=r"chamfer.*\(4, 3\) vs \(2, 4, 3\)"):
            chamfer(np.zeros((4, 3)), np.zeros((2, 4, 3)))

    def test_target_takes_prediction_dtype(self):
        pred = Tensor(np.zeros((2, 4, 3), dtype=np.float32), requires_grad=True)
        gt = np.ones((2, 4, 3))
        assert chamfer(pred, gt).dtype == np.float32
        assert loss_local(pred, gt).dtype == np.float32
        assert loss_global(Tensor(np.zeros((5, 3), dtype=np.float32)), np.ones((5, 3))).dtype \
            == np.float32


class TestChamferMemory:
    def test_graph_holds_no_pairwise_differences(self):
        # the (p, q) distances and their differences are forward temporaries,
        # not graph state
        rng = np.random.default_rng(30)
        a = Tensor(rng.standard_normal((400, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((400, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            loss = chamfer(a, b)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 400 * 400 * 8, f"graph holds {held} bytes"
        backward(loss)
        assert a.grad.shape == b.grad.shape == (400, 3)


class TestLossGlobal:
    def test_identical_centers(self):
        c = np.random.default_rng(11).standard_normal((8, 3))
        assert float(loss_global(Tensor(c, requires_grad=True), c).data) == 0.0

    def test_reduces_to_chamfer(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        assert float(loss_global(Tensor(a), b).data) == float(chamfer(a, b).data)

    def test_gt_permutation_invariant(self):
        rng = np.random.default_rng(13)
        pred = Tensor(rng.standard_normal((7, 3)))
        gt = rng.standard_normal((7, 3))
        perm = rng.permutation(7)
        assert float(loss_global(pred, gt).data) == pytest.approx(
            float(loss_global(pred, gt[perm]).data), rel=1e-12)


class TestLossAll:
    def test_weight_zero_reduces_to_local(self):
        local = Tensor(np.asarray(0.7))
        global_ = Tensor(np.asarray(123.0))
        total, report = loss_all(local, global_, 0.0)
        assert float(total.data) == 0.7
        assert report.total == report.local == 0.7

    def test_simple_sum(self):
        total, report = loss_all(Tensor(np.asarray(0.2)), Tensor(np.asarray(0.3)), 1.0)
        assert float(total.data) == pytest.approx(0.5, abs=1e-15)
        assert report.total == pytest.approx(0.5, abs=1e-15)

    def test_report_identity_bit_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            l, g, w = rng.random(), rng.random(), rng.random() * 3
            total, report = loss_all(Tensor(np.asarray(l)), Tensor(np.asarray(g)), w)
            assert report.total == report.local + report.weight * report.global_
            assert float(total.data) == report.total

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            loss_all(Tensor(np.asarray(0.0)), Tensor(np.asarray(0.0)), -0.1)


class TestLossWhole:
    """The transformer's direct whole-cloud objective is ``chamfer`` itself."""

    def test_perfect(self):
        pts = np.random.default_rng(15).standard_normal((20, 3))
        assert float(chamfer(Tensor(pts, requires_grad=True), pts).data) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=32),
       st.integers(min_value=0, max_value=10**6))
def test_chamfer_symmetry_property(wa, wb, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((wa, 3))
    b = rng.standard_normal((wb, 3))
    ab = float(chamfer(a, b).data)
    ba = float(chamfer(b, a).data)
    assert ab >= 0.0
    assert ab == pytest.approx(ba, rel=1e-12, abs=1e-15)
