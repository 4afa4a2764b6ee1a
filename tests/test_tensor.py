"""Autodiff core: forward oracles, gradient checks, and the Adam optimizer.

Oracle policy: every [DERIVED] expectation is computed by an independent
implementation in this file (plain numpy / scalar loops), never by calling the
code under test twice.
"""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startraj import Tensor, adam_step, layer_norm, linear, parameter, zero_grads
from startraj import AdamState
from startraj.attention import attention_weights, masked_attention
from startraj.errors import MaskError, NonFiniteError, ShapeMismatchError
from startraj.gradcheck import TOLERANCE, check_gradients, run_suite
from startraj.tensor import _unbroadcast, concat, dropout, stack


# ----------------------------------------------------------------------
# forward oracles
# ----------------------------------------------------------------------
class TestMatmul:
    def test_identity(self):
        # [TRIVIAL] I2 x A = A
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = Tensor(np.eye(2)).matmul(Tensor(a))
        np.testing.assert_array_equal(out.numpy(), a)

    def test_hand_oracle(self):
        # [DERIVED] scalar triple-loop oracle
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        expect = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expect[i, j] += a[i, k] * b[k, j]
        np.testing.assert_array_equal(expect, [[2.0, 1.0], [4.0, 3.0]])
        out = Tensor(a).matmul(Tensor(b))
        np.testing.assert_array_equal(out.numpy(), expect)

    def test_annihilator(self):
        # [TRIVIAL] A x 0 = 0
        a = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        out = a.matmul(Tensor(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.numpy(), np.zeros((3, 2)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))).matmul(Tensor(np.zeros((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((5, 3, 4)), rng.standard_normal((5, 4, 2))
        out = Tensor(a).matmul(Tensor(b)).numpy()
        for i in range(5):
            np.testing.assert_allclose(out[i], a[i] @ b[i], rtol=0, atol=0)


def _softmax(logits) -> np.ndarray:
    """Softmax of a 1-D logit list, read off attention_weights: one query of
    width 1 against keys holding the logits, so that each logit reaches the
    exp-normalise unscaled (1/sqrt(1) = 1), on one leading axis of length 1
    and one head."""
    x = np.asarray(logits, dtype=np.float64)
    allow = np.ones((1, 1, x.size), dtype=bool)
    w = attention_weights(Tensor(np.ones((1, 1, 1))), Tensor(x[None, :, None]), allow, 1)
    return w[0, 0, 0]


class TestSoftmax:
    """The exp-normalise inside attention_weights, the only softmax."""

    def test_uniform(self):
        # [TRIVIAL] equal logits -> uniform
        out = _softmax([0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_dominance_no_overflow(self):
        # [TRIVIAL] large logit dominates without overflow
        out = _softmax([1000.0, 0.0, 0.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-300)

    def test_scalar_oracle(self):
        # [DERIVED] scalar exp-normalize oracle
        x = [1.0, 2.0, 3.0]
        exps = [np.exp(v) for v in x]
        expect = [e / sum(exps) for e in exps]
        out = _softmax(x)
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_empty_axis_error(self):
        # no key at all leaves every query row without a usable key
        with pytest.raises(MaskError):
            masked_attention(Tensor(np.ones((1, 3, 1))), Tensor(np.zeros((1, 0, 1))),
                             Tensor(np.zeros((1, 0, 2))), np.ones((1, 3, 0), dtype=bool), 1)

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, logits):
        out = _softmax(logits)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        # [TRIVIAL] zero variance numerator
        out = layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.numpy(), np.zeros(3), atol=1e-12)

    def test_two_point_oracle(self):
        # [DERIVED] mean 0, population std 1 -> [1, -1] up to the 1e-5 epsilon
        out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.numpy(), [1.0, -1.0], atol=1e-5)

    def test_zero_gain_gives_bias(self):
        # [TRIVIAL] gain 0 -> all entries = bias
        b = np.array([2.0, -1.0, 0.5])
        out = layer_norm(Tensor([4.0, 1.0, -7.0]), Tensor(np.zeros(3)), Tensor(b))
        np.testing.assert_array_equal(out.numpy(), b)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_normalized_moments(self, seed):
        x = np.random.default_rng(seed).standard_normal((4, 6)) * 3.0 + 1.0
        out = layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))).numpy()
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-9)
        # eps=1e-5 shrinks the variance exactly: a row of variance v comes
        # out with v / (v + eps), which is far from 1 for low-variance rows
        v = x.var(axis=-1)
        assert np.all(np.abs(out.var(axis=-1) - v / (v + 1e-5)) < 1e-12)


# ----------------------------------------------------------------------
# backward
# ----------------------------------------------------------------------
class TestBackward:
    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeMismatchError):
            parameter(np.zeros((2, 2))).relu().backward()

    def test_linear_grad_is_broadcast_input(self):
        # [DERIVED] d/dW sum(x W) = x^T 1 (finite differences agree below)
        rng = np.random.default_rng(3)
        w = parameter(rng.standard_normal((4, 3)))
        x = Tensor(rng.standard_normal((5, 4)))
        x.matmul(w).sum().backward()
        np.testing.assert_allclose(w.grad, x.numpy().T @ np.ones((5, 3)), atol=1e-12)

    def test_constant_operands_get_no_gradient(self):
        # no op hands anything to an operand that does not require grad, on
        # either side; the other side's gradient is unchanged
        x = parameter(np.arange(3.0))
        c = Tensor(np.full(3, 2.0))
        loss = ((x + c) + (c + x) + (x - c) + (c - x) + x * c + c * x).sum()
        (loss + concat([c, x]).sum() + concat([x, c]).sum()).backward()
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, np.full(3, 1 + 1 + 1 - 1 + 2 + 2 + 1 + 1.0))

        # every op with two or more operands, each proper subset of them
        # constant: the rest get the bits they get when all are parameters
        rng = np.random.default_rng(13)
        a, w, s = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 4)), rng.standard_normal(4)
        allow = (rng.random((2, 3, 3)) < 0.5) | np.eye(3, dtype=bool)
        ops = {
            "matmul": (Tensor.matmul, [a, w]),
            "stack": (lambda p, q: stack([p, q], axis=1), [a, a + 1.0]),
            "layer_norm": (layer_norm, [a, s, s + 1.0]),
            "linear": (linear, [a, w, s, a * 2.0]),
            "linear relu": (lambda *t: linear(*t, relu=True), [a, w, s, a * 2.0]),
            "masked_attention": (lambda q, k, v: masked_attention(q, k, v, allow, 2),
                                 [a, a * 0.5, a - 1.0]),
        }
        for name, (op, arrays) in ops.items():
            upstream = rng.standard_normal(op(*(Tensor(v) for v in arrays)).shape)
            expect = _outputs_and_grads(op, arrays, upstream)[1]
            for n in range(1, len(arrays)):
                for const in itertools.combinations(range(len(arrays)), n):
                    leaves = [Tensor(v) if i in const else parameter(v)
                              for i, v in enumerate(arrays)]
                    (op(*leaves) * Tensor(upstream)).sum().backward()
                    for i, leaf in enumerate(leaves):
                        if i in const:
                            assert leaf.grad is None, (name, const, i)
                        else:
                            np.testing.assert_array_equal(leaf.grad, expect[i])

    def test_constant_loss_zero_grads(self):
        # [TRIVIAL] loss independent of parameter -> zero gradient
        w = parameter(np.ones(3))
        loss = (w * 0.0).sum()
        loss.backward()
        np.testing.assert_array_equal(w.grad, np.zeros(3))

    def test_shared_subexpression_accumulates(self):
        w = parameter(np.array([2.0]))
        y = w * w + w * 3.0  # dy/dw = 2w + 3 = 7
        y.sum().backward()
        np.testing.assert_allclose(w.grad, [7.0], atol=1e-12)

    def test_broadcast_add_accumulates(self):
        b = parameter(np.zeros(3))
        x = Tensor(np.ones((5, 3)))
        (x + b).sum().backward()
        np.testing.assert_array_equal(b.grad, np.full(3, 5.0))

    @pytest.mark.parametrize("add_first", [True, False])
    def test_add_gives_each_parent_its_own_gradient(self, add_first):
        # [DERIVED] d/dx = u + v, d/dy = u; x adopts the add's upstream
        # gradient and later adds x * v's into it, which must not reach y,
        # whichever of the two terms the sweep reaches first
        rng = np.random.default_rng(8)
        x, y = parameter(rng.standard_normal((3, 4))), parameter(rng.standard_normal((3, 4)))
        u, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        terms = [((x + y) * Tensor(u)).sum(), (x * Tensor(v)).sum()]
        (terms[0] + terms[1] if add_first else terms[1] + terms[0]).backward()
        np.testing.assert_array_equal(y.grad, u)
        np.testing.assert_array_equal(x.grad, u + v)

    def test_self_add_doubles_gradient(self):
        # [DERIVED] d/dx sum((x + x) * u) = 2u
        rng = np.random.default_rng(9)
        x, u = parameter(rng.standard_normal((3, 4))), rng.standard_normal((3, 4))
        ((x + x) * Tensor(u)).sum().backward()
        np.testing.assert_array_equal(x.grad, u + u)

    def test_self_concat_sums_both_slices(self):
        # [DERIVED] d/dx sum(concat([x, x], axis) * u) = the two halves of u added
        rng = np.random.default_rng(10)
        x = parameter(rng.standard_normal((3, 4)))
        for axis in (0, 1):
            x.grad = None
            u = rng.standard_normal((6, 4) if axis == 0 else (3, 8))
            (concat([x, x], axis=axis) * Tensor(u)).sum().backward()
            lo, hi = np.split(u, 2, axis=axis)
            np.testing.assert_array_equal(x.grad, lo + hi)

    def test_lone_concat_is_its_input(self):
        # [TRIVIAL] nothing to join: the input itself, no copy and no tape node
        x = parameter(np.arange(6.0).reshape(2, 3))
        assert concat([x], axis=1) is x
        assert concat([np.ones(2)]).numpy().tolist() == [1.0, 1.0]

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_op_result_adopts_its_float64_array(self):
        # an op result holds the array its op made, not a copy
        arr = np.arange(3.0)
        out = Tensor(arr, _parents=(parameter(np.zeros(3)),), _backward=lambda g: None)
        assert out.data is arr

    def test_op_result_may_hold_non_finite_values(self):
        # only leaves are checked: an overflowing op gives its inf and NaN
        a = parameter([1e300, 1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            inf = a * Tensor([1e300, 1e300])
            nan = inf - inf
        assert np.isinf(inf.numpy()).all() and np.isnan(nan.numpy()).all()
        out = Tensor(np.array([np.nan, -np.inf]), _parents=(a,), _backward=lambda g: None)
        assert np.isnan(out.numpy()[0]) and out.numpy()[1] == -np.inf

    def test_op_result_of_constants_drops_parents_and_closure(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        for out in (a * b, linear(Tensor(np.ones((2, 2))), a.reshape(2, 1), Tensor([1.0]))):
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
        out = a * parameter([3.0, 4.0])
        assert out.requires_grad and len(out._parents) == 2 and out._backward is not None

    def test_primitive_gradcheck(self):
        # [DERIVED] finite differences over a composite of every primitive
        rng = np.random.default_rng(4)
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4, 3)))
        c = parameter(rng.standard_normal((3, 3)))

        allow = np.array([[[True, False, True], [False, True, False], [True, True, True]]])

        def loss():
            m = a.matmul(b)
            s = masked_attention(m.reshape(1, 3, 3), c.reshape(1, 3, 3),
                                 (m + c).reshape(1, 3, 3), allow, 1)
            e = (m * m + 0.5).tanh() - m
            t = m.tanh() + m.sigmoid() + linear(m, c, b[0]).relu()
            return (s * e).sum() + (t * t).sum() * (1.0 / t.size)

        err = check_gradients(loss, [("a", a), ("b", b), ("c", c)])
        assert err < 1e-6

    def test_reshape_swap_concat_stack_getitem_gradcheck(self):
        rng = np.random.default_rng(5)
        a = parameter(rng.standard_normal((2, 6)))
        b = parameter(rng.standard_normal((2, 3)))
        w = Tensor(rng.standard_normal((2, 2, 6)))

        def loss():
            r = a.reshape(3, 4).swapaxes(0, 1).reshape(2, 6)
            cat = concat([r[:, :3], b], axis=1)
            s = stack([cat, cat * 2.0], axis=0)
            return (s * w).sum()

        err = check_gradients(loss, [("a", a), ("b", b)])
        assert err < 1e-6

    def test_repeated_index_gradient(self):
        # [TRIVIAL] a row picked twice by an integer array gets gradient 2
        x = parameter(np.random.default_rng(6).standard_normal((4, 3)))
        x[np.array([0, 2, 2])].sum().backward()
        np.testing.assert_array_equal(x.grad, np.array([[1.0], [0.0], [2.0], [0.0]])
                                      * np.ones((1, 3)))
        idx = np.array([3, 1, 3, 3])
        err = check_gradients(lambda: (x[idx] * x[idx]).sum(), [("x", x)])
        assert err < 1e-6

    @pytest.mark.parametrize("key", [
        1, np.int64(2), slice(1, 3), (slice(None), 0), (Ellipsis, slice(0, 2)),
        (None, slice(None, None, 2)), (slice(None), None, -1), -1,
        np.array([0, 2, 2]), [3, 3], (np.array([1, 1]), slice(0, 2)),
        np.array([True, False, True, True]), (np.array([0, 0]), np.array([1, 1])),
    ])
    def test_getitem_backward_matches_add_at(self, key):
        # [DERIVED] basic keys write into a view, array keys scatter; both
        # equal an np.add.at scatter of the same upstream gradient
        rng = np.random.default_rng(7)
        x = parameter(rng.standard_normal((4, 3)))
        out = x[key]
        g = rng.standard_normal(out.shape)
        (out * Tensor(g)).sum().backward()
        expect = np.zeros((4, 3))
        np.add.at(expect, key, g)
        np.testing.assert_array_equal(x.grad, expect)


# ----------------------------------------------------------------------
# dropout
# ----------------------------------------------------------------------
class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_inverted_scaling(self):
        x = Tensor(np.ones((1000, 10)))
        out = dropout(x, 0.1, np.random.default_rng(0)).numpy()
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.9, atol=1e-12)
        assert abs(kept.mean() - 0.9) < 0.02


# ----------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------
def _scalar_adam_oracle(g_seq, lr=0.0015, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam with bias correction."""
    p, m, v = 0.0, 0.0, 0.0
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return p, m, v


class TestAdam:
    def test_first_step_delta(self):
        # [DERIVED] scalar oracle: first step with g=1 moves ~ -lr
        w = parameter(np.array([0.0]))
        state = AdamState([("w", w)], learning_rate=0.0015)
        w.grad = np.array([1.0])
        adam_step([("w", w)], state)
        expect, _, _ = _scalar_adam_oracle([1.0])
        np.testing.assert_allclose(w.data, [expect], atol=1e-15)
        assert abs(w.data[0] + 0.0015) < 1e-10

    def test_zero_grad_fixed_point(self):
        # [TRIVIAL] g=0 leaves parameters unchanged
        w = parameter(np.array([1.5, -2.0]))
        state = AdamState([("w", w)], learning_rate=0.1)
        w.grad = np.zeros(2)
        adam_step([("w", w)], state)
        np.testing.assert_array_equal(w.data, [1.5, -2.0])

    def test_two_steps_match_oracle(self):
        # [DERIVED] two identical steps: step_count and moments from the oracle
        w = parameter(np.array([0.0]))
        plist = [("w", w)]
        state = AdamState(plist, learning_rate=0.0015)
        for _ in range(2):
            w.grad = np.array([0.7])
            adam_step(plist, state)
        assert state.step_count == 2
        expect_p, expect_m, expect_v = _scalar_adam_oracle([0.7, 0.7])
        np.testing.assert_allclose(w.data, [expect_p], atol=1e-15)
        np.testing.assert_allclose(state.first_moment["w"], [expect_m], atol=1e-15)
        np.testing.assert_allclose(state.second_moment["w"], [expect_v], atol=1e-15)

    def test_nan_gradient_rejected(self):
        w = parameter(np.array([0.0]))
        state = AdamState([("w", w)], learning_rate=0.0015)
        w.grad = np.array([np.nan])
        with pytest.raises(NonFiniteError):
            adam_step([("w", w)], state)

    def test_zero_grads_helper(self):
        w = parameter(np.zeros(3))
        w.grad = np.ones(3)
        zero_grads([("w", w)])
        assert w.grad is None or not w.grad.any()


class TestLinearHelper:
    def test_affine_oracle(self):
        rng = np.random.default_rng(6)
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
        out = linear(Tensor(x), Tensor(w), Tensor(b)).numpy()
        np.testing.assert_allclose(out, x @ w + b, atol=1e-15)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_batched_gradients_match_oracle(self):
        # [DERIVED] (N, t, in) inputs: dx = g W^T, dW = sum_n x_n^T g_n, db = sum g
        rng = np.random.default_rng(8)
        x = parameter(rng.standard_normal((2, 3, 4)))
        w, b = parameter(rng.standard_normal((4, 5))), parameter(rng.standard_normal(5))
        g = rng.standard_normal((2, 3, 5))
        (linear(x, w, b) * Tensor(g)).sum().backward()
        np.testing.assert_allclose(x.grad, g @ w.data.T, atol=1e-12)
        np.testing.assert_allclose(w.grad, sum(x.data[n].T @ g[n] for n in range(2)),
                                   atol=1e-12)
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 1)), atol=1e-12)

    def test_residual_matches_the_add_composite(self, read_only_tensors):
        # linear(x, W, b, x), TGConv's f_out and skip connection, against
        # linear(x, W, b) + x: the output and every gradient bit for bit and
        # laid out alike. x * x is swept first, so x's gradient adds three
        # parts, and the residual's g must come before g W^T, as in the
        # composite
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal(s) for s in ((4, 5, 3), (3, 3), (3,))]
        g = rng.standard_normal((4, 5, 3))
        results = []
        for fused in (True, False):
            with read_only_tensors():
                x, w, b = (parameter(a) for a in arrays)
                out = linear(x, w, b, x) if fused else linear(x, w, b) + x
                ((x * x).sum() + (out * Tensor(g)).sum()).backward()
            results.append((out.numpy(), x.grad, w.grad, b.grad))
        for got, expect in zip(*results):
            np.testing.assert_array_equal(got, expect)
            assert got.strides == expect.strides

    def test_residual_gradcheck(self):
        # x as its own residual, as in TGConv, and a residual of its own, as
        # in the temporal block and the GRU gates
        rng = np.random.default_rng(12)
        x, w, b, r = (parameter(rng.standard_normal(s)) for s in ((2, 3), (3, 3), (3,), (2, 3)))
        g = Tensor(rng.standard_normal((2, 3)))
        leaves = [("x", x), ("w", w), ("b", b)]
        assert check_gradients(lambda: (linear(x, w, b, x) * g).sum(), leaves) < TOLERANCE
        assert check_gradients(lambda: (linear(x, w, b, r) * g).sum(),
                               leaves + [("r", r)]) < TOLERANCE

    def test_residual_of_another_shape_rejected(self):
        x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
        with pytest.raises(ShapeMismatchError, match=r"residual of \(2, 3\) for \(2, 4\)"):
            linear(x, w, b, x)

    def test_bias_of_another_shape_rejected(self):
        # backward sums the bias gradient over every leading axis, so the
        # bias is (out,) and broadcasts over nothing else
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        for shape in ((1, 4), (2, 4), (1,)):
            with pytest.raises(ShapeMismatchError, match="bias of"):
                linear(x, w, Tensor(np.zeros(shape)))


class TestAllocationBudget:
    """Eval-mode linear and layer_norm allocate their result once and finish
    the expression in place. numpy reports its buffers to tracemalloc, so the
    peak is in bytes; the out-of-place expressions peaked at 2.17x and 3.20x
    the output at this shape, an infer_crowd temporal block's."""

    @staticmethod
    def _peak_share(op, *arrays):
        tensors = [Tensor(a) for a in arrays]
        tracemalloc.start()
        try:
            out = op(*tensors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / out.data.nbytes

    def test_linear(self):
        rng = np.random.default_rng(0)
        share = self._peak_share(linear, rng.standard_normal((80, 19, 32)),
                                 rng.standard_normal((32, 32)), rng.standard_normal(32))
        assert share <= 1.25, share

    def test_layer_norm(self):
        # the centred rows and their squares, for the variance, are both live
        rng = np.random.default_rng(1)
        share = self._peak_share(layer_norm, rng.standard_normal((80, 19, 32)),
                                 rng.standard_normal(32), rng.standard_normal(32))
        assert share <= 2.1, share


class TestTapeNodes:
    """The attention core, the linear layer (its ReLU included) and dropout
    each record one tape node."""

    def test_linear_adds_one_node(self, tape_stats):
        rng = np.random.default_rng(9)
        x, w, b = (parameter(rng.standard_normal(s)) for s in ((3, 4), (4, 2), (2,)))
        assert len(tape_stats(linear(x, w, b)).nodes) == 3 + 1
        assert len(tape_stats(linear(x, w, b, relu=True)).nodes) == 3 + 1

    def test_linear_with_residual_adds_one_node(self, tape_stats):
        rng = np.random.default_rng(9)
        x, w, b, r = (parameter(rng.standard_normal(s)) for s in ((3, 4), (4, 2), (2,), (3, 2)))
        assert len(tape_stats(linear(x, w, b, r)).nodes) == 4 + 1
        assert len(tape_stats(linear(x, w, b, r, relu=True)).nodes) == 4 + 1

    def test_dropout_adds_one_node_holding_a_bool_mask(self, tape_stats):
        # the float keep is rebuilt from the mask; it is on no tape
        x = parameter(np.random.default_rng(9).standard_normal((3, 4)))
        out = dropout(x, 0.5, np.random.default_rng(0))
        stats = tape_stats(out)
        assert len(stats.nodes) == 1 + 1
        assert stats.nbytes == 2 * x.data.nbytes
        cells = dict(zip(out._backward.__code__.co_freevars, out._backward.__closure__))
        assert cells["mask"].cell_contents.dtype == bool

    def test_masked_attention_adds_one_node(self, tape_stats):
        # the heads are split and merged inside the node; the weights are a
        # plain array, on no tape
        rng = np.random.default_rng(10)
        q, k, v = (parameter(rng.standard_normal((2, 3, 4))) for _ in range(3))
        allow = np.array([[[True, False, True]] * 3] * 2)  # (2, 3, 3), one per row
        assert len(tape_stats(masked_attention(q, k, v, allow, 2)).nodes) == 3 + 1
        assert type(attention_weights(q, k, allow, 2)) is np.ndarray


class TestGradcheckCorrupt:
    def test_corrupt_skews_only_the_masked_attention_entry(self, skewed_q_gradient):
        # a 1.01 skew of the analytic q-gradient gives a relative error near
        # 0.01 / 2.01; every other entry keeps its honest gradients
        report = run_suite(seed=0)
        assert 1e-3 <= report["masked_attention"] <= 1e-1, report
        others = {k: v for k, v in report.items() if k != "masked_attention"}
        assert max(others.values()) < TOLERANCE, report


class TestTapeRelease:
    """backward() frees each node's closure, parents and, for a node with
    parents, its gradient as soon as the sweep has passed it."""

    def test_swept_node_released_before_sweep_ends(self):
        rng = np.random.default_rng(12)
        x = parameter(rng.standard_normal((2, 3, 4)))
        allow = np.array([[[True, False, True], [False, True, True], [True, True, True]]] * 2)
        seen = {}

        def spy(g):
            # the identity on x, so the sweep reaches it after `att`; the
            # attention weights were held by att's closure alone
            seen.update(grad=att.grad, backward=att._backward, parents=att._parents,
                        weights=weights_ref())
            x._accumulate(g)

        first = Tensor(x.data, _parents=(x,), _backward=spy)
        att = masked_attention(first, first, first, allow, 2)
        cells = dict(zip(att._backward.__code__.co_freevars, att._backward.__closure__))
        weights = cells["w"].cell_contents
        np.testing.assert_array_equal(weights, attention_weights(first, first, allow, 2))
        weights_ref = weakref.ref(weights)
        del weights, cells
        loss = (att * att).sum()
        loss.backward()
        assert seen["grad"] is None and seen["backward"] is None
        assert seen["parents"] == () and seen["weights"] is None
        # every node with parents, the loss included, ends without a gradient
        assert loss.grad is None and att.grad is None and first.grad is None

        # the leaf keeps its gradient, the one of the same graph without the spy
        y = parameter(x.data.copy())
        out = masked_attention(y, y, y, allow, 2)
        (out * out).sum().backward()
        np.testing.assert_array_equal(x.grad, y.grad)


# ----------------------------------------------------------------------
# the ops as they were when their closures saved what backward now
# recomputes: norm, the relu mask and the scaled queries
# ----------------------------------------------------------------------
def _saving_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    norm = centered * inv_std

    def bwd(g):
        dn = g * gain.data
        dx = inv_std * (
            dn
            - dn.mean(axis=-1, keepdims=True)
            - norm * (dn * norm).mean(axis=-1, keepdims=True)
        )
        x._accumulate(dx)
        gain._accumulate(_unbroadcast(g * norm, gain.shape))
        gb = _unbroadcast(g, bias.shape)
        bias._accumulate(gb)

    return Tensor(norm * gain.data + bias.data, _parents=(x, gain, bias), _backward=bwd)


def _saving_relu(a):
    mask = a.data > 0

    def bwd(g):
        a._accumulate(g * mask)

    return Tensor(np.maximum(a.data, 0.0), _parents=(a,), _backward=bwd)


def _saving_attention(q, k, v, allow, d_k):
    scale = 1.0 / math.sqrt(d_k)
    qs = q.data * scale
    w = np.matmul(qs, np.swapaxes(k.data, -1, -2))
    np.copyto(w, -np.inf, where=~allow)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def bwd(g):
        gw = _unbroadcast(np.matmul(g, np.swapaxes(v.data, -1, -2)), w.shape)
        v._accumulate(_unbroadcast(np.matmul(np.swapaxes(w, -1, -2), g), v.shape))
        gl = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        q._accumulate(_unbroadcast(np.matmul(gl, k.data), q.shape) * scale)
        gk = np.swapaxes(np.matmul(np.swapaxes(qs, -1, -2), gl), -1, -2)
        k._accumulate(_unbroadcast(gk, k.shape))

    return Tensor(np.matmul(w, v.data), _parents=(q, k, v), _backward=bwd), Tensor(w)


def _saving_multi_head(q, k, v, allow, heads):
    """_saving_attention between the head split and merge that wrapped it:
    merged output and weights. The merge copies, or with d_k = 1 makes a
    view that is not C-ordered, where the fused op's output is its own
    C-ordered buffer."""
    split = lambda x: x.reshape(*x.shape[:-1], heads, x.shape[-1] // heads).swapaxes(-3, -2)
    out, w = _saving_attention(split(q), split(k), split(v), allow[..., None, :, :],
                               q.shape[-1] // heads)
    out = out.swapaxes(-3, -2)
    return out.reshape(*out.shape[:-2], q.shape[-1]), w


def _outputs_and_grads(op, arrays, upstream, swap=None):
    """op's output and the gradient of every input under the loss
    sum(output * upstream), on fresh leaves holding `arrays`. With `swap`, a
    pair of axes, the loss reads output.swapaxes(*swap) against the upstream
    swapped alike, so op's gradient arrives as a transposed view, the way
    TGConv's closing swapaxes hands it on."""
    leaves = [parameter(a.copy()) for a in arrays]
    out = op(*leaves)
    if swap is None:
        (out * Tensor(upstream)).sum().backward()
    else:
        (out.swapaxes(*swap) * Tensor(upstream.swapaxes(*swap))).sum().backward()
    return out.numpy(), [t.grad for t in leaves]


def _composite_dropout(x, rate, rng):
    """dropout as it was: the float keep a constant leaf, times x."""
    keep = (rng.random(x.shape) >= rate).astype(np.float64)
    keep /= 1.0 - rate
    return x * Tensor(keep)


class TestRecomputingClosures:
    """relu and masked_attention recompute in backward what they used to
    save, layer_norm rebuilds its normalized rows from the row means and
    inverse standard deviations it keeps, and all three write their
    temporaries in place; linear's ReLU reads its mask off the output and
    dropout rebuilds its float keep from a bool mask. Outputs and every input
    gradient keep their bits and their memory layout, under a C-contiguous
    and under a transposed upstream gradient."""

    @staticmethod
    def _assert_same(new, old, arrays, upstream, swap=(0, 1), c_ordered_out=False):
        """c_ordered_out: the output is C-ordered, whatever the old op's is."""
        for how in (None, swap) if upstream.ndim > 1 else (None,):
            got = _outputs_and_grads(new, arrays, upstream, how)
            expect = _outputs_and_grads(old, arrays, upstream, how)
            for a, b in zip([got[0]] + got[1], [expect[0]] + expect[1]):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(np.signbit(a), np.signbit(b))  # -0.0
            if c_ordered_out:
                assert got[0].flags.c_contiguous, how
            else:
                assert got[0].strides == expect[0].strides, how
            for a, b in zip(got[1], expect[1]):
                assert a.strides == b.strides, how

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(seed)
        t, d = rng.integers(1, 6), rng.integers(1, 9)
        lead = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
        x = rng.standard_normal(lead + (t, d)) * 3.0
        # a per-feature (d,) or a per-step (t, 1) gain and bias
        side = (d,) if rng.random() < 0.5 else (t, 1)
        arrays = [x, rng.standard_normal(side), rng.standard_normal(side)]
        self._assert_same(layer_norm, _saving_layer_norm, arrays, rng.standard_normal(x.shape))

    @pytest.mark.parametrize("side", [(4,), (3, 1)])
    def test_layer_norm_fixed_rows(self, side):
        # rows of zero variance (inv_std = 1 / sqrt(eps)), rows offset by
        # 1e8 and rows holding -0.0, under a per-feature and a per-step gain
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 4))
        x[0, 0] = 2.5
        x[0, 1] = -0.0
        x[0, 2] = [-0.0, 0.0, -0.0, 1.0]
        x[1] += 1e8
        x[1, 1] = 1e8
        gain, bias = rng.standard_normal(side), rng.standard_normal(side)
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).numpy()
        # a constant row normalizes to zeros and gives the bias
        np.testing.assert_array_equal(out[0, :2], np.broadcast_to(bias, (3, 4))[:2])
        self._assert_same(layer_norm, _saving_layer_norm, [x, gain, bias],
                          rng.standard_normal(x.shape))
        # finite differences, without the 1e8 rows: their row means round
        # away more than a 1e-5 step could resolve
        leaves = [parameter(a) for a in (x[:1].copy(), gain, bias)]
        g = Tensor(rng.standard_normal(leaves[0].shape))
        assert check_gradients(lambda: (layer_norm(*leaves) * g).sum(),
                               list(zip(("x", "gain", "bias"), leaves))) < TOLERANCE

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_relu(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(tuple(rng.integers(1, 6, size=rng.integers(1, 4))))
        x[rng.random(x.shape) < 0.2] = 0.0  # the kink: gradient 0 at exactly 0
        self._assert_same(Tensor.relu, _saving_relu, [x], rng.standard_normal(x.shape))

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_masked_attention(self, seed):
        rng = np.random.default_rng(seed)
        t, scenes, heads, n = (int(v) for v in rng.integers(1, 4, size=4))
        d_k = int(rng.integers(1, 6))
        shape = (t, scenes, n, heads * d_k)
        # TGConv's (t, S, n, n) masks, one for every head; every query keeps
        # itself
        allow = (rng.random((t, scenes, n, n)) < 0.5) | np.eye(n, dtype=bool)
        arrays = [rng.standard_normal(shape) for _ in range(3)]
        upstream = rng.standard_normal(shape)
        self._assert_same(lambda q, k, v: masked_attention(q, k, v, allow, heads),
                          lambda q, k, v: _saving_multi_head(q, k, v, allow, heads)[0],
                          arrays, upstream, swap=(0, -2), c_ordered_out=True)
        q, k, v = (Tensor(a) for a in arrays)
        w_old = _saving_multi_head(q, k, v, allow, heads)[1]
        np.testing.assert_array_equal(attention_weights(q, k, allow, heads), w_old.numpy())

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_linear_relu(self, seed):
        # linear(..., relu=True), with and without a residual, against the
        # composite linear(...).relu()
        rng = np.random.default_rng(seed)
        lead = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
        d_in, d_out = (int(v) for v in rng.integers(1, 7, size=2))
        x = rng.standard_normal(lead + (d_in,))
        w, b = rng.standard_normal((d_in, d_out)), rng.standard_normal(d_out)
        r = rng.standard_normal(lead + (d_out,))
        # the kink: an all-zero input row, a zero bias entry and a zero
        # residual entry there give pre-activations of exactly 0
        x.reshape(-1, d_in)[0] = 0.0
        b[0] = 0.0
        r.reshape(-1, d_out)[0, 0] = 0.0
        assert (x @ w + b + r == 0.0).any()
        upstream = rng.standard_normal(lead + (d_out,))
        self._assert_same(lambda *t: linear(*t, relu=True), lambda *t: linear(*t).relu(),
                          [x, w, b], upstream)
        self._assert_same(lambda *t: linear(*t, relu=True), lambda *t: linear(*t).relu(),
                          [x, w, b, r], upstream)
        # finite differences, away from the kink
        leaves = [parameter(rng.standard_normal(v.shape)) for v in (x, w, b, r)]
        g = Tensor(upstream)
        assert check_gradients(lambda: (linear(*leaves[:3], relu=True) * g).sum(),
                               list(zip("xwb", leaves))) < TOLERANCE
        assert check_gradients(lambda: (linear(*leaves, relu=True) * g).sum(),
                               list(zip("xwbr", leaves))) < TOLERANCE

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate inf - inf
    def test_linear_relu_nan_pre_activation(self):
        # a NaN pre-activation stays NaN and, as NaN > 0 is false, passes no
        # gradient, as in the composite: the first row overflows to inf on
        # the way in, and inf * 10 + inf * -10 is NaN; the second row gives a
        # negative entry and an exact 0
        x = np.array([[1e10, 1e10, 0.0], [1.0, 2.0, 3.0]])
        w, b = np.array([[10.0, 1.0], [-10.0, 1.0], [1.0, -1.0]]), np.zeros(2)
        pre = (x * 1e300) @ w + b
        assert np.isnan(pre).any() and (pre < 0).any() and (pre == 0).any()
        self._assert_same(lambda x, w, b: linear(x * 1e300, w, b, relu=True),
                          lambda x, w, b: linear(x * 1e300, w, b).relu(),
                          [x, w, b], np.random.default_rng(0).standard_normal((2, 2)))

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dropout(self, seed):
        # the same draw from the generator, the same output and gradient, and
        # the generator left in the same state
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 6, size=rng.integers(2, 4)))
        x = rng.standard_normal(shape)
        rate = float(rng.uniform(0.05, 0.95))
        self._assert_same(lambda t: dropout(t, rate, np.random.default_rng(seed)),
                          lambda t: _composite_dropout(t, rate, np.random.default_rng(seed)),
                          [x], rng.standard_normal(shape))
        gens = [np.random.default_rng(seed) for _ in range(2)]
        dropout(Tensor(x), rate, gens[0])
        _composite_dropout(Tensor(x), rate, gens[1])
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        leaf = parameter(x)
        g = Tensor(rng.standard_normal(shape))
        loss = lambda: (dropout(leaf, rate, np.random.default_rng(seed)) * g).sum()
        assert check_gradients(loss, [("x", leaf)]) < TOLERANCE
