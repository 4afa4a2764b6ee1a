"""Attention, positional encoding, and the temporal transformer block.

Independent oracles: plain-numpy attention/softmax compositions written in
this file.
"""

import math

import numpy as np
import pytest

from startraj import (
    AttentionParams, TemporalBlockParams, Tensor, linear, parameter,
    positional_encoding, temporal_block,
)
from startraj.attention import (
    LOGIT_BLOCK, _pairwise_sum, head_projections, masked_attention, merge_heads,
)
from startraj.errors import MaskError, NonFiniteError, ShapeMismatchError
from startraj.tensor import _unbroadcast


def _attention(q, k, v, mask):
    """masked_attention on (t, d_k) arrays and a (t_q, t_k) mask, through one
    leading axis of length 1: output and weights, without it."""
    out, w = masked_attention(Tensor(q[None]), Tensor(k[None]), Tensor(v[None]), mask[None])
    return out.numpy()[0], w.numpy()[0]


def _unmasked(q, k, v):
    """Scaled dot-product attention over (t, d_k) arrays with every key usable."""
    return _attention(q, k, v, np.ones((q.shape[0], k.shape[0]), dtype=bool))[0]


def _oracle_attention(q, k, v, mask, d_k):
    """Independent numpy oracle: scale logits, mask with -inf, softmax rows."""
    logits = (q @ k.T) / np.sqrt(d_k)
    logits = np.where(mask, logits, -np.inf)
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = np.where(mask, w, 0.0)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ v, w


class TestScaledAttention:
    def test_single_key_returns_value(self):
        # [TRIVIAL] softmax over one logit is 1
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((1, 4)) for _ in range(3))
        out = _unmasked(q, k, v)
        np.testing.assert_allclose(out, v, atol=1e-12)

    def test_equal_logits_average_values(self):
        # [TRIVIAL] symmetric logits -> (V1+V2)/2
        q = np.zeros((2, 4))  # zero queries make every logit 0
        k = np.random.default_rng(1).standard_normal((2, 4))
        v = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        out = _unmasked(q, k, v)
        np.testing.assert_allclose(out, np.tile((v[0] + v[1]) / 2, (2, 1)), atol=1e-12)

    def test_random_matches_scalar_oracle(self):
        # [DERIVED] scalar exp-normalize oracle on Q_i K_j^T / sqrt(d_k)
        rng = np.random.default_rng(2)
        d_k = 5
        q, k, v = (rng.standard_normal((3, d_k)) for _ in range(3))
        mask = np.ones((3, 3), dtype=bool)
        out, w = _attention(q, k, v, mask)
        expect_out, expect_w = _oracle_attention(q, k, v, mask, d_k)
        np.testing.assert_allclose(w, expect_w, atol=1e-12)
        np.testing.assert_allclose(out, expect_out, atol=1e-12)

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        mask = np.array([[True, False, True]] * 3)
        _, w = _attention(q, k, v, mask)
        assert np.all(w[:, 1] == 0.0)  # bit-exact zero, not just small
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_dead_row_error_names_row(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        mask = np.ones((3, 3), dtype=bool)
        mask[2] = False
        with pytest.raises(MaskError, match=r"\(0, 2\)"):
            _attention(q, k, v, mask)


def _multi_head(h, p):
    """Unmasked self-attention on (t, d_model) inputs through the calls that
    temporal_block and TGConv make: projections split into heads, the
    attention core, the head merge and the output projection, on one
    sequence with a (1, 1, t, t) mask, as temporal_block passes it."""
    q, k, v = head_projections(Tensor(h[None]), p)
    t = h.shape[0]
    out, _ = masked_attention(q, k, v, np.ones((1, 1, t, t), dtype=bool))
    return linear(merge_heads(out, p), p.wo, p.bo).numpy()[0]


class TestMultiHead:
    def test_single_head_is_fo_of_attention(self):
        # [TRIVIAL] k=1 reduces to f_O(attention(f_Q h, f_K h, f_V h))
        rng = np.random.default_rng(5)
        p = AttentionParams.init(6, 1, rng)
        h = rng.standard_normal((4, 6))
        out = _multi_head(h, p)
        q = h @ p.wq.numpy() + p.bq.numpy()
        k = h @ p.wk.numpy() + p.bk.numpy()
        v = h @ p.wv.numpy() + p.bv.numpy()
        att, _ = _oracle_attention(q, k, v, np.ones((4, 4), dtype=bool), 6)
        np.testing.assert_allclose(out, att @ p.wo.numpy() + p.bo.numpy(), atol=1e-12)

    def test_zero_value_projection_gives_bias(self):
        # [TRIVIAL] zero f_V weight+bias -> output is f_O bias everywhere
        rng = np.random.default_rng(6)
        p = AttentionParams.init(4, 2, rng)
        p.wv.data[:] = 0.0
        p.bv.data[:] = 0.0
        out = _multi_head(rng.standard_normal((3, 4)), p)
        np.testing.assert_allclose(out, np.tile(p.bo.numpy(), (3, 1)), atol=1e-12)

    def test_two_heads_match_composed_oracle(self):
        # [DERIVED] per-head slices composed with an independent oracle
        rng = np.random.default_rng(7)
        d_model, heads = 4, 2
        d_k = d_model // heads
        p = AttentionParams.init(d_model, heads, rng)
        h = rng.standard_normal((5, d_model))
        q = h @ p.wq.numpy() + p.bq.numpy()
        k = h @ p.wk.numpy() + p.bk.numpy()
        v = h @ p.wv.numpy() + p.bv.numpy()
        mask = np.ones((5, 5), dtype=bool)
        pieces = []
        for head in range(heads):
            sl = slice(head * d_k, (head + 1) * d_k)
            att, _ = _oracle_attention(q[:, sl], k[:, sl], v[:, sl], mask, d_k)
            pieces.append(att)
        expect = np.concatenate(pieces, axis=1) @ p.wo.numpy() + p.bo.numpy()
        out = _multi_head(h, p)
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeMismatchError):
            AttentionParams.init(6, 4, np.random.default_rng(0))


class TestPositionalEncoding:
    def test_position_zero(self):
        # [TRIVIAL] sin 0 / cos 0 alternation
        table = positional_encoding(3, 6)
        np.testing.assert_array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_range(self):
        # [TRIVIAL] all entries in [-1, 1]
        table = positional_encoding(50, 16)
        assert np.all(table >= -1.0) and np.all(table <= 1.0)

    def test_row1_first_pair(self):
        # [DERIVED] scalar oracle: angle at (pos=1, i=0) is 1 radian
        table = positional_encoding(2, 8)
        assert abs(table[1, 0] - np.sin(1.0)) < 1e-12
        assert abs(table[1, 1] - np.cos(1.0)) < 1e-12

    def test_full_formula_oracle(self):
        # [DERIVED] element-by-element scalar formula
        t_max, d = 7, 10
        table = positional_encoding(t_max, d)
        for pos in range(t_max):
            for i in range(d // 2):
                angle = pos / (10000.0 ** (2 * i / d))
                assert abs(table[pos, 2 * i] - np.sin(angle)) < 1e-12
                assert abs(table[pos, 2 * i + 1] - np.cos(angle)) < 1e-12

    def test_odd_d_model_rejected(self):
        with pytest.raises(ShapeMismatchError):
            positional_encoding(4, 5)


class TestTemporalBlock:
    def _params(self, d=8, heads=2, seed=8):
        return TemporalBlockParams.init(d, heads, np.random.default_rng(seed))

    def test_single_step_single_ped(self):
        # [TRIVIAL] N=1, t=1: runs and keeps shape; attention is a 1x1 softmax
        p = self._params()
        h = Tensor(np.random.default_rng(9).standard_normal((1, 1, 8)))
        out = temporal_block(h, p, np.ones((1, 1), dtype=bool))
        assert out.shape == (1, 1, 8)

    def test_weight_sharing_identical_sequences(self):
        # [TRIVIAL] identical input sequences -> identical outputs
        p = self._params()
        seq = np.random.default_rng(10).standard_normal((1, 5, 8))
        h = Tensor(np.concatenate([seq, seq], axis=0))
        out = temporal_block(h, p, np.ones((2, 5), dtype=bool)).numpy()
        np.testing.assert_array_equal(out[0], out[1])

    def test_per_pedestrian_independence(self):
        # [TRIVIAL] perturbing pedestrian 2 leaves pedestrian 1 bit-identical
        p = self._params()
        rng = np.random.default_rng(11)
        base = rng.standard_normal((2, 5, 8))
        mask = np.ones((2, 5), dtype=bool)
        out_a = temporal_block(Tensor(base), p, mask).numpy()
        perturbed = base.copy()
        perturbed[1] += rng.standard_normal((5, 8))
        out_b = temporal_block(Tensor(perturbed), p, mask).numpy()
        assert np.array_equal(out_a[0], out_b[0])

    def test_masked_steps_do_not_leak(self):
        # changing values at masked steps never changes unmasked outputs
        p = self._params()
        rng = np.random.default_rng(12)
        h = rng.standard_normal((1, 6, 8))
        mask = np.array([[True, True, False, True, False, True]])
        out_a = temporal_block(Tensor(h), p, mask).numpy()
        h2 = h.copy()
        h2[0, 2] = 99.0
        h2[0, 4] = -99.0
        out_b = temporal_block(Tensor(h2), p, mask).numpy()
        np.testing.assert_array_equal(out_a[0, mask[0]], out_b[0, mask[0]])
        # masked output rows are zeroed
        np.testing.assert_array_equal(out_a[0, ~mask[0]], 0.0)

    def test_never_present_pedestrian_passes_as_zeros(self):
        # a pedestrian with no present step (one who enters after the
        # window) emits exactly 0 and takes no gradient; the other row's bits
        # are those of the same call with the empty row's mask all True
        p = self._params()
        h = parameter(np.random.default_rng(13).standard_normal((2, 3, 8)))
        mask = np.array([[True, False, True], [False, False, False]])
        out = temporal_block(h, p, mask)
        np.testing.assert_array_equal(out.numpy()[1], 0.0)
        full = temporal_block(h, p, np.array([[True, False, True], [True, True, True]]))
        assert np.array_equal(out.numpy()[0], full.numpy()[0])
        (out * out).sum().backward()
        assert np.all(np.isfinite(h.grad)) and np.all(h.grad[1] == 0.0)


class TestAttentionNormalizationProperty:
    def test_100_random_sequences(self):
        # spec invariant: rows sum to 1 within 1e-9 over unmasked entries,
        # masked entries exactly 0, across 100 random cases
        rng = np.random.default_rng(14)
        for _ in range(100):
            t = int(rng.integers(2, 9))
            d_k = int(rng.integers(2, 7))
            q, k, v = (rng.standard_normal((t, d_k)) for _ in range(3))
            mask = rng.random((t, t)) < 0.7
            mask[np.arange(t), np.arange(t)] = True  # keep every row alive
            _, w = _attention(q, k, v, mask)
            assert np.all(w[~mask] == 0.0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_blocked_weight_zero_beyond_1e9_logits(self):
        # [TRIVIAL] a blocked key gets weight exactly 0 even when its logit
        # tops an allowed one by more than 1e9 (a finite -1e9 fill would hand
        # it all the weight); d_k = 1 and q = 1 make the keys the logits
        q, v = np.ones((1, 1)), np.array([[1.0], [2.0]])
        allow = np.array([[True, False]])
        for allowed, blocked in ((-2e9, 0.0), (0.0, 2e9)):
            out, w = _attention(q, np.array([[allowed], [blocked]]), v, allow)
            np.testing.assert_array_equal(w, [[1.0, 0.0]])
            np.testing.assert_array_equal(out, [[1.0]])


def _oracle_grads(q, k, v, allow, g):
    """Gradients of sum(g * attention(q, k, v)) for (..., t, d) arrays, one
    query row at a time through the softmax Jacobian diag(w) - w w^T."""
    d_k = q.shape[-1]
    allow = np.broadcast_to(allow, q.shape[:-1] + k.shape[-2:-1])
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for idx in np.ndindex(q.shape[:-2]):
        for r in range(q.shape[-2]):
            cols = np.flatnonzero(allow[idx][r])
            logits = k[idx][cols] @ q[idx][r] / np.sqrt(d_k)
            e = np.exp(logits - logits.max())
            w = e / e.sum()
            dv[idx][cols] += np.outer(w, g[idx][r])
            dlogits = (np.diag(w) - np.outer(w, w)) @ (v[idx][cols] @ g[idx][r])
            dq[idx][r] += dlogits @ k[idx][cols] / np.sqrt(d_k)
            dk[idx][cols] += np.outer(dlogits, q[idx][r]) / np.sqrt(d_k)
    return dq, dk, dv


class TestMaskedAttentionBackward:
    @pytest.mark.parametrize("lead, mask_lead", [
        ((3, 2), (3, 1)),  # (t, heads) with a (t, 1, n, n) mask
        ((2, 3, 2), (2, 3, 1)),  # (t, S, heads) with a (t, S, 1, n, n) mask
        ((4,), (4,)),  # (N,) rows with an (N, n, n) mask, one per row
    ])
    def test_gradients_match_jacobian_oracle(self, lead, mask_lead):
        # [DERIVED] partial masks broadcast over heads, against _oracle_grads
        rng = np.random.default_rng(sum(lead))
        n, d_k = 4, 3
        q, k, v = (parameter(rng.standard_normal(lead + (n, d_k))) for _ in range(3))
        allow = rng.random(mask_lead + (n, n)) < 0.5
        allow[..., np.arange(n), np.arange(n)] = True  # every row keeps a key
        g = rng.standard_normal(lead + (n, d_k))
        out, _ = masked_attention(q, k, v, allow)
        (out * Tensor(g)).sum().backward()
        for got, expect in zip((q.grad, k.grad, v.grad),
                               _oracle_grads(q.data, k.data, v.data, allow, g)):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def _row_major_attention(q, k, v, allow):
    """The oracle: masked_attention as it was before its softmax ran
    key-major, one short row per query."""
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeMismatchError(f"masked_attention: q, k, v of {q.shape}, {k.shape}, {v.shape}")
    allow = np.asarray(allow, dtype=bool)
    dead = ~allow.any(axis=-1)
    if dead.any():
        row = np.argwhere(dead)[0]
        raise MaskError(f"attention query row {tuple(int(i) for i in row)} has every key masked")
    scale = 1.0 / math.sqrt(q.shape[-1])
    w = np.matmul(q.data * scale, np.swapaxes(k.data, -1, -2))
    np.copyto(w, -np.inf, where=~allow)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def bwd(g):
        gw = _unbroadcast(np.matmul(g, np.swapaxes(v.data, -1, -2)), w.shape)
        v._accumulate(_unbroadcast(np.matmul(np.swapaxes(w, -1, -2), g), v.shape))
        gl = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        q._accumulate(_unbroadcast(np.matmul(gl, k.data), q.shape) * scale)
        qs = q.data * scale
        gk = np.swapaxes(np.matmul(np.swapaxes(qs, -1, -2), gl), -1, -2)
        k._accumulate(_unbroadcast(gk, k.shape))

    return Tensor(np.matmul(w, v.data), _parents=(q, k, v), _backward=bwd), Tensor(w)


def _head_split(rng, lead, t, d_k, spread=3.0):
    """A (lead..., heads, t, d_k) array laid out as head_projections leaves
    it: a swapaxes view of (lead..., t, heads, d_k) rows."""
    *outer, heads = lead
    return (rng.standard_normal((*outer, t, heads, d_k)) * spread).swapaxes(-3, -2)


def _attention_and_grads(fn, q, k, v, allow, g, swapped):
    """Output, weights and q/k/v gradients under the loss sum(out * g). With
    `swapped`, the loss reads out through merge_heads' swapaxes(-3, -2), so
    the upstream gradient arrives as a transposed view."""
    leaves = [parameter(a) for a in (q, k, v)]
    out, w = fn(*leaves, allow)
    if swapped:
        (out.swapaxes(-3, -2) * Tensor(g.swapaxes(-3, -2))).sum().backward()
    else:
        (out * Tensor(g)).sum().backward()
    return [out.numpy(), w.numpy()] + [t.grad for t in leaves]


def _merged_strides(shape):
    """Strides of masked_attention's (..., heads, t, d) output: a heads-swapped
    view of a C-ordered (..., t, heads, d) buffer, merge_heads' layout."""
    return np.empty(shape[:-3] + (shape[-2], shape[-3], shape[-1])).swapaxes(-3, -2).strides


class TestKeyMajorSoftmax:
    """masked_attention's key-major, blocked softmax against the row-major
    body it replaced: outputs, weights and q/k/v gradients bit for bit and,
    but for the output's merged-heads layout, with the same strides, under a
    C-contiguous and a transposed upstream gradient."""

    @staticmethod
    def _assert_same(q, k, v, allow, seed=0):
        g = np.random.default_rng(seed).standard_normal(q.shape[:-1] + v.shape[-1:])
        for swapped in (False, True):
            got = _attention_and_grads(masked_attention, q, k, v, allow, g, swapped)
            expect = _attention_and_grads(_row_major_attention, q, k, v, allow, g, swapped)
            for a, b in zip(got, expect):
                np.testing.assert_array_equal(a, b)
            assert got[0].strides == _merged_strides(got[0].shape), swapped
            for a, b in zip(got[1:], expect[1:]):
                assert a.strides == b.strides, swapped

    @pytest.mark.parametrize("t_k", [1, 2, 7, 8, 9, 15, 16, 17, 19, 40])
    @pytest.mark.parametrize("d_k", [2, 4, 16])
    def test_shapes_of_every_caller(self, t_k, d_k):
        rng = np.random.default_rng(100 * t_k + d_k)
        # temporal (N, heads, t, t) logits with a dense (N, 1, 1, t) mask
        n = 6
        q, k, v = (_head_split(rng, (n, 8), t_k, d_k) for _ in range(3))
        self._assert_same(q, k, v, np.ones((n, 1, 1, t_k), dtype=bool))
        # a lone spatial block with a (t, 1, n, n) mask
        allow = (rng.random((3, 1, t_k, t_k)) < 0.4) | np.eye(t_k, dtype=bool)
        q, k, v = (_head_split(rng, (3, 8), t_k, d_k) for _ in range(3))
        self._assert_same(q, k, v, allow)
        # packed blocks with a (t, S, 1, n, n) mask
        allow = (rng.random((3, 4, 1, t_k, t_k)) < 0.4) | np.eye(t_k, dtype=bool)
        q, k, v = (_head_split(rng, (3, 4, 8), t_k, d_k) for _ in range(3))
        self._assert_same(q, k, v, allow)

    @pytest.mark.parametrize("dense", [True, False])
    def test_logits_span_blocks(self, dense):
        # 19 x 19 logits over 8 heads per row of the leading axis: two full
        # blocks and a partial third
        t, heads = 19, 8
        step = LOGIT_BLOCK // (heads * t * t)
        n = 2 * step + step // 2
        assert n * heads * t * t > 2 * LOGIT_BLOCK and n % step != 0
        rng = np.random.default_rng(7)
        q, k, v = (_head_split(rng, (n, heads), t, 4) for _ in range(3))
        allow = np.ones((n, 1, 1, t), dtype=bool)
        if not dense:  # a mask per row of the leading axis; each query keeps itself
            allow = (rng.random((n, 1, t, t)) < 0.5) | np.eye(t, dtype=bool)
        self._assert_same(q, k, v, allow)

    def test_broadcast_leading_shapes(self):
        # the one case past 128 keys, where _pairwise_sum sums two halves
        # apart, under a (3, 1, 5, 150) mask broadcast over the heads' axis
        rng = np.random.default_rng(8)
        q = rng.standard_normal((3, 2, 5, 4))
        k, v = (rng.standard_normal((3, 2, 150, 4)) for _ in range(2))
        allow = (rng.random((3, 1, 5, 150)) < 0.5) | (np.arange(150) == 0)
        self._assert_same(q, k, v, allow)

    def test_dead_row_names_the_same_row(self):
        rng = np.random.default_rng(9)
        q, k, v = (Tensor(rng.standard_normal((2, 3, 5, 4))) for _ in range(3))
        allow = np.ones((2, 1, 5, 5), dtype=bool)
        allow[1, 0, 3] = False
        messages = []
        for fn in (masked_attention, _row_major_attention):
            with pytest.raises(MaskError) as err:
                fn(q, k, v, allow)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0] == "attention query row (1, 0, 3) has every key masked"

    def test_shape_mismatch(self):
        q = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeMismatchError):
            masked_attention(q, Tensor(np.ones((2, 3, 5))), Tensor(np.ones((2, 3, 4))),
                             np.ones((2, 3, 3), bool))
        with pytest.raises(ShapeMismatchError):
            masked_attention(q, Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 2, 4))),
                             np.ones((2, 3, 3), bool))

    @pytest.mark.parametrize("case", [
        "unequal leading shapes", "2-D inputs", "mask of lower rank",
        "mask first axis 1", "empty query axis",
    ])
    def test_inputs_outside_the_contract(self, case):
        # every caller passes one leading shape for q, k and v, and a mask of
        # the logits' rank and first-axis length; nothing is broadcast to fit
        rng = np.random.default_rng(10)
        q, k, v = (rng.standard_normal((2, 3, 5, 4)) for _ in range(3))
        allow = np.ones((2, 1, 5, 5), dtype=bool)
        if case == "unequal leading shapes":
            q = q[:, :1]
        elif case == "2-D inputs":
            q, k, v, allow = q[0, 0], k[0, 0], v[0, 0], allow[0, 0]
        elif case == "mask of lower rank":
            allow = allow[0]
        elif case == "mask first axis 1":
            allow = allow[:1]
        else:
            q, allow = q[:, :, :0], allow[:, :, :0]
        with pytest.raises(ShapeMismatchError):
            masked_attention(Tensor(q), Tensor(k), Tensor(v), allow)

    @pytest.mark.parametrize("fill", [True, False])
    def test_allow_that_does_not_fit_the_logits(self, fill):
        # a mask for 4 keys against 3, with or without a blocked key
        allow = np.ones((1, 2, 4), dtype=bool)
        allow[..., 3] = not fill
        with pytest.raises(ShapeMismatchError, match="allow"):
            masked_attention(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 3, 4))),
                             Tensor(np.ones((1, 3, 4))), allow)

    def test_infinite_logit_is_non_finite(self):
        # finite inputs whose product overflows to a +inf logit
        q = Tensor(np.full((1, 2, 1), 1e200))
        k = Tensor(np.array([[[1e200], [0.0], [1.0]]]))
        with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            masked_attention(q, k, Tensor(np.ones((1, 3, 2))), np.ones((1, 2, 3), dtype=bool))


class TestMergedOutput:
    """masked_attention writes its output in merge_heads' layout, so the
    merge is a view: the tape holds the attention output once."""

    @pytest.mark.parametrize("lead, allow_shape", [
        ((6, 8), (6, 1, 1, 5)),  # temporal: (N, heads) rows, an (N, 1, 1, t) mask
        ((3, 8), (3, 1, 5, 5)),  # a lone spatial block: (t, heads), a (t, 1, n, n) mask
        ((3, 4, 8), (3, 4, 1, 5, 5)),  # packed spatial blocks: (t, S, heads), (t, S, 1, n, n)
    ])
    def test_merge_heads_is_a_view(self, lead, allow_shape):
        rng = np.random.default_rng(len(lead))
        params = AttentionParams.init(16, 8, rng)  # d_k = 2
        q, k, v = (Tensor(_head_split(rng, lead, 5, 2)) for _ in range(3))
        out, _ = masked_attention(q, k, v, np.ones(allow_shape, dtype=bool))
        merged = merge_heads(out, params)
        assert np.shares_memory(merged.numpy(), out.numpy())
        expect = np.ascontiguousarray(np.swapaxes(out.numpy(), -3, -2)).reshape(merged.shape)
        np.testing.assert_array_equal(merged.numpy(), expect)


class TestPairwiseSum:
    """_pairwise_sum over axis 0 against numpy's sum over a contiguous last
    axis, bit for bit."""

    @staticmethod
    def _rows(rng, m):
        return {
            "exp of wide normals": lambda n: np.exp(rng.standard_normal((n, m)) * 30),
            "zeros": lambda n: np.zeros((n, m)),
            "negative zeros": lambda n: np.full((n, m), -0.0),
            "subnormals": lambda n: rng.integers(0, 1 << 20, (n, m)) * 5e-324,
            "near 1e300": lambda n: rng.uniform(0.5, 1.5, (n, m)) * 1e300,
        }

    @pytest.mark.parametrize("n", list(range(1, 65)) + [128, 129, 150, 300])
    def test_matches_numpy_last_axis_sum(self, n):
        rng = np.random.default_rng(n)
        with np.errstate(over="ignore"):
            for kind, make in self._rows(rng, 37).items():
                x = make(n)
                expect = np.sum(np.ascontiguousarray(x.T), axis=-1)
                got = _pairwise_sum(x)
                np.testing.assert_array_equal(got, expect, err_msg=kind)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(expect), err_msg=kind)
