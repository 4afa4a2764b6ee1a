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
    LOGIT_BLOCK, attention_weights, head_projections, masked_attention,
)
from startraj.errors import MaskError, NonFiniteError, ShapeMismatchError
from startraj.tensor import _unbroadcast


def _attention(q, k, v, mask):
    """One head of masked_attention and attention_weights on (t, d_k) arrays
    and a (t_q, t_k) mask, through one leading axis of length 1: output and
    weights, without it."""
    q, k, v = (Tensor(a[None]) for a in (q, k, v))
    out = masked_attention(q, k, v, mask[None], 1)
    return out.numpy()[0], attention_weights(q, k, mask[None], 1)[0, 0]


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
    temporal_block and TGConv make: the projections, the multi-head
    attention core and the output projection, on one sequence with a
    (1, 1, t) mask, as temporal_block passes it."""
    q, k, v = head_projections(Tensor(h[None]), p)
    t = h.shape[0]
    out = masked_attention(q, k, v, np.ones((1, 1, t), dtype=bool), p.head_count)
    return linear(out, p.wo, p.bo).numpy()[0]


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

    def test_one_read_only_table_per_shape(self):
        # the table is built once per (t_max, d_model) and shared, so no
        # caller may write it
        table = positional_encoding(5, 4)
        assert positional_encoding(5, 4) is table
        assert positional_encoding(6, 4) is not table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        np.testing.assert_array_equal(table[0], [0.0, 1.0, 0.0, 1.0])


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
        # whatever masked steps hold changes no unmasked output and no weight
        # gradient of a loss over unmasked outputs, and hands the masked
        # inputs no gradient; masked outputs are left for the caller's masks
        # to ignore, so they need only be finite
        p = self._params()
        rng = np.random.default_rng(12)
        h = rng.standard_normal((1, 6, 8))
        mask = np.array([[True, True, False, True, False, True]])
        w = Tensor(rng.standard_normal(h.shape) * mask[:, :, None])
        runs = []
        for fill in (None, (99.0, -99.0), (0.0, 0.0)):
            x = h.copy()
            if fill is not None:
                x[0, 2], x[0, 4] = fill
            x = parameter(x)
            for _, q in p.parameters():
                q.grad = None
            out = temporal_block(x, p, mask)
            assert np.all(np.isfinite(out.numpy()))
            (out * w).sum().backward()
            assert np.all(x.grad[~mask] == 0.0)
            runs.append([out.numpy()[mask], x.grad] + [q.grad for _, q in p.parameters()])
        for other in runs[1:]:
            for got, expected in zip(other, runs[0], strict=True):
                np.testing.assert_array_equal(got, expected)

    def test_never_present_pedestrian_passes_as_zeros(self):
        # a pedestrian with no present step (one who enters after the
        # window) attends over its own steps: whatever it holds, its output
        # is finite, the other row keeps the bits of the same call with the
        # empty row's mask all True, and a loss over present outputs hands
        # it no gradient
        p = self._params()
        rng = np.random.default_rng(13)
        h = rng.standard_normal((2, 3, 8))
        mask = np.array([[True, False, True], [False, False, False]])
        full = temporal_block(Tensor(h), p, np.array([[True, False, True], [True, True, True]]))
        for scale in (1.0, 0.0, 1e3):
            x = h.copy()
            x[1] *= scale
            x = parameter(x)
            out = temporal_block(x, p, mask)
            assert np.all(np.isfinite(out.numpy()[1]))
            assert np.array_equal(out.numpy()[0], full.numpy()[0])
            (out * Tensor(mask[:, :, None] * 1.0)).sum().backward()
            assert np.all(np.isfinite(x.grad)) and np.all(x.grad[1] == 0.0)


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


def _split(a, heads):
    """(..., t, d) -> (..., heads, t, d // heads), each head's columns, of an
    array or, on the tape, a Tensor."""
    return a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads).swapaxes(-3, -2)


def _merge(a):
    """_split's inverse: (..., heads, t, d_k) -> (..., t, heads * d_k)."""
    a = a.swapaxes(-3, -2)
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])


class TestMaskedAttentionBackward:
    @pytest.mark.parametrize("heads", [1, 2, 3])
    @pytest.mark.parametrize("lead, mask_lead", [
        ((3,), (3,)),  # (t,) with a (t, n, n) mask
        ((2, 3), (2, 3)),  # (t, S) with a (t, S, n, n) mask
        ((4,), (4,)),  # (N,) rows with an (N, n, n) mask, one per row
        ((2, 3), (2, 1)),  # a mask broadcast over S
    ])
    def test_gradients_match_jacobian_oracle(self, lead, mask_lead, heads):
        # [DERIVED] partial masks broadcast over heads, against _oracle_grads
        # per head
        rng = np.random.default_rng(sum(lead) + 10 * heads)
        n, d_k = 4, 3
        q, k, v = (parameter(rng.standard_normal(lead + (n, heads * d_k))) for _ in range(3))
        allow = rng.random(mask_lead + (n, n)) < 0.5
        allow[..., np.arange(n), np.arange(n)] = True  # every row keeps a key
        g = rng.standard_normal(lead + (n, heads * d_k))
        out = masked_attention(q, k, v, allow, heads)
        (out * Tensor(g)).sum().backward()
        expect = _oracle_grads(*(_split(a, heads) for a in (q.data, k.data, v.data)),
                               allow[..., None, :, :], _split(g, heads))
        for got, want in zip((q.grad, k.grad, v.grad), expect):
            np.testing.assert_allclose(got, _merge(want), rtol=0, atol=1e-12)


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


def _composite(q, k, v, allow, heads):
    """The multi-head attention the fused op replaced, on the tape: the head
    split head_projections made, _row_major_attention with the mask's heads
    axis, and merge_heads. Output (merged) and weights."""
    out, w = _row_major_attention(*(_split(x, heads) for x in (q, k, v)), allow[..., None, :, :])
    return _merge(out), w.numpy()


def _fused(q, k, v, allow, heads):
    return masked_attention(q, k, v, allow, heads), attention_weights(q, k, allow, heads)


def _attention_and_grads(fn, q, k, v, allow, heads, g, swapped):
    """Output, weights and q/k/v gradients under the loss sum(out * g). With
    `swapped`, the loss reads out through a swapaxes(0, -2), so the upstream
    gradient arrives as a transposed view, as a packed run's slice of
    TGConv's output hands it on strided."""
    leaves = [parameter(a) for a in (q, k, v)]
    out, w = fn(*leaves, allow, heads)
    if swapped:
        (out.swapaxes(0, -2) * Tensor(g.swapaxes(0, -2))).sum().backward()
    else:
        (out * Tensor(g)).sum().backward()
    return [out.numpy(), w] + [t.grad for t in leaves]


class TestKeyMajorSoftmax:
    """The fused multi-head op, with its key-major, blocked softmax, against
    the composite it replaced: the head split, the row-major body and the
    head merge. Outputs, weights and q/k/v gradients bit for bit and with
    the same strides, under a C-contiguous and a transposed upstream
    gradient; the output is a C-ordered (..., t, d_model) array."""

    @staticmethod
    def _assert_same(q, k, v, allow, heads, seed=0):
        g = np.random.default_rng(seed).standard_normal(q.shape[:-1] + v.shape[-1:])
        for swapped in (False, True):
            got = _attention_and_grads(_fused, q, k, v, allow, heads, g, swapped)
            expect = _attention_and_grads(_composite, q, k, v, allow, heads, g, swapped)
            for a, b in zip(got, expect):
                np.testing.assert_array_equal(a, b)
            assert got[0].flags.c_contiguous, swapped  # the composite's merge may not be
            for a, b in zip(got[1:], expect[1:]):
                assert a.strides == b.strides, swapped

    @pytest.mark.parametrize("t_k", [1, 2, 7, 8, 9, 15, 16, 17, 19, 40, 128, 129])
    @pytest.mark.parametrize("d_k", [1, 2, 4, 16])
    def test_shapes_of_every_caller(self, t_k, d_k):
        rng = np.random.default_rng(100 * t_k + d_k)
        wide = lambda *lead: rng.standard_normal(lead + (t_k, 8 * d_k)) * 3.0
        # temporal (N, heads, t, t) logits with a dense (N, 1, t) mask
        n = 6
        q, k, v = (wide(n) for _ in range(3))
        self._assert_same(q, k, v, np.ones((n, 1, t_k), dtype=bool), 8)
        # one leading axis with a (t, n, n) mask, as the op accepts it
        allow = (rng.random((3, t_k, t_k)) < 0.4) | np.eye(t_k, dtype=bool)
        q, k, v = (wide(3) for _ in range(3))
        self._assert_same(q, k, v, allow, 8)
        # packed blocks with a (t, S, n, n) mask
        allow = (rng.random((3, 4, t_k, t_k)) < 0.4) | np.eye(t_k, dtype=bool)
        q, k, v = (wide(3, 4) for _ in range(3))
        self._assert_same(q, k, v, allow, 8)

    @pytest.mark.parametrize("dense", [True, False])
    def test_logits_span_blocks(self, dense):
        # 19 x 19 logits over 8 heads per row of the leading axis: two full
        # blocks and a partial third
        t, heads = 19, 8
        step = LOGIT_BLOCK // (heads * t * t)
        n = 2 * step + step // 2
        assert n * heads * t * t > 2 * LOGIT_BLOCK and n % step != 0
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((n, t, heads * 4)) * 3.0 for _ in range(3))
        allow = np.ones((n, 1, t), dtype=bool)
        if not dense:  # a mask per row of the leading axis; each query keeps itself
            allow = (rng.random((n, t, t)) < 0.5) | np.eye(t, dtype=bool)
        self._assert_same(q, k, v, allow, heads)

    def test_broadcast_leading_shapes(self):
        # 150 keys, past the 128 terms where numpy's pairwise sum adds two
        # halves apart, under a (3, 5, 150) mask broadcast over two heads
        rng = np.random.default_rng(8)
        q = rng.standard_normal((3, 5, 8))
        k, v = (rng.standard_normal((3, 150, 8)) for _ in range(2))
        allow = (rng.random((3, 5, 150)) < 0.5) | (np.arange(150) == 0)
        self._assert_same(q, k, v, allow, 2)

    def test_underflowing_exponentials(self):
        # q and k 30 times the normals: most weights are subnormal or zero
        rng = np.random.default_rng(11)
        q, k, v = (rng.standard_normal((6, 40, 16)) * s for s in (30.0, 30.0, 1.0))
        allow = np.ones((6, 1, 40), dtype=bool)
        w, tiny = attention_weights(Tensor(q), Tensor(k), allow, 8), np.finfo(np.float64).tiny
        assert (w < tiny).mean() > 0.5 and ((0 < w) & (w < tiny)).any()
        self._assert_same(q, k, v, allow, 8)

    def test_dead_row_names_the_same_row(self):
        # the row in the caller's mask; the composite's mask had a heads axis
        rng = np.random.default_rng(9)
        q, k, v = (Tensor(rng.standard_normal((2, 5, 12))) for _ in range(3))
        allow = np.ones((2, 5, 5), dtype=bool)
        allow[1, 3] = False
        messages = []
        for fn in (masked_attention, _composite):
            with pytest.raises(MaskError) as err:
                fn(q, k, v, allow, 3)
            messages.append(str(err.value))
        with pytest.raises(MaskError) as err:
            attention_weights(q, k, allow, 3)
        assert messages[0] == str(err.value) == "attention query row (1, 3) has every key masked"
        assert messages[1] == "attention query row (1, 0, 3) has every key masked"

    def test_shape_mismatch(self):
        q = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeMismatchError):
            masked_attention(q, Tensor(np.ones((2, 3, 5))), Tensor(np.ones((2, 3, 4))),
                             np.ones((2, 3, 3), bool), 1)
        with pytest.raises(ShapeMismatchError):
            masked_attention(q, Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 2, 4))),
                             np.ones((2, 3, 3), bool), 1)
        # 4 columns do not split into 3 heads; 3 value columns not into 2
        with pytest.raises(ShapeMismatchError, match="3 heads"):
            attention_weights(q, q, np.ones((2, 3, 3), bool), 3)
        with pytest.raises(ShapeMismatchError, match="2 heads"):
            masked_attention(q, q, Tensor(np.ones((2, 3, 3))), np.ones((2, 3, 3), bool), 2)

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
        if case == "unequal leading shapes":  # (t, S) and (t, 1)
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
            masked_attention(Tensor(q), Tensor(k), Tensor(v), allow, 2)
        with pytest.raises(ShapeMismatchError):
            attention_weights(Tensor(q), Tensor(k), allow, 2)

    @pytest.mark.parametrize("fill", [True, False])
    def test_allow_that_does_not_fit_the_logits(self, fill):
        # a mask for 4 keys against 3, with or without a blocked key
        allow = np.ones((1, 2, 4), dtype=bool)
        allow[..., 3] = not fill
        with pytest.raises(ShapeMismatchError, match="allow"):
            masked_attention(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 3, 4))),
                             Tensor(np.ones((1, 3, 4))), allow, 2)

    def test_infinite_logit_is_non_finite(self):
        # finite inputs whose product overflows to a +inf logit
        q = Tensor(np.full((1, 2, 1), 1e200))
        k = Tensor(np.array([[[1e200], [0.0], [1.0]]]))
        with pytest.raises(NonFiniteError, match="non-finite attention weights"), \
                np.errstate(over="ignore", invalid="ignore"):
            masked_attention(q, k, Tensor(np.ones((1, 3, 2))), np.ones((1, 2, 3), dtype=bool), 1)


class TestMergedOutput:
    """masked_attention writes each head's output through a head-split view of
    one C-ordered (lead..., t, d_model) buffer: the merged output is the tape
    node's own array, with each head's w @ v in its columns."""

    @pytest.mark.parametrize("lead, allow_shape", [
        ((6,), (6, 1, 5)),  # temporal: (N,) rows, an (N, 1, t) mask
        ((3,), (3, 5, 5)),  # one leading axis (t,), a (t, n, n) mask
        ((3, 4), (3, 4, 5, 5)),  # packed spatial blocks: (t, S), (t, S, n, n)
    ])
    def test_heads_are_written_merged(self, lead, allow_shape):
        rng = np.random.default_rng(len(lead))
        q, k, v = (Tensor(rng.standard_normal(lead + (5, 16))) for _ in range(3))
        allow = np.ones(allow_shape, dtype=bool)
        out = masked_attention(q, k, v, allow, 8)  # d_k = 2
        assert out.shape == lead + (5, 16) and out.numpy().flags.c_contiguous
        w = attention_weights(q, k, allow, 8)
        np.testing.assert_array_equal(out.numpy(), _merge(w @ _split(v.numpy(), 8)))


class TestPairwiseSum:
    """The softmax sums each row with numpy's pairwise sum, whose order of
    additions changes at 8 and at 128 terms: the fused op against the
    row-major oracle, as TestKeyMajorSoftmax compares them, at every key
    count from 1 to 64 and at 128, 129, 150 and 300, on exponentials that
    underflow to subnormals or zero, on masked keys and on equal logits."""

    @staticmethod
    def _keys(rng, n):
        """Per kind, keys (2, n, 1) and an allow mask (2, 3, n); with one
        head of d_k 1, query row i's logits are its scale times the keys."""
        dense = np.ones((2, 3, n), dtype=bool)
        subnormal = rng.uniform(-745.0, -708.0, (2, n, 1))
        subnormal[:, 0] = 0.0  # exp(0) = 1 beside exponentials of ~1e-310
        return {
            "wide logits": (rng.standard_normal((2, n, 1)) * 300.0, dense),
            "subnormal exponentials": (subnormal, dense),
            "masked keys": (rng.standard_normal((2, n, 1)) * 3.0,
                            (rng.random((2, 3, n)) < 0.3) | (np.arange(n) == 0)),
            "equal logits": (np.zeros((2, n, 1)), dense),
        }

    @pytest.mark.parametrize("n", list(range(1, 65)) + [128, 129, 150, 300])
    def test_matches_numpy_last_axis_sum(self, n):
        rng = np.random.default_rng(n)
        q = np.broadcast_to(np.array([1.0, 0.5, -1.0])[:, None], (2, 3, 1))
        for kind, (k, allow) in self._keys(rng, n).items():
            v = rng.standard_normal((2, n, 1))
            try:
                TestKeyMajorSoftmax._assert_same(q, k, v, allow, 1, seed=n)
            except AssertionError as exc:
                raise AssertionError(kind) from exc
