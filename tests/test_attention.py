"""Attention, positional encoding, and the temporal transformer block.

Independent oracles: plain-numpy attention/softmax compositions written in
this file.
"""

import numpy as np
import pytest

from startraj import (
    AttentionParams, TemporalBlockParams, Tensor, multi_head,
    positional_encoding, temporal_block,
)
from startraj.attention import MASK_FILL, masked_attention
from startraj.errors import MaskError, ShapeMismatchError


def _unmasked(q, k, v):
    """Scaled dot-product attention over (t, d_k) arrays with every key usable."""
    mask = np.ones((q.shape[0], k.shape[0]), dtype=bool)
    out, _ = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask, q.shape[-1])
    return out.numpy()


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
        out, w = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask, d_k)
        expect_out, expect_w = _oracle_attention(q, k, v, mask, d_k)
        np.testing.assert_allclose(w.numpy(), expect_w, atol=1e-12)
        np.testing.assert_allclose(out.numpy(), expect_out, atol=1e-12)

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        mask = np.array([[True, False, True]] * 3)
        _, w = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask, 4)
        w = w.numpy()
        assert np.all(w[:, 1] == 0.0)  # bit-exact zero, not just small
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_dead_row_error_names_row(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        mask = np.ones((3, 3), dtype=bool)
        mask[2] = False
        with pytest.raises(MaskError, match="2"):
            masked_attention(Tensor(q), Tensor(k), Tensor(v), mask, 4)


class TestMultiHead:
    def test_single_head_is_fo_of_attention(self):
        # [TRIVIAL] k=1 reduces to f_O(attention(f_Q h, f_K h, f_V h))
        rng = np.random.default_rng(5)
        p = AttentionParams.init(6, 1, rng)
        h = rng.standard_normal((4, 6))
        out = multi_head(Tensor(h), p).numpy()
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
        out = multi_head(Tensor(rng.standard_normal((3, 4))), p).numpy()
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
        out = multi_head(Tensor(h), p).numpy()
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
        out = temporal_block(h, p)
        assert out.shape == (1, 1, 8)

    def test_weight_sharing_identical_sequences(self):
        # [TRIVIAL] identical input sequences -> identical outputs
        p = self._params()
        seq = np.random.default_rng(10).standard_normal((1, 5, 8))
        h = Tensor(np.concatenate([seq, seq], axis=0))
        out = temporal_block(h, p).numpy()
        np.testing.assert_array_equal(out[0], out[1])

    def test_per_pedestrian_independence(self):
        # [TRIVIAL] perturbing pedestrian 2 leaves pedestrian 1 bit-identical
        p = self._params()
        rng = np.random.default_rng(11)
        base = rng.standard_normal((2, 5, 8))
        out_a = temporal_block(Tensor(base), p).numpy()
        perturbed = base.copy()
        perturbed[1] += rng.standard_normal((5, 8))
        out_b = temporal_block(Tensor(perturbed), p).numpy()
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

    def test_empty_pedestrian_rejected(self):
        p = self._params()
        h = Tensor(np.zeros((2, 3, 8)))
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(MaskError, match="1"):
            temporal_block(h, p, mask)


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
            _, w = masked_attention(Tensor(q), Tensor(k), Tensor(v), mask, d_k)
            w = w.numpy()
            assert np.all(w[~mask] == 0.0)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_mask_fill_constant(self):
        assert MASK_FILL == -1e9
