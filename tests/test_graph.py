"""Interaction graphs and the transformer-based graph convolution."""

import numpy as np
import pytest

from startraj import TGConvParams, Tensor, build_graph, spatial_block
from startraj.attention import TemporalBlockParams, temporal_block
from startraj.graph import scene_layout
from startraj.errors import DataFormatError, ShapeMismatchError
from startraj.model import GruParams, temporal_recurrent


def _graph(xy, d, present=None):
    """build_graph at one step (t = 1) over (N, 2) points of one scene, every
    pedestrian present unless given: the scene's (1, N, N) mask."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    n = len(xy)
    present = np.ones(n, dtype=bool) if present is None else np.asarray(present)
    [mask] = build_graph(xy[:, None], present[:, None], [(n, [(0, n)])], d)
    return mask[:, 0]


def _dense(masks, layout, n):
    """(t, N, N) form of build_graph's masks over n packed rows: each scene's
    block on the diagonal, False across scenes."""
    dense = np.zeros((masks[0].shape[0], n, n), dtype=bool)
    for (size, runs), mask in zip(layout, masks, strict=True):
        starts = [i for lo, hi in runs for i in range(lo, hi, size)]
        for k, i in enumerate(starts):
            dense[:, i:i + size, i:i + size] = mask[:, k]
    return dense


def _allow(graph):
    """Attention mask of a one-step graph: self plus its edges."""
    return graph[0] | np.eye(graph.shape[-1], dtype=bool)


def _spatial(h, graphs, params):
    """spatial_block over one scene whose (t, N, N) mask is graphs."""
    return spatial_block(Tensor(h), [graphs[:, None]], params, scene_layout([len(h)])).numpy()


def _tgconv(h, graph, params):
    """TGConv at one timestep: spatial_block with t = 1 on (N, d) features."""
    return _spatial(h[:, None, :], graph, params)[:, 0]


def _oracle_masked_dense(h, allow, p):
    """Independent numpy oracle for TGConv: dense attention with -inf on
    non-edges, two skips, layer norm after each."""
    def ln(x, gain, bias, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * gain + bias

    kh = p.head_count
    d_k = p.wq.shape[0] // kh
    q = h @ p.wq.numpy() + p.bq.numpy()
    k = h @ p.wk.numpy() + p.bk.numpy()
    v = h @ p.wv.numpy() + p.bv.numpy()
    n = h.shape[0]
    att = np.zeros_like(h)
    for head in range(kh):
        sl = slice(head * d_k, (head + 1) * d_k)
        logits = (q[:, sl] @ k[:, sl].T) / np.sqrt(d_k)
        logits = np.where(allow, logits, -np.inf)
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w = np.where(allow, w, 0.0)
        w /= w.sum(axis=-1, keepdims=True)
        att[:, sl] = w @ v[:, sl]
    y = ln(att + h, p.ln1_gain.numpy(), p.ln1_bias.numpy())
    return ln((y @ p.wo.numpy() + p.bo.numpy()) + y,
              p.ln2_gain.numpy(), p.ln2_bias.numpy())


class TestBuildGraph:
    def test_three_points_threshold(self):
        # [TRIVIAL] (0,0),(0,1),(0,5), d=2 -> only the close pair connected
        g = _graph([(0.0, 0.0), (0.0, 1.0), (0.0, 5.0)], d=2.0)
        assert g.shape == (1, 3, 3) and g.dtype == bool
        np.testing.assert_array_equal(g[0], [[True, True, False],
                                             [True, True, False],
                                             [False, False, True]])

    def test_zero_threshold_empty(self):
        # [TRIVIAL] strict inequality: d=0 connects nothing, self stays
        np.testing.assert_array_equal(_graph([(0.0, 0.0), (0.0, 0.0)], d=0.0)[0], np.eye(2))

    def test_boundary_distance_excluded(self):
        # distance exactly d is NOT an edge (strict <)
        np.testing.assert_array_equal(_graph([(0.0, 0.0), (2.0, 0.0)], d=2.0)[0], np.eye(2))

    def test_brute_force_oracle(self):
        # [DERIVED] 20 random points vs an all-pairs scalar distance check
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, (20, 2))
        g = _graph(pts, d=1.5)[0]
        for i, (xi, yi) in enumerate(pts):
            for j, (xj, yj) in enumerate(pts):
                expect = i == j or np.hypot(xi - xj, yi - yj) < 1.5
                assert g[i, j] == expect

    def test_symmetry_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.uniform(-5, 5, (int(rng.integers(2, 12)), 2))
            g = _graph(pts, d=float(rng.uniform(0.5, 5.0)))[0]
            np.testing.assert_array_equal(g, g.T)
            assert g.diagonal().all()  # self is always allowed

    def test_edge_count(self):
        g = _graph([(0, 0), (0, 1), (1, 0)], d=1.5)
        assert (g.sum() - 3) // 2 == 3

    def test_packed_window_matches_oracle(self):
        # [DERIVED] four scenes packed over 5 steps with absent slots: every
        # (step, i, j) against a scalar all-pairs check of presence, scene
        # and distance
        rng = np.random.default_rng(2)
        sizes = [3, 1, 5, 2]
        ids = np.repeat(np.arange(4), sizes)  # the scene of each row
        n, t, d = len(ids), 5, 2.0
        world = rng.uniform(-2.5, 2.5, (n, t, 2))
        present = rng.random((n, t)) > 0.2
        world[~present] = rng.uniform(-2.5, 2.5, (int((~present).sum()), 2))
        layout = scene_layout(sizes)
        masks = build_graph(world, present, layout, d)
        assert [m.shape for m in masks] == [(t, 1, 1, 1), (t, 1, 2, 2), (t, 1, 3, 3),
                                            (t, 1, 5, 5)]
        g = _dense(masks, layout, n)
        for s in range(t):
            for i in range(n):
                for j in range(n):
                    (xi, yi), (xj, yj) = world[i, s], world[j, s]
                    expect = i == j or (ids[i] == ids[j] and present[i, s]
                                        and present[j, s] and np.hypot(xi - xj, yi - yj) < d)
                    assert g[s, i, j] == expect, (s, i, j)
        assert g.any() and not g.all()

    def test_steps_stack_single_step_calls(self):
        # t > 1 is the stack of t = 1 calls
        rng = np.random.default_rng(3)
        world = rng.uniform(-2.0, 2.0, (9, 6, 2))
        present = rng.random((9, 6)) > 0.2
        layout = scene_layout([4, 2, 3])
        g = build_graph(world, present, layout, 1.8)
        steps = [build_graph(world[:, s:s + 1], present[:, s:s + 1], layout, 1.8)
                 for s in range(6)]
        for mask, *parts in zip(g, *steps, strict=True):
            np.testing.assert_array_equal(mask, np.concatenate(parts))

    def test_nan_in_absent_slot_ignored(self):
        world = np.array([[[0.0, 0.0]], [[np.nan, np.inf]], [[0.5, 0.0]]])
        present = np.array([[True], [False], [True]])
        [g] = build_graph(world, present, [(3, [(0, 3)])], 1.0)
        np.testing.assert_array_equal(g[0, 0], [[True, False, True],
                                                [False, True, False],
                                                [True, False, True]])

    def test_nan_in_present_slot_rejected(self):
        world = np.zeros((3, 2, 2))
        world[2, 1, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            build_graph(world, np.ones((3, 2), dtype=bool), [(3, [(0, 3)])], 1.0)


class TestTGConv:
    def _setup(self, n=4, d_model=8, heads=2, seed=2, threshold=1.5):
        rng = np.random.default_rng(seed)
        params = TGConvParams.init(d_model, heads, rng)
        pts = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=-1)  # path under d=1.5
        graph = _graph(pts, d=threshold)
        h = rng.standard_normal((n, d_model))
        return h, pts, graph, params

    def test_isolated_node_collapses_to_value(self):
        # [TRIVIAL] Nb(i) empty: attention output is v_i; check via the oracle
        rng = np.random.default_rng(3)
        params = TGConvParams.init(6, 1, rng)
        graph = _graph([(0.0, 0.0)], d=1.0)
        h = rng.standard_normal((1, 6))
        out = _tgconv(h, graph, params)
        expect = _oracle_masked_dense(h, np.eye(1, dtype=bool), params)
        # oracle's attention for the single node IS v_i + skip; equality proves
        # the single-element-softmax collapse
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_masked_dense_oracle(self):
        # [DERIVED] 4-node path graph vs dense-masked numpy oracle
        h, _, graph, params = self._setup()
        allow = _allow(graph)
        out = _tgconv(h, graph, params)
        np.testing.assert_allclose(out, _oracle_masked_dense(h, allow, params), atol=1e-10)

    def test_permutation_equivariance(self):
        h, pts, graph, params = self._setup()
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(pts))
        # row r of the relabeled scene is pedestrian perm[r]
        pgraph = _graph(pts[perm], d=1.5)
        out = _tgconv(h, graph, params)
        pout = _tgconv(h[perm], pgraph, params)
        np.testing.assert_allclose(pout, out[perm], atol=1e-9)

    def test_locality_bit_identical(self):
        # perturbing a non-neighbor leaves a node's row bit-identical
        h, _, graph, params = self._setup()
        out_a = _tgconv(h, graph, params)
        h2 = h.copy()
        h2[3] += 5.0  # node 3 is not adjacent to node 0 nor 1 on the path graph
        out_b = _tgconv(h2, graph, params)
        assert np.array_equal(out_a[0], out_b[0])
        assert np.array_equal(out_a[1], out_b[1])

    def test_attention_rows_sum_to_one(self, spatial_weights):
        h, _, graph, params = self._setup()
        _tgconv(h, graph, params)
        [(_, w)] = spatial_weights  # one scene: one attention call, (1, heads, N, N)
        w = w[0]
        allow = _allow(graph)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(w[..., ~allow] == 0.0)

    def test_row_count_mismatch_rejected(self):
        # a graph over 4 rows for h with rows 0..2 only, either way round
        h, _, graph, params = self._setup()
        with pytest.raises(ShapeMismatchError, match=r"\(1, 1, 4, 4\)"):
            _tgconv(h[:-1], graph, params)
        with pytest.raises(ShapeMismatchError):
            _tgconv(h, graph[:, :3, :3], params)

    def test_multihead_alias_and_single_head_equivalence(self):
        # [TRIVIAL] one code path serves every head count; k=1 is the
        # single-head form
        rng = np.random.default_rng(5)
        params = TGConvParams.init(8, 1, rng)
        graph = _graph([(float(i), 0.0) for i in range(3)], d=1.5)
        h = rng.standard_normal((3, 8))
        out = _tgconv(h, graph, params)
        np.testing.assert_allclose(
            out, _oracle_masked_dense(h, _allow(graph), params), atol=1e-10
        )

    def test_two_head_oracle(self):
        # [DERIVED] per-head composition oracle, k=2
        rng = np.random.default_rng(6)
        params = TGConvParams.init(8, 2, rng)
        graph = _graph([(float(i) * 0.9, 0.0) for i in range(5)], d=1.0)
        h = rng.standard_normal((5, 8))
        out = _tgconv(h, graph, params)
        np.testing.assert_allclose(
            out, _oracle_masked_dense(h, _allow(graph), params), atol=1e-10
        )


class TestSpatialBlock:
    def test_t1_reduces_to_tgconv(self):
        # [TRIVIAL] one step is a single TGConv on the dense-masked oracle
        rng = np.random.default_rng(7)
        params = TGConvParams.init(8, 2, rng)
        graph = _graph([(float(i), 0.0) for i in range(4)], d=1.5)
        h = rng.standard_normal((4, 1, 8))
        out = _spatial(h, graph, params)
        single = _oracle_masked_dense(h[:, 0, :], _allow(graph), params)
        np.testing.assert_allclose(out[:, 0, :], single, atol=1e-10)

    def test_edgeless_graphs_are_per_node_transforms(self):
        # [TRIVIAL] no edges: every node sees only itself at every step
        rng = np.random.default_rng(8)
        params = TGConvParams.init(8, 2, rng)
        graphs = np.concatenate([_graph([(100.0 * i, 0.0) for i in range(3)], d=1.0)] * 4)
        h = rng.standard_normal((3, 4, 8))
        out = _spatial(h, graphs, params)
        for i in range(3):
            for t in range(4):
                expect = _oracle_masked_dense(
                    h[i : i + 1, t], np.eye(1, dtype=bool), params
                )
                np.testing.assert_allclose(out[i, t], expect[0], atol=1e-10)

    def test_loop_over_steps_oracle(self):
        # [DERIVED] 3 steps x 5 nodes: equals per-step single-step calls
        rng = np.random.default_rng(9)
        params = TGConvParams.init(8, 2, rng)
        [masks] = build_graph(rng.uniform(-2, 2, (5, 3, 2)), np.ones((5, 3), dtype=bool),
                              [(5, [(0, 5)])], d=1.8)
        graphs = masks[:, 0]
        h = rng.standard_normal((5, 3, 8))
        out = _spatial(h, graphs, params)
        for t in range(3):
            per_step = _tgconv(h[:, t, :], graphs[t:t + 1], params)
            np.testing.assert_allclose(out[:, t, :], per_step, atol=1e-12)

    def test_graph_count_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        params = TGConvParams.init(8, 2, rng)
        h = Tensor(rng.standard_normal((1, 3, 8)))
        mask = _graph([(0.0, 0.0)], d=1.0)[:, None]  # one step for three
        three = np.concatenate([mask] * 3)
        layout = scene_layout([1])
        for wrong in ([mask], [mask[0]], [three[..., :0]], [three] * 2, [], three[:, 0]):
            with pytest.raises(ShapeMismatchError):
                spatial_block(h, wrong, params, layout)
        spatial_block(h, [three], params, layout)  # the matching mask


class TestAbsentSlots:
    """build_graph's masks are TGConv's only presence mask, and the temporal
    blocks read time_mask: whatever an absent (pedestrian, step) slot holds
    reaches no present output, no weight gradient and no input gradient."""

    SIZES, T, D = (3, 2, 4), 5, 8

    def _case(self, block, rng):
        """Presence with absent slots, a never-present row 0 and an
        always-present row 1, and the block as a function of its input."""
        n = sum(self.SIZES)
        presence = rng.random((n, self.T)) > 0.3
        presence[0], presence[1] = False, True
        if block == "spatial_block":
            layout = scene_layout(self.SIZES)
            masks = build_graph(rng.uniform(-2.0, 2.0, (n, self.T, 2)), presence, layout, 2.5)
            params = TGConvParams.init(self.D, 2, rng)
            return presence, params, lambda h: spatial_block(h, masks, params, layout)
        if block == "temporal_block":
            params = TemporalBlockParams.init(self.D, 2, rng)
            return presence, params, lambda h: temporal_block(h, params, presence)
        params = GruParams.init(self.D, rng)
        return presence, params, lambda h: temporal_recurrent(h, params, presence)

    @pytest.mark.parametrize("block", ["spatial_block", "temporal_block", "temporal_recurrent"])
    def test_absent_inputs_change_no_present_bit(self, block):
        rng = np.random.default_rng(11)
        presence, params, run = self._case(block, rng)
        here = presence[:, :, None]
        h = rng.standard_normal(presence.shape + (self.D,))
        w = Tensor(rng.standard_normal(h.shape) * here)  # a loss over present outputs only
        runs = []
        for fill in (0.0, 100.0 * rng.standard_normal(h.shape), -3.0):
            x = Tensor(np.where(here, h, fill), requires_grad=True)
            for _, p in params.parameters():
                p.grad = None
            out = run(x)
            (out * w).sum().backward()
            assert np.all(x.grad[~presence] == 0.0)
            runs.append([out.numpy()[presence], x.grad] + [p.grad for _, p in params.parameters()])
        for other in runs[1:]:
            for got, expected in zip(other, runs[0], strict=True):
                np.testing.assert_array_equal(got, expected)
