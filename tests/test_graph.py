"""Interaction graphs and the transformer-based graph convolution."""

import numpy as np
import pytest

from startraj import TGConvParams, Tensor, build_graph, spatial_block
from startraj.errors import DataFormatError, ShapeMismatchError
from startraj.graph import adjacency_mask


def _tgconv(h, graph, params, return_weights=False):
    """TGConv at one timestep: spatial_block with t = 1 on (N, d) features."""
    out = spatial_block(Tensor(h[:, None, :]), [graph], params,
                        return_weights=return_weights)
    if return_weights:
        return out[0].numpy()[:, 0], out[1].numpy()[0]
    return out.numpy()[:, 0]


def _oracle_masked_dense(h, allow, p):
    """Independent numpy oracle for TGConv: dense attention with -inf on
    non-edges, two skips, layer norm after each."""
    def ln(x, gain, bias, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * gain + bias

    a = p.attn
    kh = a.head_count
    d_k = a.d_model // kh
    q = h @ a.wq.numpy() + a.bq.numpy()
    k = h @ a.wk.numpy() + a.bk.numpy()
    v = h @ a.wv.numpy() + a.bv.numpy()
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
    return ln((y @ a.wo.numpy() + a.bo.numpy()) + y,
              p.ln2_gain.numpy(), p.ln2_bias.numpy())


class TestBuildGraph:
    def test_three_points_threshold(self):
        # [TRIVIAL] (0,0),(0,1),(0,5), d=2 -> only the close pair connected
        g = build_graph([("a", 0.0, 0.0), ("b", 0.0, 1.0), ("c", 0.0, 5.0)], d=2.0)
        assert g.neighbors["a"] == {"b"}
        assert g.neighbors["b"] == {"a"}
        assert g.neighbors["c"] == set()

    def test_zero_threshold_empty(self):
        # [TRIVIAL] strict inequality: d=0 connects nothing
        g = build_graph([("a", 0.0, 0.0), ("b", 0.0, 0.0)], d=0.0)
        assert all(not nb for nb in g.neighbors.values())

    def test_boundary_distance_excluded(self):
        # distance exactly d is NOT an edge (strict <)
        g = build_graph([("a", 0.0, 0.0), ("b", 2.0, 0.0)], d=2.0)
        assert g.neighbors["a"] == set()

    def test_brute_force_oracle(self):
        # [DERIVED] 20 random points vs an all-pairs scalar distance check
        rng = np.random.default_rng(0)
        pts = [(f"p{i}", *rng.uniform(-3, 3, 2)) for i in range(20)]
        g = build_graph(pts, d=1.5)
        for i, (pi, xi, yi) in enumerate(pts):
            for j, (pj, xj, yj) in enumerate(pts):
                if i == j:
                    continue
                expect = np.hypot(xi - xj, yi - yj) < 1.5
                assert (pj in g.neighbors[pi]) == expect

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataFormatError):
            build_graph([("a", 0.0, 0.0), ("a", 1.0, 0.0)], d=2.0)

    def test_symmetry_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = [(i, *rng.uniform(-5, 5, 2)) for i in range(int(rng.integers(2, 12)))]
            g = build_graph(pts, d=float(rng.uniform(0.5, 5.0)))
            for i in g.node_ids:
                for j in g.neighbors[i]:
                    assert i in g.neighbors[j]
                    assert i != j  # no self-loops stored

    def test_edge_count(self):
        g = build_graph([("a", 0, 0), ("b", 0, 1), ("c", 1, 0)], d=1.5)
        assert g.edge_count() == 3


class TestTGConv:
    def _setup(self, n=4, d_model=8, heads=2, seed=2, threshold=1.5):
        rng = np.random.default_rng(seed)
        params = TGConvParams.init(d_model, heads, rng)
        pts = [(i, float(i), 0.0) for i in range(n)]  # path graph under d=1.5
        graph = build_graph(pts, d=threshold)
        h = rng.standard_normal((n, d_model))
        return h, pts, graph, params

    def test_isolated_node_collapses_to_value(self):
        # [TRIVIAL] Nb(i) empty: attention output is v_i; check via the oracle
        rng = np.random.default_rng(3)
        params = TGConvParams.init(6, 1, rng)
        graph = build_graph([(0, 0.0, 0.0)], d=1.0)
        h = rng.standard_normal((1, 6))
        out = _tgconv(h, graph, params)
        expect = _oracle_masked_dense(h, np.eye(1, dtype=bool), params)
        # oracle's attention for the single node IS v_i + skip; equality proves
        # the single-element-softmax collapse
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_masked_dense_oracle(self):
        # [DERIVED] 4-node path graph vs dense-masked numpy oracle
        h, _, graph, params = self._setup()
        allow = adjacency_mask(graph)
        out = _tgconv(h, graph, params)
        np.testing.assert_allclose(out, _oracle_masked_dense(h, allow, params), atol=1e-10)

    def test_permutation_equivariance(self):
        h, pts, graph, params = self._setup()
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(pts))
        # row r of the relabeled scene is pedestrian perm[r]
        pgraph = build_graph([(r, *pts[i][1:]) for r, i in enumerate(perm)], d=1.5)
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

    def test_attention_rows_sum_to_one(self):
        h, _, graph, params = self._setup()
        _, w = _tgconv(h, graph, params, return_weights=True)
        allow = adjacency_mask(graph)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(w[..., ~allow] == 0.0)

    def test_row_count_mismatch_rejected(self):
        # the graph names node row 3; h has rows 0..2 only
        h, _, graph, params = self._setup()
        with pytest.raises(ShapeMismatchError, match="row 3"):
            _tgconv(h[:-1], graph, params)

    def test_multihead_alias_and_single_head_equivalence(self):
        # [TRIVIAL] one code path serves every head count; k=1 is the
        # single-head form
        rng = np.random.default_rng(5)
        params = TGConvParams.init(8, 1, rng)
        graph = build_graph([(i, float(i), 0.0) for i in range(3)], d=1.5)
        h = rng.standard_normal((3, 8))
        out = _tgconv(h, graph, params)
        np.testing.assert_allclose(
            out, _oracle_masked_dense(h, adjacency_mask(graph), params), atol=1e-10
        )

    def test_two_head_oracle(self):
        # [DERIVED] per-head composition oracle, k=2
        rng = np.random.default_rng(6)
        params = TGConvParams.init(8, 2, rng)
        graph = build_graph([(i, float(i) * 0.9, 0.0) for i in range(5)], d=1.0)
        h = rng.standard_normal((5, 8))
        out = _tgconv(h, graph, params)
        np.testing.assert_allclose(
            out, _oracle_masked_dense(h, adjacency_mask(graph), params), atol=1e-10
        )


class TestSpatialBlock:
    def test_t1_reduces_to_tgconv(self):
        # [TRIVIAL] one step is a single TGConv on the dense-masked oracle
        rng = np.random.default_rng(7)
        params = TGConvParams.init(8, 2, rng)
        graph = build_graph([(i, float(i), 0.0) for i in range(4)], d=1.5)
        h = rng.standard_normal((4, 1, 8))
        out = spatial_block(Tensor(h), [graph], params).numpy()
        single = _oracle_masked_dense(h[:, 0, :], adjacency_mask(graph), params)
        np.testing.assert_allclose(out[:, 0, :], single, atol=1e-10)

    def test_edgeless_graphs_are_per_node_transforms(self):
        # [TRIVIAL] no edges: every node sees only itself at every step
        rng = np.random.default_rng(8)
        params = TGConvParams.init(8, 2, rng)
        graphs = [build_graph([(i, 100.0 * i, 0.0) for i in range(3)], d=1.0)
                  for _ in range(4)]
        h = rng.standard_normal((3, 4, 8))
        out = spatial_block(Tensor(h), graphs, params).numpy()
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
        graphs = []
        for _ in range(3):
            pts = [(i, *rng.uniform(-2, 2, 2)) for i in range(5)]
            graphs.append(build_graph(pts, d=1.8))
        h = rng.standard_normal((5, 3, 8))
        out = spatial_block(Tensor(h), graphs, params).numpy()
        for t in range(3):
            per_step = _tgconv(h[:, t, :], graphs[t], params)
            np.testing.assert_allclose(out[:, t, :], per_step, atol=1e-12)

    def test_graph_count_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        params = TGConvParams.init(8, 2, rng)
        graph = build_graph([(0, 0.0, 0.0)], d=1.0)
        with pytest.raises(ShapeMismatchError):
            spatial_block(Tensor(rng.standard_normal((1, 3, 8))), [graph], params)

    def test_absent_pedestrians_zeroed(self):
        rng = np.random.default_rng(11)
        params = TGConvParams.init(8, 2, rng)
        graphs = [build_graph([(i, 100.0 * i, 0.0) for i in range(2)], d=1.0)
                  for _ in range(3)]
        presence = np.array([[True, True, True], [True, False, True]])
        h = rng.standard_normal((2, 3, 8))
        out = spatial_block(Tensor(h), graphs, params, presence=presence).numpy()
        np.testing.assert_array_equal(out[1, 1], 0.0)
        assert np.any(out[0, 1] != 0.0)
