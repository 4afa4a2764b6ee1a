"""Scene-blocked spatial attention on packed batches, against the dense masked
attention over all N packed rows that it replaced.

Two oracles live here: a brute-force numpy TGConv that loops over steps and
heads on the full N x N matrix, and the dense path rebuilt from the
library's autodiff primitives, so that gradients can be compared too.
"""

import numpy as np
import pytest

import startraj.graph
import startraj.model
from startraj import StarConfig, TGConvParams, Tensor, init_params, preprocess, rollout
from startraj import scene_loss, spatial_block
from startraj.attention import head_projections, masked_attention, merge_heads
from startraj.data import TrajectoryScene, merge_scenes
from startraj.errors import DataFormatError
from startraj.graph import build_graph, scene_layout
from startraj.synthetic import simulate_scene
from startraj.tensor import layer_norm, linear

# 1-ped scenes, equal sizes that are not next to each other, equal sizes that are
MIXED_SIZES = [(3, 8, 5, 8, 2, 5, 1), (1, 1, 1), (4, 4, 2, 4)]


def _ids(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def _allow(graph, ids):
    """Brute-force (N, N) key mask of one step's graph: self, graph edges,
    same scene only."""
    n = len(ids)
    allow = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            allow[i, j] = (i == j or graph[i, j]) and ids[i] == ids[j]
    return allow


def _packed_graphs(rng, sizes, t, d=2.5, cross_scene=False):
    """(t, N, N) graphs over packed rows from random positions, with about one
    node in six absent. Edges join only pedestrians of one scene unless
    cross_scene."""
    ids = _ids(sizes)
    n = len(ids)
    presence = rng.random((n, t)) > 0.15
    world = np.stack([rng.uniform(-3.0, 3.0, (n, 2)) for _ in range(t)], axis=1)
    graphs = build_graph(world, presence, np.zeros(n) if cross_scene else ids, d)
    return graphs, presence


def _oracle(h, graphs, params, ids, presence):
    """Dense masked TGConv over all N rows, one step and one head at a time:
    (N, t, d) output and (t, heads, N, N) weights."""
    def ln(x, gain, bias, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * gain + bias

    n, t, d = h.shape
    d_k = d // params.head_count
    out = np.zeros_like(h)
    weights = np.zeros((t, params.head_count, n, n))
    for s in range(t):
        x = h[:, s]
        allow = _allow(graphs[s], ids)
        q, k, v = (x @ w.numpy() + b.numpy()
                   for w, b in ((params.wq, params.bq), (params.wk, params.bk),
                                (params.wv, params.bv)))
        att = np.zeros_like(x)
        for head in range(params.head_count):
            sl = slice(head * d_k, (head + 1) * d_k)
            logits = np.where(allow, q[:, sl] @ k[:, sl].T / np.sqrt(d_k), -np.inf)
            w = np.exp(logits - logits.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            weights[s, head] = w
            att[:, sl] = w @ v[:, sl]
        y = ln(att + x, params.ln1_gain.numpy(), params.ln1_bias.numpy())
        out[:, s] = ln(y @ params.wo.numpy() + params.bo.numpy() + y,
                       params.ln2_gain.numpy(), params.ln2_bias.numpy())
    return out * presence[:, :, None], weights


def _dense_spatial_block(ids):
    """The dense path: one (t, heads, N, N) attention over all packed rows,
    cross-scene keys masked, built from the library's primitives. Takes
    spatial_block's arguments and ignores the layout."""
    same_scene = ids[:, None] == ids[None, :]

    def block(h, graphs, params, presence=None, return_weights=False, layout=None):
        allow = (graphs | np.eye(h.shape[0], dtype=bool)) & same_scene
        x = h.swapaxes(0, 1)
        q, k, v = head_projections(x, params)
        att, weights = masked_attention(q, k, v, allow[:, None], params.d_k)
        a = layer_norm(merge_heads(att, params) + x, params.ln1_gain, params.ln1_bias)
        out = layer_norm(linear(a, params.wo, params.bo) + a, params.ln2_gain, params.ln2_bias)
        out = out.swapaxes(0, 1)
        if presence is not None:
            out = out * Tensor(presence[:, :, None].astype(np.float64))
        return (out, weights) if return_weights else out

    return block


def _batch(sizes, seed):
    """Packed batch of simulated scenes; in every scene of two or more, the
    last pedestrian misses the first two frames, so absent slots are packed
    too."""
    scenes = []
    for k, n in enumerate(sizes):
        sim = simulate_scene(np.random.default_rng(seed + k), n_peds=n, total_len=11)
        presence = sim.presence.copy()
        if n > 1:
            presence[-1, :2] = False
        scenes.append(preprocess(TrajectoryScene(
            ped_ids=sim.ped_ids, obs_len=8, presence=presence,
            positions=np.where(presence[:, :, None], sim.positions, 0.0),
        )))
    return merge_scenes(scenes)


class TestSceneLayout:
    def test_runs_grouped_by_size(self):
        # [DERIVED] row ranges worked out by hand from the packed sizes
        assert scene_layout(_ids((3, 8, 5, 8, 2, 5, 1))) == [
            (1, [(31, 32)]), (2, [(24, 26)]), (3, [(0, 3)]),
            (5, [(11, 16), (26, 31)]), (8, [(3, 11), (16, 24)]),
        ]
        # adjacent scenes of one size form one run
        assert scene_layout(_ids((4, 4, 2, 4))) == [(2, [(8, 10)]), (4, [(0, 8), (10, 14)])]
        assert scene_layout(np.zeros(6, dtype=np.int64)) == [(6, [(0, 6)])]

    @pytest.mark.parametrize("ids", [[0, 1, 0], [2, 2, 0, 1, 2], []])
    def test_non_contiguous_or_empty_rejected(self, ids):
        with pytest.raises(DataFormatError):
            scene_layout(np.array(ids, dtype=np.int64))

    def test_rollout_rejects_non_contiguous_scene_ids(self):
        batch = _batch((2, 2), seed=40)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True, dropout=0.0)
        with pytest.raises(DataFormatError, match="contiguous"):
            rollout(batch.scene, init_params(config, np.random.default_rng(0)),
                    scene_ids=np.array([0, 1, 0, 1]))


class TestBlockVsDense:
    @pytest.mark.parametrize("sizes", MIXED_SIZES)
    def test_forward_and_weights_match_oracle(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        params = TGConvParams.init(8, 2, rng)
        ids = _ids(sizes)
        graphs, presence = _packed_graphs(rng, sizes, t=3)
        h = rng.standard_normal((len(ids), 3, 8))
        out, w = spatial_block(Tensor(h), graphs, params, presence, return_weights=True,
                               layout=scene_layout(ids))
        expect, expect_w = _oracle(h, graphs, params, ids, presence)
        np.testing.assert_allclose(out.numpy(), expect, rtol=0, atol=1e-12)
        assert w.shape == (3, 2, len(ids), len(ids))
        np.testing.assert_allclose(w.numpy(), expect_w, rtol=0, atol=1e-12)
        assert np.all(w.numpy()[:, :, ids[:, None] != ids[None, :]] == 0.0)

    def test_cross_scene_edges_ignored(self):
        # a graph joining every close pair across scenes: the blocks drop
        # those edges, exactly as the dense oracle's scene mask does
        sizes = (3, 1, 4, 3)
        rng = np.random.default_rng(21)
        params = TGConvParams.init(8, 2, rng)
        ids = _ids(sizes)
        graphs, presence = _packed_graphs(rng, sizes, t=2, d=4.0, cross_scene=True)
        assert (graphs & (ids[:, None] != ids[None, :])).any()
        h = rng.standard_normal((len(ids), 2, 8))
        out = spatial_block(Tensor(h), graphs, params, presence, layout=scene_layout(ids))
        expect, _ = _oracle(h, graphs, params, ids, presence)
        np.testing.assert_allclose(out.numpy(), expect, rtol=0, atol=1e-12)

    def test_default_layout_is_one_scene(self):
        # [TRIVIAL] no layout and the explicit one-scene layout are the same call
        rng = np.random.default_rng(22)
        params = TGConvParams.init(8, 2, rng)
        graphs, presence = _packed_graphs(rng, (5,), t=2)
        h = Tensor(rng.standard_normal((5, 2, 8)))
        one = spatial_block(h, graphs, params, presence,
                            layout=scene_layout(np.zeros(5, dtype=np.int64)))
        assert np.array_equal(spatial_block(h, graphs, params, presence).numpy(), one.numpy())

    @pytest.mark.parametrize("sizes", [(3, 8, 5, 8, 2, 5), (1, 4, 1, 4)])
    def test_rollout_and_gradients_match_dense(self, sizes, monkeypatch):
        batch = _batch(sizes, seed=50)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True,
                            dropout=0.0, graph_threshold=3.0)
        params = init_params(config, np.random.default_rng(5))
        named = params.parameters()

        def run():
            capture = {}
            pred = rollout(batch.scene, params, rng=np.random.default_rng(0),
                           scene_ids=batch.scene_ids, capture=capture).numpy()
            for _, p in named:
                p.grad = None
            scene_loss(batch, params, np.random.default_rng(0)).backward()
            return pred, capture["spatial2_weights"], [p.grad.copy() for _, p in named]

        pred, weights, grads = run()
        monkeypatch.setattr(startraj.model, "spatial_block", _dense_spatial_block(batch.scene_ids))
        dense_pred, dense_weights, dense_grads = run()
        np.testing.assert_allclose(pred, dense_pred, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, dense_weights, rtol=0, atol=1e-12)
        for (name, _), g, dg in zip(named, grads, dense_grads):
            np.testing.assert_allclose(g, dg, rtol=0, atol=1e-9, err_msg=name)


class TestLogitCells:
    def test_skewed_batch_computes_sum_of_squares(self, monkeypatch):
        # one 40-ped scene among fifteen 1-ped ones: per head and step the
        # blocks compute sum(n_i^2) = 1615 logits, not N^2 = 3025 and not the
        # 16 * 40^2 = 25600 of padding every scene to the largest
        sizes = (1,) * 7 + (40,) + (1,) * 8
        calls = []

        def spy(q, k, v, allow, d_k):
            calls.append((q.shape, k.shape, np.shape(allow)))
            return masked_attention(q, k, v, allow, d_k)

        monkeypatch.setattr(startraj.graph, "masked_attention", spy)
        rng = np.random.default_rng(30)
        params = TGConvParams.init(8, 2, rng)
        ids = _ids(sizes)
        graphs, presence = _packed_graphs(rng, sizes, t=3)
        spatial_block(Tensor(rng.standard_normal((len(ids), 3, 8))), graphs, params, presence,
                      layout=scene_layout(ids))
        cells = sum(int(np.prod(q[:-1])) * k[-2] for q, k, _ in calls)
        assert cells == 3 * 2 * sum(n * n for n in sizes) == 3 * 2 * 1615
        # one call per scene size, none padded: the fifteen 1-ped scenes share
        # a call, the 40-ped scene has its own
        by_size = {k[-2]: int(np.prod(q[:-1])) * k[-2] for q, k, _ in calls}
        assert len(calls) == 2 and by_size == {1: 3 * 2 * 15, 40: 3 * 2 * 1600}
        for q, k, allow in calls:
            logits = q[:-1] + (k[-2],)
            assert np.broadcast_shapes(allow, logits) == logits
