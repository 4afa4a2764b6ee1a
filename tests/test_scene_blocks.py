"""Scene-blocked spatial attention on packed batches, against the dense masked
attention over all N packed rows that it replaced.

Two oracles live here: a brute-force numpy TGConv that loops over steps and
heads on the full N x N matrix, and the dense path rebuilt from the
library's autodiff primitives, so that gradients can be compared too.
"""

import json
import os

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
PACKED_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "packed_mixed_expected.json")


def _ids(sizes):
    """The scene index of each packed row."""
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


def _starts(size, runs):
    """First row of each scene of one scene_layout entry, in row order."""
    return [i for lo, hi in runs for i in range(lo, hi, size)]


def _dense(masks, layout, n):
    """(t, N, N) form of build_graph's masks over n packed rows: each scene's
    block on the diagonal, False across scenes."""
    dense = np.zeros((masks[0].shape[0], n, n), dtype=bool)
    for (size, runs), mask in zip(layout, masks, strict=True):
        for k, i in enumerate(_starts(size, runs)):
            dense[:, i:i + size, i:i + size] = mask[:, k]
    return dense


def _blocks(dense, layout):
    """build_graph's form of a (t, N, N) mask: per scene_layout entry, the
    (t, S, size, size) diagonal blocks of its S scenes."""
    return [np.stack([dense[:, i:i + size, i:i + size] for i in _starts(size, runs)], axis=1)
            for size, runs in layout]


def _packed_graphs(rng, sizes, t, d=2.5, cross_scene=False):
    """(t, N, N) graphs over packed rows from random positions, with about one
    node in six absent: edgeless, so it attends to itself alone. Edges join
    only pedestrians of one scene unless cross_scene."""
    n = sum(sizes)
    presence = rng.random((n, t)) > 0.15
    world = np.stack([rng.uniform(-3.0, 3.0, (n, 2)) for _ in range(t)], axis=1)
    layout = [(n, [(0, n)])] if cross_scene else scene_layout(sizes)
    return _dense(build_graph(world, presence, layout, d), layout, n)


def _oracle(h, graphs, params, ids):
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
    return out, weights


def _block_weights(calls, sizes):
    """(first row, size, (t, heads, size, size) weights) of every scene, from
    the spied attention calls of one blocked spatial_block: one call per scene
    size in scene_layout order, its scenes in row order."""
    blocks = []
    for (size, runs), (_, w) in zip(scene_layout(sizes), calls, strict=True):
        starts = _starts(size, runs)
        w = w.reshape(w.shape[0], len(starts), -1, size, size)  # a lone scene has no S axis
        blocks += [(i, size, w[:, j]) for j, i in enumerate(starts)]
    return blocks


def _scene_rows(sizes):
    """(first row, size) of each packed scene."""
    return list(zip(np.cumsum((0,) + tuple(sizes[:-1])).tolist(), sizes))


def _dense_spatial_block(ids):
    """The dense path: one (t, heads, N, N) attention over all packed rows,
    cross-scene keys masked, built from the library's primitives. Takes
    spatial_block's arguments and reads the layout only to place the masks."""
    same_scene = ids[:, None] == ids[None, :]

    def block(h, masks, params, layout):
        graphs = _dense(masks, layout, h.shape[0])
        allow = (graphs | np.eye(h.shape[0], dtype=bool)) & same_scene
        x = h.swapaxes(0, 1)
        q, k, v = head_projections(x, params)
        att, _ = startraj.graph.masked_attention(q, k, v, allow[:, None])
        a = layer_norm(merge_heads(att, params) + x, params.ln1_gain, params.ln1_bias)
        out = layer_norm(linear(a, params.wo, params.bo) + a, params.ln2_gain, params.ln2_bias)
        return out.swapaxes(0, 1)

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
        assert scene_layout((3, 8, 5, 8, 2, 5, 1)) == [
            (1, [(31, 32)]), (2, [(24, 26)]), (3, [(0, 3)]),
            (5, [(11, 16), (26, 31)]), (8, [(3, 11), (16, 24)]),
        ]
        # adjacent scenes of one size form one run
        assert scene_layout((4, 4, 2, 4)) == [(2, [(8, 10)]), (4, [(0, 8), (10, 14)])]
        assert scene_layout(np.array([6])) == [(6, [(0, 6)])]

    @pytest.mark.parametrize("count", [3, 5])
    def test_rollout_rejects_scene_id_count(self, count, monkeypatch):
        # scene sizes that count `count` rows of a 4-pedestrian batch, checked
        # before any graph is built
        batch = _batch((2, 2), seed=40)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True, dropout=0.0)
        monkeypatch.setattr(startraj.model, "build_graph", None)  # a call would be a TypeError
        with pytest.raises(DataFormatError,
                           match=rf"scene sizes \[2, {count - 2}\] for 4 pedestrians"):
            rollout(batch.scene, init_params(config, np.random.default_rng(0)),
                    sizes=np.array([2, count - 2]))

    @pytest.mark.parametrize("sizes", [[4, 0], [0, 4], [5, -1], [2.5, 2.5], [True] * 4])
    def test_rollout_rejects_empty_scene(self, sizes, monkeypatch):
        # sizes that sum to N still need every scene to hold a row, and sizes
        # that are not integers are not truncated to some
        batch = _batch((2, 2), seed=40)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True, dropout=0.0)
        monkeypatch.setattr(startraj.model, "build_graph", None)
        with pytest.raises(DataFormatError, match="scene sizes .* for 4 pedestrians"):
            rollout(batch.scene, init_params(config, np.random.default_rng(0)), sizes=sizes)

    def test_rollout_groups_rows_once(self, monkeypatch):
        # one scene_layout call per rollout, and that very object reaches the
        # observed window's and every later step's build_graph call (none for
        # the last predicted step) and both encoders' spatial_block calls at
        # every step
        batch = _batch((3, 2, 3), seed=41)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True, dropout=0.0)
        layouts, seen = [], {"build_graph": [], "spatial_block": []}
        real_layout = startraj.model.scene_layout
        real_build, real_block = startraj.model.build_graph, startraj.model.spatial_block

        def layout_spy(sizes):
            layouts.append(real_layout(sizes))
            return layouts[-1]

        def build_spy(world, present, layout, d):
            seen["build_graph"].append(layout)
            return real_build(world, present, layout, d)

        def block_spy(h, masks, block_params, layout):
            seen["spatial_block"].append(layout)
            return real_block(h, masks, block_params, layout)

        monkeypatch.setattr(startraj.model, "scene_layout", layout_spy)
        monkeypatch.setattr(startraj.model, "build_graph", build_spy)
        monkeypatch.setattr(startraj.model, "spatial_block", block_spy)
        rollout(batch.scene, init_params(config, np.random.default_rng(0)),
                sizes=batch.sizes)
        assert len(layouts) == 1 and layouts[0] == [(2, [(3, 5)]), (3, [(0, 3), (5, 8)])]
        assert len(seen["build_graph"]) == config.pred_len
        assert len(seen["spatial_block"]) == 2 * config.pred_len
        assert all(layout is layouts[0] for calls in seen.values() for layout in calls)

    def test_rollout_builds_each_step_mask_once(self, monkeypatch):
        # the observed window's masks in one build, then one build per
        # predicted step that a later step reads, each one adjacency_mask call
        # per scene size; every spatial_block call gets masks over exactly
        # its input's steps
        batch = _batch((3, 2, 3), seed=42)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True, dropout=0.0)
        mask_calls, block_steps = [], []
        real_mask, real_block = startraj.graph.adjacency_mask, startraj.model.spatial_block

        def mask_spy(near, here):
            mask_calls.append(near.shape)
            return real_mask(near, here)

        def block_spy(h, masks, *args, **kwargs):
            block_steps.append((h.shape[1], [m.shape[0] for m in masks]))
            return real_block(h, masks, *args, **kwargs)

        monkeypatch.setattr(startraj.graph, "adjacency_mask", mask_spy)
        monkeypatch.setattr(startraj.model, "spatial_block", block_spy)
        rollout(batch.scene, init_params(config, np.random.default_rng(0)),
                sizes=batch.sizes)
        sizes = len(scene_layout(batch.sizes))
        assert sizes == 2 and len(mask_calls) == config.pred_len * sizes
        assert [shape[0] for shape in mask_calls] == [8, 8] + [1, 1] * (config.pred_len - 1)
        # encoder 1 then encoder 2 at each step; encoder 1 sees the newest step only
        assert [t for t, _ in block_steps] == [8, 8, 1, 9, 1, 10]
        assert all(steps == [t] * sizes for t, steps in block_steps)

    @pytest.mark.parametrize("training", [False, True])
    def test_spatial_block_steps_per_encoder(self, monkeypatch, training):
        # encoder 1's TGConv runs on the observed window, then outside training
        # on the newest step alone, with that step's masks; training
        # re-encodes the full history, and encoder 2 always gets it
        batch = _batch((3, 2, 3), seed=43)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True, dropout=0.0)
        params = init_params(config, np.random.default_rng(1))
        calls = {"enc1": [], "enc2": []}
        real_block = startraj.model.spatial_block

        def block_spy(h, masks, block_params, layout):
            # an eval rollout runs on frozen copies, which share the arrays
            enc1 = block_params.wq.data is params.enc1.spatial.wq.data
            name = "enc1" if enc1 else "enc2"
            calls[name].append((h.shape[1], [m.shape[0] for m in masks]))
            return real_block(h, masks, block_params, layout)

        monkeypatch.setattr(startraj.model, "spatial_block", block_spy)
        rollout(batch.scene, params, rng=np.random.default_rng(0),
                sizes=batch.sizes, training=training)
        obs, sizes = config.obs_len, len(scene_layout(batch.sizes))
        full = [obs + s for s in range(config.pred_len)]
        assert [t for t, _ in calls["enc1"]] == (full if training else [obs, 1, 1])
        assert [t for t, _ in calls["enc2"]] == full
        for t, steps in calls["enc1"] + calls["enc2"]:
            assert steps == [t] * sizes


class TestBlockVsDense:
    @pytest.mark.parametrize("sizes", MIXED_SIZES)
    def test_forward_and_weights_match_oracle(self, sizes, spatial_weights):
        rng = np.random.default_rng(sum(sizes))
        params = TGConvParams.init(8, 2, rng)
        ids = _ids(sizes)
        graphs = _packed_graphs(rng, sizes, t=3)
        h = rng.standard_normal((len(ids), 3, 8))
        layout = scene_layout(sizes)
        out = spatial_block(Tensor(h), _blocks(graphs, layout), params, layout)
        expect, expect_w = _oracle(h, graphs, params, ids)
        np.testing.assert_allclose(out.numpy(), expect, rtol=0, atol=1e-12)
        blocks = _block_weights(spatial_weights, sizes)
        # every scene's block once, and no weight across scenes computed at all
        assert sorted((i, size) for i, size, _ in blocks) == _scene_rows(sizes)
        for i, size, w in blocks:
            assert w.shape == (3, 2, size, size)
            np.testing.assert_allclose(w, expect_w[:, :, i:i + size, i:i + size],
                                       rtol=0, atol=1e-12)

    def test_cross_scene_edges_ignored(self):
        # a graph joining every close pair across scenes: cutting it into
        # scene blocks drops those edges, exactly as the dense oracle's scene
        # mask does
        sizes = (3, 1, 4, 3)
        rng = np.random.default_rng(21)
        params = TGConvParams.init(8, 2, rng)
        ids = _ids(sizes)
        graphs = _packed_graphs(rng, sizes, t=2, d=4.0, cross_scene=True)
        assert (graphs & (ids[:, None] != ids[None, :])).any()
        h = rng.standard_normal((len(ids), 2, 8))
        layout = scene_layout(sizes)
        out = spatial_block(Tensor(h), _blocks(graphs, layout), params, layout)
        expect, _ = _oracle(h, graphs, params, ids)
        np.testing.assert_allclose(out.numpy(), expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sizes", [(3, 8, 5, 8, 2, 5), (1, 4, 1, 4)])
    def test_rollout_and_gradients_match_dense(self, sizes, monkeypatch, spatial_weights):
        batch = _batch(sizes, seed=50)
        config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True,
                            dropout=0.0, graph_threshold=3.0)
        params = init_params(config, np.random.default_rng(5))
        named = params.parameters()

        def run(calls_per_block):
            # step 0 runs encoder 1's spatial block, then encoder 2's
            spatial_weights.clear()
            pred = rollout(batch.scene, params, rng=np.random.default_rng(0),
                           sizes=batch.sizes).numpy()
            enc2 = spatial_weights[calls_per_block:2 * calls_per_block]
            for _, p in named:
                p.grad = None
            scene_loss(batch, params, np.random.default_rng(0)).backward()
            return pred, enc2, [p.grad.copy() for _, p in named]

        pred, blocks, grads = run(len(scene_layout(batch.sizes)))
        ids = _ids(batch.sizes)
        monkeypatch.setattr(startraj.model, "spatial_block", _dense_spatial_block(ids))
        dense_pred, [(_, dense_weights)], dense_grads = run(1)
        np.testing.assert_allclose(pred, dense_pred, rtol=0, atol=1e-12)
        assert np.all(dense_weights[:, :, ids[:, None] != ids[None, :]] == 0.0)
        blocks = _block_weights(blocks, batch.sizes)
        assert sorted((i, size) for i, size, _ in blocks) == _scene_rows(sizes)
        for i, size, w in blocks:
            np.testing.assert_allclose(w, dense_weights[:, :, i:i + size, i:i + size],
                                       rtol=0, atol=1e-12)
        for (name, _), g, dg in zip(named, grads, dense_grads):
            np.testing.assert_allclose(g, dg, rtol=0, atol=1e-9, err_msg=name)


def _packed_fixture_case():
    """The inputs of the packed fixture: six scenes of mixed sizes, equal
    sizes not adjacent, with absent slots, and a tiny deterministic model."""
    batch = _batch((3, 8, 5, 8, 2, 5), seed=60)
    config = StarConfig(d_model=8, heads=2, pred_len=3, deterministic=True,
                        dropout=0.0, graph_threshold=3.0)
    return batch, init_params(config, np.random.default_rng(61))


def _packed_fixture_values(batch, params):
    """The rollout, scene_loss and every gradient (by name, flattened) that
    the packed fixture pins."""
    pred = rollout(batch.scene, params, rng=np.random.default_rng(0),
                   sizes=batch.sizes).numpy()
    for _, p in params.parameters():
        p.grad = None
    loss = scene_loss(batch, params, np.random.default_rng(1))
    loss.backward()
    grads = {name: p.grad.ravel().tolist() for name, p in params.parameters()}
    return {"rollout": pred.tolist(), "loss": loss.item(), "grads": grads}


class TestPackedFixture:
    def test_packed_fixture_bit_identical(self):
        # a packed batch's rollout, loss and gradients, recorded before scene
        # blocks were described by scene_layout alone; equality is exact
        with open(PACKED_FIXTURE) as fh:
            expected = json.load(fh)
        got = _packed_fixture_values(*_packed_fixture_case())
        np.testing.assert_array_equal(got["rollout"], expected["rollout"])
        assert got["loss"] == expected["loss"]
        assert list(got["grads"]) == list(expected["grads"])
        for name, grad in expected["grads"].items():
            np.testing.assert_array_equal(got["grads"][name], grad, err_msg=name)


class TestLogitCells:
    def test_skewed_batch_computes_sum_of_squares(self, monkeypatch):
        # one 40-ped scene among fifteen 1-ped ones: per head and step the
        # blocks compute sum(n_i^2) = 1615 logits, not N^2 = 3025 and not the
        # 16 * 40^2 = 25600 of padding every scene to the largest
        sizes = (1,) * 7 + (40,) + (1,) * 8
        calls = []

        def spy(q, k, v, allow):
            calls.append((q.shape, k.shape, np.shape(allow)))
            return masked_attention(q, k, v, allow)

        monkeypatch.setattr(startraj.graph, "masked_attention", spy)
        rng = np.random.default_rng(30)
        params = TGConvParams.init(8, 2, rng)
        graphs = _packed_graphs(rng, sizes, t=3)
        layout = scene_layout(sizes)
        spatial_block(Tensor(rng.standard_normal((sum(sizes), 3, 8))), _blocks(graphs, layout),
                      params, layout)
        cells = sum(int(np.prod(q[:-1])) * k[-2] for q, k, _ in calls)
        assert cells == 3 * 2 * sum(n * n for n in sizes) == 3 * 2 * 1615
        # one call per scene size, none padded: the fifteen 1-ped scenes share
        # a call, the 40-ped scene has its own
        by_size = {k[-2]: int(np.prod(q[:-1])) * k[-2] for q, k, _ in calls}
        assert len(calls) == 2 and by_size == {1: 3 * 2 * 15, 40: 3 * 2 * 1600}
        for q, k, allow in calls:
            logits = q[:-1] + (k[-2],)
            assert np.broadcast_shapes(allow, logits) == logits
