"""The eval rollout embeds and TGConv-encodes each step once, and sampling
runs on frozen parameters with no tape. Oracles: the full re-encode of every
step, rebuilt here from the library's encoder pieces; taped rollouts; and
the training path, which still re-encodes everything."""

import itertools

import numpy as np
import pytest

from startraj import StarConfig, Tensor, best_of_k, init_params, preprocess, rollout
from startraj.data import merge_scenes
from startraj.graph import build_graph, scene_layout
from startraj.model import VARIANT_FLAGS, decode_step, embed_inputs, encoder1, encoder2
from startraj.synthetic import simulate_scene
from startraj.trainer import ade, fde


def _config(variant="full", **kw):
    base = dict(d_model=8, heads=2, obs_len=8, pred_len=3, dropout=0.0, noise_dim=4,
                graph_threshold=6.0, **VARIANT_FLAGS[variant])
    base.update(kw)
    return StarConfig(**base)


def _scene(n, seed, config):
    return preprocess(simulate_scene(np.random.default_rng(seed), n_peds=n,
                                     total_len=config.obs_len + config.pred_len))


def _full_reencode(scene, params, rng, scene_ids=None, truth_positions=None):
    """The rollout as it was before the per-step caches: every step embeds
    the whole history, builds the masks of the whole window, and runs both
    encoders on all of it."""
    config, n = params.config, scene.n_peds
    layout = scene_layout(np.zeros(n, dtype=np.int64) if scene_ids is None else scene_ids)
    obs, rollers = config.obs_len, scene.rollout_mask
    history = scene.positions[:, :obs]
    world = scene.world_positions()[:, :obs]
    presence = scene.presence[:, :obs]
    memory, preds = None, []
    for s in range(config.pred_len):
        masks = build_graph(world, presence, layout, config.graph_threshold)
        h_s, h_t = embed_inputs(Tensor(history), params)
        pmask = Tensor(presence[:, :, None].astype(np.float64))
        fused = encoder1(h_s * pmask, h_t * pmask, masks, memory, params, presence,
                         layout=layout)
        enc = encoder2(fused, masks, params, presence, layout=layout)
        if config.use_memory and config.use_encoder2:
            memory = enc
        nd = config.effective_noise_dim
        noise = Tensor(rng.standard_normal((n, nd))) if nd > 0 else None
        step = decode_step(enc[:, -1, :], noise, params).numpy() * rollers[:, None]
        preds.append(step)
        if truth_positions is not None:
            step = np.where(rollers[:, None], truth_positions[:, obs + s], 0.0)
        history = np.concatenate([history, step[:, None]], axis=1)
        world = np.concatenate([world, (step + scene.origins)[:, None]], axis=1)
        presence = np.concatenate([presence, rollers[:, None]], axis=1)
    return np.stack(preds, axis=1)


class TestIncrementalRollout:
    @pytest.mark.parametrize("variant, deterministic", itertools.product(
        VARIANT_FLAGS, [True, False]))
    def test_matches_full_reencode_bit_for_bit(self, variant, deterministic):
        config = _config(variant, deterministic=deterministic)
        params = init_params(config, np.random.default_rng(3))
        for n, forced in itertools.product((1, 2, 5, 17), (False, True)):
            scene = _scene(n, seed=10 + n, config=config)
            truth = scene.positions if forced else None
            got = rollout(scene, params, rng=np.random.default_rng(n),
                          truth_positions=truth).numpy()
            want = _full_reencode(scene, params, np.random.default_rng(n),
                                  truth_positions=truth)
            np.testing.assert_array_equal(got, want, err_msg=f"n={n} forced={forced}")

    @pytest.mark.parametrize("variant", VARIANT_FLAGS)
    def test_packed_mixed_layout_matches_full_reencode(self, variant):
        config = _config(variant, deterministic=False)
        params = init_params(config, np.random.default_rng(4))
        batch = merge_scenes([_scene(n, seed=20 + i, config=config)
                              for i, n in enumerate((3, 1, 3, 4))])
        got = rollout(batch.scene, params, rng=np.random.default_rng(5),
                      scene_ids=batch.scene_ids).numpy()
        want = _full_reencode(batch.scene, params, np.random.default_rng(5),
                              scene_ids=batch.scene_ids)
        np.testing.assert_array_equal(got, want)

    def test_gradients_match_training_path(self):
        # with dropout off, training re-encodes the full history each step and
        # gives the same forward bits; the cached eval path's backward must
        # agree with it (accumulation order may differ in the last bits)
        config = _config(deterministic=False)
        scene = _scene(4, seed=30, config=config)
        grads, outs = [], []
        for training in (False, True):
            params = init_params(config, np.random.default_rng(6))
            pred = rollout(scene, params, rng=np.random.default_rng(7), training=training)
            (pred * pred).sum().backward()
            outs.append(pred.numpy())
            grads.append([p.grad for _, p in params.parameters()])
        np.testing.assert_array_equal(outs[0], outs[1])
        for a, b in zip(*grads):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)


class TestFrozen:
    def _params(self):
        params = init_params(_config(deterministic=False), np.random.default_rng(8))
        for _, p in params.parameters():
            p.grad = np.full_like(p.data, 0.5)
        return params

    def test_shares_every_array_and_leaves_original(self):
        params = self._params()
        frozen = params.frozen()
        pairs = list(zip(params.parameters(), frozen.parameters(), strict=True))
        for (name, p), (fname, f) in pairs:
            assert name == fname and f is not p
            assert np.shares_memory(f.data, p.data), name
            assert not f.requires_grad and f.grad is None
            assert p.requires_grad and np.all(p.grad == 0.5)
        assert frozen.config is params.config
        assert frozen.enc1.spatial.head_count == params.enc1.spatial.head_count

    def test_rollout_bytes_equal_and_no_tape(self):
        params = self._params()
        scene = _scene(5, seed=31, config=params.config)
        taped = rollout(scene, params, rng=np.random.default_rng(9))
        free = rollout(scene, params.frozen(), rng=np.random.default_rng(9))
        assert taped.requires_grad and taped._parents
        assert free.numpy().tobytes() == taped.numpy().tobytes()
        assert not free.requires_grad and free._parents == () and free._backward is None

    def test_ops_on_frozen_keep_no_parents(self, monkeypatch):
        # every Tensor made during a frozen rollout records no parents
        made = []
        real_init = Tensor.__init__

        def spy(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Tensor, "__init__", spy)
        params = self._params()
        frozen = params.frozen()
        made.clear()
        rollout(_scene(3, seed=32, config=params.config), frozen)
        monkeypatch.undo()
        assert len(made) > 100
        assert all(t._parents == () and not t.requires_grad for t in made)


def test_best_of_k_is_argmin_over_taped_rollouts():
    config = _config(deterministic=False)
    params = init_params(config, np.random.default_rng(11))
    scene = _scene(6, seed=33, config=config)
    got = best_of_k(scene, params, K=5, rng=np.random.default_rng(12))
    rng = np.random.default_rng(12)
    truth = scene.positions[:, config.obs_len:]
    mask = scene.targets[:, None] & scene.presence[:, config.obs_len:]
    preds = [rollout(scene, params, rng=rng) for _ in range(5)]
    assert all(p.requires_grad for p in preds)
    ades = [ade(p.numpy(), truth, mask) for p in preds]
    best = int(np.argmin(ades))
    assert got == (ades[best], fde(preds[best].numpy(), truth, mask))
    assert all(p.grad is None and p.requires_grad for _, p in params.parameters())
