"""Full model: embeddings, encoders, graph memory, decoder, rollout,
checkpoints, and the ablation variants.

Re-record the v1 fixture's gradients (only when they are meant to change;
its rollout and loss stay as the v1 code wrote them):
    PYTHONPATH=src python tests/test_model.py
"""

import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

import startraj.model
from startraj import (
    StarConfig, Tensor, best_of_k, build_graph, config_for_variant, decode_step,
    embed_inputs, encoder1, init_params, load_checkpoint, preprocess, rollout,
    save_checkpoint, scene_loss,
)
from startraj.data import merge_scenes
from startraj.errors import DataFormatError, NonFiniteError, ShapeMismatchError
from startraj.graph import scene_layout
from startraj.model import (
    VARIANT_FLAGS, GruParams, encoder2, encoder2_attention, temporal_recurrent,
)
from startraj.synthetic import simulate_scene

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
V1_CHECKPOINT = os.path.join(FIXTURES, "v1_tiny_checkpoint.json")
V1_EXPECTED = os.path.join(FIXTURES, "v1_tiny_expected.json")


def _config(**kw):
    base = dict(d_model=8, heads=2, obs_len=8, pred_len=3, deterministic=True,
                dropout=0.0, graph_threshold=10.0)
    base.update(kw)
    return StarConfig(**base)


def _scene(n=3, seed=0, total=None, obs=8, config=None):
    total = total if total is not None else obs + (config.pred_len if config else 3)
    return preprocess(simulate_scene(np.random.default_rng(seed), n_peds=n,
                                     total_len=total, obs_len=obs))


def _observed_graphs(scene, config):
    """build_graph's masks of a one-scene observed window, as rollout builds them."""
    obs = config.obs_len
    return build_graph(scene.world_positions()[:, :obs], scene.presence[:, :obs],
                       [(scene.n_peds, [(0, scene.n_peds)])], config.graph_threshold)


@pytest.fixture
def memory_trace(monkeypatch):
    """Record, per rollout step, the graph memory encoder 1 reads and the
    output encoder 2 returns."""
    reads, writes = [], []
    enc1, enc2 = startraj.model.encoder1, startraj.model.encoder2

    def read_spy(h_s, h_t, graphs, memory, *args):
        reads.append(memory)
        return enc1(h_s, h_t, graphs, memory, *args)

    def write_spy(*args, **kwargs):
        writes.append(enc2(*args, **kwargs))
        return writes[-1]

    monkeypatch.setattr(startraj.model, "encoder1", read_spy)
    monkeypatch.setattr(startraj.model, "encoder2", write_spy)
    return reads, writes


class TestConfig:
    def test_defaults_match_hyperparameters(self):
        c = StarConfig()
        assert (c.d_model, c.heads, c.dropout, c.obs_len, c.pred_len) == (32, 8, 0.1, 8, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            StarConfig(pred_len=0)
        with pytest.raises(ValueError):
            StarConfig(obs_len=1)
        with pytest.raises(ValueError):
            StarConfig(temporal_kind="conv")
        with pytest.raises(ValueError, match="heads"):
            StarConfig(heads=5)  # 32 is not divisible by 5
        with pytest.raises(ValueError, match="heads"):
            StarConfig(d_model=7, heads=1)  # positional encoding needs even d
        with pytest.raises(ValueError, match="heads"):
            StarConfig(heads=0)
        with pytest.raises(ValueError, match="dropout"):
            StarConfig(dropout=False)  # a bool is not a rate, though False == 0

    @pytest.mark.parametrize("setting", [
        dict(use_memory="maybe"), dict(deterministic=3), dict(use_encoder2=1),
        dict(teacher_forcing="no"),
    ])
    def test_boolean_settings_must_be_bool(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            StarConfig(**setting)

    def test_deterministic_drops_noise_columns(self):
        det = init_params(_config(deterministic=True), np.random.default_rng(0))
        sto = init_params(_config(deterministic=False, noise_dim=16),
                          np.random.default_rng(0))
        assert det.decoder.w.shape == (8, 2)
        assert sto.decoder.w.shape == (8 + 16, 2)

    def test_recurrent_forces_memory_off(self):
        c = StarConfig(temporal_kind="recurrent", use_memory=True)
        assert not c.use_memory

    def test_deterministic_is_stored_as_noise_dim_0(self):
        # an input, not a field: a model without decoder noise is stored one way
        c = StarConfig(deterministic=True, noise_dim=16)
        assert asdict(c) == asdict(StarConfig(noise_dim=0))
        assert c.noise_dim == 0 and "deterministic" not in asdict(c)
        assert StarConfig(deterministic=False, noise_dim=16).noise_dim == 16

    def test_memory_needs_encoder2(self):
        # the memory is encoder 2's transformer output
        assert StarConfig(use_encoder2=False, use_memory=True).use_memory is False
        assert StarConfig(use_encoder2=True, use_memory=True).use_memory is True

    @pytest.mark.parametrize("variant", [None, *VARIANT_FLAGS])
    def test_stored_config_rebuilds_itself(self, variant):
        for base in (StarConfig(), StarConfig(deterministic=True)):
            c = base if variant is None else config_for_variant(variant, base)
            assert StarConfig(**asdict(c)) == c
            assert all(getattr(c, k) == v for k, v in VARIANT_FLAGS.get(variant, {}).items())

    def test_variant_flags(self):
        # full vs no_memory differ only in use_memory
        full, nomem = VARIANT_FLAGS["full"], VARIANT_FLAGS["no_memory"]
        assert {k for k in full if full[k] != nomem[k]} == {"use_memory"}
        lstm = VARIANT_FLAGS["lstm_temporal"]
        assert lstm["temporal_kind"] == "recurrent" and not lstm["use_memory"]
        assert not VARIANT_FLAGS["single_encoder"]["use_encoder2"]
        with pytest.raises(ValueError):
            config_for_variant("bogus")

    def test_config_round_trip(self):
        c = _config(pred_len=5)
        assert StarConfig.from_dict(c.to_dict()).to_dict() == c.to_dict()


class TestEmbedInputs:
    def test_zero_weights_give_relu_bias(self):
        # [TRIVIAL]
        params = init_params(_config(), np.random.default_rng(0))
        params.embed_spatial.w.data[:] = 0.0
        params.embed_spatial.b.data[:] = np.linspace(-1, 1, 8)
        h_s, _ = embed_inputs(Tensor(np.ones((2, 4, 2))), params)
        expect = np.maximum(np.linspace(-1, 1, 8), 0.0)
        np.testing.assert_array_equal(h_s.numpy(), np.tile(expect, (2, 4, 1)))

    def test_pointwise_map(self):
        # [TRIVIAL] identical positions -> identical embeddings
        params = init_params(_config(), np.random.default_rng(1))
        pos = np.zeros((1, 3, 2))
        pos[0, 0] = pos[0, 2] = [1.5, -0.5]
        h_s, h_t = embed_inputs(Tensor(pos), params)
        np.testing.assert_array_equal(h_s.numpy()[0, 0], h_s.numpy()[0, 2])
        np.testing.assert_array_equal(h_t.numpy()[0, 0], h_t.numpy()[0, 2])

    def test_linear_relu_oracle(self):
        # [DERIVED] compose-primitives oracle in plain numpy
        params = init_params(_config(), np.random.default_rng(2))
        pos = np.random.default_rng(3).standard_normal((2, 5, 2))
        h_s, h_t = embed_inputs(Tensor(pos), params)
        exp_s = np.maximum(pos @ params.embed_spatial.w.numpy()
                           + params.embed_spatial.b.numpy(), 0.0)
        exp_t = np.maximum(pos @ params.embed_temporal.w.numpy()
                           + params.embed_temporal.b.numpy(), 0.0)
        np.testing.assert_allclose(h_s.numpy(), exp_s, atol=1e-12)
        np.testing.assert_allclose(h_t.numpy(), exp_t, atol=1e-12)

    def test_embeddings_are_separate_layers(self):
        params = init_params(_config(), np.random.default_rng(4))
        assert not np.array_equal(params.embed_spatial.w.numpy(),
                                  params.embed_temporal.w.numpy())


class TestRolloutMemory:
    def test_write_read_round_trip_bit_exact(self, memory_trace):
        # [TRIVIAL] Eq. 12: identity read of the previous step's write
        reads, writes = memory_trace
        config = _config()
        rollout(_scene(n=3, seed=0, config=config),
                init_params(config, np.random.default_rng(0)))
        for s in range(1, config.pred_len):
            assert reads[s] is writes[s - 1]

    def test_empty_memory(self, memory_trace):
        # [TRIVIAL] nothing to read at step 0, nor ever with memory off
        reads, _ = memory_trace
        for use_memory in (True, False):
            reads.clear()
            config = _config(use_memory=use_memory)
            rollout(_scene(n=2, seed=1, config=config),
                    init_params(config, np.random.default_rng(1)))
            assert reads[0] is None
            assert all(r is None for r in reads) == (not use_memory)

    def test_replace_semantics(self, memory_trace):
        # [TRIVIAL] Eq. 13: each write replaces the memory wholesale, so a
        # read holds exactly the previous step's L-1 steps, not a history
        reads, writes = memory_trace
        config = _config(pred_len=4)
        rollout(_scene(n=2, seed=2, config=config),
                init_params(config, np.random.default_rng(2)))
        for s in range(1, config.pred_len):
            assert reads[s].shape == (2, config.obs_len + s - 1, config.d_model)
            assert reads[s] is not reads[s - 1]


class TestEncoders:
    def _setup(self, config=None, seed=5):
        config = config or _config()
        params = init_params(config, np.random.default_rng(seed))
        scene = _scene(n=3, seed=seed, config=config)
        presence = scene.presence[:, : config.obs_len]
        graphs = _observed_graphs(scene, config)
        h_s, h_t = embed_inputs(Tensor(scene.positions[:, : config.obs_len]), params)
        return config, params, scene_layout([3]), graphs, presence, h_s, h_t

    def test_memory_step_mismatch_rejected(self):
        config, params, layout, graphs, presence, h_s, h_t = self._setup()
        mem = Tensor(np.zeros((3, 3, config.d_model)))  # needs obs_len-1 = 7
        with pytest.raises(ShapeMismatchError):
            encoder1(h_s, h_t, graphs, mem, params, presence, layout)

    def test_zero_fusion_weights_constant_output(self):
        # [TRIVIAL]
        config, params, layout, graphs, presence, h_s, h_t = self._setup()
        params.fusion.w.data[:] = 0.0
        params.fusion.b.data[:] = 3.0
        out = encoder1(h_s, h_t, graphs, None, params, presence, layout).numpy()
        np.testing.assert_array_equal(out[presence], 3.0)

    def test_encoder1_compose_oracle(self):
        # [DERIVED] encoder1 without memory = fusion(concat(spatial, temporal))
        from startraj.graph import spatial_block
        from startraj.attention import temporal_block

        config, params, layout, graphs, presence, h_s, h_t = self._setup()
        out = encoder1(h_s, h_t, graphs, None, params, presence, layout).numpy()
        spatial = spatial_block(h_s, graphs, params.enc1.spatial, layout).numpy()
        temporal = temporal_block(h_t, params.enc1.temporal, presence).numpy()
        expect = (np.concatenate([spatial, temporal], axis=-1)
                  @ params.fusion.w.numpy() + params.fusion.b.numpy())
        expect *= presence[:, :, None]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_encoder1_memory_concat_along_time(self):
        # with memory holding steps 1..L-1, the temporal branch consumes
        # memory + current last-step embedding
        from startraj.attention import temporal_block

        config, params, layout, graphs, presence, h_s, h_t = self._setup()
        L = config.obs_len
        mem_content = Tensor(np.random.default_rng(6).standard_normal((3, L - 1, 8)))
        out = encoder1(h_s, h_t, graphs, mem_content, params, presence, layout).numpy()
        seq = np.concatenate([mem_content.numpy(), h_t.numpy()[:, L - 1 : L]], axis=1)
        from startraj.graph import spatial_block
        spatial = spatial_block(h_s, graphs, params.enc1.spatial, layout).numpy()
        temporal = temporal_block(Tensor(seq), params.enc1.temporal, presence).numpy()
        expect = (np.concatenate([spatial, temporal], axis=-1)
                  @ params.fusion.w.numpy() + params.fusion.b.numpy())
        expect *= presence[:, :, None]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_encoder2_ablated_is_identity(self):
        # [PAPER: Table 2 row (6)] use_encoder2=false -> passthrough
        config = _config(use_encoder2=False)
        params = init_params(config, np.random.default_rng(7))
        h = Tensor(np.random.default_rng(8).standard_normal((2, 4, 8)))
        out = encoder2(h, [], params, np.ones((2, 4), dtype=bool), scene_layout([2]))
        assert out is h
        assert params.enc2 is None

    def test_encoder2_writes_memory(self, memory_trace):
        # the memory is encoder 2's output; with encoder 2 ablated nothing is
        # written even though memory is on
        reads, writes = memory_trace
        for use_encoder2 in (True, False):
            reads.clear()
            writes.clear()
            config = _config(use_encoder2=use_encoder2)
            rollout(_scene(n=2, seed=3, config=config),
                    init_params(config, np.random.default_rng(3)))
            expect = writes[:-1] if use_encoder2 else [None] * (len(reads) - 1)
            assert all(r is w for r, w in zip(reads[1:], expect))

    def test_encoder2_compose_oracle(self):
        # [DERIVED] spatial_block then temporal_block
        from startraj.graph import spatial_block
        from startraj.attention import temporal_block

        config, params, layout, graphs, presence, h_s, h_t = self._setup()
        out = encoder2(h_t, graphs, params, presence, layout).numpy()
        spatial = spatial_block(h_t, graphs, params.enc2.spatial, layout)
        expect = temporal_block(spatial, params.enc2.temporal, presence).numpy()
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestDecodeStep:
    def test_zero_weights_bias_prediction(self):
        # [TRIVIAL]
        params = init_params(_config(), np.random.default_rng(9))
        params.decoder.w.data[:] = 0.0
        params.decoder.b.data[:] = [0.5, -0.5]
        out = decode_step(Tensor(np.random.default_rng(10).standard_normal((4, 8))),
                          None, params)
        np.testing.assert_array_equal(out.numpy(), np.tile([0.5, -0.5], (4, 1)))

    def test_deterministic_repeatable(self):
        # [TRIVIAL]
        params = init_params(_config(), np.random.default_rng(11))
        h = Tensor(np.random.default_rng(12).standard_normal((3, 8)))
        a = decode_step(h, None, params).numpy()
        b = decode_step(h, None, params).numpy()
        np.testing.assert_array_equal(a, b)

    def test_noise_changes_output(self):
        # [TRIVIAL] linearity: different noise -> different output
        config = _config(deterministic=False, noise_dim=4)
        params = init_params(config, np.random.default_rng(13))
        h = Tensor(np.random.default_rng(14).standard_normal((3, 8)))
        rng = np.random.default_rng(15)
        a = decode_step(h, Tensor(rng.standard_normal((3, 4))), params).numpy()
        b = decode_step(h, Tensor(rng.standard_normal((3, 4))), params).numpy()
        assert np.any(a != b)
        # ... unless the noise columns are zeroed
        params.decoder.w.data[8:] = 0.0
        a = decode_step(h, Tensor(rng.standard_normal((3, 4))), params).numpy()
        b = decode_step(h, Tensor(rng.standard_normal((3, 4))), params).numpy()
        np.testing.assert_array_equal(a, b)


class TestRollout:
    def test_output_shape_default_config(self):
        # spec shape contract: N x 12 x 2 under defaults
        config = StarConfig(deterministic=True, dropout=0.0)
        params = init_params(config, np.random.default_rng(16))
        scene = _scene(n=3, seed=16, total=20)
        out = rollout(scene, params)
        assert out.shape == (3, 12, 2)

    def test_pred_len_one(self):
        # [TRIVIAL] single encoder pass + decode
        config = _config(pred_len=1)
        params = init_params(config, np.random.default_rng(17))
        out = rollout(_scene(n=2, seed=17, total=9), params)
        assert out.shape == (2, 1, 2)

    def test_determinism_bit_identical(self):
        config = _config()
        params = init_params(config, np.random.default_rng(18))
        scene = _scene(n=3, seed=18, config=config)
        a = rollout(scene, params, rng=np.random.default_rng(0)).numpy()
        b = rollout(scene, params, rng=np.random.default_rng(0)).numpy()
        np.testing.assert_array_equal(a, b)

    def test_stochastic_same_seed_identical_different_seed_not(self):
        config = _config(deterministic=False, noise_dim=4)
        params = init_params(config, np.random.default_rng(19))
        scene = _scene(n=3, seed=19, config=config)
        a = rollout(scene, params, rng=np.random.default_rng(5)).numpy()
        b = rollout(scene, params, rng=np.random.default_rng(5)).numpy()
        c = rollout(scene, params, rng=np.random.default_rng(6)).numpy()
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_far_apart_pedestrians_match_solo_rollouts(self):
        # [TRIVIAL per spec] locality through every block: pedestrians never
        # within d of each other predict exactly as if alone
        config = _config(graph_threshold=2.0)
        params = init_params(config, np.random.default_rng(20))
        solo_a = _scene(n=1, seed=21, config=config)
        solo_b = _scene(n=1, seed=22, config=config)
        solo_b = type(solo_b)(
            ped_ids=["far"], positions=solo_b.positions, presence=solo_b.presence,
            obs_len=solo_b.obs_len, origins=solo_b.origins + 1000.0,
        )
        from startraj.data import merge_scenes
        pair = merge_scenes([solo_a, solo_b]).scene  # rolled out as one scene: graphs allowed
        out_pair = rollout(pair, params).numpy()
        out_a = rollout(solo_a, params).numpy()
        out_b = rollout(solo_b, params).numpy()
        # solo runs use different matmul shapes, so equality is to rounding
        np.testing.assert_allclose(out_pair[0], out_a[0], atol=1e-12)
        np.testing.assert_allclose(out_pair[1], out_b[0], atol=1e-12)

        # the bit-identical form of the invariant: perturbing the far-away
        # pedestrian's track leaves the other's prediction byte-for-byte equal
        moved = type(pair)(
            ped_ids=list(pair.ped_ids), positions=pair.positions.copy(),
            presence=pair.presence.copy(), obs_len=pair.obs_len,
            origins=pair.origins.copy(),
        )
        moved.positions[1] += 0.25  # stays >> d away from pedestrian 0
        out_moved = rollout(moved, params).numpy()
        np.testing.assert_array_equal(out_pair[0], out_moved[0])
        assert np.any(out_pair[1] != out_moved[1])

    def test_memory_replace_semantics_during_rollout(self, memory_trace):
        # the first step's encoder-2 output covers all obs_len steps and is
        # what the second step reads; a manual encoder pass reproduces it
        reads, writes = memory_trace
        config = _config(pred_len=2)
        params = init_params(config, np.random.default_rng(23))
        scene = _scene(n=2, seed=23, total=10)
        rollout(scene, params)
        assert reads[1] is writes[0]
        assert writes[0].shape == (2, config.obs_len, config.d_model)

        graphs = _observed_graphs(scene, config)
        presence = scene.presence[:, : config.obs_len]
        h_s, h_t = embed_inputs(Tensor(scene.positions[:, : config.obs_len]), params)
        layout = scene_layout([scene.n_peds])
        fused = encoder1(h_s, h_t, graphs, None, params, presence, layout)
        enc = encoder2(fused, graphs, params, presence, layout)
        np.testing.assert_array_equal(enc.numpy(), writes[0].numpy())

    def test_non_finite_prediction_names_step(self):
        # finite weights that overflow in the decoder; a NaN weight is caught
        # before the first step, when the eval rollout freezes the parameters
        config = _config()
        scene = _scene(n=2, seed=35, config=config)
        params = init_params(config, np.random.default_rng(35))
        params.decoder.w.data[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="non-finite predicted position "
                                                     "at rollout step 0"):
                rollout(scene, params)
        params.decoder.w.data[:] = np.nan
        with pytest.raises(NonFiniteError, match="tensor initialized with non-finite"):
            rollout(scene, params)

    @pytest.mark.parametrize("layer", ["enc1.spatial", "enc2.spatial", "enc1.temporal.attn"])
    def test_overflowing_attention_names_the_weights(self, layer):
        # finite query and key weights whose logits overflow: the attention
        # core names the failure, in the eval and in the training rollout
        config = _config()
        scene = _scene(n=3, seed=39, config=config)
        params = init_params(config, np.random.default_rng(39))
        named = dict(params.parameters())
        for w in ("wq", "wk"):
            named[f"{layer}.{w}"].data[:] = 1e300
        for training in (False, True):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteError, match="^non-finite attention weights$"):
                rollout(scene, params, training=training)

    def test_forced_rollout_needs_the_future(self):
        # teacher forcing reads pred_len - 1 future steps of ground truth; an
        # eval rollout reads none
        params = init_params(_config(teacher_forcing=True), np.random.default_rng(36))
        scene = _scene(n=2, seed=36, total=10)
        with pytest.raises(DataFormatError, match="teacher forcing needs 3 future steps"):
            rollout(scene, params, training=True)
        assert rollout(scene, params).shape == (2, 3, 2)

    def test_every_parameter_gets_gradient(self):
        # spec invariant: no dead branches for a generic scene + L2 loss
        config = _config()
        params = init_params(config, np.random.default_rng(24))
        scene = _scene(n=3, seed=24, config=config)
        pred = rollout(scene, params, training=True)
        ((pred * pred).sum() * (1.0 / pred.size)).backward()
        for name, p in params.parameters():
            assert p.grad is not None and np.any(p.grad != 0.0), name

    @pytest.mark.parametrize("obs_len", [6, 10])
    def test_observed_window_mismatch_rejected(self, obs_len):
        # an 8-step observed window under a model that observes 6 or 10
        params = init_params(_config(obs_len=obs_len), np.random.default_rng(37))
        scene = _scene(n=3, seed=37, obs=8, total=11)
        with pytest.raises(DataFormatError, match=f"observes 8 steps.*needs {obs_len}"):
            rollout(scene, params)
        with pytest.raises(DataFormatError, match="observes 8 steps"):
            encoder2_attention(scene, params)


class TestEncoder2Attention:
    def _scene_with_absences(self, config, seed):
        """Five pedestrians, one arriving at step 2 and one leaving after
        step 4, so that absent slots sit in the observed window."""
        sim = simulate_scene(np.random.default_rng(seed), n_peds=5,
                             total_len=config.obs_len + config.pred_len)
        sim.presence[3, :2] = False
        sim.presence[4, 5:] = False
        sim.positions[~sim.presence] = 0.0
        return preprocess(sim)

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(temporal_kind="recurrent"),
        # heads == obs_len: a (t, N, N) mask would broadcast t against heads
        dict(d_model=16, heads=8, deterministic=False, noise_dim=4),
    ], ids=["transformer", "recurrent", "heads-equal-steps"])
    def test_equals_step0_weights_of_rollout(self, kw, spatial_weights):
        config = _config(**kw)
        params = init_params(config, np.random.default_rng(38))
        scene = self._scene_with_absences(config, seed=38)
        assert not scene.presence[:, :config.obs_len].all()
        rollout(scene, params, rng=np.random.default_rng(7))
        # one scene: encoder 1's spatial call, then encoder 2's, per step
        _, step0 = spatial_weights[1]  # (t, S = 1, heads, N, N)
        weights = encoder2_attention(scene, params)
        assert weights.shape == (config.obs_len, config.heads, 5, 5)
        assert np.array_equal(weights, step0[:, 0])


class TestRecurrentVariant:
    def _gru_oracle(self, x, p):
        """Independent numpy GRU recursion."""
        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))
        n, t, d = x.shape
        h = np.zeros((n, d))
        outs = []
        for s in range(t):
            xs = x[:, s]
            z = sig(xs @ p.wz.numpy() + h @ p.uz.numpy() + p.bz.numpy())
            r = sig(xs @ p.wr.numpy() + h @ p.ur.numpy() + p.br.numpy())
            cand = np.tanh(xs @ p.wn.numpy() + (r * h) @ p.un.numpy() + p.bn.numpy())
            h = (1 - z) * cand + z * h
            outs.append(h)
        return np.stack(outs, axis=1)

    def test_zero_input_follows_bias_recursion(self):
        # [DERIVED] scalar recurrence oracle with non-zero gate biases
        rng = np.random.default_rng(26)
        p = GruParams.init(4, rng)
        for b in (p.bz, p.br, p.bn):
            b.data[:] = rng.standard_normal(4)
        x = np.zeros((1, 5, 4))
        out = temporal_recurrent(Tensor(x), p, np.ones((1, 5), dtype=bool)).numpy()
        np.testing.assert_allclose(out, self._gru_oracle(x, p), atol=1e-12)

    def test_single_step(self):
        # [TRIVIAL] t=1: one recurrence from zero hidden state
        rng = np.random.default_rng(27)
        p = GruParams.init(4, rng)
        x = rng.standard_normal((2, 1, 4))
        out = temporal_recurrent(Tensor(x), p, np.ones((2, 1), dtype=bool)).numpy()
        np.testing.assert_allclose(out, self._gru_oracle(x, p), atol=1e-12)

    def test_per_pedestrian_independence(self):
        # [TRIVIAL]
        rng = np.random.default_rng(28)
        p = GruParams.init(4, rng)
        x = rng.standard_normal((2, 6, 4))
        a = temporal_recurrent(Tensor(x), p, np.ones((2, 6), dtype=bool)).numpy()
        x2 = x.copy()
        x2[1] += 3.0
        b = temporal_recurrent(Tensor(x2), p, np.ones((2, 6), dtype=bool)).numpy()
        np.testing.assert_array_equal(a[0], b[0])

    def test_recurrent_rollout_runs(self):
        config = _config(temporal_kind="recurrent")
        params = init_params(config, np.random.default_rng(29))
        out = rollout(_scene(n=2, seed=29, config=config), params)
        assert out.shape == (2, 3, 2)
        assert params.enc1.gru is not None and params.enc1.temporal is None


def _v1_scene():
    return preprocess(simulate_scene(np.random.default_rng(2020), n_peds=3, total_len=11,
                                     obs_len=8))


def _v1_fixture_values(params):
    """The rollout, scene_loss and every gradient (by name, flattened) of the
    v1 checkpoint's model on the v1 fixture's scene."""
    scene = _v1_scene()
    pred = rollout(scene, params, rng=np.random.default_rng(0)).numpy()
    loss = scene_loss(merge_scenes([scene]), params, np.random.default_rng(1))
    loss.backward()
    grads = {name: p.grad.ravel().tolist() for name, p in params.parameters()}
    return {"rollout": pred.tolist(), "loss": loss.item(), "grads": grads}


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        config = _config(pred_len=2)
        params = init_params(config, np.random.default_rng(30))
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config.to_dict() == config.to_dict()
        for (na, a), (nb, b) in zip(params.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(a.numpy(), b.numpy())

    def test_rollout_identical_after_reload(self, tmp_path):
        config = _config()
        params = init_params(config, np.random.default_rng(31))
        scene = _scene(n=2, seed=31, config=config)
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(
            rollout(scene, params).numpy(), rollout(scene, loaded).numpy()
        )

    def test_v1_fixture_bit_identical(self, tmp_path):
        # a v1 checkpoint (d_model 8, 2 heads) with the rollout and scene_loss
        # recorded by the v1 code, and every gradient; the loaded model must
        # reproduce them exactly, before and after a v2 save/load
        params = load_checkpoint(V1_CHECKPOINT)
        with open(V1_EXPECTED) as fh:
            expected = json.load(fh)
        got = _v1_fixture_values(params)
        np.testing.assert_array_equal(got["rollout"], expected["rollout"])
        assert got["loss"] == expected["loss"]
        assert len(got["grads"]) == len(expected["grads"])
        for (name, grad), want in zip(got["grads"].items(), expected["grads"]):
            np.testing.assert_array_equal(grad, want, err_msg=name)

        path = str(tmp_path / "v2.json")
        save_checkpoint(path, params)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["version"] == 2
        assert "enc1.spatial.wo" in payload["params"]
        assert not any("w_out" in name for name in payload["params"])
        again = rollout(_v1_scene(), load_checkpoint(path), rng=np.random.default_rng(0))
        np.testing.assert_array_equal(again.numpy(), expected["rollout"])

    # configs as releases before noise_dim 0 and use_memory were stored one
    # way wrote them: canonical fields, then these entries
    EARLIER_CONFIGS = {
        "deterministic with noise_dim 16": (
            dict(noise_dim=0), {"deterministic": True, "noise_dim": 16}),
        "memory without encoder 2": (
            dict(deterministic=False, noise_dim=4, use_encoder2=False),
            {"deterministic": False, "use_memory": True}),
    }

    @pytest.mark.parametrize("case", [*EARLIER_CONFIGS, "v1 fixture"])
    def test_earlier_configs_load_canonical(self, tmp_path, case):
        # an earlier checkpoint loads the model that its canonical config
        # saves: same config, same arrays, same rollout and best-of-K bytes
        canonical_path, earlier_path = tmp_path / "canonical.json", tmp_path / "earlier.json"
        if case == "v1 fixture":
            earlier_path = os.path.join(FIXTURES, "v1_tiny_checkpoint.json")
            with open(earlier_path) as fh:
                written = json.load(fh)["config"]
            config = StarConfig(**{k: v for k, v in written.items() if k != "deterministic"})
            save_checkpoint(str(canonical_path), load_checkpoint(earlier_path))
        else:
            flags, entries = self.EARLIER_CONFIGS[case]
            config = _config(**flags)
            save_checkpoint(str(canonical_path), init_params(config, np.random.default_rng(4)))
            payload = json.loads(canonical_path.read_text())
            payload["config"].update(entries)
            earlier_path.write_text(json.dumps(payload))
        assert "deterministic" not in json.loads(canonical_path.read_text())["config"]
        earlier = load_checkpoint(str(earlier_path))
        canonical = load_checkpoint(str(canonical_path))
        assert earlier.config == canonical.config == config
        for (name, a), (_, b) in zip(earlier.parameters(), canonical.parameters(), strict=True):
            assert a.data.tobytes() == b.data.tobytes(), name
        scene = _scene(n=4, seed=6, config=config)
        outs = [(rollout(scene, p, rng=np.random.default_rng(1)).numpy().tobytes(),
                 best_of_k(scene, p, K=5, rng=np.random.default_rng(2)))
                for p in (earlier, canonical)]
        assert outs[0] == outs[1]

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataFormatError, match="not a"):
            load_checkpoint(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        config = _config()
        params = init_params(config, np.random.default_rng(32))
        path = tmp_path / "ck.json"
        save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        # true == 1 and 2.0 == 2, but only an int names a version
        for version in (99, True, 1.0, 2.0, "2"):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(DataFormatError, match="unsupported checkpoint version"):
                load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        config = _config()
        params = init_params(config, np.random.default_rng(33))
        path = tmp_path / "ck.json"
        save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        del payload["params"]["decoder.w"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="decoder.w"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        config = _config()
        params = init_params(config, np.random.default_rng(34))
        path = tmp_path / "ck.json"
        save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        payload["params"]["decoder.b"]["shape"] = [3]
        payload["params"]["decoder.b"]["values"] = [0.0, 0.0, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="shape"):
            load_checkpoint(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        params = init_params(_config(), np.random.default_rng(35))
        path = tmp_path / "ck.json"
        save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        payload["params"]["enc1.spatial.wq"]["values"][3] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="enc1.spatial.wq"):
            load_checkpoint(path)


def _reachable_tensors(obj, seen):
    """Brute-force scan: every Tensor reachable from obj through object
    attributes, lists, tuples and dicts, each once."""
    if isinstance(obj, Tensor):
        if id(obj) not in seen:
            seen.add(id(obj))
            yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return
    for child in children:
        yield from _reachable_tensors(child, seen)


class TestParameterLayout:
    """parameters() against the v2 layout recorded from the flat containers
    that preceded the field walk, and against a scan of the containers."""

    with open(os.path.join(FIXTURES, "v2_param_layout.json")) as fh:
        LAYOUT = json.load(fh)

    @staticmethod
    def _params(key, seed):
        variant, mode = key.split("/")
        base = StarConfig(deterministic=mode == "deterministic")
        return init_params(config_for_variant(variant, base), np.random.default_rng(seed))

    @pytest.mark.parametrize("key", sorted(LAYOUT["layouts"]))
    def test_names_order_shapes_and_init_bytes_pinned(self, key):
        expected = self.LAYOUT["layouts"][key]
        named = self._params(key, self.LAYOUT["seed"]).parameters()
        assert [[n, list(t.shape)] for n, t in named] == expected["params"]
        digest = hashlib.sha256()
        for _, t in named:
            digest.update(t.data.tobytes())
        assert digest.hexdigest() == expected["sha256"]

    @pytest.mark.parametrize("key", sorted(LAYOUT["layouts"]))
    def test_every_reachable_tensor_listed_once(self, key):
        params = self._params(key, 0)
        listed = [id(t) for _, t in params.parameters()]
        assert len(listed) == len(set(listed))
        assert set(listed) == {id(t) for t in _reachable_tensors(params, set())}


if __name__ == "__main__":
    # the rollout and loss were recorded by the v1 code and must not move:
    # this rewrites the gradients alone
    got = _v1_fixture_values(load_checkpoint(V1_CHECKPOINT))
    with open(V1_EXPECTED) as fh:
        expected = json.load(fh)
    assert got["rollout"] == expected["rollout"] and got["loss"] == expected["loss"]
    expected["grads"] = list(got["grads"].values())
    with open(V1_EXPECTED, "w") as fh:
        json.dump(expected, fh)
    print(f"wrote {len(expected['grads'])} gradients to {V1_EXPECTED}")
