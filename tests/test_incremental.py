"""The eval rollout runs encoder 1's TGConv on each step once, and runs on
frozen parameters with no tape, whatever parameters it is given. Oracles:
the full re-encode of every step, rebuilt here from the library's encoder
pieces; rollouts on frozen parameters; and the training path, which still
re-encodes everything."""

import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import startraj.attention
import startraj.model
import startraj.trainer
from startraj import (
    StarConfig, Tensor, best_of_k, evaluate, init_params, preprocess, rollout, scene_loss,
)
from startraj.data import TrajectoryScene, merge_scenes
from startraj.graph import build_graph, scene_layout
from startraj.model import VARIANT_FLAGS, decode_step, embed_inputs, encoder1, encoder2
from startraj.optim import zero_grads
from startraj.synthetic import simulate_scene
from startraj.trainer import ROW_BUDGET, ade, fde


def _config(variant="full", **kw):
    base = dict(d_model=8, heads=2, obs_len=8, pred_len=3, dropout=0.0, noise_dim=4,
                graph_threshold=6.0, **VARIANT_FLAGS[variant])
    base.update(kw)
    return StarConfig(**base)


def _scene(n, seed, config):
    return preprocess(simulate_scene(np.random.default_rng(seed), n_peds=n,
                                     total_len=config.obs_len + config.pred_len))


def _crowd(n, seed, config):
    """A preprocessed n-pedestrian scene. From three pedestrians up, row 1
    enters after the first observed step, so it gets no prediction, and row 2
    leaves before the last step, so it rolls out but is no target."""
    sim = simulate_scene(np.random.default_rng(seed), n_peds=n,
                         total_len=config.obs_len + config.pred_len)
    presence = sim.presence.copy()
    if n >= 3:
        presence[1, :2] = False
        presence[2, -1] = False
    positions = np.where(presence[:, :, None], sim.positions, 0.0)
    return preprocess(TrajectoryScene(sim.ped_ids, positions, presence, sim.obs_len))


EVAL_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "eval_expected.json")
EVAL_SIZES = (1, 3, 8, 17, 40)


def _eval_values():
    """evaluate's (ade, fde) per variant and deterministic flag on one seeded
    scene set of every size in EVAL_SIZES, keyed "variant/deterministic"."""
    values = {}
    for variant, deterministic in itertools.product(VARIANT_FLAGS, [False, True]):
        config = _config(variant, deterministic=deterministic, pred_len=4)
        params = init_params(config, np.random.default_rng(40))
        scenes = [_crowd(n, seed=50 + n, config=config) for n in EVAL_SIZES]
        values[f"{variant}/{deterministic}"] = evaluate(params, scenes, K=20, seed=7)[:2]
    return values


def _full_reencode(scene, params, rng, sizes=None, truth_positions=None):
    """The rollout as it was before the per-step caches: every step embeds
    the whole history, builds the masks of the whole window, and runs both
    encoders on all of it. With truth_positions (teacher forcing), a step
    appends the truth of the rollers the scene has there, and the others
    absent."""
    config, n = params.config, scene.n_peds
    layout = scene_layout([n] if sizes is None else sizes)
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
        if config.use_memory:
            memory = enc
        noise = Tensor(rng.standard_normal((n, config.noise_dim)))
        step = decode_step(enc[:, -1, :], noise, params).numpy() * rollers[:, None]
        preds.append(step)
        present = rollers
        if truth_positions is not None:
            present = rollers & scene.presence[:, obs + s]
            step = np.where(present[:, None], truth_positions[:, obs + s], 0.0)
        history = np.concatenate([history, step[:, None]], axis=1)
        world = np.concatenate([world, (step + scene.origins)[:, None]], axis=1)
        presence = np.concatenate([presence, present[:, None]], axis=1)
    return np.stack(preds, axis=1)


class TestIncrementalRollout:
    @pytest.mark.parametrize("variant, deterministic", itertools.product(
        VARIANT_FLAGS, [True, False]))
    def test_matches_full_reencode_bit_for_bit(self, variant, deterministic):
        # forced: a training rollout under teacher forcing, which with dropout
        # off re-encodes the full history as the oracle does
        for forced in (False, True):
            config = _config(variant, deterministic=deterministic, teacher_forcing=forced)
            params = init_params(config, np.random.default_rng(3))
            for n in (1, 2, 5, 17):
                scene = _scene(n, seed=10 + n, config=config)
                got = rollout(scene, params, rng=np.random.default_rng(n),
                              training=forced).numpy()
                want = _full_reencode(scene, params, np.random.default_rng(n),
                                      truth_positions=scene.positions if forced else None)
                np.testing.assert_array_equal(got, want, err_msg=f"n={n} forced={forced}")

    @pytest.mark.parametrize("variant", VARIANT_FLAGS)
    def test_forced_leaver_is_absent_where_the_data_is(self, variant, monkeypatch):
        # under teacher forcing, row 1 (gone after the observed window) and
        # row 3 (missing from one future step) are appended absent there:
        # absent from the temporal masks and keys and the graph, so TGConv
        # gives them their self-loop alone
        config = _config(variant, teacher_forcing=True)
        obs = config.obs_len
        sim = simulate_scene(np.random.default_rng(95), n_peds=5,
                             total_len=obs + config.pred_len)
        presence = sim.presence.copy()
        presence[1, obs:] = False
        presence[3, obs + 1] = False
        positions = np.where(presence[:, :, None], sim.positions, 0.0)
        scene = preprocess(TrajectoryScene(sim.ped_ids, positions, presence, obs))
        assert scene.rollout_mask.all()
        time_masks, keys, graphs = [], [], []
        real_temporal, real_spatial = startraj.model._temporal, startraj.model.spatial_block
        real_attention = startraj.attention.masked_attention

        def temporal_spy(h, enc, time_mask):
            time_masks.append(time_mask)
            return real_temporal(h, enc, time_mask)

        def attention_spy(q, k, v, allow, heads):  # attention's global: temporal blocks only
            keys.append(allow[:, 0])
            return real_attention(q, k, v, allow, heads)

        def spatial_spy(h, masks, *args):
            graphs.append(masks[0][:, 0])  # one scene: (t, N, N)
            return real_spatial(h, masks, *args)

        monkeypatch.setattr(startraj.model, "_temporal", temporal_spy)
        monkeypatch.setattr(startraj.attention, "masked_attention", attention_spy)
        monkeypatch.setattr(startraj.model, "spatial_block", spatial_spy)
        params = init_params(config, np.random.default_rng(96))
        got = rollout(scene, params, rng=np.random.default_rng(97), training=True).numpy()
        monkeypatch.undo()
        want = presence[:, :obs + config.pred_len - 1]  # the last step is never appended
        assert np.array_equal(time_masks[-1], want)
        assert all(np.array_equal(m, want[:, :m.shape[1]]) for m in time_masks)
        if config.temporal_kind == "transformer":
            assert keys and all(np.array_equal(k, want[:, :k.shape[1]]) for k in keys)
        eye = np.eye(5, dtype=bool)
        for graph in graphs:
            for i, s in ((1, obs), (1, obs + 1), (3, obs + 1)):
                if s < len(graph):
                    assert np.array_equal(graph[s, i], eye[i])
                    assert np.array_equal(graph[s, :, i], eye[i])
        assert len(graphs[-1]) == len(want[0])
        reencoded = _full_reencode(scene, params, np.random.default_rng(97),
                                   truth_positions=scene.positions)
        np.testing.assert_array_equal(got, reencoded)

    @pytest.mark.parametrize("variant", VARIANT_FLAGS)
    def test_packed_mixed_layout_matches_full_reencode(self, variant):
        config = _config(variant, deterministic=False)
        params = init_params(config, np.random.default_rng(4))
        batch = merge_scenes([_scene(n, seed=20 + i, config=config)
                              for i, n in enumerate((3, 1, 3, 4))])
        got = rollout(batch.scene, params, rng=np.random.default_rng(5),
                      sizes=batch.sizes).numpy()
        want = _full_reencode(batch.scene, params, np.random.default_rng(5),
                              sizes=batch.sizes)
        np.testing.assert_array_equal(got, want)


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
        # an eval rollout freezes the parameters itself
        params = self._params()
        scene = _scene(5, seed=31, config=params.config)
        given = rollout(scene, params, rng=np.random.default_rng(9))
        free = rollout(scene, params.frozen(), rng=np.random.default_rng(9))
        assert free.numpy().tobytes() == given.numpy().tobytes()
        for out in (given, free):
            assert not out.requires_grad and out._parents == () and out._backward is None

    @staticmethod
    def _made_during_rollout(monkeypatch, params):
        """Every Tensor that an eval rollout of params creates."""
        made = []
        real_init = Tensor.__init__

        def spy(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Tensor, "__init__", spy)
        rollout(_scene(3, seed=32, config=params.config), params)
        monkeypatch.undo()
        return made

    def test_ops_on_frozen_keep_no_parents(self, monkeypatch):
        # every Tensor made during a frozen rollout records no parents
        made = self._made_during_rollout(monkeypatch, self._params().frozen())
        assert len(made) > 100
        assert all(t._parents == () and not t.requires_grad for t in made)

    def test_eval_rollout_on_taped_params_keeps_no_parents(self, monkeypatch):
        # the same without freezing first, and the caller's gradients stay
        params = self._params()
        made = self._made_during_rollout(monkeypatch, params)
        assert len(made) > 100
        assert all(t._parents == () and not t.requires_grad for t in made)
        for name, p in params.parameters():
            assert p.requires_grad and np.all(p.grad == 0.5), name


def test_best_of_k_is_argmin_over_taped_rollouts():
    # rollouts on the caller's taped parameters, which record no tape and
    # give the bytes of rollouts on frozen ones
    config = _config(deterministic=False)
    params = init_params(config, np.random.default_rng(11))
    scene = _scene(6, seed=33, config=config)
    got = best_of_k(scene, params, K=5, rng=np.random.default_rng(12))
    rng = np.random.default_rng(12)
    truth = scene.positions[:, config.obs_len:]
    mask = scene.targets[:, None] & scene.presence[:, config.obs_len:]
    preds = [rollout(scene, params, rng=rng) for _ in range(5)]
    assert all(not p.requires_grad and p._parents == () for p in preds)
    frozen = _sequential(scene, params.frozen(), 5, np.random.default_rng(12))
    assert np.concatenate([p.numpy() for p in preds]).tobytes() == frozen.tobytes()
    ades = [ade(p.numpy(), truth, mask) for p in preds]
    best = int(np.argmin(ades))
    assert got == (ades[best], fde(preds[best].numpy(), truth, mask))
    assert all(p.grad is None and p.requires_grad for _, p in params.parameters())


def _sequential(scene, params, copies, rng, sizes=None):
    """The packed rollout's oracle: `copies` rollouts one after another on
    one generator, stacked along the rows."""
    return np.concatenate([rollout(scene, params, rng=rng, sizes=sizes).numpy()
                           for _ in range(copies)])


class TestPackedSamples:
    """rollout(copies=) and best_of_k against sequential sampling on one
    generator. At noise_dim 4 (and 0) every case is bit-exact except copies
    of a single-pedestrian scene: there a one-row matmul becomes a many-row
    one, which rounds differently (up to 2e-15 seen); those agree to 1e-9.
    From noise_dim 8 up, the decoder's (rows, d_model + noise_dim) @ (., 2)
    matmul rounds by its row count, so at the default noise_dim copies are
    close to sequential rollouts, not bit-exact: see
    test_copies_at_default_noise_dim."""

    @pytest.mark.parametrize("variant, deterministic", itertools.product(
        VARIANT_FLAGS, [True, False]))
    def test_copies_match_sequential_rollouts(self, variant, deterministic):
        config = _config(variant, deterministic=deterministic)
        params = init_params(config, np.random.default_rng(13)).frozen()
        for n, copies in itertools.product(EVAL_SIZES, (1, 7, 20)):
            scene = _crowd(n, seed=60 + n, config=config)
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = rollout(scene, params, rng=rng, copies=copies).numpy()
            want = _sequential(scene, params, copies, ref_rng)
            case = f"n={n} copies={copies}"
            if n > 1 or copies == 1:
                np.testing.assert_array_equal(got, want, err_msg=case)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=case)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, case

    @pytest.mark.parametrize("variant", VARIANT_FLAGS)
    def test_copies_at_default_noise_dim(self, variant):
        # at noise_dim 16, d_model 8, copies of the 1-, 3- and 17-pedestrian
        # crowds were seen up to 4.4e-15 from sequential rollouts and those of
        # 8 and 40 bit-exact; one copy is one rollout, bit for bit. Bound:
        # 1e-12, and the generator ends where the sequential draws leave it
        config = _config(variant, noise_dim=StarConfig().noise_dim)
        assert config.noise_dim == 16
        params = init_params(config, np.random.default_rng(13)).frozen()
        for n, copies in itertools.product(EVAL_SIZES, (1, 7, 20)):
            scene = _crowd(n, seed=60 + n, config=config)
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = rollout(scene, params, rng=rng, copies=copies).numpy()
            want = _sequential(scene, params, copies, ref_rng)
            case = f"n={n} copies={copies}"
            if copies == 1:
                np.testing.assert_array_equal(got, want, err_msg=case)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=case)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, case

    @pytest.mark.parametrize("variant, deterministic", itertools.product(
        VARIANT_FLAGS, [True, False]))
    def test_best_of_k_matches_sequential_samples(self, variant, deterministic):
        config = _config(variant, deterministic=deterministic)
        params = init_params(config, np.random.default_rng(14))
        truth_at = config.obs_len
        for n, K in itertools.product(EVAL_SIZES, (1, 7, 20)):
            scene = _crowd(n, seed=70 + n, config=config)
            truth = scene.positions[:, truth_at:]
            mask = scene.targets[:, None] & scene.presence[:, truth_at:]
            rng, ref_rng = np.random.default_rng(K), np.random.default_rng(K)
            got = best_of_k(scene, params, K=K, rng=rng)
            preds = _sequential(scene, params.frozen(), K, ref_rng).reshape(K, n, -1, 2)
            ades = [ade(p, truth, mask) for p in preds]
            best = int(np.argmin(ades))
            want = (ades[best], fde(preds[best], truth, mask))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=f"n={n} K={K}")
            assert rng.bit_generator.state == ref_rng.bit_generator.state, f"n={n} K={K}"

    @pytest.mark.parametrize("n, K", itertools.product(EVAL_SIZES, (1, 7, 20)))
    def test_rollouts_and_step0_encodes_per_call(self, n, K, monkeypatch):
        # each rollout call encodes the full observed window once, on the
        # scene's own n rows, whatever number of samples it packs
        calls, full_windows = [], []
        real_rollout, real_encoder1 = startraj.trainer.rollout, startraj.model.encoder1

        def rollout_spy(*args, **kwargs):
            calls.append(kwargs.get("copies", 1))
            return real_rollout(*args, **kwargs)

        def encoder1_spy(h_spatial, *args, **kwargs):
            if h_spatial.shape[1] > 1:
                full_windows.append(h_spatial.shape[0])
            return real_encoder1(h_spatial, *args, **kwargs)

        monkeypatch.setattr(startraj.trainer, "rollout", rollout_spy)
        monkeypatch.setattr(startraj.model, "encoder1", encoder1_spy)
        config = _config(deterministic=False)
        params = init_params(config, np.random.default_rng(15))
        best_of_k(_crowd(n, seed=80 + n, config=config), params, K=K)
        chunk = max(1, ROW_BUDGET // n)
        assert len(calls) == math.ceil(K / chunk)
        assert sum(calls) == K and all(c == min(chunk, K) for c in calls[:-1])
        assert full_windows == [n] * len(calls)

    def test_copies_in_training_rejected(self):
        config = _config(deterministic=False)
        params = init_params(config, np.random.default_rng(18))
        scene = _crowd(3, seed=91, config=config)
        with pytest.raises(ValueError, match="copies"):
            rollout(scene, params, training=True, copies=2)
        with pytest.raises(ValueError, match="copies"):
            rollout(scene, params, copies=0)


def test_evaluate_matches_recorded_values():
    # recorded before best_of_k packed its samples: `startraj eval` output
    # must not move
    with open(EVAL_FIXTURE) as fh:
        expected = json.load(fh)
    got = _eval_values()
    assert list(got) == list(expected)
    for key, values in expected.items():
        np.testing.assert_allclose(got[key], values, rtol=1e-12, atol=1e-12, err_msg=key)


PROPERTY_EXAMPLES = 100
# (d_model, heads) pairs that StarConfig accepts
WIDTHS = [(2, 1), (4, 1), (4, 2), (6, 3), (8, 2), (8, 4)]
FF_DIMS = st.none() | st.integers(min_value=1, max_value=12)  # None: 2 * d_model


@st.composite
def _crowds(draw, obs_len, pred_len, max_scenes):
    """1 to max_scenes preprocessed scenes of 1-12 pedestrians. Each row is
    either present throughout or present on a drawn set of steps (at least
    one), so rows enter late, leave early and skip steps."""
    total = obs_len + pred_len
    scenes = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_scenes))):
        n = draw(st.integers(min_value=1, max_value=12))
        sim = simulate_scene(np.random.default_rng(draw(st.integers(0, 2 ** 16))),
                             n_peds=n, total_len=total, obs_len=obs_len)
        presence = sim.presence.copy()
        for i in range(n):
            if not draw(st.booleans()):
                steps = draw(st.lists(st.booleans(), min_size=total, max_size=total))
                steps[draw(st.integers(0, total - 1))] = True
                presence[i] = steps
        positions = np.where(presence[:, :, None], sim.positions, 0.0)
        scenes.append(preprocess(TrajectoryScene(sim.ped_ids, positions, presence, obs_len)))
    return scenes


def test_eval_rollout_properties():
    """Over drawn configs and 1-3 scenes packed with merge_scenes, the eval
    rollout equals the full re-encode, and rollout(copies=c) equals c
    sequential rollouts, bit for bit (a one-row batch only to 1e-9, as in
    TestPackedSamples). Runs PROPERTY_EXAMPLES examples, derandomized."""
    ran = []

    @settings(max_examples=PROPERTY_EXAMPLES)
    @given(variant=st.sampled_from(sorted(VARIANT_FLAGS)), deterministic=st.booleans(),
           width=st.sampled_from(WIDTHS), ff_dim=FF_DIMS,
           obs_len=st.integers(min_value=2, max_value=6),
           pred_len=st.integers(min_value=1, max_value=4),
           copies=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def check(variant, deterministic, width, ff_dim, obs_len, pred_len, copies, seed, data):
        d_model, heads = width
        config = _config(variant, deterministic=deterministic, d_model=d_model, heads=heads,
                         ff_dim=ff_dim, obs_len=obs_len, pred_len=pred_len)
        params = init_params(config, np.random.default_rng(seed))
        batch = merge_scenes(data.draw(_crowds(obs_len, pred_len, max_scenes=3)))
        scene, sizes, n = batch.scene, batch.sizes, batch.scene.n_peds
        got = rollout(scene, params, rng=np.random.default_rng(1), sizes=sizes).numpy()
        want = _full_reencode(scene, params, np.random.default_rng(1), sizes=sizes)
        np.testing.assert_array_equal(got, want)
        got = rollout(scene, params, rng=np.random.default_rng(2), sizes=sizes,
                      copies=copies).numpy()
        want = _sequential(scene, params, copies, np.random.default_rng(2), sizes=sizes)
        if n > 1 or copies == 1:
            np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        ran.append(n)

    check()
    assert len(ran) == PROPERTY_EXAMPLES


PACKING_EXAMPLES = 100


def _trained(batch, params):
    """A training rollout's rows, then scene_loss and every parameter's
    gradient, each times the loss's normaliser: max(2 * target slots, 1)."""
    scene = batch.scene
    rows = rollout(scene, params, rng=np.random.default_rng(0), sizes=batch.sizes,
                   training=True).numpy()
    norm = max(2.0 * (scene.targets[:, None] & scene.presence[:, scene.obs_len:]).sum(), 1.0)
    plist = params.parameters()
    zero_grads(plist)
    loss = scene_loss(batch, params, np.random.default_rng(0))
    loss.backward()
    return rows, [loss.item() * norm] + [p.grad * norm for _, p in plist]


def test_packing_properties():
    """Over drawn configs and 1-5 scenes packed with merge_scenes, a packed
    training rollout's rows equal each scene's solo rollout within 1e-9, and
    scene_loss and every parameter gradient, each times its normaliser,
    equal the sums of the solo ones within 1e-9 relative: of the loss, and
    of the largest gradient entry, since some entries (a key bias's, say)
    are 0 up to rounding. dropout and noise_dim are 0, since both draw per
    row. Runs PACKING_EXAMPLES examples, derandomized."""
    ran = []

    @settings(max_examples=PACKING_EXAMPLES)
    @given(variant=st.sampled_from(sorted(VARIANT_FLAGS)), teacher_forcing=st.booleans(),
           width=st.sampled_from(WIDTHS), ff_dim=FF_DIMS,
           obs_len=st.integers(min_value=2, max_value=6),
           pred_len=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def check(variant, teacher_forcing, width, ff_dim, obs_len, pred_len, seed, data):
        d_model, heads = width
        config = _config(variant, noise_dim=0, teacher_forcing=teacher_forcing,
                         d_model=d_model, heads=heads, ff_dim=ff_dim, obs_len=obs_len,
                         pred_len=pred_len)
        params = init_params(config, np.random.default_rng(seed))
        scenes = data.draw(_crowds(obs_len, pred_len, max_scenes=5))
        rows, sums = _trained(merge_scenes(scenes), params)
        solo = [_trained(merge_scenes([s]), params) for s in scenes]
        np.testing.assert_allclose(rows, np.concatenate([r for r, _ in solo]),
                                   rtol=0, atol=1e-9)
        loss, *grads = (sum(s[i] for _, s in solo) for i in range(len(sums)))
        assert abs(sums[0] - loss) <= 1e-9 * loss
        scale = max(np.abs(g).max() for g in grads)  # some entries are 0 up to rounding
        for got, want in zip(sums[1:], grads, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)
        ran.append(len(scenes))

    check()
    assert len(ran) == PACKING_EXAMPLES


ALIASING_EXAMPLES = 25


def test_no_op_writes_into_a_tensor_on_drawn_runs(read_only_tensors):
    """Over drawn configs and 1-3 scenes packed with merge_scenes, a training
    step's loss and gradients, and best_of_k on each scene with a target,
    are the same with every tensor's data read-only from creation as
    without: no op writes into an array a tape node holds, the attention
    core's head-split writes included. Runs ALIASING_EXAMPLES examples,
    derandomized."""
    ran = []

    @settings(max_examples=ALIASING_EXAMPLES)
    @given(variant=st.sampled_from(sorted(VARIANT_FLAGS)), noise_dim=st.sampled_from([0, 3]),
           teacher_forcing=st.booleans(), dropout=st.sampled_from([0.0, 0.25]),
           width=st.sampled_from(WIDTHS), ff_dim=FF_DIMS,
           obs_len=st.integers(min_value=2, max_value=6),
           pred_len=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def check(variant, noise_dim, teacher_forcing, dropout, width, ff_dim, obs_len, pred_len,
              seed, data):
        d_model, heads = width
        config = _config(variant, noise_dim=noise_dim, teacher_forcing=teacher_forcing,
                         dropout=dropout, d_model=d_model, heads=heads, ff_dim=ff_dim,
                         obs_len=obs_len, pred_len=pred_len)
        scenes = data.draw(_crowds(obs_len, pred_len, max_scenes=3))
        batch = merge_scenes(scenes)

        def step_and_eval():
            params = init_params(config, np.random.default_rng(seed))
            loss = scene_loss(batch, params, np.random.default_rng(1))
            loss.backward()
            grads = [None if p.grad is None else p.grad.tobytes() for _, p in params.parameters()]
            evals = [best_of_k(s, params, K=3, rng=np.random.default_rng(2))
                     for s in scenes if s.targets.any()]
            return loss.item(), grads, evals

        expect = step_and_eval()
        with read_only_tensors():
            assert step_and_eval() == expect
        ran.append(len(scenes))

    check()
    assert len(ran) == ALIASING_EXAMPLES


PERMUTATION_EXAMPLES = 25


def _rows(scene, order):
    """The scene with its pedestrians in `order`."""
    return TrajectoryScene([scene.ped_ids[i] for i in order], scene.positions[order],
                           scene.presence[order], scene.obs_len, scene.origins[order])


def test_permuted_pedestrians_permute_predictions():
    """With noise_dim 0, over drawn configs and 1-3 scenes packed with
    merge_scenes, permuting the pedestrians within each scene permutes the
    rows of the eval and of the training rollout. Within 1e-12, not bit for
    bit: the attention sums add the permuted keys in another order. Runs
    PERMUTATION_EXAMPLES examples, derandomized."""
    ran = []

    @settings(max_examples=PERMUTATION_EXAMPLES)
    @given(variant=st.sampled_from(sorted(VARIANT_FLAGS)), teacher_forcing=st.booleans(),
           width=st.sampled_from(WIDTHS), ff_dim=FF_DIMS,
           obs_len=st.integers(min_value=2, max_value=6),
           pred_len=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def check(variant, teacher_forcing, width, ff_dim, obs_len, pred_len, seed, data):
        d_model, heads = width
        config = _config(variant, noise_dim=0, teacher_forcing=teacher_forcing,
                         d_model=d_model, heads=heads, ff_dim=ff_dim, obs_len=obs_len,
                         pred_len=pred_len)
        params = init_params(config, np.random.default_rng(seed))
        scenes = data.draw(_crowds(obs_len, pred_len, max_scenes=3))
        batch = merge_scenes(scenes)
        order = []  # each scene's rows permuted within its block
        for s in scenes:
            order += [len(order) + i for i in data.draw(st.permutations(range(s.n_peds)))]
        moved = _rows(batch.scene, np.array(order))
        for training in (False, True):
            want = rollout(batch.scene, params, sizes=batch.sizes, training=training).numpy()
            got = rollout(moved, params, sizes=batch.sizes, training=training).numpy()
            np.testing.assert_allclose(got, want[order], rtol=1e-12, atol=1e-12)
        ran.append(len(scenes))

    check()
    assert len(ran) == PERMUTATION_EXAMPLES
