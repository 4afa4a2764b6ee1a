"""Metrics, loss, training loop, best-of-K evaluation, and ablation rows
built from config_for_variant, train and evaluate.

Re-record the absent-slot fixture (only when an output is meant to change):
    PYTHONPATH=src python tests/test_trainer.py
"""

import hashlib
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

import startraj.attention
import startraj.graph
import startraj.model
import startraj.trainer
from startraj import (
    StarConfig, Tensor, TrainSpec, ade, best_of_k, config_for_variant, evaluate, fde,
    init_params, preprocess, rollout, scene_loss, train,
)
from startraj.data import TrajectoryScene, merge_scenes, pack_batches
from startraj.errors import DataFormatError, NonFiniteError
from startraj.model import VARIANT_FLAGS, encoder2_attention
from startraj.synthetic import simulate_scene


def _config(**kw):
    base = dict(d_model=8, heads=2, obs_len=8, pred_len=3, deterministic=True,
                dropout=0.0, graph_threshold=10.0)
    base.update(kw)
    return StarConfig(**base)


def _scenes(count=2, n=2, seed=0, pred=3):
    rng = np.random.default_rng(seed)
    return [simulate_scene(rng, n_peds=n, total_len=8 + pred) for _ in range(count)]


def _oracle_ade(pred, truth, mask):
    """Scalar brute-force Euclidean ADE."""
    vals = []
    for i in range(pred.shape[0]):
        for t in range(pred.shape[1]):
            if mask[i, t]:
                dx = pred[i, t, 0] - truth[i, t, 0]
                dy = pred[i, t, 1] - truth[i, t, 1]
                vals.append((dx * dx + dy * dy) ** 0.5)
    return sum(vals) / len(vals)


def _oracle_fde(pred, truth, mask):
    vals = []
    last = pred.shape[1] - 1
    for i in range(pred.shape[0]):
        if mask[i, last]:
            dx = pred[i, last, 0] - truth[i, last, 0]
            dy = pred[i, last, 1] - truth[i, last, 1]
            vals.append((dx * dx + dy * dy) ** 0.5)
    return sum(vals) / len(vals)


class TestMetrics:
    def test_perfect_prediction_zero(self):
        # [TRIVIAL]
        truth = np.random.default_rng(0).standard_normal((3, 12, 2))
        mask = np.ones((3, 12), dtype=bool)
        assert ade(truth, truth, mask) == 0.0
        assert fde(truth, truth, mask) == 0.0

    def test_constant_offset_ade_one(self):
        # [TRIVIAL] offset (1, 0) everywhere -> ADE exactly 1
        truth = np.zeros((2, 12, 2))
        pred = truth.copy()
        pred[:, :, 0] += 1.0
        assert ade(pred, truth, np.ones((2, 12), dtype=bool)) == 1.0

    def test_fde_3_4_5(self):
        # [TRIVIAL] final-step offset (3, 4) -> FDE exactly 5
        truth = np.zeros((1, 12, 2))
        pred = truth.copy()
        pred[0, -1] = [3.0, 4.0]
        assert fde(pred, truth, np.ones((1, 12), dtype=bool)) == 5.0

    def test_random_cases_match_scalar_oracle(self):
        # [DERIVED] brute-force scalar oracle
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, t = int(rng.integers(1, 6)), int(rng.integers(1, 14))
            pred = rng.standard_normal((n, t, 2))
            truth = rng.standard_normal((n, t, 2))
            mask = rng.random((n, t)) < 0.8
            mask[:, -1] |= ~mask.any(axis=1)  # keep metrics defined
            assert abs(ade(pred, truth, mask) - _oracle_ade(pred, truth, mask)) < 1e-12
            if mask[:, -1].any():
                assert abs(fde(pred, truth, mask) - _oracle_fde(pred, truth, mask)) < 1e-12

    def test_empty_mask_rejected(self):
        z = np.zeros((1, 3, 2))
        with pytest.raises(DataFormatError):
            ade(z, z, np.zeros((1, 3), dtype=bool))
        with pytest.raises(DataFormatError):
            fde(z, z, np.zeros((1, 3), dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            ade(np.zeros((1, 3, 2)), np.zeros((1, 4, 2)), np.ones((1, 3), dtype=bool))

    @pytest.mark.parametrize("metric", [ade, fde])
    @pytest.mark.parametrize("shapes", [((4, 12, 2), (4, 12, 2), (4, 11)),
                                        ((4, 12, 2), (4, 11, 2), (4, 12)),
                                        ((4, 12, 2), (4, 12, 2), (3, 12))])
    def test_both_metrics_reject_the_same_shapes(self, metric, shapes):
        # an (N, 11) mask over 12 predicted steps is an error for both metrics
        pred, truth, mask = np.zeros(shapes[0]), np.ones(shapes[1]), np.ones(shapes[2], bool)
        with pytest.raises(DataFormatError, match="metric shapes disagree"):
            metric(pred, truth, mask)


class TestBestOfK:
    def _setup(self, deterministic=False):
        config = _config(deterministic=deterministic,
                         noise_dim=0 if deterministic else 8)
        params = init_params(config, np.random.default_rng(2))
        scene = preprocess(simulate_scene(np.random.default_rng(3), n_peds=2,
                                          total_len=11))
        return scene, params

    def test_k1_is_single_rollout(self):
        # [TRIVIAL]
        scene, params = self._setup()
        a1, f1 = best_of_k(scene, params, K=1, rng=np.random.default_rng(4))
        from startraj.model import rollout
        from startraj.trainer import _scene_truth_and_mask
        pred = rollout(scene, params, rng=np.random.default_rng(4)).numpy()
        truth, mask = _scene_truth_and_mask(scene)
        assert a1 == ade(pred, truth, mask)
        assert f1 == fde(pred, truth, mask)

    def test_min_property(self):
        # the eval protocol: of K = 20 samples, drawn as sequential rollouts
        # on one generator, the minimum ADE and the FDE of that same sample;
        # on this seed it is not the minimum-FDE sample, so min(FDE) fails.
        # best_of_k packs the samples, which rounds apart by ~3e-15 here
        from startraj.model import rollout
        from startraj.trainer import _scene_truth_and_mask
        scene, params = self._setup()
        truth, mask = _scene_truth_and_mask(scene)
        rng = np.random.default_rng(5)
        preds = [rollout(scene, params, rng=rng).numpy() for _ in range(20)]
        ades = [ade(p, truth, mask) for p in preds]
        fdes = [fde(p, truth, mask) for p in preds]
        best = int(np.argmin(ades))
        assert fdes[best] > min(fdes) + 0.1
        got = best_of_k(scene, params, K=20, rng=np.random.default_rng(5))
        np.testing.assert_allclose(got, (ades[best], fdes[best]), rtol=0, atol=1e-9)

    def test_nested_sample_monotonicity(self):
        # spec invariant via nested reuse: the K=20 min over a superset of the
        # K=10 samples is <= the K=10 min (same rng stream prefix)
        scene, params = self._setup()
        a10, _ = best_of_k(scene, params, K=10, rng=np.random.default_rng(7))
        a20, _ = best_of_k(scene, params, K=20, rng=np.random.default_rng(7))
        assert a20 <= a10

    def test_deterministic_all_samples_identical(self):
        # [TRIVIAL]
        scene, params = self._setup(deterministic=True)
        a1, f1 = best_of_k(scene, params, K=1, rng=np.random.default_rng(8))
        a5, f5 = best_of_k(scene, params, K=5, rng=np.random.default_rng(8))
        assert (a1, f1) == (a5, f5)

    def test_k_zero_rejected(self):
        scene, params = self._setup()
        for K in (0, 2.5):
            with pytest.raises(ValueError, match="K must be an integer >= 1"):
                best_of_k(scene, params, K=K)

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("K", [0, 2.5])
    def test_evaluate_rejects_bad_k(self, deterministic, K):
        # a deterministic model samples once, yet its K is checked all the same
        scene, params = self._setup(deterministic)
        with pytest.raises(ValueError, match="K must be an integer >= 1"):
            evaluate(params, [scene], K=K)


class TestTrainSpec:
    def test_positive_validation(self):
        with pytest.raises(ValueError):
            TrainSpec(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainSpec(epochs=0)
        with pytest.raises(ValueError):
            TrainSpec(checkpoint_every=0)
        with pytest.raises(ValueError):
            TrainSpec(max_steps=0)

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_augment_must_be_bool(self, value):
        with pytest.raises(ValueError, match="augment"):
            TrainSpec(augment=value)


class TestTraining:
    def test_empty_training_set_rejected(self):
        # [TRIVIAL]
        with pytest.raises(DataFormatError):
            train(TrainSpec(), _config(), [])

    def test_loss_decreases_on_tiny_problem(self):
        scenes = _scenes(count=2, seed=10)
        spec = TrainSpec(learning_rate=0.01, epochs=40, seed=0, augment=False,
                         max_steps=40)
        _, history = train(spec, _config(), scenes)
        first = history[0][1]
        last = np.mean([v for _, v in history[-5:]])
        assert last < first * 0.5

    def test_same_seed_identical_curves(self):
        # [TRIVIAL] determinism contract
        scenes = _scenes(count=2, seed=11)
        spec = TrainSpec(learning_rate=0.005, epochs=5, seed=3, max_steps=5)
        _, h1 = train(spec, _config(), scenes)
        _, h2 = train(spec, _config(), scenes)
        assert h1 == h2

    def test_epoch_log_averages_that_epochs_steps(self):
        # 3 scenes, one per step, 4 steps: epoch 0 holds steps 0-2 and
        # epoch 1 only step 3
        lines = []
        spec = TrainSpec(scene_batch=1, max_steps=4, seed=0, augment=False)
        _, history = train(spec, _config(), _scenes(count=3, seed=17), log=lines.append)
        losses = [v for _, v in history]
        assert lines == [f"epoch 0: mean loss {np.mean(losses[:3]):.6f}",
                         f"epoch 1: mean loss {losses[3]:.6f}"]

    def test_checkpoints_written(self, tmp_path):
        scenes = _scenes(count=1, seed=12)
        spec = TrainSpec(epochs=2, seed=0, checkpoint_every=1, augment=False)
        train(spec, _config(), scenes, out_dir=str(tmp_path))
        names = {p.name for p in tmp_path.iterdir()}
        assert "checkpoint_final.json" in names
        assert "checkpoint_1.json" in names

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate overflow
    def test_non_finite_loss_aborts(self):
        scenes = _scenes(count=1, seed=13, pred=1)
        config = _config(pred_len=1)
        params = init_params(config, np.random.default_rng(14))
        # finite but enormous predictions overflow the squared-error loss
        params.decoder.b.data[:] = 1e200
        spec = TrainSpec(epochs=1, seed=0, augment=False)
        with pytest.raises(NonFiniteError):
            train(spec, config, scenes, params=params)

    def test_scene_loss_is_masked_mse(self):
        # [DERIVED] loss equals mean squared residual over target slots
        scenes = [preprocess(s) for s in _scenes(count=1, seed=15)]
        batch = merge_scenes(scenes)
        config = _config()
        params = init_params(config, np.random.default_rng(16))
        loss = scene_loss(batch, params, np.random.default_rng(0))
        from startraj.model import rollout
        pred = rollout(batch.scene, params, rng=np.random.default_rng(0),
                       sizes=batch.sizes, training=True).numpy()
        truth = batch.scene.positions[:, config.obs_len:]
        expect = ((pred - truth) ** 2).mean()
        np.testing.assert_allclose(loss.item(), expect, atol=1e-12)

    @pytest.mark.parametrize("forcing", [False, True])
    def test_scene_loss_preprocesses_raw_batch(self, forcing):
        # world positions 50 m from the origin: the loss compares the rollout
        # with ground truth in its own origin-shifted frame
        config = _config(teacher_forcing=forcing)
        params = init_params(config, np.random.default_rng(21))
        raw = []
        for s in _scenes(count=2, n=3, seed=21):
            moved = np.where(s.presence[:, :, None], s.positions + 50.0, 0.0)
            raw.append(TrajectoryScene(s.ped_ids, moved, s.presence, s.obs_len))
        losses = [scene_loss(merge_scenes(scenes), params, np.random.default_rng(0)).item()
                  for scenes in (raw, [preprocess(s) for s in raw])]
        assert losses[0] == losses[1]

    def test_backward_peak_is_the_forward_tape(self):
        # numpy reports its buffers to tracemalloc, so these are byte counts.
        # A packed step of 4 scenes x 4 peds at the default config holds
        # 37.6 MB after the forward and backward adds 1.1 MB on top: each
        # closure, and each gradient of a node with parents, is freed once
        # swept. Before that, backward added 72 MB to a 64.1 MB tape whose
        # closures also kept layer_norm's output, relu's mask and the scaled
        # queries; the tape was 51.7 MB while each attention output was
        # stored twice (again by merge_heads) and each residual add kept the
        # linear output it summed, 44.8 MB while the encoders zeroed absent
        # slots' outputs, and 42.7 MB while each ReLU was a node of its own
        # and dropout taped a float keep.
        rng = np.random.default_rng(0)
        batch = merge_scenes([preprocess(simulate_scene(rng, n_peds=4)) for _ in range(4)])
        params = init_params(StarConfig(), np.random.default_rng(1))
        tracemalloc.start()
        try:
            loss = scene_loss(batch, params, np.random.default_rng(2))
            tape, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - tape < 0.1 * tape, (tape, peak)
        assert tape < 40e6, tape

    def test_training_step_tapes_no_relu_node_or_float_keep(self, tape_stats):
        # linear applies its ReLU inside its own node, and dropout is one node
        # holding a bool mask: no relu node, and no constant float leaf of 0s
        # and 1 / (1 - rate)s, on the tape of a training step
        rng = np.random.default_rng(0)
        batch = merge_scenes([preprocess(simulate_scene(rng, n_peds=4)) for _ in range(4)])
        config = StarConfig()
        params = init_params(config, np.random.default_rng(1))
        stats = tape_stats(scene_loss(batch, params, np.random.default_rng(2)))
        ops = [n._backward.__qualname__ for n in stats.nodes if n._backward is not None]
        assert not [op for op in ops if "relu" in op]
        scaled = 1.0 / (1.0 - config.dropout)
        assert not [n for n in stats.nodes if not n.requires_grad
                    and np.isin(n.data, (0.0, scaled)).all() and (n.data == scaled).any()]
        # both embeddings of every rollout step pass through dropout
        drops = [n for n in stats.nodes if n._backward is not None
                 and n._backward.__qualname__ == "dropout.<locals>.bwd"]
        assert len(drops) == 2 * config.pred_len
        for n in drops:
            cells = dict(zip(n._backward.__code__.co_freevars, n._backward.__closure__))
            assert cells["mask"].cell_contents.dtype == bool

    def test_scene_loss_rejects_mismatched_future(self):
        # a 12-step future under a model that predicts 5
        batch = merge_scenes([preprocess(s) for s in _scenes(count=1, seed=19, pred=12)])
        params = init_params(_config(pred_len=5), np.random.default_rng(19))
        with pytest.raises(DataFormatError, match="12 future steps.*needs 5"):
            scene_loss(batch, params, np.random.default_rng(0))

    @pytest.mark.parametrize("forcing, training, fed", [
        (True, True, "truth"), (True, False, "prediction"), (False, True, "prediction"),
    ])
    def test_teacher_forcing_only_in_training(self, monkeypatch, forcing, training, fed):
        # the history each rollout step embeds, whole in every mode: steps past
        # the observed window hold ground truth only under teacher forcing
        # while training
        config = _config(teacher_forcing=forcing)
        params = init_params(config, np.random.default_rng(20))
        batch = merge_scenes([preprocess(s) for s in _scenes(count=1, n=3, seed=20)])
        histories = []
        embed = startraj.model.embed_inputs

        def spy(positions, *args, **kwargs):
            histories.append(positions.numpy())
            return embed(positions, *args, **kwargs)

        monkeypatch.setattr(startraj.model, "embed_inputs", spy)
        startraj.model.rollout(batch.scene, params, rng=np.random.default_rng(0),
                               sizes=batch.sizes, training=training)
        monkeypatch.undo()
        obs = config.obs_len
        assert [h.shape[1] for h in histories] == [obs, obs + 1, obs + 2]
        truth = batch.scene.positions[:, obs:obs + 2]
        # deterministic and without dropout, a plain rollout predicts the same steps
        pred = startraj.model.rollout(batch.scene, params).numpy()[:, :2]
        assert not np.allclose(pred, truth)
        np.testing.assert_array_equal(histories[-1][:, -2:],
                                      truth if fed == "truth" else pred)


class TestEvaluationReports:
    def test_evaluate_matches_library_metrics(self):
        # CLI/library no-drift contract at the library level: evaluate() over
        # one scene equals best_of_k directly
        config = _config()
        params = init_params(config, np.random.default_rng(17))
        scene = simulate_scene(np.random.default_rng(18), n_peds=2, total_len=11)
        a, f = best_of_k(preprocess(scene), params, K=1,
                         rng=np.random.default_rng(5))
        # a deterministic config collapses K to 1
        assert evaluate(params, [scene], K=1, seed=5) == (a, f, 1)

    def test_noise_free_model_samples_once(self, monkeypatch):
        # noise_dim 0 without `deterministic`: K samples would all be equal
        config = _config(deterministic=False, noise_dim=0)
        params = init_params(config, np.random.default_rng(23))
        scenes = _scenes(count=3, n=3, seed=23)
        copies = []
        real_rollout = startraj.trainer.rollout

        def spy(*args, **kwargs):
            copies.append(kwargs.get("copies", 1))
            return real_rollout(*args, **kwargs)

        monkeypatch.setattr(startraj.trainer, "rollout", spy)
        a_eval, f_eval, k = evaluate(params, scenes, K=20, seed=3)
        monkeypatch.undo()
        assert copies == [1] * len(scenes) and k == 1
        sums = np.zeros(3)  # ade, fde and weight of K = 20 runs
        for scene in map(preprocess, scenes):
            n_targets = scene.targets.sum()
            a, f = best_of_k(scene, params, K=20)
            sums += [a * n_targets, f * n_targets, n_targets]
        np.testing.assert_allclose([a_eval, f_eval], sums[:2] / sums[2],
                                   rtol=0, atol=1e-12)

    def test_evaluate_empty_rejected(self):
        config = _config()
        params = init_params(config, np.random.default_rng(19))
        with pytest.raises(DataFormatError):
            evaluate(params, [])


class TestAblation:
    def test_rows_instantiate_and_report(self):
        # Table 2 rows (4)-(7) plumbing on synthetic data, one epoch each
        scenes = _scenes(count=2, n=2, seed=20)
        spec = TrainSpec(epochs=1, seed=0, augment=False, max_steps=1)
        base = _config()
        reports = {}
        for variant in ("full", "no_memory", "lstm_temporal", "single_encoder"):
            params, _ = train(spec, config_for_variant(variant, base), scenes)
            reports[variant] = evaluate(params, scenes, K=1, seed=spec.seed)
        assert all(np.isfinite(a) and np.isfinite(f) for a, f, _ in reports.values())

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            config_for_variant("bogus", _config())


ABSENT_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "absent_slots_expected.json")


def _absent_slot_scenes():
    """Eight scenes of 1-8 pedestrians over 8 + 3 steps, full of absent
    slots. From three pedestrians up, row 0 starts at step 2 and row 1 leaves
    after step 5; from four up, row 2 first appears at step 9, after the
    observed window; from five up, row 3 leaves after step 8, during the
    prediction; from six up, row 4 is absent at steps 3 and 4."""
    rng = np.random.default_rng(70)
    scenes = []
    for n in (3, 1, 8, 5, 2, 8, 4, 6):
        sim = simulate_scene(rng, n_peds=n, total_len=11)
        presence = sim.presence.copy()
        if n >= 3:
            presence[0, :2] = presence[1, 6:] = False
        if n >= 4:
            presence[2, :9] = False
        if n >= 5:
            presence[3, 9:] = False
        if n >= 6:
            presence[4, 3:5] = False
        positions = np.where(presence[:, :, None], sim.positions, 0.0)
        scenes.append(TrajectoryScene(sim.ped_ids, positions, presence, sim.obs_len))
    return scenes


def _absent_slot_values():
    """Per variant and teacher_forcing flag: the loss curve of a 6-step
    train with the default dropout and rotation augmentation on packed
    batches of up to three scenes, the sha256 of the trained parameters'
    bytes, and evaluate's (ADE, FDE, k) with K = 5."""
    scenes = _absent_slot_scenes()
    spec = TrainSpec(scene_batch=3, epochs=2, seed=71)
    values = {}
    for variant, forced in itertools.product(VARIANT_FLAGS, [False, True]):
        config = StarConfig(d_model=8, heads=2, obs_len=8, pred_len=3, noise_dim=4,
                            graph_threshold=3.0, teacher_forcing=forced,
                            **VARIANT_FLAGS[variant])
        params, history = train(spec, config, scenes)
        digest = hashlib.sha256(b"".join(p.data.tobytes() for _, p in params.parameters()))
        values[f"{variant}/{forced}"] = {
            "losses": [loss for _, loss in history],
            "params_sha256": digest.hexdigest(),
            "eval": list(evaluate(params, scenes, K=5, seed=72)),
        }
    return values


def _step_and_eval_values(variant):
    """A training loss and every parameter's gradient (no optimizer step,
    which writes the weights by design), then best-of-5, for one variant on
    packed scenes with absent slots, dropout and noise."""
    config = StarConfig(d_model=8, heads=2, obs_len=8, pred_len=3, noise_dim=4,
                        graph_threshold=3.0, **VARIANT_FLAGS[variant])
    params = init_params(config, np.random.default_rng(73))
    scenes = _absent_slot_scenes()
    batch = pack_batches([preprocess(s) for s in scenes], budget=16, max_scenes=3)[0]
    loss = scene_loss(batch, params, np.random.default_rng(74))
    loss.backward()
    grads = [p.grad.tobytes() for _, p in params.parameters()]
    evals = [best_of_k(s, params, K=5, rng=np.random.default_rng(75)) for s in scenes[:3]]
    return loss.item(), grads, evals


@pytest.mark.parametrize("variant", sorted(VARIANT_FLAGS))
def test_no_op_writes_into_a_tensor(variant, read_only_tensors):
    # every op writes in place only into arrays it has just made: with every
    # tensor's data read-only from creation, a training step and best-of-K
    # run and give the unguarded values
    expect = _step_and_eval_values(variant)
    with read_only_tensors():
        assert _step_and_eval_values(variant) == expect


@pytest.mark.parametrize("variant", sorted(VARIANT_FLAGS))
def test_layer_norm_inputs_are_c_ordered(variant, monkeypatch):
    # layer_norm hands x a C-ordered gradient, which keeps the out-of-place
    # layout only for a C-ordered x.data: every call in a training step on
    # packed scenes with absent slots, TGConv's and the temporal block's, has one
    orders = []
    for module in (startraj.attention, startraj.graph):
        def spy(x, gain, bias, real=module.layer_norm):
            orders.append(x.data.flags.c_contiguous)
            return real(x, gain, bias)

        monkeypatch.setattr(module, "layer_norm", spy)
    config = StarConfig(d_model=8, heads=2, obs_len=8, pred_len=3, noise_dim=4,
                        graph_threshold=3.0, **VARIANT_FLAGS[variant])
    params = init_params(config, np.random.default_rng(73))
    batch = pack_batches([preprocess(s) for s in _absent_slot_scenes()], budget=16,
                         max_scenes=3)[0]
    scene_loss(batch, params, np.random.default_rng(74)).backward()
    assert orders and all(orders), orders


def _noisy_absent_slots(monkeypatch):
    """Write finite noise into the absent slots of every temporal block's and
    encoder 1's outputs, which are left for the masks downstream to ignore.
    Returns a list that receives (function name, absent slots written) per
    call."""
    noise, written = np.random.default_rng(76), []

    def noisy(name, real, mask_at):
        def wrapper(*args):
            out = real(*args)
            absent = ~np.asarray(args[mask_at])[:, :, None]
            written.append((name, int(absent.sum())))
            return out + Tensor(np.where(absent, 1e3 * noise.standard_normal(out.shape), 0.0))
        return wrapper

    for name, mask_at in (("temporal_block", 2), ("temporal_recurrent", 2), ("encoder1", 5)):
        monkeypatch.setattr(startraj.model, name,
                            noisy(name, getattr(startraj.model, name), mask_at))
    return written


def _absent_slot_run(variant, training):
    """On every _absent_slot_scenes scene packed into one batch: a training
    rollout's predictions, scene_loss and every parameter gradient; or an
    eval rollout of three packed samples and encoder 2's attention weights
    on the scene of eight."""
    config = StarConfig(d_model=8, heads=2, obs_len=8, pred_len=3, noise_dim=4,
                        graph_threshold=3.0, **VARIANT_FLAGS[variant])
    params = init_params(config, np.random.default_rng(77))
    scenes = [preprocess(s) for s in _absent_slot_scenes()]
    batch = merge_scenes(scenes)
    if not training:
        pred = rollout(batch.scene, params, np.random.default_rng(78), batch.sizes, copies=3)
        weights = [] if params.enc2 is None else [encoder2_attention(scenes[2], params)]
        return [pred.numpy()] + weights
    pred = rollout(batch.scene, params, np.random.default_rng(78), batch.sizes, training=True)
    loss = scene_loss(batch, params, np.random.default_rng(79))
    loss.backward()
    return [pred.numpy(), loss.item()] + [p.grad for _, p in params.parameters()]


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
@pytest.mark.parametrize("variant", sorted(VARIANT_FLAGS))
def test_absent_slot_outputs_reach_nothing(variant, training, monkeypatch):
    # the attention masks are the encoders' only presence mask: with finite
    # noise in every absent slot that the temporal blocks and encoder 1 emit,
    # predictions, loss, attention weights and every parameter gradient equal
    # the clean run's (assert_array_equal: a non-roller's zeroed prediction
    # may flip its sign)
    clean = _absent_slot_run(variant, training)
    written = _noisy_absent_slots(monkeypatch)
    noisy = _absent_slot_run(variant, training)
    temporal = "temporal_recurrent" if variant == "lstm_temporal" else "temporal_block"
    for name in ("encoder1", temporal):
        assert sum(count for called, count in written if called == name) > 0, name
    for got, expected in zip(noisy, clean, strict=True):
        np.testing.assert_array_equal(got, expected)


class TestAbsentSlotsFixture:
    def test_absent_slots_bit_identical(self):
        # training with dropout and augmentation, then best-of-5, on scenes
        # with late starters, leavers, a gap and a post-window entrant;
        # recorded from _absent_slot_values when the temporal blocks and
        # encoder 1 stopped zeroing absent slots' outputs: the parameters
        # after training moved by rounding alone
        with open(ABSENT_FIXTURE) as fh:
            expected = json.load(fh)
        assert _absent_slot_values() == expected


if __name__ == "__main__":
    values = _absent_slot_values()
    with open(ABSENT_FIXTURE, "w") as fh:
        json.dump(values, fh, indent=1)
    print(f"wrote {len(values)} cases to {ABSENT_FIXTURE}")
