"""Metrics, loss, training loop, best-of-K evaluation, and ablation rows."""

import numpy as np
import pytest

from startraj import (
    StarConfig, TrainSpec, ade, best_of_k, evaluate, fde, init_params,
    preprocess, run_ablation, scene_loss, train, write_reports,
)
from startraj.data import merge_scenes
from startraj.errors import DataFormatError, NonFiniteError
from startraj.synthetic import make_synthetic_scenes, simulate_scene
from startraj.trainer import EvalReport, REPORT_HEADER


def _config(**kw):
    base = dict(d_model=8, heads=2, obs_len=8, pred_len=3, deterministic=True,
                dropout=0.0, graph_threshold=10.0)
    base.update(kw)
    return StarConfig(**base)


def _scenes(count=2, n=2, seed=0, pred=3):
    return make_synthetic_scenes(count, seed, n_peds=n, pred_len=pred)


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
        # [TRIVIAL] minADE <= every individual sample's ADE
        scene, params = self._setup()
        rng = np.random.default_rng(5)
        singles = [best_of_k(scene, params, K=1, rng=np.random.default_rng(50 + i))[0]
                   for i in range(5)]
        a20, _ = best_of_k(scene, params, K=20, rng=np.random.default_rng(6))
        assert a20 <= min(best_of_k(scene, params, K=20,
                                    rng=np.random.default_rng(6))[0] for _ in [0])

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

    def test_paired_vs_independent_minima(self):
        scene, params = self._setup()
        ap, fp = best_of_k(scene, params, K=8, rng=np.random.default_rng(9))
        ai, fi = best_of_k(scene, params, K=8, rng=np.random.default_rng(9),
                           independent_minima=True)
        assert ai == ap  # min ADE is the same either way
        assert fi <= fp  # independent FDE minimum can only be smaller

    def test_k_zero_rejected(self):
        scene, params = self._setup()
        with pytest.raises(ValueError):
            best_of_k(scene, params, K=0)


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
        loss = scene_loss(batch, params, np.random.default_rng(0), training=False)
        from startraj.model import rollout
        pred = rollout(batch.scene, params, rng=np.random.default_rng(0),
                       scene_ids=batch.scene_ids).numpy()
        truth = batch.scene.positions[:, config.obs_len:]
        expect = ((pred - truth) ** 2).mean()
        np.testing.assert_allclose(loss.item(), expect, atol=1e-12)


class TestEvaluationReports:
    def test_report_file_format(self, tmp_path):
        path = str(tmp_path / "report.tsv")
        write_reports(path, [
            EvalReport("full", "ETH", 0, 0.5, 1.0, 20),
            EvalReport("no_memory", "HOTEL", 0, 0.6, 1.1, 20),
        ])
        lines = open(path).read().strip().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "full"

    def test_evaluate_matches_library_metrics(self):
        # CLI/library no-drift contract at the library level: evaluate() over
        # one scene equals best_of_k directly
        config = _config()
        params = init_params(config, np.random.default_rng(17))
        scene = simulate_scene(np.random.default_rng(18), n_peds=2, total_len=11)
        report = evaluate(params, [scene], K=1, seed=5, variant="full")
        a, f = best_of_k(preprocess(scene), params, K=1,
                         rng=np.random.default_rng(5))
        assert report.ade == a and report.fde == f
        assert report.k == 1  # deterministic config collapses K

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
            reports[variant] = run_ablation(
                variant, scenes, scenes, spec, base_config=base, K=1,
            )
        assert {r.variant for r in reports.values()} == {
            "full", "no_memory", "lstm_temporal", "single_encoder"
        }
        assert all(np.isfinite(r.ade) and np.isfinite(r.fde) for r in reports.values())

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_ablation("bogus", [], [], TrainSpec())
