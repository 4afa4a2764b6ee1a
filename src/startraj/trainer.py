"""Loss, training loop, displacement metrics and best-of-K evaluation."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .data import Batch, TrajectoryScene, augment_rotation, pack_batches, preprocess
from .errors import DataFormatError, NonFiniteError
from .model import (
    StarConfig, StarParams, init_params, require_bool, require_int, require_positive,
    rollout, save_checkpoint,
)
from .optim import AdamState, adam_step, zero_grads
from .tensor import Tensor


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _metric_inputs(pred, truth, mask) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ade's and fde's inputs as arrays; DataFormatError unless shapes agree."""
    pred, truth, mask = np.asarray(pred), np.asarray(truth), np.asarray(mask, dtype=bool)
    if pred.shape != truth.shape or mask.shape != pred.shape[:2]:
        raise DataFormatError(
            f"metric shapes disagree: pred {pred.shape}, truth {truth.shape}, "
            f"mask {mask.shape}"
        )
    return pred, truth, mask


def ade(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """Mean displacement over valid (pedestrian, step) slots."""
    pred, truth, mask = _metric_inputs(pred, truth, mask)
    if not mask.any():
        raise DataFormatError("ade over an empty mask")
    d2 = ((pred - truth) ** 2).sum(axis=-1)
    return float(np.sqrt(d2[mask]).mean())


def fde(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """Euclidean distance at the final predicted step, averaged over
    pedestrians valid at that step."""
    pred, truth, mask = _metric_inputs(pred, truth, mask)
    final = mask[:, -1]
    if not final.any():
        raise DataFormatError("fde over an empty mask")
    diff = pred[final, -1] - truth[final, -1]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).mean())


def _scene_truth_and_mask(scene: TrajectoryScene) -> Tuple[np.ndarray, np.ndarray]:
    truth = scene.positions[:, scene.obs_len :, :]
    mask = scene.targets[:, None] & scene.presence[:, scene.obs_len :]
    return truth, mask


# Rows per best_of_k rollout. With the default config on 2 cores, the time
# per sample falls as a rollout grows to about 100 rows and rises beyond it;
# 8-40 pedestrian scenes at K = 20 ran fastest at 64-128 rows.
ROW_BUDGET = 80


def best_of_k(
    scene: TrajectoryScene,
    params: StarParams,
    K: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float]:
    """Sample K eval rollouts, which record no tape, and report the
    minimum-ADE sample's ADE and FDE.

    The samples run as packed copies of the n-pedestrian scene,
    max(1, ROW_BUDGET // n) per rollout (its `copies`), and draw the same
    noise as K sequential rollouts on rng."""
    require_int("K", K, 1)
    if rng is None:
        rng = np.random.default_rng(0)
    scene = preprocess(scene)  # a no-op on a preprocessed scene
    truth, mask = _scene_truth_and_mask(scene)
    n, chunk = scene.n_peds, max(1, ROW_BUDGET // scene.n_peds)
    ades, fdes = [], []
    for done in range(0, K, chunk):
        copies = min(chunk, K - done)
        preds = rollout(scene, params, rng=rng, copies=copies).numpy()
        for pred in preds.reshape(copies, n, *preds.shape[1:]):
            ades.append(ade(pred, truth, mask))
            fdes.append(fde(pred, truth, mask))
    best = int(np.argmin(ades))
    return ades[best], fdes[best]


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
@dataclass
class TrainSpec:
    learning_rate: float = 0.0015
    ped_budget: int = 256
    scene_batch: int = 16
    epochs: int = 300
    seed: int = 0
    checkpoint_every: int = 50
    augment: bool = True
    max_steps: Optional[int] = None

    def __post_init__(self):
        require_positive("learning_rate", self.learning_rate)
        for name in ("ped_budget", "scene_batch", "epochs", "checkpoint_every"):
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        require_bool("augment", self.augment)
        if self.max_steps is not None:
            require_int("max_steps", self.max_steps, 1)


def scene_loss(
    batch: Batch,
    params: StarParams,
    rng: np.random.Generator,
) -> Tensor:
    """Mean squared error over all predicted steps of the target pedestrians,
    from a training rollout of the preprocessed batch (teacher-forced under
    the config's teacher_forcing)."""
    scene, config = preprocess(batch.scene), params.config
    if scene.pred_len != config.pred_len:
        raise DataFormatError(
            f"scene has {scene.pred_len} future steps; the model needs {config.pred_len}")
    truth, mask = _scene_truth_and_mask(scene)
    pred = rollout(scene, params, rng=rng, sizes=batch.sizes, training=True)
    w = mask[:, :, None].astype(np.float64)
    diff = (pred - Tensor(truth)) * Tensor(w)
    return (diff * diff).sum() * (1.0 / max(w.sum() * 2.0, 1.0))


def train(
    spec: TrainSpec,
    config: StarConfig,
    scenes: Sequence[TrajectoryScene],
    out_dir: Optional[str] = None,
    params: Optional[StarParams] = None,
    log=None,
) -> Tuple[StarParams, List[Tuple[int, float]]]:
    """Adam over the rollout MSE. Returns the trained parameters and the
    (step, loss) curve; fixed seeds reproduce both bit-for-bit."""
    if not scenes:
        raise DataFormatError("empty training set")
    rng = np.random.default_rng(spec.seed)
    if params is None:
        params = init_params(config, rng)
    plist = params.parameters()
    state = AdamState(plist, learning_rate=spec.learning_rate)
    history: List[Tuple[int, float]] = []
    step = 0
    done = False
    for epoch in range(spec.epochs):
        epoch_start = len(history)
        prepared = []
        for s in scenes:
            if spec.augment:
                s = augment_rotation(s, rng)
            prepared.append(preprocess(s))
        for batch in pack_batches(prepared, budget=spec.ped_budget,
                                  max_scenes=spec.scene_batch):
            loss = scene_loss(batch, params, rng)
            value = loss.item()
            if not np.isfinite(value):
                raise NonFiniteError(f"non-finite training loss at step {step}")
            zero_grads(plist)
            loss.backward()
            adam_step(plist, state)
            history.append((step, value))
            step += 1
            if spec.max_steps is not None and step >= spec.max_steps:
                done = True
                break
        if log is not None:
            epoch_losses = [v for _, v in history[epoch_start:]]
            log(f"epoch {epoch}: mean loss {np.mean(epoch_losses):.6f}")
        if out_dir and (epoch + 1) % spec.checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, f"checkpoint_{epoch + 1}.json"), params)
        if done:
            break
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "checkpoint_final.json"), params)
    return params, history


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def evaluate(
    params: StarParams,
    scenes: Sequence[TrajectoryScene],
    K: int = 20,
    seed: int = 0,
) -> Tuple[float, float, int]:
    """(ADE, FDE, k): best-of-k displacement errors over scenes, weighted by
    target-pedestrian count; k = 1 for a model without decoder noise, else K."""
    if not scenes:
        raise DataFormatError("empty evaluation set")
    require_int("K", K, 1)
    rng = np.random.default_rng(seed)
    k_eff = 1 if params.config.noise_dim == 0 else K
    a_sum = f_sum = weight = 0.0
    for scene in scenes:
        n_targets = int(scene.targets.sum())
        if n_targets == 0:
            continue
        a, f = best_of_k(scene, params, K=k_eff, rng=rng)
        a_sum += a * n_targets
        f_sum += f * n_targets
        weight += n_targets
    if weight == 0:
        raise DataFormatError("no target pedestrians in evaluation set")
    return a_sum / weight, f_sum / weight, k_eff

