"""Loss, training loop, displacement metrics, best-of-K evaluation, and
ablation orchestration."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .data import Batch, TrajectoryScene, augment_rotation, pack_batches, preprocess
from .errors import DataFormatError, NonFiniteError
from .model import (
    StarConfig, StarParams, config_for_variant, init_params, require_int,
    require_positive, rollout, save_checkpoint,
)
from .optim import AdamState, adam_step, zero_grads
from .tensor import Tensor


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def ade(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """Mean displacement over valid (pedestrian, step) slots."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    mask = np.asarray(mask, dtype=bool)
    if pred.shape != truth.shape or mask.shape != pred.shape[:2]:
        raise DataFormatError(
            f"metric shapes disagree: pred {pred.shape}, truth {truth.shape}, "
            f"mask {mask.shape}"
        )
    if not mask.any():
        raise DataFormatError("ade over an empty mask")
    d2 = ((pred - truth) ** 2).sum(axis=-1)
    return float(np.sqrt(d2[mask]).mean())


def fde(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """Euclidean distance at the final predicted step, averaged over
    pedestrians valid at that step."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    mask = np.asarray(mask, dtype=bool)
    final = mask[:, -1]
    if not final.any():
        raise DataFormatError("fde over an empty mask")
    diff = pred[final, -1] - truth[final, -1]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).mean())


def _scene_truth_and_mask(scene: TrajectoryScene) -> Tuple[np.ndarray, np.ndarray]:
    truth = scene.positions[:, scene.obs_len :, :]
    mask = scene.targets[:, None] & scene.presence[:, scene.obs_len :]
    return truth, mask


def best_of_k(
    scene: TrajectoryScene,
    params: StarParams,
    K: int = 20,
    rng: Optional[np.random.Generator] = None,
    scene_ids: Optional[np.ndarray] = None,
    independent_minima: bool = False,
) -> Tuple[float, float]:
    """Sample K rollouts and report the best one. By default the FDE comes
    from the same minimum-ADE sample; independent_minima reports min ADE and
    min FDE separately."""
    if K < 1:
        raise ValueError("best_of_k needs K >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    if scene.origins is None:
        scene = preprocess(scene)
    truth, mask = _scene_truth_and_mask(scene)
    ades, fdes = [], []
    for _ in range(K):
        pred = rollout(scene, params, rng=rng, scene_ids=scene_ids).numpy()
        ades.append(ade(pred, truth, mask))
        fdes.append(fde(pred, truth, mask))
    if independent_minima:
        return min(ades), min(fdes)
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
        if self.max_steps is not None:
            require_int("max_steps", self.max_steps, 1)


def scene_loss(
    batch: Batch,
    params: StarParams,
    rng: np.random.Generator,
    training: bool = True,
) -> Tensor:
    """Mean squared error over all predicted steps of the target pedestrians,
    from a full autoregressive rollout."""
    scene = batch.scene
    truth, mask = _scene_truth_and_mask(scene)
    pred = rollout(
        scene, params, rng=rng, scene_ids=batch.scene_ids, training=training,
        truth_positions=scene.positions if params.config.teacher_forcing else None,
    )
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
            loss = scene_loss(batch, params, rng, training=True)
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
@dataclass
class EvalReport:
    variant: str
    dataset: str
    seed: int
    ade: float
    fde: float
    k: int

    def row(self) -> str:
        return f"{self.variant}\t{self.dataset}\t{self.seed}\t{self.ade:.6f}\t{self.fde:.6f}\t{self.k}"


REPORT_HEADER = "variant\tdataset\tseed\tade\tfde\tk"


def write_reports(path: str, reports: Sequence[EvalReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(REPORT_HEADER + "\n")
        for r in reports:
            fh.write(r.row() + "\n")


def evaluate(
    params: StarParams,
    scenes: Sequence[TrajectoryScene],
    K: int = 20,
    seed: int = 0,
    variant: str = "full",
    dataset: str = "",
) -> EvalReport:
    """Aggregate best-of-K (or single deterministic rollout) displacement
    errors over scenes, weighted by target-pedestrian count."""
    if not scenes:
        raise DataFormatError("empty evaluation set")
    rng = np.random.default_rng(seed)
    k_eff = 1 if params.config.deterministic else K
    a_sum = f_sum = weight = 0.0
    for scene in scenes:
        prep = preprocess(scene)
        n_targets = int(prep.targets.sum())
        if n_targets == 0:
            continue
        a, f = best_of_k(prep, params, K=k_eff, rng=rng)
        a_sum += a * n_targets
        f_sum += f * n_targets
        weight += n_targets
    if weight == 0:
        raise DataFormatError("no target pedestrians in evaluation set")
    return EvalReport(
        variant=variant, dataset=dataset, seed=seed,
        ade=a_sum / weight, fde=f_sum / weight, k=k_eff,
    )


def run_ablation(
    variant: str,
    train_scenes: Sequence[TrajectoryScene],
    eval_scenes: Sequence[TrajectoryScene],
    spec: TrainSpec,
    base_config: Optional[StarConfig] = None,
    K: int = 20,
    dataset: str = "",
) -> EvalReport:
    """Train and evaluate one ablation row under an identical spec and seed."""
    config = config_for_variant(variant, base_config)
    params, _ = train(spec, config, train_scenes)
    report = evaluate(params, eval_scenes, K=K, seed=spec.seed,
                      variant=variant, dataset=dataset)
    return report
