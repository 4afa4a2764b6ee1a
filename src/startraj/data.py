"""Dataset ingestion, scene windowing, preprocessing, augmentation, and
packing scenes into masked batches.

Input files are whitespace-separated `frame_id ped_id x y` lines (world-frame
meters, frames already downsampled to 0.4 s); '#' lines are comments.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DataFormatError

DATASET_NAMES = ("ETH", "HOTEL", "ZARA1", "ZARA2", "UNIV")


@dataclass
class Tracklet:
    """One gap-free stretch of a pedestrian's observations."""

    ped_id: str
    frames: np.ndarray  # (L,) ints, uniformly spaced
    xy: np.ndarray      # (L, 2)


@dataclass
class RawTrajectories:
    tracklets: List[Tracklet]
    frame_step: int


@dataclass
class TrajectoryScene:
    """One 20-frame window of a scene.

    positions are world coordinates until preprocess() sets per-pedestrian
    origins, after which they are origin-shifted and world_positions() undoes
    the shift. Absent (pedestrian, step) slots are zero-filled.
    """

    ped_ids: List[str]
    positions: np.ndarray   # (N, T, 2)
    presence: np.ndarray    # (N, T) bool
    obs_len: int
    origins: Optional[np.ndarray] = None  # (N, 2); set by preprocess

    @property
    def n_peds(self) -> int:
        return self.positions.shape[0]

    @property
    def total_len(self) -> int:
        return self.positions.shape[1]

    @property
    def pred_len(self) -> int:
        return self.total_len - self.obs_len

    @property
    def targets(self) -> np.ndarray:
        """Pedestrians present all T frames; the loss and metrics score these."""
        return self.presence.all(axis=1)

    @property
    def rollout_mask(self) -> np.ndarray:
        """Pedestrians with a full observation window; these get predictions."""
        return self.presence[:, : self.obs_len].all(axis=1)

    def world_positions(self) -> np.ndarray:
        if self.origins is None:
            return self.positions
        return np.where(
            self.presence[:, :, None], self.positions + self.origins[:, None, :], 0.0
        )


def text_lines(path: str) -> Iterator[Tuple[int, str]]:
    """(line number, line) pairs of a UTF-8 text file; other bytes raise
    DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_dataset(path: str) -> RawTrajectories:
    """Parse a trajectory file into gap-split tracklets."""
    per_ped: Dict[str, List[Tuple[int, float, float]]] = {}
    for lineno, line in text_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 4:
            raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            frame = float(parts[0])
            ped = parts[1]
            x, y = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if not abs(frame) <= 2 ** 53:  # inexact beyond as a float; also inf and nan
            raise DataFormatError(f"{path}:{lineno}: frame {parts[0]} out of range")
        if not frame.is_integer():
            raise DataFormatError(f"{path}:{lineno}: frame {parts[0]} is not an integer")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataFormatError(f"{path}:{lineno}: non-finite coordinate")
        per_ped.setdefault(ped, []).append((int(frame), x, y))

    diffs = []
    for ped, obs in per_ped.items():
        frames = [o[0] for o in obs]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise DataFormatError(f"non-monotone frames for pedestrian {ped}")
        diffs.extend(b - a for a, b in zip(frames, frames[1:]))
    step = min(diffs) if diffs else 1

    tracklets: List[Tracklet] = []
    for ped, obs in per_ped.items():
        run: List[Tuple[int, float, float]] = [obs[0]]
        for prev, cur in zip(obs, obs[1:]):
            if cur[0] - prev[0] == step:
                run.append(cur)
            else:
                tracklets.append(_to_tracklet(ped, run))
                run = [cur]
        tracklets.append(_to_tracklet(ped, run))
    return RawTrajectories(tracklets=tracklets, frame_step=step)


def _to_tracklet(ped: str, run: List[Tuple[int, float, float]]) -> Tracklet:
    return Tracklet(
        ped_id=ped,
        frames=np.array([r[0] for r in run], dtype=np.int64),
        xy=np.array([[r[1], r[2]] for r in run], dtype=np.float64),
    )


def scene_window(
    raw: RawTrajectories, start: int, obs: int, pred: int
) -> TrajectoryScene:
    """The (obs+pred)-frame window of the recording that opens at frame
    `start`, over every pedestrian seen in at least one of its frames. A
    pedestrian whose track the window holds in several pieces (a gap) is
    named `<ped_id>@<first frame of the piece>` once per piece."""
    total = obs + pred
    frames = start + raw.frame_step * np.arange(total)
    members = [(t, mask) for t in raw.tracklets
               if (mask := np.isin(frames, t.frames)).any()]
    positions = np.zeros((len(members), total, 2))
    presence = np.zeros((len(members), total), dtype=bool)
    for i, (t, mask) in enumerate(members):
        positions[i, mask] = t.xy[np.searchsorted(t.frames, frames[mask])]
        presence[i] = mask
    pieces = Counter(t.ped_id for t, _ in members)
    ids = [t.ped_id if pieces[t.ped_id] == 1 else f"{t.ped_id}@{t.frames[0]}"
           for t, _ in members]
    return TrajectoryScene(ped_ids=ids, positions=positions, presence=presence, obs_len=obs)


def make_scenes(
    raw: RawTrajectories,
    obs: int = 8,
    pred: int = 12,
    stride: int = 1,
) -> List[TrajectoryScene]:
    """Slide (obs+pred)-frame windows over the recording; keep windows with at
    least one pedestrian observed for the whole window. Co-present pedestrians
    are carried along as masked neighbours."""
    if stride < 1:
        raise DataFormatError("stride must be >= 1")
    if not raw.tracklets:
        return []
    # a window has a target only where one tracklet spans it, so it opens at
    # one of that tracklet's frames: a gap in the frame numbers costs nothing
    total, every = obs + pred, stride * raw.frame_step
    lo = min(int(t.frames[0]) for t in raw.tracklets)
    starts = {int(f) for t in raw.tracklets for f in t.frames[:max(0, len(t.frames) - total + 1)]
              if (f - lo) % every == 0}
    return [scene_window(raw, start, obs, pred) for start in sorted(starts)]


def preprocess(scene: TrajectoryScene) -> TrajectoryScene:
    """Shift each pedestrian's coordinates by its own last-observation-frame
    position. Graph geometry stays in world coordinates (per-pedestrian shifts
    are not isometries of pairwise distances)."""
    if scene.origins is not None:
        return scene
    n, total = scene.n_peds, scene.total_len
    origins = np.zeros((n, 2))
    for i in range(n):
        obs_steps = np.flatnonzero(scene.presence[i, : scene.obs_len])
        if obs_steps.size:
            origins[i] = scene.positions[i, obs_steps[-1]]
        else:
            origins[i] = scene.positions[i, np.flatnonzero(scene.presence[i])[0]]
    shifted = np.where(
        scene.presence[:, :, None], scene.positions - origins[:, None, :], 0.0
    )
    return TrajectoryScene(
        ped_ids=list(scene.ped_ids), positions=shifted,
        presence=scene.presence.copy(), obs_len=scene.obs_len, origins=origins,
    )


def augment_rotation(scene: TrajectoryScene, rng: np.random.Generator) -> TrajectoryScene:
    """Rotate the whole scene about the origin by a uniform random angle."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, s], [-s, c]])  # row-vector convention: p' = p @ rot
    positions = np.where(scene.presence[:, :, None], scene.positions @ rot, 0.0)
    origins = scene.origins @ rot if scene.origins is not None else None
    return TrajectoryScene(
        ped_ids=list(scene.ped_ids), positions=positions,
        presence=scene.presence.copy(), obs_len=scene.obs_len, origins=origins,
    )


@dataclass
class Batch:
    """Scenes packed along the pedestrian axis, each scene's rows contiguous.
    Spatial attention runs per scene block (graph.scene_layout), so nobody
    attends across scenes; the temporal transformer never mixes pedestrians."""

    scene: TrajectoryScene
    sizes: np.ndarray  # (S,) pedestrians per source scene, in row order


def merge_scenes(scenes: Sequence[TrajectoryScene]) -> Batch:
    if not scenes:
        raise DataFormatError("cannot merge an empty scene list")
    total = scenes[0].total_len
    obs = scenes[0].obs_len
    shifted = scenes[0].origins is not None
    for s in scenes:
        if s.total_len != total or s.obs_len != obs or (s.origins is not None) != shifted:
            raise DataFormatError("scenes in a batch must share window layout")
    merged = TrajectoryScene(
        ped_ids=[pid for s in scenes for pid in s.ped_ids],
        positions=np.concatenate([s.positions for s in scenes]),
        presence=np.concatenate([s.presence for s in scenes]),
        obs_len=obs,
        origins=np.concatenate([s.origins for s in scenes]) if shifted else None,
    )
    return Batch(scene=merged, sizes=np.array([s.n_peds for s in scenes], dtype=np.int64))


def pack_batches(
    scenes: Sequence[TrajectoryScene],
    budget: int,
    max_scenes: int,
) -> List[Batch]:
    """Greedy packing up to ~budget pedestrians (and max_scenes scenes) per
    batch. A single scene over budget is emitted alone."""
    batches: List[Batch] = []
    pending: List[TrajectoryScene] = []
    count = 0
    for s in scenes:
        if pending and (count + s.n_peds > budget or len(pending) >= max_scenes):
            batches.append(merge_scenes(pending))
            pending, count = [], 0
        pending.append(s)
        count += s.n_peds
    if pending:
        batches.append(merge_scenes(pending))
    return batches

