"""Synthetic constant-velocity-with-avoidance scenes for overfit and
plumbing tests. The generator is the ground-truth oracle: trajectories are
produced by a fixed simulation, so a model that memorizes them can be scored
against exact targets."""

from __future__ import annotations

import numpy as np

from .data import TrajectoryScene

DT = 0.4
AVOID_RADIUS = 2.0
AVOID_GAIN = 1.5


def simulate_scene(
    rng: np.random.Generator,
    n_peds: int = 2,
    total_len: int = 20,
    obs_len: int = 8,
) -> TrajectoryScene:
    """Pedestrians walk at constant velocity and softly repel each other
    inside AVOID_RADIUS."""
    pos = rng.uniform(-4.0, 4.0, size=(n_peds, 2))
    speed = rng.uniform(0.8, 1.4, size=(n_peds, 1))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n_peds)
    vel = speed * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    track = np.zeros((n_peds, total_len, 2))
    for t in range(total_len):
        track[:, t] = pos
        acc = np.zeros_like(pos)
        for i in range(n_peds):
            for j in range(n_peds):
                if i == j:
                    continue
                diff = pos[i] - pos[j]
                dist = np.linalg.norm(diff)
                if 1e-9 < dist < AVOID_RADIUS:
                    acc[i] += AVOID_GAIN * (AVOID_RADIUS - dist) * diff / dist
        vel = vel + acc * DT
        pos = pos + vel * DT
    return TrajectoryScene(
        ped_ids=[f"sim{i}" for i in range(n_peds)],
        positions=track,
        presence=np.ones((n_peds, total_len), dtype=bool),
        obs_len=obs_len,
    )

