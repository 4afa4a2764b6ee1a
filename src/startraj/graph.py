"""Interaction-graph construction and the transformer-based graph convolution
(TGConv, the spatial transformer) applied per timestep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .attention import AttentionParams, head_projections, masked_attention
from .errors import DataFormatError, ShapeMismatchError
from .tensor import Tensor, concat, layer_norm, linear, parameter

Layout = List[Tuple[int, List[Tuple[int, int]]]]  # scene_layout's (n, runs) per scene size


def scene_layout(sizes: np.ndarray) -> Layout:
    """Rows packed by merge_scenes, scenes of `sizes` pedestrians in row
    order, as (n, runs) per scene size n, where runs are the row ranges
    [lo, hi) of adjacent n-pedestrian scenes: the one grouping that
    build_graph and spatial_block read, made once per rollout."""
    cuts = [0, *np.cumsum(sizes).tolist()]
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        runs = groups.setdefault(hi - lo, [])  # a scene right after its run extends it
        runs.append((runs.pop()[0] if runs and runs[-1][1] == lo else lo, hi))
    return sorted(groups.items())


def build_graph(world: np.ndarray, present: np.ndarray, layout: Layout,
                d: float) -> List[np.ndarray]:
    """TGConv's attention masks over t timesteps: one (t, S, size, size) bool
    array per layout entry, for its S scenes of size pedestrians in row
    order. [s, k, i, j] is True for i == j, and for pedestrians i, j of scene
    k who are both present at step s and closer than d (strict <).

    world: (N, t, 2) positions; present: (N, t); layout: scene_layout of the
    N rows. Positions of absent slots are ignored; a non-finite present one
    raises DataFormatError.
    """
    on = np.asarray(present, dtype=bool).T  # (t, N)
    xy = np.asarray(world, dtype=np.float64).swapaxes(0, 1)  # (t, N, 2)
    if not np.all(np.isfinite(xy[on])):
        raise DataFormatError("non-finite position in graph construction")
    xy = np.where(on[:, :, None], xy, 0.0)  # absent slots may hold NaN
    masks = []
    for size, runs in layout:
        rows = np.concatenate([np.arange(lo, hi) for lo, hi in runs]).reshape(-1, size)
        x, y, here = (np.take(a, rows, axis=1) for a in (xy[..., 0], xy[..., 1], on))
        dx, dy = x[..., :, None] - x[..., None, :], y[..., :, None] - y[..., None, :]
        masks.append(adjacency_mask(np.sqrt(dx * dx + dy * dy) < d, here))
    return masks


def adjacency_mask(near: np.ndarray, here: np.ndarray) -> np.ndarray:
    """(t, S, size, size) attention masks, self plus graph edges, from the
    pairwise nearness (t, S, size, size) and presence (t, S, size) of S
    scenes: an edge joins two near pedestrians who are both present."""
    return near & here[..., :, None] & here[..., None, :] | np.eye(near.shape[-1], dtype=bool)


@dataclass
class TGConvParams(AttentionParams):
    """TGConv weights: one multi-head attention layer, whose output
    projection (wo, bo) serves as the feed-forward f_out, and two layer norms."""

    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @classmethod
    def init(cls, d_model: int, head_count: int, rng: np.random.Generator) -> "TGConvParams":
        norm = lambda fill: parameter(np.full(d_model, fill))
        return super().init(d_model, head_count, rng, ln1_gain=norm(1.0), ln1_bias=norm(0.0),
                            ln2_gain=norm(1.0), ln2_bias=norm(0.0))


def spatial_block(h: Tensor, masks: List[np.ndarray], params: TGConvParams,
                  layout: Layout) -> Tensor:
    """TGConv with shared weights at each timestep: every node attends over
    its graph neighbours plus itself; two skip connections, layer norm after
    each.

    h: (N, t, d_model); masks: build_graph's, used as given, over the t
    steps and the layout, scene_layout of the rows. A node attends only
    within its scene, all scenes of one size, a lone scene included, in one
    attention call over (t, S, size, d_model) blocks. The masks are the only
    presence mask: an absent node attends to itself alone and no node to it,
    so its input reaches no present output, and its own output is left for
    the masks downstream to ignore.
    """
    n, t, d = h.shape
    need = [(t, sum(hi - lo for lo, hi in runs) // size, size, size) for size, runs in layout]
    shapes = [np.shape(m) for m in masks]
    if shapes != need or sum(s * size for _, s, size, _ in need) != n:
        raise ShapeMismatchError(f"masks {shapes} for h {h.shape}; need {need}")
    x = h.swapaxes(0, 1)  # (t, N, d)
    pieces = {}  # first row of a run -> its (t, rows, d) attention output
    for (size, runs), mask in zip(layout, masks):
        # (t, S, size, d) blocks by slices and reshapes
        xs = concat([x if hi - lo == n else x[:, lo:hi] for lo, hi in runs], axis=1)
        q, k, v = head_projections(xs.reshape(t, -1, size, d), params)
        flat = masked_attention(q, k, v, mask, params.head_count).reshape(t, -1, d)
        off = 0  # first row of the run within flat
        for lo, hi in runs:
            pieces[lo] = flat if len(runs) == 1 else flat[:, off:off + hi - lo]
            off += hi - lo
    y = concat([pieces[lo] for lo in sorted(pieces)], axis=1)
    a = layer_norm(y + x, params.ln1_gain, params.ln1_bias)
    out = layer_norm(linear(a, params.wo, params.bo, a), params.ln2_gain, params.ln2_bias)
    return out.swapaxes(0, 1)
