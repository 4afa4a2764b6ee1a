"""Interaction-graph construction and the transformer-based graph convolution
(TGConv, the spatial transformer) applied per timestep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import AttentionParams, head_projections, masked_attention, merge_heads
from .errors import DataFormatError, ShapeMismatchError
from .tensor import Tensor, concat, layer_norm, linear, parameter


def build_graph(
    world: np.ndarray, present: np.ndarray, scene_ids: np.ndarray, d: float
) -> np.ndarray:
    """Interaction graphs of t timesteps as a (t, N, N) bool array: [s, i, j]
    is True when pedestrians i != j of one scene are both present at step s
    and closer than d (strict <). No self-loops are stored; the convolution
    adds self back when it aggregates.

    world: (N, t, 2) positions; present: (N, t); scene_ids: (N,). Positions
    of absent slots are ignored; a non-finite present one raises
    DataFormatError.
    """
    on = np.asarray(present, dtype=bool).T  # (t, N)
    xy = np.asarray(world, dtype=np.float64).swapaxes(0, 1)  # (t, N, 2)
    if not np.all(np.isfinite(xy[on])):
        raise DataFormatError("non-finite position in graph construction")
    xy = np.where(on[:, :, None], xy, 0.0)  # absent slots may hold NaN
    diff = xy[:, :, None, :] - xy[:, None, :, :]  # (t, N, N, 2)
    ids = np.asarray(scene_ids)
    pairs = (ids[:, None] == ids[None, :]) & ~np.eye(len(ids), dtype=bool)
    both = on[:, :, None] & on[:, None, :] & pairs  # (t, N, N)
    return (np.sqrt((diff * diff).sum(axis=-1)) < d) & both


def adjacency_mask(graphs: np.ndarray, starts: Sequence[int], size: int) -> np.ndarray:
    """(t, S, size, size) attention masks, self plus graph edges, of the
    size-pedestrian scenes whose rows start at `starts`."""
    rows = np.asarray(starts)[:, None] + np.arange(size)  # (S, size)
    return graphs[:, rows[:, :, None], rows[:, None, :]] | np.eye(size, dtype=bool)


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


def scene_layout(scene_ids: np.ndarray) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """Rows packed by merge_scenes as (n, runs) per scene size n, where runs
    are the row ranges [lo, hi) of adjacent n-pedestrian scenes. Raises
    DataFormatError unless every scene's rows are contiguous."""
    ids = np.asarray(scene_ids)
    cuts = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
    if len(np.unique(ids)) != len(cuts) - 1:
        raise DataFormatError("each scene needs contiguous, non-empty rows")
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        runs = groups.setdefault(hi - lo, [])  # a scene right after its run extends it
        runs.append((runs.pop()[0] if runs and runs[-1][1] == lo else lo, hi))
    return sorted(groups.items())


def spatial_block(
    h: Tensor,
    graphs: np.ndarray,
    params: TGConvParams,
    presence: Optional[np.ndarray] = None,
    return_weights: bool = False,
    layout: Optional[list] = None,
):
    """TGConv with shared weights at each timestep: every node attends over
    its graph neighbours plus itself; two skip connections, layer norm after
    each.

    h: (N, t, d_model); graphs: (t, N, N) build_graph output over the rows
    of h; layout: scene_layout of the rows (default one scene), a node
    attends only within its scene. Absent pedestrians (presence False) pass
    through as zeros. With return_weights, also returns attention weights
    (t, heads, N, N), zero across scenes.
    """
    n, t, d = h.shape
    if np.shape(graphs) != (t, n, n):
        raise ShapeMismatchError(f"graphs {np.shape(graphs)} for h {h.shape}; need (t, N, N)")
    x = h.swapaxes(0, 1)  # (t, N, d)
    weights = np.zeros((t, params.head_count, n, n)) if return_weights else None
    pieces = {}  # first row of a run -> its (t, rows, d) attention output
    for size, runs in layout or [(n, [(0, n)])]:
        # (t, S, size, d) blocks by slices and reshapes; a lone scene keeps (t, size, d)
        starts = [i for lo, hi in runs for i in range(lo, hi, size)]
        lone = len(starts) == 1
        rows = [x if hi - lo == n else x[:, lo:hi] for lo, hi in runs]
        xs = rows[0] if len(rows) == 1 else concat(rows, axis=1)  # (t, S * size, d)
        q, k, v = head_projections(xs if lone else xs.reshape(t, -1, size, d), params)
        mask = adjacency_mask(graphs, starts, size)  # (t, S, size, size)
        att, w = masked_attention(q, k, v, mask if lone else mask[:, :, None], params.d_k)
        merged = merge_heads(att, params)
        flat = merged if lone else merged.reshape(t, -1, d)  # (t, S * size, d)
        for lo, hi in runs:
            off = starts.index(lo) * size
            pieces[lo] = flat if len(runs) == 1 else flat[:, off:off + hi - lo]
        for j, i in enumerate(starts if return_weights else []):
            weights[:, :, i:i + size, i:i + size] = w.data if lone else w.data[:, j]
    y = concat([pieces[lo] for lo in sorted(pieces)], axis=1) if len(pieces) > 1 else pieces[0]
    a = layer_norm(y + x, params.ln1_gain, params.ln1_bias)
    out = layer_norm(linear(a, params.wo, params.bo) + a, params.ln2_gain, params.ln2_bias)
    out = out.swapaxes(0, 1)
    if presence is not None:
        out = out * Tensor(presence[:, :, None].astype(np.float64))
    if return_weights:
        return out, Tensor(weights)
    return out
