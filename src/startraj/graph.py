"""Interaction-graph construction and the transformer-based graph convolution
(TGConv, the spatial transformer) applied per timestep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .attention import AttentionParams, head_projections, masked_attention, merge_heads
from .errors import DataFormatError, ShapeMismatchError
from .tensor import Tensor, concat, layer_norm, linear, parameter


@dataclass
class InteractionGraph:
    """Undirected proximity graph over pedestrians at one timestep.

    Neighbor sets exclude self; the convolution adds self back when it
    aggregates, so no self-loops are stored.
    """

    node_ids: List[Hashable]
    neighbors: Dict[Hashable, Set[Hashable]]
    threshold: float

    def edge_count(self) -> int:
        return sum(len(v) for v in self.neighbors.values()) // 2


def build_graph(
    positions: Sequence[Tuple[Hashable, float, float]], d: float
) -> InteractionGraph:
    """Connect every pair with Euclidean distance strictly less than d."""
    ids = [p[0] for p in positions]
    if len(set(ids)) != len(ids):
        raise DataFormatError("duplicate pedestrian ids in graph construction")
    xy = np.array([[p[1], p[2]] for p in positions], dtype=np.float64).reshape(-1, 2)
    if xy.size and not np.all(np.isfinite(xy)):
        raise DataFormatError("non-finite position in graph construction")
    neighbors: Dict[Hashable, Set[Hashable]] = {i: set() for i in ids}
    n = len(ids)
    if n > 1:
        diff = xy[:, None, :] - xy[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        close = dist < d
        for a in range(n):
            for b in range(a + 1, n):
                if close[a, b]:
                    neighbors[ids[a]].add(ids[b])
                    neighbors[ids[b]].add(ids[a])
    return InteractionGraph(node_ids=list(ids), neighbors=neighbors, threshold=d)


def adjacency_mask(graph: InteractionGraph, order: Optional[List[Hashable]] = None) -> np.ndarray:
    """Boolean (N, N) mask: self plus graph edges, in the given row order."""
    ids = list(graph.node_ids) if order is None else list(order)
    index = {pid: i for i, pid in enumerate(ids)}
    n = len(ids)
    allow = np.eye(n, dtype=bool)
    for pid in graph.node_ids:
        for nb in graph.neighbors[pid]:
            if pid in index and nb in index:
                allow[index[pid], index[nb]] = True
    return allow


@dataclass
class TGConvParams:
    """TGConv weights: one multi-head attention layer, whose output
    projection (wo, bo) serves as the feed-forward f_out, and two layer norms."""

    attn: AttentionParams
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @staticmethod
    def init(d_model: int, head_count: int, rng: np.random.Generator) -> "TGConvParams":
        return TGConvParams(
            attn=AttentionParams.init(d_model, head_count, rng),
            ln1_gain=parameter(np.ones(d_model)),
            ln1_bias=parameter(np.zeros(d_model)),
            ln2_gain=parameter(np.ones(d_model)),
            ln2_bias=parameter(np.zeros(d_model)),
        )

    def parameters(self, prefix: str) -> List[Tuple[str, Tensor]]:
        return self.attn.parameters(prefix) + [
            (f"{prefix}.ln1_gain", self.ln1_gain), (f"{prefix}.ln1_bias", self.ln1_bias),
            (f"{prefix}.ln2_gain", self.ln2_gain), (f"{prefix}.ln2_bias", self.ln2_bias),
        ]


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
    graphs: Sequence[InteractionGraph],
    params: TGConvParams,
    presence: Optional[np.ndarray] = None,
    return_weights: bool = False,
    layout: Optional[list] = None,
):
    """TGConv with shared weights at each timestep: every node attends over
    its graph neighbors plus itself; two skip connections, layer norm after
    each.

    h: (N, t, d_model); graphs: one per timestep, node ids are row indices
    into h; layout: scene_layout of the rows (default one scene), a node
    attends only within its scene. Absent pedestrians (presence False) pass
    through as zeros. With return_weights, also returns attention weights
    (t, heads, N, N), zero across scenes.
    """
    n, t, d = h.shape
    if len(graphs) != t:
        raise ShapeMismatchError(f"{len(graphs)} graphs for {t} timesteps")
    for step, g in enumerate(graphs):
        if g.node_ids and max(g.node_ids) >= n:
            raise ShapeMismatchError(
                f"graph {step} names node row {max(g.node_ids)}; h has {n} rows"
            )
    allow = np.stack([adjacency_mask(g, order=list(range(n))) for g in graphs])  # (t, N, N)
    x = h.swapaxes(0, 1)  # (t, N, d)
    attn = params.attn
    weights = np.zeros((t, attn.head_count, n, n)) if return_weights else None
    pieces = {}  # first row of a run -> its (t, rows, d) attention output
    for size, runs in layout or [(n, [(0, n)])]:
        # (t, S, size, d) blocks by slices and reshapes; a lone scene keeps (t, size, d)
        starts = [i for lo, hi in runs for i in range(lo, hi, size)]
        lone = len(starts) == 1
        rows = [x if hi - lo == n else x[:, lo:hi] for lo, hi in runs]
        xs = rows[0] if len(rows) == 1 else concat(rows, axis=1)  # (t, S * size, d)
        q, k, v = head_projections(xs if lone else xs.reshape(t, -1, size, d), attn)
        mask = np.stack([allow[:, i:i + size, i:i + size] for i in starts], axis=1)
        att, w = masked_attention(q, k, v, mask if lone else mask[:, :, None], attn.d_k)
        merged = merge_heads(att, attn)
        flat = merged if lone else merged.reshape(t, -1, d)  # (t, S * size, d)
        for lo, hi in runs:
            off = starts.index(lo) * size
            pieces[lo] = flat if len(runs) == 1 else flat[:, off:off + hi - lo]
        for j, i in enumerate(starts if return_weights else []):
            weights[:, :, i:i + size, i:i + size] = w.data if lone else w.data[:, j]
    y = concat([pieces[lo] for lo in sorted(pieces)], axis=1) if len(pieces) > 1 else pieces[0]
    a = layer_norm(y + x, params.ln1_gain, params.ln1_bias)
    out = layer_norm(linear(a, attn.wo, attn.bo) + a, params.ln2_gain, params.ln2_bias)
    out = out.swapaxes(0, 1)
    if presence is not None:
        out = out * Tensor(presence[:, :, None].astype(np.float64))
    if return_weights:
        return out, Tensor(weights)
    return out
