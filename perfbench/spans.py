"""Spans recorded around calls into startraj's layers, by rebinding module
attributes inside the benchmark's own process.

`model` and `trainer` import the functions they call by name, so a function
is rebound in the module that calls it (``model.spatial_block``, not
``graph.spatial_block``). `Tracer.install` returns the points whose
attribute does not exist: the windows cannot run without the clock points,
and a missing trace point fails the run, so that a rename never reads as a
layer that got faster.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, span name). The module key is resolved against the
# namespace of freshly imported startraj modules; "Tensor" is the class.
CLOCK_POINTS = [
    ("trainer", "rollout", "model.rollout"),
    ("trainer", "adam_step", "optim.adam_step"),
]
TRACE_POINTS = CLOCK_POINTS + [
    ("trainer", "scene_loss", "trainer.scene_loss"),
    ("trainer", "augment_rotation", "data.augment_rotation"),
    ("trainer", "preprocess", "data.preprocess"),
    ("trainer", "pack_batches", "data.pack_batches"),
    ("model", "embed_inputs", "model.embed_inputs"),
    ("model", "encoder1", "model.encoder1"),
    ("model", "encoder2", "model.encoder2"),
    ("model", "decode_step", "model.decode_step"),
    ("model", "build_graph", "graph.build_graph"),
    ("model", "spatial_block", "graph.spatial_block"),
    ("model", "temporal_block", "attention.temporal_block"),
    ("graph", "adjacency_mask", "graph.adjacency_mask"),
    ("graph", "masked_attention", "attention.masked_attention"),
    ("Tensor", "backward", "tensor.backward"),
]

Span = Tuple[str, float, float, int, int]  # name, start, end, parent, op id


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Hooks, keyed by span name, run after each such call with its arguments
    and result. Times come from a clock that stops while hooks run, so that
    counting tape nodes or mask cells, or timing the host reference, is
    charged to no span and no window.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.op = 0
        self.hidden_s = 0.0
        self.hooks: Dict[str, List[Callable]] = {}
        self._saved: List[Tuple[object, str, object]] = []
        self.tape_nodes = self.tape_bytes = self.tape_ops = 0
        self.logits_allowed = self.logits_computed = 0

    def now(self) -> float:
        return time.perf_counter() - self.hidden_s

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = self.now()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = self.now()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            hooks = self.hooks.get(name)
            if hooks:
                with self.aside():
                    for hook in hooks:
                        hook(args, out)
            return out

        return traced

    @contextmanager
    def aside(self):
        """Take the time spent in the block off the tracer's clock."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.hidden_s += time.perf_counter() - t0

    def count_at(self, tape_point: str) -> None:
        """Count the tape reachable from each output of `tape_point`, and the
        logit cells of every spatial attention call."""

        def on_tape(_args, out):
            nodes, nbytes = count_tape(out)
            self.tape_nodes += nodes
            self.tape_bytes += nbytes
            self.tape_ops += 1

        def on_logits(args, _out):
            allowed, computed = logit_cells(args)
            self.logits_allowed += allowed
            self.logits_computed += computed

        self.hooks.setdefault(tape_point, []).append(on_tape)
        self.hooks.setdefault("attention.masked_attention", []).append(on_logits)

    def install(self, lib, points) -> List[str]:
        """Rebind every point that exists; return the "module.attr" of those
        that do not."""
        missing = []
        for module, attr, name in points:
            owner = lib.tensor.Tensor if module == "Tensor" else getattr(lib, module)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def count_tape(root) -> Tuple[int, int]:
    """Nodes reachable from `root` through the autodiff tape, and the bytes
    of their data arrays."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes


def logit_cells(args) -> Tuple[int, int]:
    """(allowed, computed) logit cells of one masked_attention call."""
    q, k, allow = args[0], args[1], np.asarray(args[3], dtype=bool)
    computed = int(np.prod(q.shape[:-1])) * k.shape[-2]
    allowed = int(np.count_nonzero(allow)) * (computed // allow.size)
    return allowed, computed


def summarize(spans: List[Span], n_ops: int) -> Dict[str, float]:
    """Per-layer figures from a traced window: seconds and calls per operation,
    where an operation is one optimizer step or one evaluated scene."""
    names = [s[0] for s in spans]
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    self_s = dur - child
    name_arr = np.array(names, dtype=object)
    parent_name = np.where(has_parent, name_arr[np.maximum(parent, 0)], "")
    ops = max(n_ops, 1)

    def total(name, values=dur, where=None):
        sel = name_arr == name
        if where is not None:
            sel &= where
        return float(values[sel].sum()) / ops

    def calls(name, where=None):
        sel = name_arr == name
        if where is not None:
            sel &= where
        return float(sel.sum()) / ops

    enc1 = parent_name == "model.encoder1"
    enc2 = parent_name == "model.encoder2"
    in_eval = parent_name == "trainer.best_of_k"
    evals = int((name_arr == "trainer.best_of_k").sum())
    return {
        "tensor.backward_s": total("tensor.backward"),
        "optim.adam_s": total("optim.adam_step"),
        "data.prep_s": total("data.augment_rotation") + total("data.preprocess")
        + total("data.pack_batches"),
        "graph.mask_s": total("graph.adjacency_mask"),
        "graph.mask_calls": calls("graph.adjacency_mask"),
        "graph.build_s": total("graph.build_graph"),
        "graph.build_calls": calls("graph.build_graph"),
        "graph.spatial_s.enc1": total("graph.spatial_block", where=enc1),
        "graph.spatial_s.enc2": total("graph.spatial_block", where=enc2),
        "attention.core_s": total("attention.masked_attention"),
        "attention.temporal_s.enc1": total("attention.temporal_block", where=enc1),
        "attention.temporal_s.enc2": total("attention.temporal_block", where=enc2),
        "model.embed_s": total("model.embed_inputs"),
        "model.decode_s": total("model.decode_step"),
        "model.encoder1_self_s": total("model.encoder1", values=self_s),
        "model.encoder2_self_s": total("model.encoder2", values=self_s),
        "model.rollout_s": total("model.rollout"),
        "model.rollout_calls": calls("model.rollout"),
        "trainer.best_of_k_s": total("trainer.best_of_k"),
        "trainer.rollouts_per_eval_scene":
            float((in_eval & (name_arr == "model.rollout")).sum()) / max(evals, 1),
        "trainer.scene_loss_s": total("trainer.scene_loss"),
        "trace.top_level_s": float(dur[~has_parent].sum()),
    }


def to_json(spans: List[Span]) -> dict:
    """Columnar form for the trace file."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start_s", "end_s", "parent", "op"],
        "rows": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]] for s in spans],
    }
