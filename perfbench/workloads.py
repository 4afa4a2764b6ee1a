"""The benchmark's workloads: seeded inputs, set-up, the timed closed loop
with one caller, output checks and the golden probe.

Every workload drives startraj's public API. Inputs come from
``synthetic.simulate_scene`` seeded by ``--seed``; the golden probe replays a
few operations on inputs from the fixed GOLDEN_SEED and compares them with
values recorded in golden.json.
"""

from __future__ import annotations

import importlib
import marshal
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from spans import Tracer

LAYERS = ("tensor", "optim", "attention", "graph", "model", "data", "trainer", "synthetic")
GOLDEN_SEED = 2005
CHECKPOINT_SEED = 8514
# Absolute tolerance on losses, ADE and FDE; no looser than the 1e-9
# packed-vs-solo bound of the acceptance suite.
TOLERANCE = 1e-9
K = 20
# Predict calls per crowd scene, each with its own sampling seed. One call
# per scene gives nine per window, and the mean of nine single rollouts of
# 8 to 40 pedestrians spread by 0.09 (IQR / median) over ten runs.
PREDICT_CALLS = 3
THRESHOLD_M = 10.0
# Pedestrians per crowd scene, one cycle; each size weighs 1/9 of the scenes.
# The mix is an assumption, not derived from the recordings, which are not in
# the repository: mostly small crowds with a tail of dense UNIV-like ones.
# Several sizes sit near the median so that the medians do not hang on one
# scene's geometry; the order is fixed so that every run covers the same mix.
CROWD_SIZES = (8, 9, 10, 11, 12, 13, 14, 24, 40)
# Host-speed reference. The host's speed moves between modes about 1.4x apart
# in phases of seconds to minutes. A fixed kernel that mixes the program's
# kinds of work (a tape of small-array ops and closures swept in reverse, a
# pass over 2 MB, small matmuls) is timed after each rollout and each
# optimizer step, and the window's times are scaled to seconds at the speed
# where one kernel call takes REF_CALL_S. One scale per window: a single
# sample after a packed rollout scatters too much to scale that rollout alone.
REF_CALL_S = 1.6e-3
REF_SHARE = 0.05      # kernel time at a sample, as a share of the time since the last
REF_MAX_CALLS = 20
REF_POINTS = ("model.rollout", "optim.adam_step")
_REF_X = np.random.default_rng(0).standard_normal((8, 12, 16))
_REF_W = np.random.default_rng(1).standard_normal((16, 16)) / 4.0
_REF_BIG = np.random.default_rng(2).standard_normal(1 << 18)
_REF_OUT = np.empty_like(_REF_BIG)  # preallocated: allocator state left by
# the program would otherwise decide whether the pass page-faults
_REF_M = np.random.default_rng(3).standard_normal((64, 64))
# Set-up reference: set-up is mostly imports, which numpy kernels do not
# track, so each set-up is scaled by the time of loading and executing this
# fixed module-like code object, taken before and after it, to seconds at
# the speed where that takes SETUP_REF_S.
SETUP_REF_S = 3.3e-3
_SETUP_SRC = "from dataclasses import dataclass\nimport numpy as np\n" + "".join(
    f"@dataclass\nclass C{c}:\n" + "".join(f"    f{i}: int = {i}\n" for i in range(8))
    + "    def m(self, x):\n        return [x * k for k in range(self.f1)]\n"
    for c in range(6)) + "".join(
    f"def fn{f}(a, b=None, *c, **d):\n    return {{'a': a, 'x': np.zeros(3) + a, 'n': {f}}}\n"
    for f in range(30)) + "TABLE = {i: str(i) * 3 for i in range(300)}\n"
_SETUP_BLOB = marshal.dumps(compile(_SETUP_SRC, "<setup-reference>", "exec", dont_inherit=True))
# A train window that runs past this multiple of --seconds, plus 30 s, is
# aborted: the stop signal (TrainSpec.max_steps) is no longer honoured.
OVERRUN_LIMIT = 2.0


class WindowOverrun(RuntimeError):
    pass


def reference_s() -> float:
    """Time of one call of the fixed reference kernel."""
    t0 = time.perf_counter()
    tape = [(_REF_X, None)]
    for _ in range(40):
        y = np.tanh(tape[-1][0] @ _REF_W + 0.01)
        tape.append((y, lambda g, y=y: (g * (1.0 - y * y)) @ _REF_W.T))
    g = np.ones_like(_REF_X)
    for _, back in reversed(tape[1:]):
        g = back(g)
    acc = float(np.multiply(_REF_BIG, 1.0001, out=_REF_OUT).sum())
    for _ in range(40):
        acc += float(np.maximum(_REF_M @ _REF_M, 0.0)[0, 0])
    return time.perf_counter() - t0


def setup_reference_s() -> float:
    """Median time of three loads and runs of the set-up reference code."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        exec(marshal.loads(_SETUP_BLOB), {"__name__": "setup_reference"})
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostReference:
    """Samples the reference kernel as a tracer hook at REF_POINTS, for the
    scale from a window's clock to seconds at reference speed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.last = tracer.now()
        self.samples: List[Tuple[float, float]] = []  # (clock time covered, kernel time)
        self.calls: List[float] = []
        for name in REF_POINTS:
            tracer.hooks.setdefault(name, []).append(self.sample)

    def sample(self, _args=None, _out=None) -> None:
        """Runs off the tracer's clock, as a hook."""
        now = self.tracer.now()
        n = min(REF_MAX_CALLS, int(REF_SHARE * (now - self.last) / REF_CALL_S))
        if n == 0:
            return  # too little time since the last sample to pay for one
        times = [reference_s() for _ in range(n)]
        self.calls += times
        self.samples.append((now - self.last, statistics.median(times)))
        self.last = now

    def close(self) -> float:
        """Stop sampling; return REF_CALL_S over the kernel's time, averaged
        over the samples by the clock time each covers."""
        for name in REF_POINTS:
            self.tracer.hooks[name].remove(self.sample)
        with self.tracer.aside():
            self.sample()
        if not self.samples:
            return 1.0
        covered = sum(d for d, _ in self.samples)
        return REF_CALL_S * covered / sum(d * k for d, k in self.samples)


def import_startraj(src: str) -> SimpleNamespace:
    """Import startraj afresh from `src`, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "startraj" or m.startswith("startraj.")]:
        del sys.modules[name]
    pkg = importlib.import_module("startraj")
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"startraj imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"startraj.{m}") for m in LAYERS})


def neighbor_stats(scenes) -> Tuple[float, float]:
    """Mean undirected edges per (scene, frame) and mean neighbour share at
    THRESHOLD_M over every frame of the window, from the inputs alone."""
    edges, shares = [], []
    for s in scenes:
        n = s.positions.shape[0]
        for t in range(s.positions.shape[1]):
            p = s.positions[:, t]
            d = np.sqrt(((p[:, None] - p[None, :]) ** 2).sum(-1))
            e = (np.count_nonzero(d < THRESHOLD_M) - n) / 2
            edges.append(e)
            shares.append(e / (n * (n - 1) / 2))
    return float(np.mean(edges)), float(np.mean(shares))


def oracle_ade_fde(pred: np.ndarray, scene) -> Tuple[float, float]:
    """Scalar ADE/FDE over target pedestrians, independent of trainer.ade."""
    obs = scene.obs_len
    a_sum = f_sum = 0.0
    a_n = f_n = 0
    for i in range(pred.shape[0]):
        if not scene.targets[i]:
            continue
        for t in range(pred.shape[1]):
            if not scene.presence[i, obs + t]:
                continue
            dx = pred[i, t, 0] - scene.positions[i, obs + t, 0]
            dy = pred[i, t, 1] - scene.positions[i, obs + t, 1]
            d = math.sqrt(dx * dx + dy * dy)
            a_sum += d
            a_n += 1
            if t == pred.shape[1] - 1:
                f_sum += d
                f_n += 1
    return a_sum / a_n, f_sum / f_n


def param_digest(params) -> List[float]:
    total = sq = 0.0
    for _, t in params.parameters():
        total += float(t.data.sum())
        sq += float((t.data * t.data).sum())
    return [total, sq]


def close(a, b) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= TOLERANCE for x, y in zip(a, b))


@dataclass
class Window:
    """What one timed window did and produced."""

    ops: int = 0
    scenes: int = 0              # scenes in the timed operations
    wall_s: float = 0.0          # window time on the tracer's clock
    real_s: float = 0.0          # window time including hidden work
    # Per timed operation, on the wall clock: its time (a step, or one
    # best_of_k call) and the forward pass in it (the step's rollouts, or the
    # predict rollout). ref_scale turns them into seconds at reference speed.
    op_s: List[float] = field(default_factory=list)
    forward_s: List[float] = field(default_factory=list)
    ref_scale: float = 1.0
    ref_calls_s: List[float] = field(default_factory=list)
    warmup_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    cycles: int = 0


class TrainWorkload:
    """`trainer.train` on a pool of 8-pedestrian scenes, `scene_batch` scenes
    per optimizer step. The window stops once --seconds have passed after the
    warm-up step, by lowering `TrainSpec.max_steps` from the step clock."""

    kind = "train"
    tape_point = "trainer.scene_loss"

    def __init__(self, name: str, why: str, pool: int, scene_batch: int, probe_steps: int):
        self.name, self.why = name, why
        self.pool, self.scene_batch, self.probe_steps = pool, scene_batch, probe_steps

    def make_inputs(self, lib, seed: int, out_dir: str) -> dict:
        rng = np.random.default_rng(seed)
        scenes = [lib.synthetic.simulate_scene(rng, n_peds=8) for _ in range(self.pool)]
        return {"scenes": scenes}

    def describe(self, inputs) -> dict:
        sizes = [s.n_peds for s in inputs["scenes"]]
        edges, share = neighbor_stats(inputs["scenes"])
        return {"ped_counts": sorted(set(sizes)), "ped_count_mean": float(np.mean(sizes)),
                "peds_per_step": 8 * self.scene_batch, "edges": edges, "neighbor_share": share}

    def setup(self, lib, inputs, seed: int) -> SimpleNamespace:
        params = lib.model.init_params(lib.model.StarConfig(), np.random.default_rng(seed))
        return SimpleNamespace(params=params, scenes=inputs["scenes"], load_s=None)

    def warm_up(self, lib, state, seed: int) -> None:
        """Nothing: `train` is one call, so its first step is the warm-up."""

    def window(self, lib, tracer, state, seed: int, seconds: float,
               max_steps: Optional[int] = None) -> Window:
        """The first step warms allocator and caches up and is left out of the
        timings; the window proper runs from its end for `seconds`."""
        spec = lib.trainer.TrainSpec(scene_batch=self.scene_batch, epochs=10 ** 6,
                                     seed=seed, max_steps=max_steps or 10 ** 9)
        w = Window()
        v0, r0 = tracer.now(), time.perf_counter()
        host = HostReference(tracer)
        ends = []

        def on_step(_args, _out):  # runs off the tracer's clock
            ends.append(tracer.now())
            tracer.op += 1
            if max_steps is not None:
                return
            if len(ends) > 1 and ends[-1] - ends[0] >= seconds:
                spec.max_steps = min(spec.max_steps, tracer.op)
            if time.perf_counter() - r0 > OVERRUN_LIMIT * seconds + 30.0:
                raise WindowOverrun("train did not stop at TrainSpec.max_steps")

        tracer.hooks["optim.adam_step"].insert(0, on_step)
        history = []
        try:
            _, history = lib.trainer.train(spec, state.params.config, state.scenes,
                                           params=state.params)
        except Exception as exc:  # counted as one failed operation
            w.failures.append(f"step {len(ends)}: {type(exc).__name__}: {exc}")
        finally:
            tracer.hooks["optim.adam_step"].remove(on_step)
            w.ref_scale = host.close()
        w.wall_s, w.real_s = tracer.now() - v0, time.perf_counter() - r0
        steps = list(np.diff([v0] + ends))
        forward = [0.0] * len(ends)
        for name, start, end, _, op in tracer.spans:
            if name == "model.rollout" and op < len(ends):
                forward[op] += end - start
        w.warmup_s, w.op_s, w.forward_s = steps[:1], steps[1:], forward[1:]
        w.ref_calls_s = host.calls
        w.ops = len(ends) + (1 if w.failures else 0)
        w.scenes = len(w.op_s) * self.scene_batch
        losses = [v for _, v in history]
        w.outputs = losses + param_digest(state.params)
        w.failures += [f"step {i}: non-finite loss" for i, v in enumerate(losses)
                       if not math.isfinite(v)]
        if not all(math.isfinite(v) for v in w.outputs[len(losses):]):
            w.failures.append("non-finite parameters after the window")
        return w

    def replay(self, lib, tracer, inputs, seed: int, traced: Window) -> Window:
        state = self.setup(lib, inputs, seed)
        return self.window(lib, tracer, state, seed, 0.0, max_steps=max(traced.ops, 1))

    def probe(self, lib) -> dict:
        inputs = self.make_inputs(lib, GOLDEN_SEED, "")
        params = lib.model.init_params(lib.model.StarConfig(),
                                       np.random.default_rng(GOLDEN_SEED))
        spec = lib.trainer.TrainSpec(scene_batch=self.scene_batch, epochs=10 ** 6,
                                     seed=GOLDEN_SEED, max_steps=self.probe_steps)
        _, history = lib.trainer.train(spec, params.config, inputs["scenes"], params=params)
        return {"seed": GOLDEN_SEED, "losses": [v for _, v in history],
                "param_digest": param_digest(params)}

    def compare(self, got: dict, golden: dict) -> List[str]:
        fails = []
        want, have = golden["losses"], got["losses"]
        for i, w in enumerate(want):
            if i >= len(have) or not abs(have[i] - w) <= TOLERANCE:
                fails.append(f"golden step {i}: loss {have[i] if i < len(have) else None!r} != {w!r}")
        if not close(got["param_digest"], golden["param_digest"]):
            fails.append("golden parameter digest after the probe steps differs")
        return fails


class InferWorkload:
    """Per scene, one `model.rollout` (predict) and one `trainer.best_of_k`
    with K = 20, on parameters loaded with `load_checkpoint`. The window runs
    whole cycles of CROWD_SIZES, stopping at the cycle end nearest to --seconds."""

    kind = "infer"
    tape_point = "model.rollout"
    probe_scenes = 2

    def __init__(self, name: str, why: str):
        self.name, self.why = name, why

    def make_inputs(self, lib, seed: int, out_dir: str, sizes=CROWD_SIZES) -> dict:
        rng = np.random.default_rng(seed)
        scenes = [lib.synthetic.simulate_scene(rng, n_peds=n) for n in sizes]
        inputs = {"scenes": scenes}
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"checkpoint-{os.getpid()}.json")
            params = lib.model.init_params(lib.model.StarConfig(),
                                           np.random.default_rng(CHECKPOINT_SEED))
            lib.model.save_checkpoint(path, params)
            inputs["checkpoint"] = path
        return inputs

    def describe(self, inputs) -> dict:
        sizes = [s.n_peds for s in inputs["scenes"]]
        edges, share = neighbor_stats(inputs["scenes"])
        return {"ped_counts": sizes, "ped_count_mean": float(np.mean(sizes)),
                "edges": edges, "neighbor_share": share}

    def setup(self, lib, inputs, seed: int) -> SimpleNamespace:
        t0 = time.perf_counter()
        params = lib.model.load_checkpoint(inputs["checkpoint"])
        load_s = time.perf_counter() - t0
        scenes = [lib.data.preprocess(s) for s in inputs["scenes"]]
        return SimpleNamespace(params=params, scenes=scenes, load_s=load_s)

    def warm_up(self, lib, state, seed: int) -> None:
        """One untimed predict call, so that the first timed one is not cold."""
        lib.model.rollout(state.scenes[0], state.params, rng=np.random.default_rng([seed, K]))

    def _scene_ops(self, lib, tracer, params, scenes, seed: int, cycle: int, w: Window):
        predict = tracer.wrap("model.rollout", lib.model.rollout)
        evaluate = tracer.wrap("trainer.best_of_k", lib.trainer.best_of_k)
        for i, scene in enumerate(scenes):
            tracer.op = w.ops
            w.ops += 1
            try:
                preds, predict_s = [], []
                for r in range(PREDICT_CALLS):
                    t0 = tracer.now()
                    key = [seed, cycle, i, 0] if r == 0 else [seed, cycle, i, 0, r]
                    preds.append(predict(scene, params, rng=np.random.default_rng(key)).data)
                    predict_s.append(tracer.now() - t0)
                t1 = tracer.now()
                best = evaluate(scene, params, K=K, rng=np.random.default_rng([seed, cycle, i, 1]))
                t2 = tracer.now()
            except Exception as exc:  # counted as one failed operation
                w.failures.append(f"scene {i}: {type(exc).__name__}: {exc}")
                continue
            w.forward_s += predict_s
            w.op_s.append(t2 - t1)
            w.scenes += 1
            w.outputs.append((i, preds, best))

    def window(self, lib, tracer, state, seed: int, seconds: float,
               cycles: Optional[int] = None) -> Window:
        w = Window()
        v0, r0 = tracer.now(), time.perf_counter()
        host = HostReference(tracer)
        while True:
            self._scene_ops(lib, tracer, state.params, state.scenes, seed, w.cycles, w)
            w.cycles += 1
            if cycles is not None:
                done = w.cycles >= cycles
            else:  # stop at the cycle boundary nearest to `seconds`
                elapsed = tracer.now() - v0
                done = 2.0 * elapsed + elapsed / w.cycles >= 2.0 * seconds
            if done:
                break
        w.ref_scale = host.close()
        w.wall_s, w.real_s = tracer.now() - v0, time.perf_counter() - r0
        w.ref_calls_s = host.calls
        self.check(lib, state.scenes, w)
        return w

    def check(self, lib, scenes, w: Window) -> None:
        """Checks every predict call's output against the scalar oracle; the
        first call's ADE/FDE and the best-of-K result are kept as outputs."""
        checked = []
        for i, preds, best in w.outputs:
            scene = scenes[i]
            truth = scene.positions[:, scene.obs_len:]
            mask = scene.targets[:, None] & scene.presence[:, scene.obs_len:]
            af = []
            for pred in preds:
                if pred.shape != (scene.n_peds, scene.pred_len, 2) or not np.all(np.isfinite(pred)):
                    w.failures.append(f"scene {i}: predict output malformed or non-finite")
                    break
                a, f = oracle_ade_fde(pred, scene)
                lib_af = (lib.trainer.ade(pred, truth, mask), lib.trainer.fde(pred, truth, mask))
                if not close([a, f], lib_af):
                    w.failures.append(f"scene {i}: oracle ADE/FDE {a, f} != library {lib_af}")
                af.append((a, f))
            if len(af) < len(preds):
                continue
            if not all(math.isfinite(v) and v >= 0 for v in best):
                w.failures.append(f"scene {i}: best-of-{K} result {best!r}")
            checked.append((scene.n_peds, af[0][0], af[0][1], float(best[0]), float(best[1])))
        w.outputs = checked

    def replay(self, lib, tracer, inputs, seed: int, traced: Window) -> Window:
        state = self.setup(lib, inputs, seed)
        return self.window(lib, tracer, state, seed, 0.0, cycles=traced.cycles)

    def probe(self, lib) -> dict:
        inputs = self.make_inputs(lib, GOLDEN_SEED, "", sizes=CROWD_SIZES[: self.probe_scenes])
        params = lib.model.init_params(lib.model.StarConfig(),
                                       np.random.default_rng(CHECKPOINT_SEED))
        scenes = [lib.data.preprocess(s) for s in inputs["scenes"]]
        w = Window()
        self._scene_ops(lib, Tracer(), params, scenes, GOLDEN_SEED, 0, w)
        self.check(lib, scenes, w)
        if w.failures:
            raise RuntimeError("; ".join(w.failures))
        return {"seed": GOLDEN_SEED, "scenes": [list(o) for o in w.outputs]}

    def compare(self, got: dict, golden: dict) -> List[str]:
        fails = []
        for j, want in enumerate(golden["scenes"]):
            have = got["scenes"][j] if j < len(got["scenes"]) else None
            if have is None or have[0] != want[0] or not close(have[1:], want[1:]):
                fails.append(f"golden scene {j}: {have!r} != {want!r}")
        return fails


def check_golden(wl, lib, golden: dict) -> Tuple[int, List[str]]:
    """(attempted, failures) of the workload's golden probe."""
    ops = len(golden["losses"]) if "losses" in golden else len(golden["scenes"])
    try:
        fails = wl.compare(wl.probe(lib), golden)
    except Exception as exc:  # the whole probe counts as failed
        fails = [f"golden probe: {type(exc).__name__}: {exc}"] * ops
    return ops, fails


WORKLOADS: Dict[str, object] = {
    w.name: w for w in (
        TrainWorkload(
            "train_solo",
            "one 8-ped scene per step: tape and per-op overhead dominate, every spatial logit is useful",
            pool=16, scene_batch=1, probe_steps=3),
        TrainWorkload(
            "train_packed",
            "16 packed 8-ped scenes per step (N=128): dense spatial attention wastes logits and sets peak memory",
            pool=32, scene_batch=16, probe_steps=2),
        InferWorkload(
            "infer_crowd",
            "predict plus best-of-20 on 8-40 ped crowds: graph and mask rebuilds, K sequential samples, unused tapes"),
    )
}
