"""startraj benchmark.

    python3 perfbench/run.py --workload train_solo --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process as a closed loop with
one caller, from the root of a source checkout: startraj is imported from
``src/``. It prints a readable report, then one JSON line with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``). Full results, and the spans of a traced run, are written
under ``.perfbench_out/``.

``--record-golden`` re-records golden.json from the current sources.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import workloads
from spans import CLOCK_POINTS, TRACE_POINTS, Tracer, summarize, to_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SETUP_REPS = 15

# name -> unit; the set BENCHMARK.json gates. Medians and tails of steps,
# best-of-K calls and rollouts are printed but not gated: a median sits on a
# few operations (nine scenes per infer_crowd window) and moves more than a
# mean.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "scenes_per_s": "1/s",
    "forward_ms": "ms",
}


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    env["blas_threads"] = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*blas*"))
    for path in libs:
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = int(fn())
                break
    return env


def p50(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """Highest order statistic with at least ten samples beyond it, and the
    percentile it sits at; None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def at_reference(window):
    """(op_s, forward_s) of the window in seconds at reference speed."""
    return ([v * window.ref_scale for v in window.op_s],
            [v * window.ref_scale for v in window.forward_s])


def end_to_end(window, setup_ref_s) -> dict:
    op_s, forward_s = at_reference(window)
    nan = float("nan")
    return {
        "setup_s": p50(setup_ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scenes_per_s": window.scenes / sum(op_s) if op_s else nan,
        "forward_ms": 1000.0 * statistics.fmean(forward_s) if forward_s else nan,
    }


def report_lines(wl, e2e, window, setup_s, setup_ref_s) -> list:
    """The end-to-end figures under their per-workload names, with units and
    sample counts. Times are at reference host speed; the wall-clock
    throughput and the reference are printed beside them."""
    op_s, forward_s = at_reference(window)
    n = len(op_s)
    wall = window.scenes / sum(window.op_s) if n else float("nan")
    lines = [f"setup_s = {e2e['setup_s']:.4f} s (median of {len(setup_ref_s)} at reference "
             f"speed; wall clock median {p50(setup_s):.4f} s)",
             f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB",
             f"host_ref_ms = {1000 * p50(window.ref_calls_s):.3f} ms (median of "
             f"{len(window.ref_calls_s)} kernel calls; times below are scaled to "
             f"{1000 * workloads.REF_CALL_S} ms)"]
    if wl.kind == "train":
        lines += [f"train_scenes_per_s = {e2e['scenes_per_s']:.4f} 1/s "
                  f"({window.scenes} scenes; wall clock {wall:.4f} 1/s)",
                  f"train_step_s_p50 = {p50(op_s):.4f} s (n={n}; warm-up step "
                  f"{window.warmup_s[0] if window.warmup_s else 0:.3f} s wall left out)",
                  f"forward_ms = {e2e['forward_ms']:.3f} ms (mean rollout time per step, n={n})"]
        return lines
    lines += [f"eval_scenes_per_s = {e2e['scenes_per_s']:.4f} 1/s "
              f"({window.scenes} scenes, {window.cycles} cycles; wall clock {wall:.4f} 1/s)",
              f"eval_scene_s_p50 = {p50(op_s):.4f} s (n={n})"]
    n = len(forward_s)
    lines += [f"predict_ms_p50 = {1000 * p50(forward_s):.3f} ms (n={n})",
              f"forward_ms = {e2e['forward_ms']:.3f} ms (predict_ms mean, n={n})"]
    t = tail(forward_s)
    lines.append(f"predict_ms_tail = {1000 * t[0]:.3f} ms at p{t[1]:.1f} (n={n})" if t else
                 f"predict_ms_tail not reported: n={n}, it needs at least 11 samples")
    share = {}
    for out, s in zip(window.outputs, op_s):
        share[out[0]] = share.get(out[0], 0.0) + s / sum(op_s)
    lines.append("eval_time_share_by_peds = "
                 + json.dumps({k: round(v, 3) for k, v in sorted(share.items())}))
    return lines


def per_layer(tracer, window, replay, load_s, inputs_info) -> dict:
    out = summarize(tracer.spans, window.ops)
    top = out.pop("trace.top_level_s")
    out.update({
        "tensor.tape_nodes": tracer.tape_nodes / max(tracer.tape_ops, 1),
        "tensor.tape_mb": tracer.tape_bytes / max(tracer.tape_ops, 1) / 2 ** 20,
        "graph.useful_logit_share":
            tracer.logits_allowed / tracer.logits_computed if tracer.logits_computed else 0.0,
        "graph.edges": inputs_info["edges"],
        "graph.neighbor_share": inputs_info["neighbor_share"],
        "model.load_checkpoint_s": p50(load_s) if load_s else 0.0,
        "trace.top_level_coverage": top / window.wall_s,
        "trace.overhead_s": window.real_s - replay.real_s,
        "trace.overhead_share": (window.real_s - replay.real_s) / replay.real_s,
    })
    return out


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_coverage")):
        return "share"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def record_golden(lib) -> int:
    golden = {"tolerance_abs": workloads.TOLERANCE}
    for name, wl in workloads.WORKLOADS.items():
        golden[name] = wl.probe(lib)
        print(f"{name}: {golden[name]}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "startraj", "__init__.py")):
        print(f"perfbench: no startraj sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_golden:
        return record_golden(workloads.import_startraj(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if not os.path.isfile(GOLDEN):
        print(f"perfbench: missing {GOLDEN}", file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    wl = workloads.WORKLOADS[args.workload]
    env = environment()

    # inputs are made before the set-up window opens
    lib = workloads.import_startraj(SRC)
    inputs = wl.make_inputs(lib, args.seed, OUT_DIR)
    try:
        return run(args, wl, env, golden, inputs)
    finally:
        if "checkpoint" in inputs:
            os.remove(inputs["checkpoint"])


def set_up(wl, inputs, seed: int, reps: int):
    """`reps` timed set-ups, each from a fresh import of startraj; returns
    the last library and state, the set-up times on the wall clock and at
    reference speed, and the checkpoint load times."""
    times, scaled, loads = [], [], []
    ref = workloads.setup_reference_s()
    for _ in range(reps):
        gc.collect()  # garbage from earlier set-ups is not this one's cost
        t0 = time.perf_counter()
        lib = workloads.import_startraj(SRC)
        state = wl.setup(lib, inputs, seed)
        times.append(time.perf_counter() - t0)
        ref_after = workloads.setup_reference_s()
        scaled.append(times[-1] * workloads.SETUP_REF_S * 2.0 / (ref + ref_after))
        ref = ref_after
        if state.load_s is not None:
            loads.append(state.load_s)
    return lib, state, times, scaled, loads


def run(args, wl, env, golden, inputs) -> int:
    info = wl.describe(inputs)

    lib, state, setup_s, setup_ref_s, load_s = set_up(wl, inputs, args.seed, SETUP_REPS)
    wl.warm_up(lib, state, args.seed)
    tracer = Tracer()
    if args.trace:
        tracer.count_at(wl.tape_point)
    missing = tracer.install(lib, TRACE_POINTS if args.trace else CLOCK_POINTS)
    clock_names = {f"{m}.{a}" for m, a, _ in CLOCK_POINTS}
    try:
        if clock_names & set(missing):
            raise RuntimeError(f"cannot time the window: startraj has no {missing}")
        window = wl.window(lib, tracer, state, args.seed, args.seconds)
    finally:
        tracer.uninstall()
    failures = [f"trace point {m} missing" for m in missing] + window.failures
    attempted = window.ops + len(missing)

    replay = None
    if args.trace:
        clock = Tracer()
        clock.install(lib, CLOCK_POINTS)  # present: the traced window ran
        try:
            replay = wl.replay(lib, clock, inputs, args.seed, window)
        finally:
            clock.uninstall()
        attempted += replay.ops
        failures += replay.failures
        if replay.outputs != window.outputs:
            failures.append("outputs of the traced window differ from the untraced replay")

    n_probe, probe_fails = workloads.check_golden(wl, lib, golden[wl.name])
    attempted += n_probe
    failures += probe_fails
    failed = min(len(failures), attempted)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    print("environment: " + json.dumps(env))
    print("inputs: " + json.dumps(info))
    for f in failures:
        print(f"FAILED {f}")
    print(f"fail_share = {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "environment": env, "inputs": info, "failures": failures}
    if args.trace:
        layer = per_layer(tracer, window, replay, load_s, info)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
        for k, v in metrics.items():
            print(f"{k} = {v['value']:.6g} {v['unit']}")
        result["spans"] = to_json(tracer.spans)
    else:
        e2e = end_to_end(window, setup_ref_s)
        for line in report_lines(wl, e2e, window, setup_s, setup_ref_s):
            print(line)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        result.update(op_s=window.op_s, forward_s=window.forward_s, ref_scale=window.ref_scale,
                      setup_s=setup_s, setup_ref_s=setup_ref_s)
    result["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
