"""Command-line entry points: train, eval, predict, attention, gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every run writes a manifest.json into its output directory so reruns with
identical inputs and seed reproduce the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, gradcheck
from .data import (
    DATASET_NAMES, TrajectoryScene, leave_one_out_split, load_dataset,
    make_scenes, preprocess, scene_window,
)
from .errors import DataFormatError, MaskError, NonFiniteError
from .model import StarConfig, config_for_variant, load_checkpoint, rollout
from .trainer import (
    EvalReport, TrainSpec, evaluate, train, write_reports,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def seed_value(raw: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we document 1
        raise UsageError(message)


# ----------------------------------------------------------------------
# config files: flat key = value text, '#' comments
# ----------------------------------------------------------------------
_CONFIG_FIELDS = {f.name for f in fields(StarConfig)}
_SPEC_FIELDS = {f.name for f in fields(TrainSpec)}


def _parse_value(raw: str):
    low = raw.strip().lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", ""):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw.strip()


def load_config_file(path: str) -> Dict[str, object]:
    values: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise DataFormatError(f"{path}:{lineno}: expected key = value")
            key, raw = s.split("=", 1)
            key = key.strip()
            if key not in _CONFIG_FIELDS | _SPEC_FIELDS:
                raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(raw)
    return values


def _settings(cls, file_values: Dict[str, object], keys, flags: Dict[str, object]):
    """Build `cls` from the config file's values for `keys`, then apply the
    command-line flags that were given. A bad file value is a data error, a
    bad flag a usage error."""
    try:
        obj = cls(**{k: v for k, v in file_values.items() if k in keys})
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"config file: {exc}") from None
    try:
        return replace(obj, **{k: v for k, v in flags.items() if v is not None})
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _build_config(file_values: Dict[str, object], args) -> StarConfig:
    cfg = _settings(StarConfig, file_values, _CONFIG_FIELDS,
                    {"deterministic": args.deterministic or None})
    if args.variant:
        cfg = config_for_variant(args.variant, cfg)
    return cfg


def _build_spec(file_values: Dict[str, object], args) -> TrainSpec:
    return _settings(TrainSpec, file_values, _SPEC_FIELDS,
                     {"seed": args.seed, "epochs": args.epochs,
                      "max_steps": args.max_steps})


def write_manifest(out_dir: str, command: str, args_dict: dict,
                   config: Optional[dict], inputs: List[str],
                   outputs: List[str], seed: Optional[int]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    args_dict = {k: v for k, v in args_dict.items() if k != "func"}
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "args": args_dict,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# data helpers
# ----------------------------------------------------------------------
def _dataset_files(data_dir: str) -> Dict[str, str]:
    found = {}
    for name in DATASET_NAMES:
        for candidate in (f"{name}.txt", f"{name.lower()}.txt"):
            path = os.path.join(data_dir, candidate)
            if os.path.exists(path):
                found[name] = path
                break
    if not found:
        raise DataFormatError(f"no dataset files (<NAME>.txt) under {data_dir}")
    return found


def _load_scenes(path: str, config: StarConfig, stride: int,
                 dataset: str) -> List[TrajectoryScene]:
    raw = load_dataset(path)
    return make_scenes(raw, obs=config.obs_len, pred=config.pred_len,
                       stride=stride, dataset=dataset)


def scene_from_file(path: str, config: StarConfig) -> TrajectoryScene:
    """Build one prediction scene from a trajectory file: the first
    (obs+pred)-frame window; future frames may be absent."""
    raw = load_dataset(path)
    if not raw.tracklets:
        raise DataFormatError(f"{path}: no observations")
    lo = min(int(t.frames[0]) for t in raw.tracklets)
    scene = scene_window(raw, lo, config.obs_len, config.pred_len)
    if not scene.rollout_mask.any():
        raise DataFormatError(
            f"{path}: no pedestrian observed for all {config.obs_len} frames"
        )
    return scene


# ----------------------------------------------------------------------
# SVG helpers
# ----------------------------------------------------------------------
def _svg_document(elements: List[str], bounds: Tuple[float, float, float, float]) -> str:
    x0, y0, x1, y1 = bounds
    pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0 - pad:.3f} {y0 - pad:.3f} '
        f'{x1 - x0 + 2 * pad:.3f} {y1 - y0 + 2 * pad:.3f}">\n'
        + "\n".join(elements) + "\n</svg>\n"
    )


def _polyline(points: np.ndarray, color: str, role: str, ped: str) -> str:
    pts = " ".join(f"{x:.4f},{y:.4f}" for x, y in points)
    return (f'<polyline class="{role}" data-ped="{ped}" points="{pts}" '
            f'fill="none" stroke="{color}" stroke-width="0.08"/>')


def trajectory_svg(scene: TrajectoryScene, pred_world: np.ndarray) -> str:
    """History in yellow, ground truth in red, prediction in blue."""
    world = scene.world_positions()
    elements, all_pts = [], []
    rollers = scene.rollout_mask
    for i, pid in enumerate(scene.ped_ids):
        hist_steps = np.flatnonzero(scene.presence[i, : scene.obs_len])
        if hist_steps.size:
            pts = world[i, hist_steps]
            elements.append(_polyline(pts, "#e0c020", "history", str(pid)))
            all_pts.append(pts)
        fut_steps = np.flatnonzero(scene.presence[i, scene.obs_len:])
        if fut_steps.size:
            pts = world[i, scene.obs_len + fut_steps]
            elements.append(_polyline(pts, "#d03030", "truth", str(pid)))
            all_pts.append(pts)
        if rollers[i]:
            pts = pred_world[i]
            elements.append(_polyline(pts, "#3060d0", "prediction", str(pid)))
            all_pts.append(pts)
    stacked = np.concatenate(all_pts) if all_pts else np.zeros((1, 2))
    bounds = (stacked[:, 0].min(), stacked[:, 1].min(),
              stacked[:, 0].max(), stacked[:, 1].max())
    return _svg_document(elements, bounds)


def attention_svg(scene: TrajectoryScene, step: int, weights_row: np.ndarray,
                  focus: int) -> str:
    """Circles at pedestrian positions, sized by attention w.r.t. the focus
    pedestrian."""
    world = scene.world_positions()
    elements, all_pts = [], []
    for i, pid in enumerate(scene.ped_ids):
        if not scene.presence[i, step]:
            continue
        x, y = world[i, step]
        r = 0.1 + 0.9 * float(weights_row[i])
        color = "#d03030" if i == focus else "#3060d0"
        elements.append(
            f'<circle data-ped="{pid}" cx="{x:.4f}" cy="{y:.4f}" r="{r:.4f}" '
            f'fill="{color}" fill-opacity="0.6"/>'
        )
        all_pts.append([x, y])
    stacked = np.asarray(all_pts) if all_pts else np.zeros((1, 2))
    bounds = (stacked[:, 0].min() - 1, stacked[:, 1].min() - 1,
              stacked[:, 0].max() + 1, stacked[:, 1].max() + 1)
    return _svg_document(elements, bounds)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_train(args) -> int:
    if args.stride < 1:
        raise UsageError(f"--stride must be >= 1, got {args.stride}")
    file_values = load_config_file(args.config) if args.config else {}
    config = _build_config(file_values, args)
    spec = _build_spec(file_values, args)
    files = _dataset_files(args.data_dir)
    if args.held_out not in DATASET_NAMES:
        raise UsageError(f"unknown dataset {args.held_out!r}; "
                         f"expected one of {DATASET_NAMES}")
    train_files, _ = leave_one_out_split(files, args.held_out)
    scenes = []
    for name, path in sorted(train_files.items()):
        scenes.extend(_load_scenes(path, config, stride=args.stride, dataset=name))
    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, "loss_curve.txt")
    params, history = train(spec, config, scenes, out_dir=args.out,
                            log=lambda msg: print(msg))
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("step\tloss\n")
        for step, value in history:
            fh.write(f"{step}\t{value:.8f}\n")
    write_manifest(
        args.out, "train", vars(args), config.to_dict(),
        inputs=sorted(train_files.values()),
        outputs=[curve_path, os.path.join(args.out, "checkpoint_final.json")],
        seed=spec.seed,
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.stride < 1:
        raise UsageError(f"--stride must be >= 1, got {args.stride}")
    params = load_checkpoint(args.checkpoint)
    config = params.config
    files = _dataset_files(args.data_dir)
    if args.held_out:
        if args.held_out not in files:
            raise UsageError(f"dataset {args.held_out!r} not found in {args.data_dir}")
        files = {args.held_out: files[args.held_out]}
    reports: List[EvalReport] = []
    for name, path in sorted(files.items()):
        scenes = _load_scenes(path, config, stride=args.stride, dataset=name)
        reports.append(evaluate(params, scenes, K=args.samples, seed=args.seed,
                                variant=args.variant or "full", dataset=name))
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "eval_report.tsv")
    write_reports(report_path, reports)
    for r in reports:
        print(f"{r.dataset}: ADE {r.ade:.4f}  FDE {r.fde:.4f}  (K={r.k})")
    write_manifest(args.out, "eval", vars(args), config.to_dict(),
                   inputs=[args.checkpoint] + sorted(files.values()),
                   outputs=[report_path], seed=args.seed)
    return EXIT_OK


def cmd_predict(args) -> int:
    params = load_checkpoint(args.checkpoint)
    config = params.config
    scene = preprocess(scene_from_file(args.scene, config))
    rng = np.random.default_rng(args.seed)
    pred = rollout(scene, params, rng=rng).numpy()
    pred_world = pred + scene.origins[:, None, :]
    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "prediction.txt")
    rollers = scene.rollout_mask
    with open(traj_path, "w", encoding="utf-8") as fh:
        fh.write("# ped_id step x y\n")
        for i, pid in enumerate(scene.ped_ids):
            if not rollers[i]:
                continue
            for s in range(config.pred_len):
                fh.write(f"{pid} {s} {pred_world[i, s, 0]:.6f} {pred_world[i, s, 1]:.6f}\n")
    svg_path = os.path.join(args.out, "prediction.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(trajectory_svg(scene, pred_world))
    write_manifest(args.out, "predict", vars(args), config.to_dict(),
                   inputs=[args.checkpoint, args.scene],
                   outputs=[traj_path, svg_path], seed=args.seed)
    return EXIT_OK


def cmd_attention(args) -> int:
    params = load_checkpoint(args.checkpoint)
    config = params.config
    if not config.use_encoder2:
        raise DataFormatError("checkpoint has no encoder-2 spatial transformer")
    scene = preprocess(scene_from_file(args.scene, config))
    step = args.timestep
    if not (0 <= step < config.obs_len):
        raise UsageError(f"timestep must be in [0, {config.obs_len})")
    focus = args.ped
    if not (0 <= focus < scene.n_peds):
        raise UsageError(f"pedestrian index must be in [0, {scene.n_peds})")
    if not scene.presence[focus, step]:
        raise DataFormatError(f"pedestrian {focus} absent at timestep {step}")
    capture: dict = {}
    rollout(scene, params, rng=np.random.default_rng(args.seed), capture=capture)
    weights = capture["spatial2_weights"][step].mean(axis=0)  # (N, N), head-avg
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "attention.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("from_ped,to_ped,weight\n")
        for i in range(scene.n_peds):
            if not scene.presence[i, step]:
                continue
            for j in range(scene.n_peds):
                fh.write(f"{scene.ped_ids[i]},{scene.ped_ids[j]},{weights[i, j]:.12g}\n")
    svg_path = os.path.join(args.out, "attention.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(attention_svg(scene, step, weights[focus], focus))
    write_manifest(args.out, "attention", vars(args), config.to_dict(),
                   inputs=[args.checkpoint, args.scene],
                   outputs=[csv_path, svg_path], seed=args.seed)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report = gradcheck.run_suite(seed=args.seed, corrupt=args.corrupt)
    ok = True
    for name, err in report.items():
        status = "pass" if err < gradcheck.TOLERANCE else "FAIL"
        ok &= err < gradcheck.TOLERANCE
        print(f"{name:16s} max rel err {err:.3e}  {status}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "gradcheck.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        write_manifest(args.out, "gradcheck", vars(args), None,
                       inputs=[], outputs=[path], seed=args.seed)
    return EXIT_OK if ok else EXIT_NUMERIC


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def build_parser() -> _Parser:
    parser = _Parser(prog="startraj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--seed", type=seed_value, default=0)
        p.add_argument("--out", default=out_default)

    p = sub.add_parser("train", help="train on a leave-one-out split")
    p.add_argument("--config")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--held-out", required=True)
    p.add_argument("--variant", choices=("full", "no_memory", "lstm_temporal",
                                         "single_encoder"))
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--epochs", type=int)
    p.add_argument("--max-steps", type=int, dest="max_steps")
    common(p, "train_out")
    p.set_defaults(func=cmd_train, seed=None)  # the config file may set it

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--held-out")
    p.add_argument("--variant")
    p.add_argument("--stride", type=int, default=20)
    p.add_argument("--samples", "-K", type=int, default=20)
    common(p, "eval_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict trajectories for one scene file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    common(p, "predict_out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("attention", help="export encoder-2 spatial attention")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--timestep", type=int, default=0)
    p.add_argument("--ped", type=int, default=0)
    common(p, "attention_out")
    p.set_defaults(func=cmd_attention)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    common(p, None)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteError, MaskError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
