"""Fuzzing `predict`, `attention`, `train` and `eval` through cli.main.

A tiny checkpoint and scene file are mutated: checkpoint config values,
parameter shapes and values, dropped keys and wrong types; scene byte flips,
truncation and non-finite or overflowing fields. `train` gets a tiny config
file with odd values for known keys, unknown keys and lines without `=`, and
`train` and `eval` get data files mutated as the scene is, with far-off frame
ids too. Whatever the input, the command ends with a documented exit code (0
ok, 1 usage, 2 data, 3 numeric) and prints no traceback. Integers stay small:
a mutated size never asks for a large allocation, and a run takes one step.

Well-formed recordings, whose pedestrians enter, leave and skip frames at
will, must run: `train` and `eval` exit 0 on every variant, and `predict`
exits 0 or names the missing full observation window.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startraj.cli import main
from startraj.data import DATASET_NAMES
from startraj.model import VARIANT_FLAGS, StarConfig, init_params, save_checkpoint
from startraj.trainer import TrainSpec

COMMANDS = st.sampled_from(["predict", "attention"])
ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "transformer", "recurrent", [], [2], {},
                     float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 0.5]),
    st.integers(min_value=-8, max_value=64),
)
SCENE_FIELDS = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "",
                                "x", "1e300", "-0"])
# frame ids far from the others, which a window scan would walk frame by frame,
# and fractional or integral float spellings of one
FRAME_FIELDS = st.one_of(SCENE_FIELDS, st.sampled_from(["1e12", "-1e15", "9e15", "0.4", "2.9",
                                                        "-0.5", "30.0", "3e1", "1e-3"]))
# the tiny model and one-step run that the train fuzz mutates, line by line
TINY_CONFIG = ["d_model = 8", "heads = 2", "pred_len = 2", "dropout = 0.0", "epochs = 1",
               "max_steps = 1", "augment = false"]
CONFIG_KEYS = sorted(f.name for cls in (StarConfig, TrainSpec) for f in fields(cls))
SMALL_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "transformer", "recurrent", [], {},
                     float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 0.5]),
    st.integers(min_value=-4, max_value=16),
)
EXIT_CODES = {0, 1, 2, 3}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The checkpoint payload (d_model 8, pred_len 2) and a 10-frame scene of
    three pedestrians, one of them leaving early."""
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    config = StarConfig(d_model=8, heads=2, pred_len=2)
    save_checkpoint(str(path), init_params(config, np.random.default_rng(0)))
    lines = [f"{10 * t} {p} {0.3 * t + p:.3f} {0.1 * p * t:.3f}"
             for t in range(10) for p in range(3) if p < 2 or t < 9]
    return json.loads(path.read_text()), ("\n".join(lines) + "\n").encode()


def _exit(argv):
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _main(argv) -> None:
    code, err = _exit(argv)
    assert code in EXIT_CODES
    assert "Traceback" not in err


def _run(command: str, checkpoint: str, scene: bytes) -> None:
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "c.json").write_text(checkpoint)
        (Path(d) / "s.txt").write_bytes(scene)
        _main([command, "--checkpoint", f"{d}/c.json", "--scene", f"{d}/s.txt",
               "--out", f"{d}/out"])


def _mutated(data, scene: bytes, field_values=SCENE_FIELDS) -> bytes:
    """scene with flipped bytes, truncated, or with one field replaced."""
    scene = bytearray(scene)
    kind = data.draw(st.sampled_from(["flip", "truncate", "field"]))
    if kind == "flip":
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            at = data.draw(st.integers(min_value=0, max_value=len(scene) - 1))
            scene[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    elif kind == "truncate":
        del scene[data.draw(st.integers(min_value=0, max_value=len(scene) - 1)):]
    else:
        rows = [row.split(b" ") for row in bytes(scene).splitlines()]
        row = rows[data.draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        row[data.draw(st.integers(min_value=0, max_value=3))] = data.draw(field_values).encode()
        scene = bytearray(b"\n".join(b" ".join(r) for r in rows) + b"\n")
    return bytes(scene)


def _run_on_data(argv, scene: bytes, mutated: bytes, where: str, config: str = "") -> None:
    """Run argv (with {d} for its directory) on the five data sets, each a copy
    of scene except `where`, which holds mutated."""
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "data").mkdir()
        for name in DATASET_NAMES:
            (Path(d) / "data" / f"{name}.txt").write_bytes(mutated if name == where else scene)
        (Path(d) / "tiny.cfg").write_text(config)
        _main([arg.format(d=d) for arg in argv])


@settings(max_examples=100)
@given(command=COMMANDS, data=st.data())
def test_mutated_checkpoint(base, command, data):
    payload = json.loads(json.dumps(base[0]))
    config, params = payload["config"], payload["params"]
    entry = params[data.draw(st.sampled_from(sorted(params)))]
    kind = data.draw(st.sampled_from(["config", "shape", "values", "drop", "type"]))
    if kind == "config":
        config[data.draw(st.sampled_from(sorted(config)))] = data.draw(ODD_VALUES)
    elif kind == "shape":
        entry["shape"] = data.draw(st.one_of(
            ODD_VALUES, st.lists(st.integers(min_value=-2, max_value=40), max_size=3)))
    elif kind == "values":
        n = len(entry["values"])
        entry["values"] = data.draw(st.one_of(
            ODD_VALUES,
            st.lists(st.sampled_from([0.0, 1e300, -1e300, float("nan"), float("inf")]),
                     min_size=n, max_size=n),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=n + 2)))
    else:
        holder = data.draw(st.sampled_from([payload, config, params, entry]))
        key = data.draw(st.sampled_from(sorted(holder)))
        if kind == "drop":
            del holder[key]
        else:
            holder[key] = data.draw(ODD_VALUES)
    _run(command, json.dumps(payload), base[1])


@settings(max_examples=100)
@given(command=COMMANDS, data=st.data())
def test_mutated_scene(base, command, data):
    _run(command, json.dumps(base[0]), _mutated(data, base[1]))


TRAIN = ["train", "--config", "{d}/tiny.cfg", "--data-dir", "{d}/data", "--held-out", "ETH",
         "--out", "{d}/out"]


@settings(max_examples=60)
@given(data=st.data())
def test_mutated_train_config(base, data):
    lines = list(TINY_CONFIG)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        kind = data.draw(st.sampled_from(["known", "unknown", "no_equals"]))
        if kind == "known":
            line = f"{data.draw(st.sampled_from(CONFIG_KEYS))} = {data.draw(SMALL_VALUES)}"
        elif kind == "unknown":
            line = f"{data.draw(st.sampled_from(['banana', 'D_MODEL', 'lr', '']))} = 1"
        else:
            line = data.draw(st.sampled_from(["d_model 8", "heads", "x", "[section]"]))
        lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines))), line)
    _run_on_data(TRAIN, base[1], base[1], "", config="\n".join(lines) + "\n")


@settings(max_examples=60)
@given(data=st.data(), where=st.sampled_from(DATASET_NAMES[1:]))
def test_mutated_train_data(base, data, where):
    _run_on_data(TRAIN, base[1], _mutated(data, base[1], FRAME_FIELDS), where,
                 config="\n".join(TINY_CONFIG) + "\n")


@settings(max_examples=60)
@given(data=st.data(), where=st.sampled_from(DATASET_NAMES))
def test_mutated_eval_data(base, data, where):
    with tempfile.TemporaryDirectory() as d:
        checkpoint = Path(d) / "c.json"
        checkpoint.write_text(json.dumps(base[0]))
        _run_on_data(["eval", "--checkpoint", str(checkpoint), "--data-dir", "{d}/data",
                      "--samples", "3", "--out", "{d}/out"],
                     base[1], _mutated(data, base[1], FRAME_FIELDS), where)


def _recording(data, frames: int) -> str:
    """A well-formed recording on one frame grid: one pedestrian walks every
    frame, and 1-6 others are present on a drawn subset of the frames, so
    that they enter, leave and skip frames at random."""
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    present = [[True] * frames] + data.draw(st.lists(
        st.lists(st.booleans(), min_size=frames, max_size=frames), min_size=1, max_size=6))
    lines = []
    for ped, steps in enumerate(present):
        xy = rng.uniform(-5.0, 5.0, 2) + np.cumsum(rng.normal(0.0, 0.4, (frames, 2)), axis=0)
        lines += [f"{10 * f} {ped} {x:.3f} {y:.3f}"
                  for f, ((x, y), here) in enumerate(zip(xy, steps)) if here]
    return "\n".join(sorted(lines, key=lambda line: int(line.split()[0]))) + "\n"


@settings(max_examples=40)
@given(data=st.data(), variant=st.sampled_from(sorted(VARIANT_FLAGS)),
       deterministic=st.booleans(), teacher_forcing=st.booleans(),
       ff_dim=st.sampled_from([None, 4]), frames=st.integers(min_value=10, max_value=16))
def test_well_formed_recordings_run(data, variant, deterministic, teacher_forcing, ff_dim,
                                    frames):
    # a tiny one-step model (obs 8, pred 2) on recordings with entrants,
    # leavers and skipped frames
    lines = TINY_CONFIG + [f"deterministic = {str(deterministic).lower()}",
                           f"teacher_forcing = {str(teacher_forcing).lower()}"]
    lines += [] if ff_dim is None else [f"ff_dim = {ff_dim}"]
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "data").mkdir()
        for name in DATASET_NAMES:
            (Path(d) / "data" / f"{name}.txt").write_text(_recording(data, frames))
        (Path(d) / "tiny.cfg").write_text("\n".join(lines) + "\n")
        code, err = _exit([arg.format(d=d) for arg in TRAIN] + ["--variant", variant])
        assert code == 0, err
        checkpoint = f"{d}/out/checkpoint_final.json"
        code, err = _exit(["eval", "--checkpoint", checkpoint, "--data-dir", f"{d}/data",
                           "--samples", "2", "--out", f"{d}/eval"])
        assert code == 0, err
        code, err = _exit(["predict", "--checkpoint", checkpoint, "--scene",
                           f"{d}/data/ETH.txt", "--out", f"{d}/pred"])
        assert code == 0 or (code == 2 and "no pedestrian observed for all 8 frames" in err), err
