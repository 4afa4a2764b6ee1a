"""Fuzzing `predict` and `attention` through cli.main.

A tiny checkpoint and scene file are mutated: checkpoint config values,
parameter shapes and values, dropped keys and wrong types; scene byte flips,
truncation and non-finite or overflowing fields. Whatever the input, the
command ends with a documented exit code (0 ok, 1 usage, 2 data, 3 numeric)
and prints no traceback. Integers stay small: a mutated size never asks for a
large allocation.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startraj.cli import main
from startraj.model import StarConfig, init_params, save_checkpoint

COMMANDS = st.sampled_from(["predict", "attention"])
ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "transformer", "recurrent", [], [2], {},
                     float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 0.5]),
    st.integers(min_value=-8, max_value=64),
)
SCENE_FIELDS = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "",
                                "x", "1e300", "-0"])
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


def _run(command: str, checkpoint: str, scene: bytes) -> None:
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "c.json").write_text(checkpoint)
        (Path(d) / "s.txt").write_bytes(scene)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--checkpoint", f"{d}/c.json", "--scene", f"{d}/s.txt",
                         "--out", f"{d}/out"])
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=100, deadline=None)
@given(command=COMMANDS, data=st.data())
def test_mutated_scene(base, command, data):
    scene = bytearray(base[1])
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
        row[data.draw(st.integers(min_value=0, max_value=3))] = data.draw(SCENE_FIELDS).encode()
        scene = bytearray(b"\n".join(b" ".join(r) for r in rows) + b"\n")
    _run(command, json.dumps(base[0]), bytes(scene))
