"""Every text artifact and stdout line of the five CLI commands, pinned.

One seeded run of `train`, `eval`, `predict`, `attention` and `gradcheck`
on recordings without gaps is compared byte for byte with
`fixtures/cli_artifacts.json`. Manifests name their paths under the run's
temporary directory, which is replaced by `<tmp>`. Checkpoints are left out:
the v1, packed and golden fixtures pin their bits.

Re-record (only when an output is meant to change):
    PYTHONPATH=src python tests/test_cli_artifacts.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from startraj.cli import EXIT_OK, main
from startraj.data import DATASET_NAMES

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cli_artifacts.json")

CONFIG = ("d_model = 8\nheads = 2\npred_len = 2\ndropout = 0.0\nepochs = 2\n"
          "max_steps = 3\ncheckpoint_every = 1\naugment = false\n")


def _write_recording(path, seed, n_peds=4, frames=14):
    """Seeded linear walks; every pedestrian is present in every frame."""
    start, velocity = np.random.default_rng(seed).uniform(-2, 2, (2, n_peds, 2))
    lines = []
    for t in range(frames):
        for p in range(n_peds):
            x, y = start[p] + 0.2 * velocity[p] * t
            lines.append(f"{10 * t} {p} {x:.4f} {y:.4f}")
    path.write_text("\n".join(lines) + "\n")


def run_commands(root):
    """Run the five commands under `root`; {artifact or stdout name: text}."""
    root = pathlib.Path(root)
    data = root / "data"
    data.mkdir()
    for i, name in enumerate(DATASET_NAMES):
        _write_recording(data / f"{name}.txt", seed=i)
    cfg = root / "tiny.cfg"
    cfg.write_text(CONFIG)
    ckpt = str(root / "train" / "checkpoint_final.json")
    scene = str(data / "ZARA1.txt")
    commands = {
        "train": ["train", "--config", str(cfg), "--data-dir", str(data),
                  "--held-out", "ETH", "--seed", "3", "--stride", "2"],
        "eval": ["eval", "--checkpoint", ckpt, "--data-dir", str(data),
                 "--stride", "2", "--samples", "3", "--seed", "1"],
        "predict": ["predict", "--checkpoint", ckpt, "--scene", scene, "--seed", "2"],
        "attention": ["attention", "--checkpoint", ckpt, "--scene", scene,
                      "--timestep", "5", "--ped", "1"],
        "gradcheck": ["gradcheck", "--seed", "4"],
    }
    texts = {}
    for name, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--out", str(root / name)])
        assert code == EXIT_OK, (name, code)
        texts[f"{name}/stdout"] = out.getvalue()
        for fname in sorted(os.listdir(root / name)):
            if not fname.startswith("checkpoint_"):
                text = (root / name / fname).read_text(encoding="utf-8")
                texts[f"{name}/{fname}"] = text.replace(str(root), "<tmp>")
    return texts


def test_artifacts_match_fixture(tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = run_commands(tmp_path)
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        texts = run_commands(tmp)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(texts, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(texts)} entries to {FIXTURE}", file=sys.stderr)
