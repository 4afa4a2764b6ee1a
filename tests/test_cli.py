"""CLI commands, exit codes, manifests, and exported artifacts.

All invocations go through cli.main() in-process.
"""

import json
import os
import pathlib
import re
import warnings

import numpy as np
import pytest

import startraj.cli
from startraj.cli import (
    _CONFIG_FIELDS, _SPEC_FIELDS, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
    load_config_file, main, scene_from_file,
)
from startraj.data import DATASET_NAMES, preprocess
from startraj.errors import DataFormatError, ShapeMismatchError
from startraj.model import (
    VARIANT_FLAGS, StarConfig, init_params, load_checkpoint, rollout, save_checkpoint,
)


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


# checkpoint payload -> malformed file content (text, or a payload to dump)
MALFORMED_CHECKPOINTS = {
    "not-json": lambda p: "{ this is not json",
    "unknown-config-key": lambda p: {**p, "config": {**p["config"], "banana": 1}},
    "bad-config-value": lambda p: {**p, "config": {**p["config"], "heads": 3}},
    "int-bool-setting": lambda p: {**p, "config": {**p["config"], "deterministic": 3}},
    "text-bool-setting": lambda p: {**p, "config": {**p["config"], "use_memory": "maybe"}},
    "float-version": lambda p: {**p, "version": 2.0},
    "bool-version": lambda p: {**p, "version": True},
    "missing-params": lambda p: _without(p, "params"),
    "missing-shape": lambda p: {**p, "params": {
        **p["params"], "decoder.b": _without(p["params"]["decoder.b"], "shape")}},
    "nan-weight": lambda p: {**p, "params": {
        **p["params"], "decoder.b": {"shape": [2], "values": [float("nan"), 0.0]}}},
    "inf-weight": lambda p: {**p, "params": {
        **p["params"], "decoder.b": {"shape": [2], "values": [0.0, float("inf")]}}},
}

# config-file lines that name a bad value for one run setting; each exits 2
BAD_CONFIG_LINES = [
    "epochs = 0", "heads = 5", "d_model = 7\nheads = 7", "learning_rate = fast",
    "noise_dim = -40", "d_model = -8", "d_model = 0", "ff_dim = -3", "ff_dim = 0",
    "obs_len = 2.5", "pred_len = 2.5", "noise_dim = 2.5", "epochs = 2.5",
    "seed = -1", "seed = 2.5", "dropout = 2", "dropout = 1.0", "dropout = false",
    "graph_threshold = nan", "graph_threshold = -1", "learning_rate = nan",
    "max_steps = nan", "ped_budget = inf", "scene_batch = 2.5",
    "checkpoint_every = 2.5", "use_memory = maybe", "deterministic = 3",
    "use_encoder2 = 1", "teacher_forcing = yes", "augment = no",
]


def _write_dataset(path, seed, n_peds=2, frames=10):
    """Linear trajectories, one pedestrian pair, `frames` timesteps."""
    rng = np.random.default_rng(seed)
    lines = []
    for p in range(n_peds):
        x0, y0 = rng.uniform(-2, 2, 2)
        vx, vy = rng.uniform(-0.5, 0.5, 2)
        for t in range(frames):
            lines.append(f"{10 * t} {p} {x0 + vx * t:.4f} {y0 + vy * t:.4f}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    for i, name in enumerate(DATASET_NAMES):
        _write_dataset(d / f"{name}.txt", seed=i)
    return d


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(
        "# tiny architecture for fast tests\n"
        "d_model = 8\n"
        "heads = 2\n"
        "pred_len = 2\n"
        "dropout = 0.0\n"
        "deterministic = true\n"
        "epochs = 1\n"
        "max_steps = 2\n"
        "augment = false\n"
    )
    return p


@pytest.fixture
def checkpoint(tmp_path, data_dir, config_file):
    out = tmp_path / "train_out"
    code = main([
        "train", "--config", str(config_file), "--data-dir", str(data_dir),
        "--held-out", "ETH", "--out", str(out), "--seed", "0",
    ])
    assert code == EXIT_OK
    return out / "checkpoint_final.json"


class TestExitCodes:
    def test_usage_error_missing_required(self):
        assert main(["train"]) == EXIT_USAGE

    def test_usage_error_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_usage_error_bad_held_out(self, data_dir):
        code = main(["train", "--data-dir", str(data_dir), "--held-out", "NOPE"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("held_out, code, message", [
        ("NOPE", EXIT_USAGE, "unknown dataset 'NOPE'"),
        ("ETH", EXIT_DATA, "held-out dataset ETH: no ETH.txt under {d}"),
    ], ids=["unknown", "missing"])
    def test_held_out_unknown_or_missing(self, tmp_path, data_dir, capsys, command,
                                         held_out, code, message):
        # one check for both commands: a name outside DATASET_NAMES is a usage
        # error, a known name without its file a data error naming the file
        (data_dir / "ETH.txt").unlink()
        ckpt = tmp_path / "c.json"
        save_checkpoint(str(ckpt), init_params(StarConfig(d_model=8, heads=2, pred_len=2),
                                               np.random.default_rng(0)))
        argv = {"train": ["train"], "eval": ["eval", "--checkpoint", str(ckpt)]}[command]
        assert main(argv + ["--data-dir", str(data_dir), "--held-out", held_out,
                            "--out", str(tmp_path / "o")]) == code
        assert message.format(d=data_dir) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_data_error_missing_checkpoint(self, data_dir, tmp_path):
        code = main([
            "eval", "--checkpoint", str(tmp_path / "missing.json"),
            "--data-dir", str(data_dir), "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_DATA

    def test_data_error_empty_data_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["train", "--data-dir", str(empty), "--held-out", "ETH"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_data_error_malformed_checkpoint(self, tmp_path, data_dir, capsys, case):
        good = tmp_path / "good.json"
        config = StarConfig(d_model=8, heads=2, pred_len=2)
        save_checkpoint(str(good), init_params(config, np.random.default_rng(0)))
        bad = MALFORMED_CHECKPOINTS[case](json.loads(good.read_text()))
        path = tmp_path / "bad.json"
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        code = main(["predict", "--checkpoint", str(path), "--scene",
                     str(data_dir / "ZARA1.txt"), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--epochs", "0"], ["--epochs", "-2"],
                                      ["--max-steps", "0"]])
    def test_usage_error_bad_train_flag(self, tmp_path, data_dir, config_file, flag):
        code = main(["train", "--config", str(config_file), "--data-dir",
                     str(data_dir), "--held-out", "ETH",
                     "--out", str(tmp_path / "o")] + flag)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("line", BAD_CONFIG_LINES)
    def test_data_error_bad_config_value(self, tmp_path, data_dir, capsys, line):
        # pred_len 2 fits the 10-frame recordings, so only `line` is at fault
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"pred_len = 2\nmax_steps = 1\n{line}\n")
        code = main(["train", "--config", str(cfg), "--data-dir", str(data_dir),
                     "--held-out", "ETH", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert line.split()[0] in capsys.readouterr().err

    def test_data_error_duplicate_config_key(self, tmp_path, data_dir, capsys):
        # a key given twice is an error naming both lines, as in
        # configparser's strict mode, not the last value silently kept
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("d_model = 32\npred_len = 2\n# smaller\nd_model = 16\n")
        code = main(["train", "--config", str(cfg), "--data-dir", str(data_dir),
                     "--held-out", "ETH", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {cfg}:4: key 'd_model' repeats line 1\n"

    @pytest.mark.parametrize("command", [
        ["train", "--data-dir", "d", "--held-out", "ETH"],
        ["eval", "--checkpoint", "c.json", "--data-dir", "d"],
        ["predict", "--checkpoint", "c.json", "--scene", "s.txt"],
        ["attention", "--checkpoint", "c.json", "--scene", "s.txt"],
        ["gradcheck"],
    ], ids=lambda c: c[0])
    def test_usage_error_negative_seed(self, capsys, command):
        assert main(command + ["--seed", "-1"]) == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("frame", ["inf", "1e400"])
    def test_data_error_overflowing_frame_id(self, tmp_path, capsys, frame):
        self._predict_second_frame(tmp_path, capsys, frame)

    def test_data_error_fractional_frame_id(self, tmp_path, capsys):
        self._predict_second_frame(tmp_path, capsys, "1.4")

    def _predict_second_frame(self, tmp_path, capsys, frame):
        """predict on a scene whose second line has the frame id `frame`
        exits 2, naming that line."""
        ckpt = tmp_path / "c.json"
        config = StarConfig(d_model=8, heads=2, pred_len=2)
        save_checkpoint(str(ckpt), init_params(config, np.random.default_rng(0)))
        scene = tmp_path / "scene.txt"
        scene.write_text(f"0 a 0.0 0.0\n{frame} a 1.0 1.0\n")
        code = main(["predict", "--checkpoint", str(ckpt), "--scene", str(scene),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{scene}:2" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["predict", "attention", "train-config",
                                         "train-data"])
    def test_data_error_non_utf8_file(self, tmp_path, data_dir, config_file, capsys,
                                      command):
        # one 0xff byte, which no UTF-8 text contains, in an otherwise valid file
        ckpt = tmp_path / "c.json"
        save_checkpoint(str(ckpt), init_params(StarConfig(d_model=8, heads=2, pred_len=2),
                                               np.random.default_rng(0)))
        bad = {"train-config": config_file, "train-data": data_dir / "ZARA1.txt"}.get(
            command, data_dir / "HOTEL.txt")
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))
        argv = {
            "predict": ["predict", "--checkpoint", str(ckpt), "--scene", str(bad)],
            "attention": ["attention", "--checkpoint", str(ckpt), "--scene", str(bad)],
            "train-config": ["train", "--config", str(bad), "--data-dir", str(data_dir),
                             "--held-out", "ETH"],
            "train-data": ["train", "--config", str(config_file), "--data-dir",
                           str(data_dir), "--held-out", "ETH"],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err

    def test_usage_error_unknown_eval_variant(self, tmp_path, data_dir, checkpoint, capsys):
        code = main(["eval", "--checkpoint", str(checkpoint), "--data-dir",
                     str(data_dir), "--variant", "bogus", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_usage_error_zero_samples(self, tmp_path, data_dir, checkpoint, capsys):
        code = main(["eval", "--checkpoint", str(checkpoint), "--data-dir",
                     str(data_dir), "-K", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "argument --samples/-K: samples must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_usage_error_bad_train_stride(self, tmp_path, data_dir, config_file,
                                          capsys, stride):
        code = main(["train", "--config", str(config_file), "--data-dir",
                     str(data_dir), "--held-out", "ETH", "--stride", stride,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert (f"argument --stride: stride must be >= 1, got {stride}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_usage_error_bad_eval_stride(self, tmp_path, data_dir, checkpoint,
                                         capsys, stride):
        code = main(["eval", "--checkpoint", str(checkpoint), "--data-dir",
                     str(data_dir), "--stride", stride, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert (f"argument --stride: stride must be >= 1, got {stride}"
                in capsys.readouterr().err)

    def test_gradcheck_success(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "full_rollout" in out and "FAIL" not in out

    def test_gradcheck_corrupted_detector(self, capsys, skewed_q_gradient):
        # one analytic gradient is skewed; the detector must fire
        assert main(["gradcheck", "--seed", "0"]) == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out

    def test_gradcheck_deterministic_report(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["gradcheck", "--seed", "3", "--out", str(a)]) == EXIT_OK
        assert main(["gradcheck", "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert (a / "gradcheck.json").read_text() == (b / "gradcheck.json").read_text()

    def test_shape_mismatch_is_data_error(self, tmp_path, data_dir, checkpoint, monkeypatch,
                                          capsys):
        # no CLI input is known to reach a ShapeMismatchError; raised here
        def mismatched(path):
            raise ShapeMismatchError("memory holds 3 steps; expected 7")

        monkeypatch.setattr(startraj.cli, "load_checkpoint", mismatched)
        code = main(["predict", "--checkpoint", str(checkpoint), "--scene",
                     str(data_dir / "ZARA1.txt"), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: memory holds 3 steps; expected 7\n"

    def test_overflow_is_one_numeric_line(self, tmp_path, data_dir, checkpoint, capsys):
        # finite weights that overflow in the forward pass: numpy warns of
        # nothing, and the non-finite check reports the failure in one line
        payload = json.loads(checkpoint.read_text())
        entry = payload["params"]["embed_spatial.w"]
        entry["values"] = [1e300] * len(entry["values"])
        huge_ck = tmp_path / "huge.json"
        huge_ck.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["predict", "--checkpoint", str(huge_ck), "--scene",
                         str(data_dir / "ZARA1.txt"), "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1


    @pytest.mark.parametrize("layer", ["enc1.spatial", "enc2.spatial", "enc1.temporal.attn"])
    def test_overflowing_attention_is_named(self, tmp_path, data_dir, checkpoint, capsys,
                                            layer):
        # finite query and key weights whose logits overflow
        payload = json.loads(checkpoint.read_text())
        for w in ("wq", "wk"):
            entry = payload["params"][f"{layer}.{w}"]
            entry["values"] = [1e300] * len(entry["values"])
        huge_ck = tmp_path / "huge.json"
        huge_ck.write_text(json.dumps(payload))
        code = main(["predict", "--checkpoint", str(huge_ck), "--scene",
                     str(data_dir / "ZARA1.txt"), "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric failure: non-finite attention weights\n"


class TestConfigFiles:
    def test_round_trip(self, config_file):
        values = load_config_file(str(config_file))
        assert values["d_model"] == 8
        assert values["deterministic"] is True
        assert values["augment"] is False

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("banana = 3\n")
        with pytest.raises(DataFormatError, match="banana"):
            load_config_file(str(p))

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("d_model 8\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_config_file(str(p))


class TestReadme:
    """README's config-file keys and `--variant` list name exactly the keys
    that load_config_file accepts and the VARIANT_FLAGS names, so no setting
    is added, dropped or renamed without its documentation."""

    LINES = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8").splitlines()

    def test_config_file_keys(self, tmp_path):
        found = re.search(r"Keys are the model fields +\(([^)]*)\) +plus training fields"
                          r" +\(([^)]*)\)", " ".join(self.LINES))
        assert found, "README's Config files section lists no keys"
        model, training = (re.findall(r"`(\w+)`", group) for group in found.groups())
        assert sorted(model) == sorted(_CONFIG_FIELDS)
        assert sorted(training) == sorted(_SPEC_FIELDS)
        cfg = tmp_path / "every_key.cfg"
        cfg.write_text("".join(f"{key} = 1\n" for key in model + training))
        assert set(load_config_file(str(cfg))) == _CONFIG_FIELDS | _SPEC_FIELDS

    def test_variant_list(self):
        # the bullets after the intro line, up to the first unindented text
        start = self.LINES.index("`--variant` selects an ablation:") + 1
        names = []
        for line in self.LINES[start:]:
            if line.startswith("- "):
                names.append(re.match(r"- `(\w+)`", line).group(1))
            elif line and not line.startswith("  "):
                break
        assert names == list(VARIANT_FLAGS)


class TestTrainCommand:
    def test_artifacts_and_manifest(self, checkpoint):
        out = checkpoint.parent
        assert checkpoint.exists()
        assert (out / "loss_curve.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 0
        assert manifest["config"]["d_model"] == 8
        # leave-one-out: held-out ETH is not a training input
        assert not any("ETH" in os.path.basename(p) for p in manifest["inputs"])
        assert len(manifest["inputs"]) == 4

    def test_loss_curve_schema(self, checkpoint):
        lines = (checkpoint.parent / "loss_curve.txt").read_text().strip().splitlines()
        assert lines[0] == "step\tloss"
        assert len(lines) >= 2
        step, loss = lines[1].split("\t")
        assert step == "0" and float(loss) > 0

    def test_seed_from_config_file_unless_flag(self, tmp_path, data_dir, config_file):
        config_file.write_text(config_file.read_text() + "seed = 5\n")
        args = ["train", "--config", str(config_file), "--data-dir", str(data_dir),
                "--held-out", "ETH"]
        for extra, seed in (([], 5), (["--seed", "2"], 2)):
            out = tmp_path / f"seed_{seed}"
            assert main(args + ["--out", str(out)] + extra) == EXIT_OK
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed

    def test_out_of_memory_is_data_error(self, tmp_path, data_dir, config_file, monkeypatch,
                                         capsys):
        # a model too large for the host (say d_model = 1000000) fails in
        # train with numpy's MemoryError; raised here without allocating
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000, 1000000) and data type float64")

        monkeypatch.setattr(startraj.cli, "train", too_large)
        code = main(["train", "--config", str(config_file), "--data-dir", str(data_dir),
                     "--held-out", "ETH", "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: out of memory") and "7.28 TiB" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_variant_flag(self, tmp_path, data_dir, config_file):
        out = tmp_path / "variant_out"
        code = main([
            "train", "--config", str(config_file), "--data-dir", str(data_dir),
            "--held-out", "HOTEL", "--variant", "no_memory", "--out", str(out),
        ])
        assert code == EXIT_OK
        ck = json.loads((out / "checkpoint_final.json").read_text())
        assert ck["config"]["use_memory"] is False

    def test_deterministic_key_and_flag_store_noise_dim_0(self, tmp_path, data_dir,
                                                          config_file, checkpoint):
        # `deterministic = true` in the file (the checkpoint fixture's) and
        # the flag are inputs: the written configs hold noise_dim 0 alone
        flagged = tmp_path / "flagged.cfg"
        flagged.write_text(config_file.read_text().replace("deterministic = true",
                                                           "noise_dim = 3"))
        out = tmp_path / "flag_out"
        assert main(["train", "--config", str(flagged), "--data-dir", str(data_dir),
                     "--held-out", "ETH", "--deterministic", "--out", str(out)]) == EXIT_OK
        for run in (checkpoint.parent, out):
            for name in ("checkpoint_final.json", "manifest.json"):
                written = json.loads((run / name).read_text())["config"]
                assert written["noise_dim"] == 0 and "deterministic" not in written


class TestEvalCommand:
    def test_report_rows(self, tmp_path, data_dir, checkpoint):
        out = tmp_path / "eval_out"
        code = main([
            "eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir),
            "--out", str(out), "--stride", "20", "--samples", "5",
        ])
        assert code == EXIT_OK
        lines = (out / "eval_report.tsv").read_text().strip().splitlines()
        assert lines[0] == "variant\tdataset\tseed\tade\tfde\tk"
        # one row per dataset, labelled from the default-config checkpoint
        assert [line.split("\t")[:3] for line in lines[1:]] == [
            ["full", name, "0"] for name in sorted(DATASET_NAMES)]

    def test_variant_disagreeing_with_checkpoint_rejected(self, tmp_path, data_dir,
                                                           checkpoint, capsys):
        # the model comes from the checkpoint, a full-variant one here
        code = main(["eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir),
                     "--variant", "lstm_temporal", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "lstm_temporal" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, label", [
        ({"use_memory": False}, "no_memory"),
        ({"temporal_kind": "recurrent", "use_encoder2": False}, "custom"),
        ({"use_encoder2": False, "use_memory": True}, "single_encoder"),
        ({"use_encoder2": False, "use_memory": False}, "single_encoder"),
    ])
    def test_rows_labelled_from_checkpoint(self, tmp_path, data_dir, flags, label):
        # the config is written with `flags` as given, as earlier releases
        # wrote use_memory true beside use_encoder2 false: a model without
        # encoder 2 has no graph memory, whatever its file says
        ckpt = tmp_path / "c.json"
        config = StarConfig(d_model=8, heads=2, pred_len=2, deterministic=True, **flags)
        save_checkpoint(str(ckpt), init_params(config, np.random.default_rng(0)))
        payload = json.loads(ckpt.read_text())
        payload["config"].update(flags)
        ckpt.write_text(json.dumps(payload))
        out = tmp_path / "o"
        variant = [] if label == "custom" else ["--variant", label]
        assert main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(data_dir),
                     "--held-out", "ETH", "--out", str(out)] + variant) == EXIT_OK
        rows = (out / "eval_report.tsv").read_text().strip().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == [label]

    def test_metrics_match_library(self, tmp_path, data_dir, checkpoint):
        # no-drift contract: CLI numbers equal library evaluate()
        from startraj.model import load_checkpoint
        from startraj.trainer import evaluate
        from startraj.cli import _load_scenes

        out = tmp_path / "eval_out2"
        code = main([
            "eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir),
            "--held-out", "ETH", "--out", str(out), "--seed", "7",
        ])
        assert code == EXIT_OK
        row = (out / "eval_report.tsv").read_text().strip().splitlines()[1].split("\t")
        params = load_checkpoint(str(checkpoint))
        scenes = _load_scenes(str(data_dir / "ETH.txt"), params.config, stride=20)
        a, f, k = evaluate(params, scenes, K=20, seed=7)
        assert float(row[3]) == pytest.approx(a, abs=1e-6)
        assert float(row[4]) == pytest.approx(f, abs=1e-6)
        assert int(row[5]) == k


class TestPredictCommand:
    def test_outputs(self, tmp_path, data_dir, checkpoint):
        out = tmp_path / "pred_out"
        scene_file = data_dir / "ZARA1.txt"
        code = main([
            "predict", "--checkpoint", str(checkpoint), "--scene", str(scene_file),
            "--out", str(out), "--seed", "0",
        ])
        assert code == EXIT_OK
        rows = [l for l in (out / "prediction.txt").read_text().splitlines()
                if not l.startswith("#")]
        # [TRIVIAL] N x pred_len rows (2 pedestrians x 2 predicted steps)
        assert len(rows) == 2 * 2
        svg = (out / "prediction.svg").read_text()
        # one polyline per pedestrian per role
        assert svg.count('class="history"') == 2
        assert svg.count('class="truth"') == 2
        assert svg.count('class="prediction"') == 2
        assert (out / "manifest.json").exists()

    def test_world_round_trip(self, tmp_path, data_dir, checkpoint):
        # predicted world coordinates equal library rollout + origin inverse
        out = tmp_path / "pred_rt"
        scene_file = data_dir / "ZARA2.txt"
        assert main([
            "predict", "--checkpoint", str(checkpoint), "--scene", str(scene_file),
            "--out", str(out), "--seed", "0",
        ]) == EXIT_OK
        params = load_checkpoint(str(checkpoint))
        scene = preprocess(scene_from_file(str(scene_file), params.config))
        pred = rollout(scene, params, rng=np.random.default_rng(0)).numpy()
        expect = pred + scene.origins[:, None, :]
        got = {}
        for line in (out / "prediction.txt").read_text().splitlines():
            if line.startswith("#"):
                continue
            pid, s, x, y = line.split()
            got[(pid, int(s))] = (float(x), float(y))
        for i, pid in enumerate(scene.ped_ids):
            for s in range(params.config.pred_len):
                np.testing.assert_allclose(got[(pid, s)], expect[i, s], atol=1e-6)

    def test_reproducible_from_manifest(self, tmp_path, data_dir, checkpoint):
        scene_file = data_dir / "UNIV.txt"
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main([
                "predict", "--checkpoint", str(checkpoint), "--scene",
                str(scene_file), "--out", str(out), "--seed", "11",
            ]) == EXIT_OK
            outs.append((out / "prediction.txt").read_text())
        assert outs[0] == outs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate overflow
    def test_non_finite_prediction_is_numeric_failure(self, tmp_path, data_dir,
                                                      checkpoint, capsys):
        # finite weights whose decoder output overflows: encoder 2 emits all
        # ones (zero gain, unit bias) and each decoder weight is 1e308
        payload = json.loads(checkpoint.read_text())
        for name, value in (("enc2.temporal.ln2_gain", 0.0), ("enc2.temporal.ln2_bias", 1.0),
                            ("decoder.w", 1e308)):
            entry = payload["params"][name]
            entry["values"] = [value] * len(entry["values"])
        huge_ck = tmp_path / "huge.json"
        huge_ck.write_text(json.dumps(payload))
        code = main(["predict", "--checkpoint", str(huge_ck), "--scene",
                     str(data_dir / "ZARA1.txt"), "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "step 0" in err and "Traceback" not in err

    def test_short_observation_rejected(self, tmp_path, checkpoint):
        short = tmp_path / "short.txt"
        short.write_text("0 1 0.0 0.0\n10 1 1.0 0.0\n")
        code = main([
            "predict", "--checkpoint", str(checkpoint), "--scene", str(short),
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_DATA


class TestAttentionCommand:
    def test_csv_rows_sum_to_one(self, tmp_path, data_dir, checkpoint):
        out = tmp_path / "att_out"
        code = main([
            "attention", "--checkpoint", str(checkpoint), "--scene",
            str(data_dir / "HOTEL.txt"), "--timestep", "3", "--ped", "0",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = (out / "attention.csv").read_text().strip().splitlines()[1:]
        sums = {}
        for row in rows:
            src, dst, w = row.split(",")
            sums[src] = sums.get(src, 0.0) + float(w)
        for total in sums.values():
            assert abs(total - 1.0) < 1e-9
        svg = (out / "attention.svg").read_text()
        assert svg.count("<circle") == 2

    def test_isolated_pedestrian_self_attention(self, tmp_path, checkpoint):
        # two pedestrians far beyond the graph threshold: self-weight 1,
        # cross-weight exactly 0
        far = tmp_path / "far.txt"
        lines = []
        for t in range(10):
            lines.append(f"{10 * t} a {0.1 * t:.3f} 0.0")
            lines.append(f"{10 * t} b {1000.0 + 0.1 * t:.3f} 0.0")
        far.write_text("\n".join(lines) + "\n")
        out = tmp_path / "att_far"
        assert main([
            "attention", "--checkpoint", str(checkpoint), "--scene", str(far),
            "--timestep", "0", "--ped", "0", "--out", str(out),
        ]) == EXIT_OK
        weights = {}
        for row in (out / "attention.csv").read_text().strip().splitlines()[1:]:
            src, dst, w = row.split(",")
            weights[(src, dst)] = float(w)
        assert weights[("a", "a")] == 1.0
        assert weights[("a", "b")] == 0.0
        assert weights[("b", "b")] == 1.0

    def test_split_track_named_once_per_piece(self, tmp_path, checkpoint):
        # pedestrian 3 skips frame 3 of the window: its two pieces are two
        # rows, so each needs its own name for the (from, to) pairs to be unique
        scene = tmp_path / "gap.txt"
        scene.write_text("\n".join(
            f"{10 * t} {p} {0.3 * t:.1f} {p:.1f}"
            for t in range(10) for p in range(4) if (p, t) != (3, 3)) + "\n")
        out = tmp_path / "att"
        assert main(["attention", "--checkpoint", str(checkpoint), "--scene", str(scene),
                     "--timestep", "5", "--ped", "1", "--out", str(out)]) == EXIT_OK
        pairs = [tuple(line.split(",")[:2]) for line in
                 (out / "attention.csv").read_text().splitlines()[1:]]
        assert len(pairs) == len(set(pairs)) == 4 * 5
        assert {to for _, to in pairs} == {"0", "1", "2", "3@0", "3@40"}

    def test_bad_timestep_and_ped(self, tmp_path, data_dir, checkpoint):
        args = ["attention", "--checkpoint", str(checkpoint), "--scene",
                str(data_dir / "HOTEL.txt"), "--out", str(tmp_path / "x")]
        assert main(args + ["--timestep", "99"]) == EXIT_USAGE
        assert main(args + ["--ped", "99"]) == EXIT_USAGE

    def test_ablated_encoder2_is_data_error(self, tmp_path, data_dir, capsys):
        path = tmp_path / "single.json"
        config = StarConfig(d_model=8, heads=2, pred_len=2, use_encoder2=False)
        save_checkpoint(str(path), init_params(config, np.random.default_rng(0)))
        assert main(["attention", "--checkpoint", str(path), "--scene",
                     str(data_dir / "HOTEL.txt"), "--out", str(tmp_path / "x")]) == EXIT_DATA
        assert "encoder-2" in capsys.readouterr().err


def _write_entrant_recording(path):
    """Pedestrians 0 and 1 walk frames 0-19; pedestrian 2 enters at frame 12,
    inside the prediction window of the 8 + 12 frame window at frame 0, so no
    step of that window's observed part holds pedestrian 2."""
    lines = []
    for f in range(20):
        lines += [f"{10 * f} 0 {0.4 * f:.3f} 0.0", f"{10 * f} 1 {0.4 * f:.3f} 1.5"]
        if f >= 12:
            lines.append(f"{10 * f} 2 {8.0 - 0.4 * (f - 12):.3f} 0.7")
    path.write_text("\n".join(lines) + "\n")


class TestEntrant:
    @pytest.mark.parametrize("variant", ["full", "no_memory", "lstm_temporal",
                                         "single_encoder"])
    def test_every_command_runs(self, tmp_path, capsys, variant):
        # a pedestrian with no observed step attends over its own steps in
        # the temporal transformer, reaches no other row and gets no
        # prediction
        data = tmp_path / "data"
        data.mkdir()
        for name in DATASET_NAMES:
            _write_entrant_recording(data / f"{name}.txt")
        scene_file = data / "ZARA1.txt"
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("d_model = 8\nheads = 2\ndropout = 0.0\nepochs = 1\nmax_steps = 1\n"
                       "augment = false\n")
        ckpt = tmp_path / "train" / "checkpoint_final.json"
        assert main(["train", "--config", str(cfg), "--data-dir", str(data), "--held-out",
                     "ETH", "--variant", variant, "--out", str(tmp_path / "train")]) == EXIT_OK
        assert main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(data),
                     "--samples", "2", "--out", str(tmp_path / "eval")]) == EXIT_OK
        assert main(["predict", "--checkpoint", str(ckpt), "--scene", str(scene_file),
                     "--out", str(tmp_path / "pred")]) == EXIT_OK
        rows = [line.split()[0] for line in
                (tmp_path / "pred" / "prediction.txt").read_text().splitlines()[1:]]
        assert sorted(set(rows)) == ["0", "1"]
        code = main(["attention", "--checkpoint", str(ckpt), "--scene", str(scene_file),
                     "--out", str(tmp_path / "att")])
        if variant == "single_encoder":
            assert code == EXIT_DATA
            assert "model has no encoder-2 spatial transformer" in capsys.readouterr().err
        else:
            assert code == EXIT_OK
        params = load_checkpoint(str(ckpt))
        scene = preprocess(scene_from_file(str(scene_file), params.config))
        assert not scene.presence[scene.ped_ids.index("2"), :scene.obs_len].any()
        pred = rollout(scene, params, rng=np.random.default_rng(0)).numpy()
        np.testing.assert_array_equal(pred[scene.ped_ids.index("2")], 0.0)
        assert np.all(pred[[scene.ped_ids.index("0"), scene.ped_ids.index("1")]] != 0.0)
