"""CLI commands, exit codes, manifests, and exported artifacts.

All invocations go through cli.main() in-process.
"""

import json
import os

import numpy as np
import pytest

from startraj.cli import (
    EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, load_config_file, main,
)
from startraj.data import DATASET_NAMES
from startraj.errors import DataFormatError
from startraj.model import StarConfig, init_params, save_checkpoint


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


# checkpoint payload -> malformed file content (text, or a payload to dump)
MALFORMED_CHECKPOINTS = {
    "not-json": lambda p: "{ this is not json",
    "unknown-config-key": lambda p: {**p, "config": {**p["config"], "banana": 1}},
    "bad-config-value": lambda p: {**p, "config": {**p["config"], "heads": 3}},
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
    "seed = -1", "seed = 2.5", "dropout = 2", "dropout = 1.0",
    "graph_threshold = nan", "graph_threshold = -1", "learning_rate = nan",
    "max_steps = nan", "ped_budget = inf", "scene_batch = 2.5",
    "checkpoint_every = 2.5",
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

    def test_usage_error_zero_samples(self, tmp_path, data_dir, checkpoint):
        code = main(["eval", "--checkpoint", str(checkpoint), "--data-dir",
                     str(data_dir), "-K", "0", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_usage_error_bad_train_stride(self, tmp_path, data_dir, config_file,
                                          capsys, stride):
        code = main(["train", "--config", str(config_file), "--data-dir",
                     str(data_dir), "--held-out", "ETH", "--stride", stride,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "--stride" in capsys.readouterr().err

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_usage_error_bad_eval_stride(self, tmp_path, data_dir, checkpoint,
                                         capsys, stride):
        code = main(["eval", "--checkpoint", str(checkpoint), "--data-dir",
                     str(data_dir), "--stride", stride, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "--stride" in capsys.readouterr().err

    def test_gradcheck_success(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "full_rollout" in out and "FAIL" not in out

    def test_gradcheck_corrupted_detector(self, capsys):
        # the test hook skews one analytic gradient; the detector must fire
        assert main(["gradcheck", "--seed", "0", "--corrupt"]) == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out

    def test_gradcheck_deterministic_report(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["gradcheck", "--seed", "3", "--out", str(a)]) == EXIT_OK
        assert main(["gradcheck", "--seed", "3", "--out", str(b)]) == EXIT_OK
        assert (a / "gradcheck.json").read_text() == (b / "gradcheck.json").read_text()


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

    def test_variant_flag(self, tmp_path, data_dir, config_file):
        out = tmp_path / "variant_out"
        code = main([
            "train", "--config", str(config_file), "--data-dir", str(data_dir),
            "--held-out", "HOTEL", "--variant", "no_memory", "--out", str(out),
        ])
        assert code == EXIT_OK
        ck = json.loads((out / "checkpoint_final.json").read_text())
        assert ck["config"]["use_memory"] is False


class TestEvalCommand:
    def test_report_rows(self, tmp_path, data_dir, checkpoint):
        out = tmp_path / "eval_out"
        code = main([
            "eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir),
            "--out", str(out), "--stride", "20", "--samples", "5",
        ])
        assert code == EXIT_OK
        lines = (out / "eval_report.tsv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(DATASET_NAMES)  # header + one row per dataset

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
        scenes = _load_scenes(str(data_dir / "ETH.txt"), params.config,
                              stride=20, dataset="ETH")
        report = evaluate(params, scenes, K=20, seed=7, dataset="ETH")
        assert float(row[3]) == pytest.approx(report.ade, abs=1e-6)
        assert float(row[4]) == pytest.approx(report.fde, abs=1e-6)


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
        from startraj.model import load_checkpoint, rollout
        from startraj.cli import scene_from_file
        from startraj.data import preprocess

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

    def test_bad_timestep_and_ped(self, tmp_path, data_dir, checkpoint):
        args = ["attention", "--checkpoint", str(checkpoint), "--scene",
                str(data_dir / "HOTEL.txt"), "--out", str(tmp_path / "x")]
        assert main(args + ["--timestep", "99"]) == EXIT_USAGE
        assert main(args + ["--ped", "99"]) == EXIT_USAGE
