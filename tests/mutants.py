"""Mutant catalogue: deliberate bugs that the oracle tests must catch.

Each mutant names a file under src/, an exact snippet in it, the snippet's
replacement, and the test ids that must fail once the replacement is made.
Run outside tier-1, like the fixture recorders:

    python tests/mutants.py [NAME ...]

For each mutant (all of them, or those named) the runner copies the
repository, without .git, to a temporary directory, applies the one
replacement there and runs each of the mutant's tests there, one pytest
process per id. It first runs every chosen test on an unmutated copy and
stops if one fails there, since such a test would count as a kill.
It prints each mutant as killed or survived, naming every test that passed
on it, then its own wall time, and exits 1 if any mutant survived. The
tier-1 test `tests/test_mutants.py` checks only that the catalogue still
applies: each snippet occurs exactly once in its file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/startraj
    snippet: str
    replacement: str
    tests: Tuple[str, ...]  # pytest ids, relative to the repository root


CHECKPOINTS = "tests/test_model.py::TestCheckpoints::"
BLOCKS = "tests/test_scene_blocks.py::TestBlockVsDense::"
INCREMENTAL = "tests/test_incremental.py::TestIncrementalRollout::"
NOISE_FREE = "tests/test_model.py::TestRollout::test_noise_free_rollout_leaves_generator_alone"

MUTANTS = [
    Mutant("loader-keeps-non-finite", "model.py",
           "            if not np.all(np.isfinite(values)):\n",
           "            if False:\n",
           (CHECKPOINTS + "test_non_finite_weight_rejected",
            CHECKPOINTS + "test_non_finite_v2_value_rejected",
            CHECKPOINTS + "test_malformed_v3_entry_rejected[nan]",
            "tests/test_cli.py::TestExitCodes::test_data_error_malformed_checkpoint[nan-bytes]")),
    Mutant("loader-reads-big-endian", "model.py",
           'np.frombuffer(raw, "<f8")',
           'np.frombuffer(raw, ">f8")',
           (CHECKPOINTS + "test_round_trip_bit_exact",
            CHECKPOINTS + "test_v1_v2_v3_load_the_same_arrays")),
    Mutant("loader-keeps-read-only-buffer", "model.py",
           'np.frombuffer(raw, "<f8").astype(np.float64)',
           'np.frombuffer(raw, "<f8")',
           (CHECKPOINTS + "test_loaded_arrays_writable_native[v3]",)),
    Mutant("saver-writes-big-endian", "model.py",
           't.data.astype("<f8").tobytes()',
           't.data.astype(">f8").tobytes()',
           (CHECKPOINTS + "test_v3_stores_little_endian_float64_bytes",
            CHECKPOINTS + "test_round_trip_bit_exact")),
    Mutant("linear-relu-mask-at-zero", "tensor.py",
           "g = g * (out > 0)",
           "g = g * (out >= 0)",
           ("tests/test_tensor.py::TestRecomputingClosures::test_linear_relu",)),
    Mutant("dropout-extra-draw", "tensor.py",
           "    mask = rng.random(x.shape) >= rate\n",
           "    rng.random()\n    mask = rng.random(x.shape) >= rate\n",
           ("tests/test_tensor.py::TestRecomputingClosures::test_dropout",)),
    Mutant("foreign-import", "optim.py",
           "import numpy as np\n",
           "import numpy as np\nimport scipy\n",
           ("tests/test_imports.py::test_imports_are_stdlib_numpy_or_package[optim.py]",)),
    Mutant("packed-rows-as-one-scene", "model.py",
           "layout = scene_layout(sizes)",
           "layout = scene_layout([scene.n_peds])",
           ("tests/test_scene_blocks.py::TestSceneLayout::test_rollout_groups_rows_once",
            BLOCKS + "test_rollout_and_gradients_match_dense[sizes0]",
            "tests/test_scene_blocks.py::TestPackedFixture::test_packed_fixture_bit_identical")),
    Mutant("spatial-run-offset", "graph.py",
           "off += hi - lo",
           "off += 0",
           (BLOCKS + "test_cross_scene_edges_ignored",
            BLOCKS + "test_forward_and_weights_match_oracle[sizes0]")),
    Mutant("encoder1-mask-window", "model.py",
           "m[L - k:]",
           "m[:k]",
           (INCREMENTAL + "test_matches_full_reencode_bit_for_bit[full-False]",)),
    Mutant("eval-cache-reads-oldest-row", "model.py",
           "h_s.data[:, -1:]",
           "h_s.data[:, :1]",
           (INCREMENTAL + "test_matches_full_reencode_bit_for_bit[full-False]",)),
    Mutant("noise-free-eval-draw-consumes", "model.py",
           "rng.standard_normal((copies, config.pred_len, n, nd))",
           "rng.standard_normal((copies, config.pred_len, n, max(nd, 1)))[..., :nd]",
           (NOISE_FREE + "[False-1]", NOISE_FREE + "[False-3]")),
    Mutant("noise-free-training-draw-consumes", "model.py",
           "rng.standard_normal((n, nd))",
           "rng.standard_normal((n, max(nd, 1)))[:, :nd]",
           (NOISE_FREE + "[True-1]",)),
    Mutant("forced-presence-is-rollers", "model.py",
           "present = rollers & scene.presence[:, config.obs_len + s] if forced else rollers",
           "present = rollers",
           (INCREMENTAL + "test_forced_leaver_is_absent_where_the_data_is[full]",
            "tests/test_trainer.py::TestAbsentSlotsFixture::test_absent_slots_bit_identical")),
]


def passing_tests(tests, mutant=None) -> list:
    """Those of `tests` that pass on a copy of the repository, with `mutant`
    applied to the copy if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp) / "repo"  # the tests read README.md and perfbench/ too
        shutil.copytree(ROOT, tmp, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        if mutant is not None:
            path = tmp / "src" / "startraj" / mutant.file
            text = path.read_text()
            if text.count(mutant.snippet) != 1:
                raise SystemExit(f"{mutant.name}: snippet found {text.count(mutant.snippet)} "
                                 f"times in {mutant.file}; re-aim it")
            path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        passed = []
        for test in tests:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if run.returncode in (4, 5):  # pytest's usage error, or no test collected
                raise SystemExit(f"no test {test}; re-aim it")
            if run.returncode == 0:
                passed.append(test)
        return passed


def main(names) -> int:
    start = time.perf_counter()
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    # a test that fails on the unmutated tree would count as a kill
    tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
    failing = sorted(set(tests) - set(passing_tests(tests)))
    if failing:
        raise SystemExit("failing without a mutant: " + ", ".join(failing))
    survivors = 0
    for mutant in chosen:
        survived = passing_tests(mutant.tests, mutant)
        survivors += bool(survived)
        print(f"{mutant.name}: {'SURVIVED' if survived else 'killed'}"
              + "".join(f"\n  passed: {test}" for test in survived), flush=True)
    print(f"{len(chosen)} mutants, {survivors} survived, {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
