"""The runtime dependency is numpy alone: every import in the package names
the standard library, numpy or the package itself. The benchmark's trace
points name attributes that exist, each of them is called, its tape and logit
counters read the calls, and spatial blocks are called from inside an
encoder. The benchmark's golden probes pass, so that a change in outputs
fails the test suite and not only a benchmark run."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "startraj"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "startraj"}

# run in a fresh interpreter: load perfbench/spans.py by path
_LOAD_SPANS = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
"""
# resolve each (module, attribute) of its TRACE_POINTS the way Tracer.install does
_RESOLVE = _LOAD_SPANS + """
missing = []
for module, attr, _ in spans.TRACE_POINTS:
    tensor = importlib.import_module("startraj.tensor")
    owner = tensor.Tensor if module == "Tensor" else importlib.import_module("startraj." + module)
    if not callable(getattr(owner, attr, None)):
        missing.append(module + "." + attr)
print(json.dumps([len(spans.TRACE_POINTS), missing]))
"""
# install the Tracer on every trace point with its tape and logit counters, run
# one training step on two tiny scenes and one best-of-1 evaluation, and list
# the span names never entered and the counters
_FIRE = _LOAD_SPANS + """
from types import SimpleNamespace
import numpy as np
lib = SimpleNamespace(**{m: importlib.import_module("startraj." + m)
                         for m in ("tensor", "graph", "model", "trainer", "synthetic")})
tracer = spans.Tracer()
assert tracer.install(lib, spans.TRACE_POINTS) == []
tracer.count_at("model.rollout")
config = lib.model.StarConfig(d_model=8, heads=2, pred_len=2)
scenes = [lib.synthetic.simulate_scene(np.random.default_rng(seed), n_peds=2, total_len=10)
          for seed in (0, 1)]
params, history = lib.trainer.train(lib.trainer.TrainSpec(max_steps=1), config, scenes)
assert len(history) == 1
lib.trainer.best_of_k(scenes[0], params, K=1)
names = {name for _, _, name in spans.TRACE_POINTS}
print(json.dumps([len(names), sorted(names - {span[0] for span in tracer.spans}),
                  [tracer.logits_allowed, tracer.logits_computed, tracer.tape_ops]]))
"""
# trace one best-of-1 evaluation and list the parent span of every spatial
# block; perfbench attributes graph.spatial_s.enc1/enc2 by that parent
_SPATIAL_PARENTS = _LOAD_SPANS + """
from types import SimpleNamespace
import numpy as np
lib = SimpleNamespace(**{m: importlib.import_module("startraj." + m)
                         for m in ("tensor", "graph", "model", "trainer", "synthetic")})
tracer = spans.Tracer()
assert tracer.install(lib, spans.TRACE_POINTS) == []
config = lib.model.StarConfig(d_model=8, heads=2, pred_len=3)
params = lib.model.init_params(config, np.random.default_rng(0))
scene = lib.synthetic.simulate_scene(np.random.default_rng(1), n_peds=3, total_len=11)
lib.trainer.best_of_k(scene, params, K=1)
print(json.dumps([tracer.spans[span[3]][0] if span[3] >= 0 else None
                  for span in tracer.spans if span[0] == "graph.spatial_block"]))
"""

# import perfbench/workloads.py from its directory, as perfbench/run.py does,
# and run each workload's golden probe against perfbench/golden.json
_GOLDEN = """
import json, os, sys
bench = sys.argv[1]
sys.path.insert(0, bench)
import workloads
with open(os.path.join(bench, "golden.json"), encoding="utf-8") as fh:
    golden = json.load(fh)
lib = workloads.import_startraj(sys.argv[2])
print(json.dumps({name: workloads.check_golden(wl, lib, golden[name])
                  for name, wl in workloads.WORKLOADS.items()}))
"""


def _imported_roots(path):
    """(line, top-level module) of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_package(path):
    foreign = [(line, root) for line, root in _imported_roots(path) if root not in ALLOWED]
    assert not foreign, f"{path.name} imports outside stdlib and numpy: {foreign}"


def test_package_found():
    assert (PACKAGE / "__init__.py").is_file()


def _run_with_spans(script):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", script, str(SPANS)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_benchmark_trace_points_resolve():
    # a renamed function or import would otherwise fail only traced
    # benchmark runs
    count, missing = _run_with_spans(_RESOLVE)
    assert count > 0 and missing == []


def test_benchmark_trace_points_fire():
    # a point that resolves but is no longer called through the rebound
    # module global records nothing, and its layer would read as faster
    count, silent, (allowed, computed, tape_ops) = _run_with_spans(_FIRE)
    assert count > 0 and silent == []
    # perfbench's logit accounting still finds masked_attention's mask, and
    # its tape counter sees the rollouts
    assert 0 < allowed <= computed
    assert tape_ops > 0


def test_spatial_block_spans_sit_in_an_encoder():
    # a spatial_block call moved out of encoder1 or encoder2 would silently
    # shift graph.spatial_s.enc1/enc2 in traced benchmark runs
    parents = _run_with_spans(_SPATIAL_PARENTS)
    assert parents.count("model.encoder1") == parents.count("model.encoder2") == 3
    assert set(parents) == {"model.encoder1", "model.encoder2"}


def test_benchmark_golden_probes_pass():
    # the benchmark's `correct` check replays these probes; a changed loss,
    # parameter or best-of-K output fails here first
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", _GOLDEN, str(PERFBENCH), str(PACKAGE.parent)],
                         env=env, capture_output=True, text=True, check=True)
    results = json.loads(run.stdout)
    assert results and all(ops > 0 for ops, _ in results.values()), results
    assert {name: fails for name, (_, fails) in results.items() if fails} == {}
