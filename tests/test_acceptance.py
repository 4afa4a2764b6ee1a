"""Acceptance criteria, one test per criterion, each printing a PASS line with
its measured value so the suite output doubles as the acceptance report.

Run with `pytest -v -s tests/test_acceptance.py` to see the report lines.
"""

import time
from dataclasses import asdict

import numpy as np
import pytest

import startraj.model
from startraj import (
    StarConfig, TGConvParams, Tensor, TrainSpec, ade, build_graph, config_for_variant,
    evaluate, fde, init_params, preprocess, rollout, spatial_block, train,
)
from startraj.attention import attention_weights
from startraj.data import merge_scenes, pack_batches
from startraj.graph import scene_layout
from startraj.gradcheck import TOLERANCE, run_suite
from startraj.synthetic import simulate_scene
from startraj.trainer import _scene_truth_and_mask


def _graph(xy, d):
    """One-step interaction graph (1, N, N) over N points of one scene: its
    attention mask, self included."""
    n = len(xy)
    [mask] = build_graph(xy[:, None], np.ones((n, 1), dtype=bool), [(n, [(0, n)])], d)
    return mask[:, 0]


class TestAcceptance:
    def test_gradient_suite(self):
        """Analytic vs central finite differences for all primitives, TGConv,
        temporal_block, encoder stacks, and the full rollout loss on a
        3-pedestrian 8+2-step scene; max rel err < 1e-4 in < 2 minutes."""
        t0 = time.time()
        report = run_suite(seed=0)
        elapsed = time.time() - t0
        worst = max(report.values())
        assert set(report) >= {
            "matmul", "masked_attention", "layer_norm", "relu", "concat", "linear",
            "dropout", "tgconv", "temporal_block", "encoder_stack",
            "full_rollout", "getitem",
        }
        assert worst < TOLERANCE, report
        assert elapsed < 120.0
        print(f"\nPASS gradient suite: max rel err {worst:.2e} "
              f"(< 1e-4) in {elapsed:.1f}s (< 120s)")

    def test_attention_normalization(self, spatial_weights):
        """100 random graphs/sequences: every attention row sums to 1 within
        1e-9 over unmasked entries; masked entries exactly 0. Graph weights
        are read from the spatial block's attention core."""
        rng = np.random.default_rng(1)
        worst = 0.0
        for trial in range(100):
            if trial % 2 == 0:
                # sequence attention with a random time mask
                t = int(rng.integers(2, 10))
                d_k = int(rng.integers(2, 8))
                q, k, v = (rng.standard_normal((1, t, d_k)) for _ in range(3))
                mask = rng.random((t, t)) < 0.6
                mask[np.arange(t), np.arange(t)] = True
                w = attention_weights(Tensor(q), Tensor(k), mask[None], 1)[0, 0]
                allow = mask
            else:
                # graph attention over a random interaction graph
                n = int(rng.integers(2, 9))
                params = TGConvParams.init(8, 2, rng)
                graph = _graph(rng.uniform(-3, 3, (n, 2)), d=float(rng.uniform(1.0, 4.0)))
                h = Tensor(rng.standard_normal((n, 1, 8)))
                spatial_block(h, [graph[:, None]], params, scene_layout([n]))
                w = spatial_weights[-1][1][0]
                allow = graph[0] | np.eye(n, dtype=bool)
            assert np.all(w[..., ~allow] == 0.0)  # exactly zero, not approximately
            worst = max(worst, float(np.abs(w.sum(axis=-1) - 1.0).max()))
        assert worst < 1e-9
        print(f"\nPASS attention normalization: 100 trials, max row-sum error "
              f"{worst:.2e} (< 1e-9), masked entries exactly 0")

    def test_tgconv_equivariance_and_locality(self):
        """200 random trials of single-step TGConv (spatial_block, t = 1):
        permutation equivariance within 1e-9 and bit-identical non-neighbor
        locality."""
        def tgconv(h, graph, params):
            return spatial_block(Tensor(h[:, None, :]), [graph[:, None]], params,
                                 scene_layout([len(h)])).numpy()[:, 0]

        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(3, 9))
            params = TGConvParams.init(8, 2, rng)
            pts = rng.uniform(-3, 3, (n, 2))
            d = float(rng.uniform(1.0, 3.5))
            graph = _graph(pts, d=d)
            h = rng.standard_normal((n, 8))
            out = tgconv(h, graph, params)

            # equivariance under a random relabeling: row r is pedestrian perm[r]
            perm = rng.permutation(n)
            pgraph = _graph(pts[perm], d=d)
            pout = tgconv(h[perm], pgraph, params)
            worst = max(worst, float(np.abs(pout - out[perm]).max()))

            # locality: perturb one node, rows outside Nb(j) u {j} unchanged
            j = int(rng.integers(n))
            h2 = h.copy()
            h2[j] += rng.standard_normal(8)
            out2 = tgconv(h2, graph, params)
            affected = {j} | set(np.flatnonzero(graph[0, j]))
            for i in range(n):
                if i not in affected:
                    assert np.array_equal(out[i], out2[i])
        assert worst < 1e-9
        print(f"\nPASS tgconv equivariance & locality: 200 trials, max "
              f"equivariance error {worst:.2e} (< 1e-9), locality bit-identical")

    def test_masked_batch_equivalence(self):
        """50 random multi-scene batches: packed forward equals per-scene
        forwards within 1e-9."""
        rng = np.random.default_rng(3)
        config = StarConfig(d_model=8, heads=2, obs_len=8, pred_len=2,
                            deterministic=True, dropout=0.0, graph_threshold=3.0)
        params = init_params(config, rng)
        worst = 0.0
        for trial in range(50):
            n_scenes = int(rng.integers(2, 4))
            scenes = [
                preprocess(simulate_scene(
                    np.random.default_rng(100 + trial * 7 + k),
                    n_peds=int(rng.integers(1, 4)), total_len=10,
                ))
                for k in range(n_scenes)
            ]
            batch = merge_scenes(scenes)
            packed = rollout(batch.scene, params, rng=np.random.default_rng(0),
                             sizes=batch.sizes).numpy()
            row = 0
            for s in scenes:
                solo = rollout(s, params, rng=np.random.default_rng(0)).numpy()
                worst = max(worst, float(
                    np.abs(packed[row : row + s.n_peds] - solo).max()
                ))
                row += s.n_peds
        assert worst < 1e-9
        print(f"\nPASS masked-batch equivalence: 50 batches, max packed vs "
              f"per-scene deviation {worst:.2e} (< 1e-9)")

    def test_metric_oracles(self):
        """ade/fde match a scalar brute-force oracle to 1e-12 on 1000 random
        cases; the (3,4)->5 FDE case is exact."""
        truth = np.zeros((1, 12, 2))
        pred = truth.copy()
        pred[0, -1] = [3.0, 4.0]
        assert fde(pred, truth, np.ones((1, 12), dtype=bool)) == 5.0

        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            n, t = int(rng.integers(1, 6)), int(rng.integers(1, 14))
            p = rng.standard_normal((n, t, 2)) * 10
            q = rng.standard_normal((n, t, 2)) * 10
            mask = rng.random((n, t)) < 0.8
            mask[:, -1] = True  # keep both metrics defined
            # scalar brute-force oracle
            vals, finals = [], []
            for i in range(n):
                for s in range(t):
                    if mask[i, s]:
                        d = ((p[i, s, 0] - q[i, s, 0]) ** 2
                             + (p[i, s, 1] - q[i, s, 1]) ** 2) ** 0.5
                        vals.append(d)
                        if s == t - 1:
                            finals.append(d)
            worst = max(worst, abs(ade(p, q, mask) - sum(vals) / len(vals)))
            worst = max(worst, abs(fde(p, q, mask) - sum(finals) / len(finals)))
        assert worst < 1e-12
        print(f"\nPASS metric oracles: 1000 cases, max deviation {worst:.2e} "
              f"(< 1e-12); (3,4)->5 exact")

    @pytest.mark.slow
    def test_overfit_synthetic(self):
        """Deterministic model trained on 20 synthetic avoidance scenes
        reaches ADE < 0.05 within <= 2000 Adam steps and < 10 minutes."""
        from startraj.optim import AdamState, adam_step, zero_grads
        from startraj.trainer import scene_loss

        t0 = time.time()
        rng = np.random.default_rng(0)
        scene_rng = np.random.default_rng(0)
        scenes = [simulate_scene(scene_rng, n_peds=2, total_len=20) for _ in range(20)]
        config = StarConfig(deterministic=True, dropout=0.0)
        batch = pack_batches([preprocess(s) for s in scenes],
                             budget=256, max_scenes=20)[0]
        truth, mask = _scene_truth_and_mask(batch.scene)

        params = init_params(config, rng)
        plist = params.parameters()
        state = AdamState(plist, learning_rate=0.003)
        steps = 0
        final_ade = np.inf
        while steps < 2000:
            loss = scene_loss(batch, params, rng)
            zero_grads(plist)
            loss.backward()
            adam_step(plist, state)
            steps += 1
            if steps % 50 == 0:
                pred = rollout(batch.scene, params,
                               rng=np.random.default_rng(0),
                               sizes=batch.sizes).numpy()
                final_ade = ade(pred, truth, mask)
                if final_ade < 0.05:
                    break
        elapsed = time.time() - t0
        assert final_ade < 0.05, f"ADE {final_ade} after {steps} steps"
        assert steps <= 2000
        assert elapsed < 600.0
        print(f"\nPASS overfit: ADE {final_ade:.4f} (< 0.05) after {steps} "
              f"steps (<= 2000) in {elapsed:.0f}s (< 600s)")

    def test_ablation_plumbing(self):
        """Ablation rows (4)-(7) instantiate, train one epoch on synthetic
        data, and emit comparable reports; no_memory differs from full only
        through the memory flag (same parameter names, different forwards)."""
        rng = np.random.default_rng(5)
        scenes = [simulate_scene(rng, n_peds=2, total_len=10) for _ in range(2)]
        base = StarConfig(d_model=8, heads=2, obs_len=8, pred_len=2,
                          deterministic=True, dropout=0.0)
        spec = TrainSpec(epochs=1, seed=0, augment=False, max_steps=1)
        reports = {}
        for variant in ("full", "no_memory", "lstm_temporal", "single_encoder"):
            params, _ = train(spec, config_for_variant(variant, base), scenes)
            reports[variant] = evaluate(params, scenes, K=1, seed=spec.seed)
        assert all(np.isfinite(a) and np.isfinite(f) for a, f, _ in reports.values())

        full_cfg = config_for_variant("full", base)
        nomem_cfg = config_for_variant("no_memory", base)
        diff = {k for k, v in asdict(full_cfg).items()
                if asdict(nomem_cfg)[k] != v}
        assert diff == {"use_memory"}

        # memory concatenates along time, so the two variants share one
        # parameter name set; they must still produce different forwards
        rng = np.random.default_rng(6)
        p_full = init_params(full_cfg, np.random.default_rng(7))
        p_nomem = init_params(nomem_cfg, np.random.default_rng(7))
        assert ({n for n, _ in p_full.parameters()}
                == {n for n, _ in p_nomem.parameters()})
        scene = preprocess(simulate_scene(rng, n_peds=2, total_len=10))
        out_full = rollout(scene, p_full, rng=np.random.default_rng(0)).numpy()
        out_nomem = rollout(scene, p_nomem, rng=np.random.default_rng(0)).numpy()
        assert np.any(out_full != out_nomem)
        print("\nPASS ablation plumbing: rows (4)-(7) trained and reported; "
              "no_memory/full configs differ only in use_memory and their "
              "forwards diverge (shared parameter name set: the memory path "
              "adds inputs along time, not parameters)")

    def test_memory_semantics(self, monkeypatch):
        """Graph memory during rollout: step 0 reads nothing, step s+1 reads
        step s's encoder-2 output verbatim (replace, not append); it stays
        empty with memory or encoder 2 switched off."""
        reads, writes = [], []
        encoder1, encoder2 = startraj.model.encoder1, startraj.model.encoder2

        def read_spy(h_s, h_t, graphs, memory, *args):
            reads.append(memory)
            return encoder1(h_s, h_t, graphs, memory, *args)

        def write_spy(*args, **kwargs):
            writes.append(encoder2(*args, **kwargs))
            return writes[-1]

        monkeypatch.setattr(startraj.model, "encoder1", read_spy)
        monkeypatch.setattr(startraj.model, "encoder2", write_spy)
        scene = preprocess(simulate_scene(np.random.default_rng(8), n_peds=3,
                                          total_len=12))
        for use_memory, use_encoder2 in ((True, True), (False, True), (True, False)):
            reads.clear()
            writes.clear()
            config = StarConfig(d_model=8, heads=2, obs_len=8, pred_len=4,
                                deterministic=True, dropout=0.0,
                                use_memory=use_memory, use_encoder2=use_encoder2)
            rollout(scene, init_params(config, np.random.default_rng(9)))
            assert len(reads) == len(writes) == 4
            if use_memory and use_encoder2:
                assert reads[0] is None
                for s in range(3):
                    assert reads[s + 1] is writes[s]
                    assert reads[s + 1].shape == (3, 8 + s, 8)
            else:
                assert all(r is None for r in reads)
        print("\nPASS memory semantics: step 0 empty, each step reads the "
              "previous encoder-2 output verbatim, empty when ablated")

    def test_stretch_run_documented_non_gating(self):
        """The benchmark-scale stretch run is documented, never gated on.

        It needs the real ETH/UCY recordings, which this repository does not
        ship (no dataset download tooling by design), plus multi-hour CPU
        training. The training entry point is exercised end-to-end by the CLI
        tests; this placeholder records the status without failing the suite.
        """
        print("\nPASS (non-gating) stretch run: not executed — requires the "
              "external ETH/UCY recordings and multi-hour training; see "
              "README for the exact command to reproduce it when data is "
              "available")
