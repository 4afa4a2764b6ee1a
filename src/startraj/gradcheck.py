"""Central finite-difference gradient checking for the autodiff core and the
model blocks. Used by the test suite and the `gradcheck` CLI command."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .attention import TemporalBlockParams, masked_attention, temporal_block
from .data import preprocess
from .graph import TGConvParams, build_graph, spatial_block
from .model import StarConfig, init_params, rollout
from .synthetic import simulate_scene
from .tensor import Tensor

FD_STEP = 1e-5
TOLERANCE = 1e-4


def relative_error(a: float, b: float) -> float:
    # the denominator floor keeps finite-difference cancellation noise from
    # dominating entries whose true gradient is (near) zero
    return abs(a - b) / max(abs(a) + abs(b), 1e-4)


def check_gradients(
    build_loss: Callable[[], Tensor],
    params: List[Tuple[str, Tensor]],
    max_entries_per_tensor: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    build_loss must recompute the scalar loss from the current parameter
    values (it is called 2 times per checked entry). When
    max_entries_per_tensor is set, a random subset of coordinates is checked
    per tensor. Returns the maximum relative error over all checked entries.
    """
    for _, p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params}
    if rng is None:
        rng = np.random.default_rng(0)

    worst = 0.0
    for name, p in params:
        flat = p.data.ravel()
        n = flat.size
        if max_entries_per_tensor is None or n <= max_entries_per_tensor:
            idxs = range(n)
        else:
            idxs = rng.choice(n, size=max_entries_per_tensor, replace=False)
        ga = analytic[name].ravel()
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = build_loss().item()
            flat[i] = orig - FD_STEP
            down = build_loss().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * FD_STEP)
            worst = max(worst, relative_error(ga[i], fd))
    return worst


# ----------------------------------------------------------------------
# component suite
# ----------------------------------------------------------------------
def _leaf(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _jitter(params: List[Tuple[str, Tensor]], rng: np.random.Generator) -> None:
    # move off zero-initialized biases: gradients are checked at a generic
    # point, away from ReLU kinks sitting exactly at the origin
    for _, p in params:
        p.data += 0.05 * rng.standard_normal(p.shape)


def run_suite(seed: int = 0) -> Dict[str, float]:
    """Finite-difference check of every primitive, the graph convolution, the
    temporal block, and a tiny full-model rollout loss. Returns the max
    relative error per component."""
    rng = np.random.default_rng(seed)
    report: Dict[str, float] = {}

    a = _leaf(rng, 3, 4)
    b = _leaf(rng, 4, 2)
    report["matmul"] = check_gradients(
        lambda: (a.matmul(b) * Tensor(rng0(seed, (3, 2)))).sum(), [("a", a), ("b", b)]
    )

    x = _leaf(rng, 3, 5)
    w = Tensor(rng0(seed + 1, (3, 5)))
    # 2 scenes x 2 heads x 3 queries x 4 keys, a partial mask per scene for both heads,
    # drawn apart from `rng`; per-head leaves merged going in, the output split back
    aq, ak, av, aw = (Tensor(rng0(seed + i, (2, 2, n, 4)), requires_grad=i < 18)
                      for i, n in ((15, 3), (16, 4), (17, 4), (18, 3)))
    allow = np.array([[[1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 0]],
                      [[1, 1, 1, 1], [0, 0, 1, 1], [1, 0, 0, 1]]], dtype=bool)
    merge = lambda x: x.swapaxes(1, 2).reshape(2, x.shape[2], 8)
    report["masked_attention"] = check_gradients(
        lambda: (masked_attention(merge(aq), merge(ak), merge(av), allow, 2)
                 .reshape(2, 3, 2, 4).swapaxes(1, 2) * aw).sum(),
        [("q", aq), ("k", ak), ("v", av)])

    g = _leaf(rng, 5)
    bb = _leaf(rng, 5)
    report["layer_norm"] = check_gradients(
        lambda: (T.layer_norm(x, g, bb) * w).sum(), [("x", x), ("gain", g), ("bias", bb)]
    )

    r = _leaf(rng, 4, 4)
    report["relu"] = check_gradients(
        lambda: (r.relu() * Tensor(rng0(seed + 2, (4, 4)))).sum(), [("x", r)]
    )

    c1, c2 = _leaf(rng, 2, 3), _leaf(rng, 2, 2)
    wc = Tensor(rng0(seed + 3, (2, 5)))
    report["concat"] = check_gradients(
        lambda: (T.concat([c1, c2], axis=1) * wc).sum(), [("a", c1), ("b", c2)]
    )

    lw, lb = _leaf(rng, 4, 3), _leaf(rng, 3)
    lx = _leaf(rng, 2, 4)
    report["linear"] = check_gradients(
        lambda: T.linear(lx, lw, lb).sum(), [("x", lx), ("w", lw), ("b", lb)]
    )

    dx = _leaf(rng, 3, 3)

    def dropout_loss() -> Tensor:  # a fresh generator keeps the mask fixed
        d = T.dropout(dx, 0.1, np.random.default_rng(0))
        return (d * d).sum()

    report["dropout"] = check_gradients(dropout_loss, [("x", dx)])

    # graph convolution on a 4-node path graph, one timestep
    gparams = TGConvParams.init(8, 2, np.random.default_rng(seed + 4))
    _jitter(gparams.parameters("tgconv"), rng)
    path = np.stack([np.arange(4.0), np.zeros(4)], axis=-1)[:, None]  # (4, 1, 2)
    layout = [(4, [(0, 4)])]
    masks = build_graph(path, np.ones((4, 1), dtype=bool), layout, d=1.5)
    gh = _leaf(rng, 4, 1, 8)
    gw = Tensor(rng0(seed + 5, (4, 1, 8)))
    report["tgconv"] = check_gradients(
        lambda: (spatial_block(gh, masks, gparams, layout) * gw).sum(),
        [("h", gh)] + gparams.parameters("tgconv"),
        max_entries_per_tensor=8,
    )

    # temporal block over 2 pedestrians x 5 steps
    tparams = TemporalBlockParams.init(8, 2, np.random.default_rng(seed + 6))
    _jitter(tparams.parameters("temporal"), rng)
    th = _leaf(rng, 2, 5, 8)
    tw = Tensor(rng0(seed + 7, (2, 5, 8)))
    tm = np.ones((2, 5), dtype=bool)
    tm[1, 0] = False
    report["temporal_block"] = check_gradients(
        lambda: (temporal_block(th, tparams, tm) * tw).sum(),
        [("h", th)] + tparams.parameters("temporal"),
        max_entries_per_tensor=8,
    )

    # tiny models on 3 pedestrians and 8 observed steps: the full model
    # predicts 2 steps; the encoder stack alone is a single-step rollout, one
    # encoder-1 + encoder-2 pass followed by the decoder
    scene = preprocess(
        simulate_scene(np.random.default_rng(seed + 9), n_peds=3, total_len=10, obs_len=8)
    )

    def rollout_loss(pred_len: int, init_seed: int):
        config = StarConfig(
            d_model=8, heads=2, obs_len=8, pred_len=pred_len, deterministic=True,
            graph_threshold=10.0, dropout=0.0,
        )
        params = init_params(config, np.random.default_rng(init_seed))
        _jitter(params.parameters(), rng)
        truth = Tensor(scene.positions[:, 8:8 + pred_len, :])

        def loss() -> Tensor:
            diff = rollout(scene, params, rng=np.random.default_rng(0), training=True) - truth
            return (diff * diff).sum() * (1.0 / diff.size)

        return loss, params.parameters()

    full_loss, full_params = rollout_loss(2, seed + 8)  # jitters from rng first
    enc_loss, enc_params = rollout_loss(1, seed + 11)
    report["encoder_stack"] = check_gradients(
        enc_loss, enc_params, max_entries_per_tensor=2, rng=np.random.default_rng(seed + 12),
    )
    report["full_rollout"] = check_gradients(
        full_loss, full_params, max_entries_per_tensor=2, rng=np.random.default_rng(seed + 10),
    )

    # indexing: a repeated integer-array row (gradient 2) and a basic slice;
    # its own generator keeps the draws of the cases above unchanged
    ix = Tensor(rng0(seed + 13, (4, 3)), requires_grad=True)
    iw = Tensor(rng0(seed + 14, (3, 3)))
    report["getitem"] = check_gradients(
        lambda: (ix[np.array([0, 2, 2])] * iw).sum() + (ix[1:3, None] * ix[1:3, None]).sum(),
        [("x", ix)],
    )

    return report


def rng0(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape)
