"""The full trajectory prediction network: input embeddings, two interleaved
spatial/temporal encoders, noise-conditioned decoder, and the autoregressive
rollout loop, which carries the graph memory from one step to the next.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import tensor as T
from .attention import TemporalBlockParams, _xavier, temporal_block
from .data import TrajectoryScene, preprocess
from .errors import DataFormatError, NonFiniteError, ShapeMismatchError
from .graph import TGConvParams, build_graph, scene_layout, spatial_block
from .tensor import Tensor, concat, linear, parameter

CHECKPOINT_FORMAT = "startraj-checkpoint"
CHECKPOINT_VERSION = 2
# v1 named the TGConv output layer w_out/b_out; v2 stores it as the attention
# output projection wo/bo
_V1_RENAMES = {".spatial.w_out": ".spatial.wo", ".spatial.b_out": ".spatial.bo"}


@dataclass
class StarConfig:
    d_model: int = 32
    heads: int = 8
    dropout: float = 0.1
    noise_dim: int = 16
    obs_len: int = 8
    pred_len: int = 12
    graph_threshold: float = 10.0
    use_memory: bool = True
    temporal_kind: str = "transformer"  # or "recurrent"
    use_encoder2: bool = True
    deterministic: bool = False
    teacher_forcing: bool = False
    ff_dim: Optional[int] = None

    def __post_init__(self):
        if self.pred_len < 1 or self.obs_len < 2:
            raise ValueError("need pred_len >= 1 and obs_len >= 2")
        if self.temporal_kind not in ("transformer", "recurrent"):
            raise ValueError(f"unknown temporal_kind {self.temporal_kind!r}")
        if self.heads < 1 or self.d_model % self.heads or self.d_model % 2:
            raise ValueError(
                f"need an even d_model divisible by heads; got d_model "
                f"{self.d_model}, heads {self.heads}"
            )
        if self.temporal_kind == "recurrent":
            # the recurrent ablation runs without graph memory
            self.use_memory = False

    @property
    def effective_noise_dim(self) -> int:
        return 0 if self.deterministic else self.noise_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "StarConfig":
        return StarConfig(**d)


VARIANT_FLAGS = {
    "full": dict(use_memory=True, temporal_kind="transformer", use_encoder2=True),
    "no_memory": dict(use_memory=False, temporal_kind="transformer", use_encoder2=True),
    "lstm_temporal": dict(use_memory=False, temporal_kind="recurrent", use_encoder2=True),
    "single_encoder": dict(use_memory=True, temporal_kind="transformer", use_encoder2=False),
}


def config_for_variant(variant: str, base: Optional[StarConfig] = None) -> StarConfig:
    if variant not in VARIANT_FLAGS:
        raise ValueError(f"unknown variant {variant!r}; have {sorted(VARIANT_FLAGS)}")
    d = (base.to_dict() if base is not None else StarConfig().to_dict())
    d.update(VARIANT_FLAGS[variant])
    return StarConfig.from_dict(d)


@dataclass
class GruParams:
    """Single-layer gated recurrent encoder, hidden size d_model."""

    wz: Tensor; uz: Tensor; bz: Tensor
    wr: Tensor; ur: Tensor; br: Tensor
    wn: Tensor; un: Tensor; bn: Tensor

    @staticmethod
    def init(d_model: int, rng: np.random.Generator) -> "GruParams":
        mk = lambda: parameter(_xavier(rng, d_model, d_model))
        zb = lambda: parameter(np.zeros(d_model))
        return GruParams(
            wz=mk(), uz=mk(), bz=zb(),
            wr=mk(), ur=mk(), br=zb(),
            wn=mk(), un=mk(), bn=zb(),
        )

    def parameters(self, prefix: str) -> List[Tuple[str, Tensor]]:
        return [(f"{prefix}.{n}", getattr(self, n))
                for n in ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")]


@dataclass
class StarParams:
    config: StarConfig
    embed_spatial_w: Tensor
    embed_spatial_b: Tensor
    embed_temporal_w: Tensor
    embed_temporal_b: Tensor
    enc1_spatial: TGConvParams
    fusion_w: Tensor
    fusion_b: Tensor
    decoder_w: Tensor
    decoder_b: Tensor
    enc1_temporal: Optional[TemporalBlockParams] = None
    enc2_spatial: Optional[TGConvParams] = None
    enc2_temporal: Optional[TemporalBlockParams] = None
    enc1_gru: Optional[GruParams] = None
    enc2_gru: Optional[GruParams] = None

    def parameters(self) -> List[Tuple[str, Tensor]]:
        out = [
            ("embed_spatial.w", self.embed_spatial_w),
            ("embed_spatial.b", self.embed_spatial_b),
            ("embed_temporal.w", self.embed_temporal_w),
            ("embed_temporal.b", self.embed_temporal_b),
        ]
        out += self.enc1_spatial.parameters("enc1.spatial")
        if self.enc1_temporal is not None:
            out += self.enc1_temporal.parameters("enc1.temporal")
        if self.enc1_gru is not None:
            out += self.enc1_gru.parameters("enc1.gru")
        out += [("fusion.w", self.fusion_w), ("fusion.b", self.fusion_b)]
        if self.enc2_spatial is not None:
            out += self.enc2_spatial.parameters("enc2.spatial")
        if self.enc2_temporal is not None:
            out += self.enc2_temporal.parameters("enc2.temporal")
        if self.enc2_gru is not None:
            out += self.enc2_gru.parameters("enc2.gru")
        out += [("decoder.w", self.decoder_w), ("decoder.b", self.decoder_b)]
        return out


def init_params(config: StarConfig, rng: np.random.Generator) -> StarParams:
    d = config.d_model
    transformer = config.temporal_kind == "transformer"
    p = StarParams(
        config=config,
        embed_spatial_w=parameter(_xavier(rng, 2, d)),
        embed_spatial_b=parameter(np.zeros(d)),
        embed_temporal_w=parameter(_xavier(rng, 2, d)),
        embed_temporal_b=parameter(np.zeros(d)),
        enc1_spatial=TGConvParams.init(d, config.heads, rng),
        fusion_w=parameter(_xavier(rng, 2 * d, d)),
        fusion_b=parameter(np.zeros(d)),
        decoder_w=parameter(_xavier(rng, d + config.effective_noise_dim, 2)),
        decoder_b=parameter(np.zeros(2)),
    )
    if transformer:
        p.enc1_temporal = TemporalBlockParams.init(d, config.heads, rng, config.ff_dim)
    else:
        p.enc1_gru = GruParams.init(d, rng)
    if config.use_encoder2:
        p.enc2_spatial = TGConvParams.init(d, config.heads, rng)
        if transformer:
            p.enc2_temporal = TemporalBlockParams.init(d, config.heads, rng, config.ff_dim)
        else:
            p.enc2_gru = GruParams.init(d, rng)
    return p


# ----------------------------------------------------------------------
# forward pieces
# ----------------------------------------------------------------------
def embed_inputs(
    positions: Tensor,
    params: StarParams,
    rng: Optional[np.random.Generator] = None,
    training: bool = False,
) -> Tuple[Tensor, Tensor]:
    """Two separate linear+ReLU position embeddings (N, t, 2) -> (N, t, d),
    one feeding the spatial branch, one the temporal branch."""
    rate = params.config.dropout
    h_s = linear(positions, params.embed_spatial_w, params.embed_spatial_b).relu()
    h_t = linear(positions, params.embed_temporal_w, params.embed_temporal_b).relu()
    if training and rng is not None:
        h_s = T.dropout(h_s, rate, rng, training=True)
        h_t = T.dropout(h_t, rate, rng, training=True)
    return h_s, h_t


def temporal_recurrent(h: Tensor, params: GruParams, time_mask: np.ndarray) -> Tensor:
    """GRU over the time axis, vectorized across pedestrians; zero initial
    hidden state, absent steps zeroed on output."""
    n, t, d = h.shape
    hidden = Tensor(np.zeros((n, d)))
    outs = []
    for s in range(t):
        x = h[:, s, :]
        z = (linear(x, params.wz, params.bz) + hidden.matmul(params.uz)).sigmoid()
        r = (linear(x, params.wr, params.br) + hidden.matmul(params.ur)).sigmoid()
        cand = (linear(x, params.wn, params.bn) + (r * hidden).matmul(params.un)).tanh()
        hidden = (1.0 - z) * cand + z * hidden
        outs.append(hidden)
    out = T.stack(outs, axis=1)
    return out * Tensor(time_mask[:, :, None].astype(np.float64))


def _temporal(h, params: StarParams, which: str, time_mask: np.ndarray) -> Tensor:
    if params.config.temporal_kind == "transformer":
        block = params.enc1_temporal if which == "enc1" else params.enc2_temporal
        return temporal_block(h, block, time_mask)
    gru = params.enc1_gru if which == "enc1" else params.enc2_gru
    return temporal_recurrent(h, gru, time_mask)


def encoder1(
    h_spatial: Tensor,
    h_temporal: Tensor,
    graphs: np.ndarray,
    memory: Optional[Tensor],
    params: StarParams,
    presence: np.ndarray,
    layout: Optional[list] = None,
) -> Tensor:
    """Parallel spatial and temporal branches fused by a linear layer.

    Given a graph memory (the previous rollout step's encoder-2 output, which
    covers steps 1..L-1), the temporal branch consumes it verbatim,
    concatenated along time with the current embedding at step L."""
    n, L, d = h_temporal.shape
    spatial = spatial_block(h_spatial, graphs, params.enc1_spatial, presence, layout=layout)
    if memory is not None:
        if memory.shape[1] != L - 1:
            raise ShapeMismatchError(
                f"memory holds {memory.shape[1]} steps; expected {L - 1}"
            )
        seq = concat([memory, h_temporal[:, L - 1 : L, :]], axis=1)
    else:
        seq = h_temporal
    temporal = _temporal(seq, params, "enc1", presence)
    fused = linear(concat([spatial, temporal], axis=-1), params.fusion_w, params.fusion_b)
    return fused * Tensor(presence[:, :, None].astype(np.float64))


def encoder2(
    h: Tensor,
    graphs: np.ndarray,
    params: StarParams,
    presence: np.ndarray,
    capture: Optional[dict] = None,
    layout: Optional[list] = None,
) -> Tensor:
    """Spatial then temporal transformer. Identity passthrough when encoder 2
    is ablated."""
    if not params.config.use_encoder2:
        return h
    spatial = spatial_block(h, graphs, params.enc2_spatial, presence,
                            return_weights=capture is not None, layout=layout)
    if capture is not None:
        spatial, capture["spatial2_weights"] = spatial[0], spatial[1].data
    return _temporal(spatial, params, "enc2", presence)


def decode_step(h_last: Tensor, noise: Optional[Tensor], params: StarParams) -> Tensor:
    """Linear map of concat(embedding, noise) to an (x, y) position in the
    origin-shifted frame."""
    inp = h_last if noise is None else concat([h_last, noise], axis=-1)
    return linear(inp, params.decoder_w, params.decoder_b)


# ----------------------------------------------------------------------
# rollout
# ----------------------------------------------------------------------
def rollout(
    scene: TrajectoryScene,
    params: StarParams,
    rng: Optional[np.random.Generator] = None,
    scene_ids: Optional[np.ndarray] = None,
    training: bool = False,
    capture: Optional[dict] = None,
    truth_positions: Optional[np.ndarray] = None,
) -> Tensor:
    """Autoregressive prediction: re-encode the growing history, decode one
    step, append it and the newest step's graph from predicted positions.
    scene_ids (default one scene) must keep each scene's rows contiguous.

    Returns (N, pred_len, 2) positions in the origin-shifted frame; rows for
    pedestrians without a full observation window are zero. When
    truth_positions is given and teacher forcing is on, ground truth (not the
    prediction) is appended to the history during training.

    The graph memory starts empty; with memory and encoder 2 enabled, each
    step's encoder-2 output replaces it. Raises NonFiniteError at the first
    step that decodes a non-finite position.
    """
    config = params.config
    if scene.origins is None:
        scene = preprocess(scene)
    if scene_ids is None:
        scene_ids = np.zeros(scene.n_peds, dtype=np.int64)
    layout = scene_layout(scene_ids)
    rollers = scene.rollout_mask
    if not rollers[scene.targets].all():
        raise DataFormatError("target pedestrian lacks a full observation window")
    if rng is None:
        rng = np.random.default_rng(0)

    obs = config.obs_len
    n = scene.n_peds
    nd = config.effective_noise_dim
    roll_col = Tensor(rollers[:, None].astype(np.float64))

    history = Tensor(scene.positions[:, :obs, :])
    presence = scene.presence[:, :obs].copy()
    graphs = build_graph(scene.world_positions()[:, : scene.obs_len],
                         scene.presence[:, : scene.obs_len], scene_ids,
                         config.graph_threshold)  # (t, N, N), one slab per step
    keep_memory = config.use_memory and config.use_encoder2
    memory: Optional[Tensor] = None
    preds: List[Tensor] = []

    for s in range(config.pred_len):
        h_s, h_t = embed_inputs(history, params, rng, training)
        pmask = Tensor(presence[:, :, None].astype(np.float64))
        h_s = h_s * pmask
        h_t = h_t * pmask
        fused = encoder1(h_s, h_t, graphs, memory, params, presence, layout=layout)
        cap = capture if (capture is not None and s == 0) else None
        enc = encoder2(fused, graphs, params, presence, capture=cap, layout=layout)
        if keep_memory:
            memory = enc
        h_last = enc[:, -1, :]
        noise = Tensor(rng.standard_normal((n, nd))) if nd > 0 else None
        step = decode_step(h_last, noise, params) * roll_col
        if not np.all(np.isfinite(step.data)):
            raise NonFiniteError(f"non-finite predicted position at rollout step {s}")
        preds.append(step)

        if config.teacher_forcing and training and truth_positions is not None:
            appended = Tensor(
                np.where(rollers[:, None], truth_positions[:, obs + s, :], 0.0)
            )
        else:
            appended = step
        history = concat([history, appended.reshape(n, 1, 2)], axis=1)
        presence = np.concatenate([presence, rollers[:, None]], axis=1)
        world_step = (appended.data + scene.origins)[:, None]  # (N, 1, 2)
        graphs = np.concatenate([graphs, build_graph(
            world_step, rollers[:, None], scene_ids, config.graph_threshold
        )])

    return T.stack(preds, axis=1)


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(path: str, params: StarParams) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "params": {
            name: {"shape": list(t.shape), "values": t.data.ravel().tolist()}
            for name, t in params.parameters()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _v2_name(name: str) -> str:
    for old, new in _V1_RENAMES.items():
        if name.endswith(old):
            return name[: -len(old)] + new
    return name


def load_checkpoint(path: str) -> StarParams:
    """Read a checkpoint written by save_checkpoint (v2) or by a v1 release.
    Malformed contents raise DataFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise DataFormatError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = payload.get("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise DataFormatError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        config = StarConfig.from_dict(payload["config"])
        params = init_params(config, np.random.default_rng(0))
        stored = payload["params"]
        if version == 1:
            stored = {_v2_name(name): entry for name, entry in stored.items()}
        names = {name for name, _ in params.parameters()}
        if names != set(stored):
            missing = names - set(stored)
            extra = set(stored) - names
            raise DataFormatError(
                f"{path}: parameter set mismatch (missing={sorted(missing)}, "
                f"unexpected={sorted(extra)})"
            )
        for name, t in params.parameters():
            entry = stored[name]
            if list(t.shape) != entry["shape"]:
                raise DataFormatError(
                    f"{path}: shape mismatch for {name}: {entry['shape']} vs {list(t.shape)}"
                )
            t.data = np.asarray(entry["values"], dtype=np.float64).reshape(t.shape)
    except DataFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint ({exc!r})") from None
    return params
