"""The full trajectory prediction network: input embeddings, two interleaved
spatial/temporal encoders, noise-conditioned decoder, and the autoregressive
rollout loop, which carries the graph memory from one step to the next.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import InitVar, asdict, dataclass, replace
from numbers import Integral, Real
from typing import List, Optional, Tuple

import numpy as np

from . import tensor as T
from .attention import Params, TemporalBlockParams, _xavier, attention_weights, temporal_block
from .data import TrajectoryScene, preprocess
from .errors import DataFormatError, NonFiniteError, ShapeMismatchError
from .graph import Layout, TGConvParams, build_graph, scene_layout, spatial_block
from .tensor import Tensor, concat, linear, parameter

CHECKPOINT_FORMAT = "startraj-checkpoint"
CHECKPOINT_VERSION = 3
# v1 named the TGConv output layer w_out/b_out; v2 stores it as the attention
# output projection wo/bo
_V1_RENAMES = {".spatial.w_out": ".spatial.wo", ".spatial.b_out": ".spatial.bo"}


def require_int(name: str, value, low: int) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_bool(name: str, value) -> None:
    """Raise ValueError unless value is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def require_positive(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number > 0."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


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
    deterministic: InitVar[bool] = False  # an input, not stored: True sets noise_dim 0
    teacher_forcing: bool = False
    ff_dim: Optional[int] = None

    def __post_init__(self, deterministic):
        for name, low in (("d_model", 1), ("heads", 1), ("noise_dim", 0),
                          ("obs_len", 2), ("pred_len", 1)):
            require_int(name, getattr(self, name), low)
        require_bool("deterministic", deterministic)
        for name in ("use_memory", "use_encoder2", "teacher_forcing"):
            require_bool(name, getattr(self, name))
        if self.ff_dim is not None:
            require_int("ff_dim", self.ff_dim, 1)
        require_positive("graph_threshold", self.graph_threshold)
        if isinstance(self.dropout, bool) or not (isinstance(self.dropout, Real)
                                                  and 0 <= self.dropout < 1):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.temporal_kind not in ("transformer", "recurrent"):
            raise ValueError(f"unknown temporal_kind {self.temporal_kind!r}")
        if self.d_model % self.heads or self.d_model % 2:
            raise ValueError(
                f"need an even d_model divisible by heads; got d_model "
                f"{self.d_model}, heads {self.heads}"
            )
        if deterministic:
            self.noise_dim = 0
        if self.temporal_kind == "recurrent" or not self.use_encoder2:
            # the memory is encoder 2's transformer output; the recurrent
            # ablation and a model without encoder 2 run without it
            self.use_memory = False


VARIANT_FLAGS = {
    "full": dict(use_memory=True, temporal_kind="transformer", use_encoder2=True),
    "no_memory": dict(use_memory=False, temporal_kind="transformer", use_encoder2=True),
    "lstm_temporal": dict(use_memory=False, temporal_kind="recurrent", use_encoder2=True),
    "single_encoder": dict(use_memory=False, temporal_kind="transformer", use_encoder2=False),
}


def config_for_variant(variant: str, base: Optional[StarConfig] = None) -> StarConfig:
    if variant not in VARIANT_FLAGS:
        raise ValueError(f"unknown variant {variant!r}; have {sorted(VARIANT_FLAGS)}")
    return replace(base or StarConfig(), **VARIANT_FLAGS[variant])


@dataclass
class GruParams(Params):
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


@dataclass
class Linear(Params):
    """One dense layer: inputs @ w + b."""

    w: Tensor
    b: Tensor

    @staticmethod
    def init(fan_in: int, fan_out: int, rng: np.random.Generator) -> "Linear":
        return Linear(w=parameter(_xavier(rng, fan_in, fan_out)), b=parameter(np.zeros(fan_out)))


@dataclass
class Encoder(Params):
    """A spatial TGConv and a temporal block: the transformer (`temporal`)
    or, in the recurrent ablation, the GRU (`gru`); the other is None."""

    spatial: TGConvParams
    temporal: Optional[TemporalBlockParams] = None
    gru: Optional[GruParams] = None


@dataclass
class StarParams(Params):
    config: StarConfig
    embed_spatial: Linear
    embed_temporal: Linear
    enc1: Encoder
    fusion: Linear
    enc2: Optional[Encoder]  # None when encoder 2 is ablated
    decoder: Linear


def init_params(config: StarConfig, rng: np.random.Generator) -> StarParams:
    d = config.d_model

    def encoder(spatial: TGConvParams) -> Encoder:
        if config.temporal_kind == "transformer":
            return Encoder(spatial, temporal=TemporalBlockParams.init(d, config.heads, rng,
                                                                      config.ff_dim))
        return Encoder(spatial, gru=GruParams.init(d, rng))

    # The draws run in the order of the flat v1 layout, not in field order, so
    # that a seed gives the same weights as every earlier release.
    embed_spatial = Linear.init(2, d, rng)
    embed_temporal = Linear.init(2, d, rng)
    enc1_spatial = TGConvParams.init(d, config.heads, rng)
    fusion = Linear.init(2 * d, d, rng)
    decoder = Linear.init(d + config.noise_dim, 2, rng)
    enc1 = encoder(enc1_spatial)
    enc2 = encoder(TGConvParams.init(d, config.heads, rng)) if config.use_encoder2 else None
    return StarParams(config, embed_spatial, embed_temporal, enc1, fusion, enc2, decoder)


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
    h_s = linear(positions, params.embed_spatial.w, params.embed_spatial.b, relu=True)
    h_t = linear(positions, params.embed_temporal.w, params.embed_temporal.b, relu=True)
    if training:
        h_s = T.dropout(h_s, rate, rng)
        h_t = T.dropout(h_t, rate, rng)
    return h_s, h_t


def temporal_recurrent(h: Tensor, params: GruParams, time_mask: np.ndarray) -> Tensor:
    """GRU over the time axis, vectorized across pedestrians; zero initial
    hidden state. Absent steps are zeroed on input, since the hidden state
    carries across them; their outputs are left for the caller's masks to
    ignore."""
    n, t, d = h.shape
    h = h * Tensor(time_mask[:, :, None].astype(np.float64))
    hidden = Tensor(np.zeros((n, d)))
    outs = []
    for s in range(t):
        x = h[:, s, :]
        z = linear(x, params.wz, params.bz, hidden.matmul(params.uz)).sigmoid()
        r = linear(x, params.wr, params.br, hidden.matmul(params.ur)).sigmoid()
        cand = linear(x, params.wn, params.bn, (r * hidden).matmul(params.un)).tanh()
        hidden = (1.0 - z) * cand + z * hidden
        outs.append(hidden)
    return T.stack(outs, axis=1)


def _temporal(h, enc: Encoder, time_mask: np.ndarray) -> Tensor:
    if enc.temporal is not None:
        return temporal_block(h, enc.temporal, time_mask)
    return temporal_recurrent(h, enc.gru, time_mask)


def encoder1(
    h_spatial: Tensor,
    h_temporal: Tensor,
    masks: List[np.ndarray],
    memory: Optional[Tensor],
    params: StarParams,
    presence: np.ndarray,
    layout: Layout,
    spatial_before: Optional[List[Tensor]] = None,
) -> Tensor:
    """Parallel spatial and temporal branches fused by a linear layer. The
    outputs of absent slots are left for the masks downstream to ignore.

    Given a graph memory (the previous rollout step's encoder-2 output, which
    covers steps 1..L-1), the temporal branch consumes it verbatim,
    concatenated along time with the current embedding at step L.

    TGConv sees one step's graph at a time, so with spatial_before (the eval
    rollout's cache of its outputs over the first L - k steps), h_spatial holds
    the last k steps only; their output is appended to the list."""
    n, L, d = h_temporal.shape
    k = h_spatial.shape[1]
    spatial = spatial_block(h_spatial, [m[L - k:] for m in masks], params.enc1.spatial, layout)
    if spatial_before is not None:
        spatial_before.append(spatial)
        spatial = concat(spatial_before, axis=1)
    if memory is not None:
        if memory.shape[1] != L - 1:
            raise ShapeMismatchError(
                f"memory holds {memory.shape[1]} steps; expected {L - 1}"
            )
        seq = concat([memory, h_temporal[:, L - 1 : L, :]], axis=1)
    else:
        seq = h_temporal
    temporal = _temporal(seq, params.enc1, presence)
    return linear(concat([spatial, temporal], axis=-1), params.fusion.w, params.fusion.b)


def encoder2(
    h: Tensor,
    masks: List[np.ndarray],
    params: StarParams,
    presence: np.ndarray,
    layout: Layout,
) -> Tensor:
    """Spatial then temporal transformer. Identity passthrough when encoder 2
    is ablated."""
    if params.enc2 is None:
        return h
    spatial = spatial_block(h, masks, params.enc2.spatial, layout)
    return _temporal(spatial, params.enc2, presence)


def decode_step(h_last: Tensor, noise: Tensor, params: StarParams) -> Tensor:
    """Linear map of concat(embedding, noise) to an (x, y) position in the
    origin-shifted frame; noise is (rows, noise_dim), no columns at 0."""
    return linear(concat([h_last, noise], axis=-1), params.decoder.w, params.decoder.b)


# ----------------------------------------------------------------------
# rollout
# ----------------------------------------------------------------------
def _observed(scene: TrajectoryScene, config: StarConfig, layout: Layout):
    """The preprocessed scene, its observed history (N, obs_len, 2), presence
    (N, obs_len) and build_graph's masks over the observed steps."""
    if scene.obs_len != config.obs_len:
        raise DataFormatError(
            f"scene observes {scene.obs_len} steps; the model needs {config.obs_len}")
    scene = preprocess(scene)  # a no-op on a preprocessed scene
    obs = config.obs_len
    presence = scene.presence[:, :obs]
    masks = build_graph(scene.world_positions()[:, :obs], presence, layout,
                        config.graph_threshold)
    return scene, Tensor(scene.positions[:, :obs]), presence, masks


def rollout(
    scene: TrajectoryScene,
    params: StarParams,
    rng: Optional[np.random.Generator] = None,
    sizes: Optional[np.ndarray] = None,
    training: bool = False,
    copies: int = 1,
) -> Tensor:
    """Autoregressive prediction: encode the growing history, decode one
    step, and append it and its masks; the observed window's masks are built
    once. sizes (default one scene) holds each packed scene's pedestrian
    count in row order: integers, all positive, summing to N.

    Returns (N, pred_len, 2) positions in the origin-shifted frame; rows for
    pedestrians without a full observation window are zero.

    Only `training` and params.config set the mode. Every step embeds the
    whole history (in training, dropout resamples it). Training tapes and
    re-encodes all of it, draws each step's noise as it decodes and, under
    teacher_forcing, appends the scene's ground truth to the history instead
    of the prediction, with the scene's presence: a roller absent from a
    future step is absent there from the history, the temporal masks and the
    graph. Otherwise the rollout runs on params.frozen(), with no
    tape; after step 0, encoder 1's TGConv runs on the newest step alone and
    appends to its cached outputs, bit-exactly, while the temporal branches,
    the fusion and encoder 2 see the full history. All the noise is drawn
    before the first step, in the order that per-step draws take it.

    copies > 1 (not in training) samples that many rollouts in one. Noise
    enters only at the decoder, so step 0 encodes the N rows once; its state
    is then tiled into `copies` packed blocks of N rows, which decode and run
    the later steps. The result is (copies * N, pred_len, 2), copy k in rows
    k*N..(k+1)*N: `copies` sequential rollouts on the same generator, up to
    the rounding of a matmul over more rows.

    The graph memory starts empty; with use_memory, each step's encoder-2
    output replaces it. Raises NonFiniteError at the first step that decodes
    a non-finite position.
    """
    config = params.config
    require_int("copies", copies, 1)
    if training and copies > 1:
        raise ValueError("copies > 1 samples eval rollouts; training takes one")
    if not training:
        params = params.frozen()
    sizes = np.asarray([scene.n_peds] if sizes is None else sizes)
    if sizes.dtype.kind not in "iu" or not (sizes > 0).all() or sizes.sum() != scene.n_peds:
        raise DataFormatError(f"scene sizes {sizes.tolist()} for {scene.n_peds} pedestrians")
    layout = scene_layout(sizes)
    scene, history, presence, masks = _observed(scene, config, layout)
    rollers = scene.rollout_mask
    forced = training and config.teacher_forcing
    if forced and scene.pred_len < config.pred_len:
        raise DataFormatError(f"teacher forcing needs {config.pred_len} future steps")
    if rng is None:
        rng = np.random.default_rng(0)

    n = scene.n_peds
    nd = config.noise_dim
    if not training:  # sample-major, as `copies` sequential rollouts draw it
        noises = rng.standard_normal((copies, config.pred_len, n, nd)).swapaxes(0, 1)
    origins = scene.origins
    memory: Optional[Tensor] = None
    spatial: Optional[List[Tensor]] = None if training else []  # encoder 1's TGConv outputs
    preds: List[Tensor] = []

    for s in range(config.pred_len):
        h_s, h_t = embed_inputs(history, params, rng, training)
        if spatial:  # encoder 1's TGConv has encoded every step but the newest
            h_s = Tensor(h_s.data[:, -1:].copy())  # a view would keep all L rows alive
        fused = encoder1(h_s, h_t, masks, memory, params, presence, layout, spatial)
        enc = encoder2(fused, masks, params, presence, layout)
        if s == 0 and copies > 1:  # the copies share step 0's encoding
            tile = lambda x: concat([x] * copies, axis=0)
            enc, history, spatial = tile(enc), tile(history), [tile(spatial[0])]
            presence, rollers, origins = (np.concatenate([a] * copies)
                                          for a in (presence, rollers, origins))
            masks = [np.concatenate([m] * copies, axis=1) for m in masks]
            layout = scene_layout(np.tile(sizes, copies))
            n *= copies
        if config.use_memory:
            memory = enc
        h_last = enc[:, -1, :]
        noise = Tensor(rng.standard_normal((n, nd)) if training else noises[s].reshape(n, nd))
        step = decode_step(h_last, noise, params) * Tensor(rollers[:, None].astype(np.float64))
        if not np.all(np.isfinite(step.data)):
            raise NonFiniteError(f"non-finite predicted position at rollout step {s}")
        preds.append(step)
        if s + 1 == config.pred_len:
            break  # no later step reads this one's history, presence or masks

        present = rollers & scene.presence[:, config.obs_len + s] if forced else rollers
        appended = step if not forced else Tensor(
            np.where(present[:, None], scene.positions[:, config.obs_len + s], 0.0))
        history = concat([history, appended.reshape(n, 1, 2)], axis=1)
        presence = np.concatenate([presence, present[:, None]], axis=1)
        world_step = (appended.data + origins)[:, None]  # (N, 1, 2)
        step_masks = build_graph(world_step, present[:, None], layout, config.graph_threshold)
        masks = [np.concatenate(pair) for pair in zip(masks, step_masks)]

    return T.stack(preds, axis=1)


def encoder2_attention(scene: TrajectoryScene, params: StarParams) -> np.ndarray:
    """Encoder-2 spatial attention weights (obs_len, heads, N, N) over one
    scene's observed window, as the first rollout step computes them, with no
    tape. Noise enters only at the decoder, so no seed reaches them."""
    if params.enc2 is None:
        raise DataFormatError("model has no encoder-2 spatial transformer")
    params = params.frozen()
    layout = scene_layout([scene.n_peds])
    _, history, presence, masks = _observed(scene, params.config, layout)
    h_s, h_t = embed_inputs(history, params)
    fused = encoder1(h_s, h_t, masks, None, params, presence, layout)
    n, t, d = fused.shape
    x = fused.swapaxes(0, 1).reshape(t, 1, n, d)  # spatial_block's (t, S, n, d) form
    p, [mask] = params.enc2.spatial, masks  # mask: (t, 1, N, N)
    return attention_weights(linear(x, p.wq, p.bq), linear(x, p.wk, p.bk), mask,
                             p.head_count)[:, 0]


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def save_checkpoint(path: str, params: StarParams) -> None:
    """Write a v3 checkpoint: JSON with the config and, per parameter name,
    its shape and its row-major values as base64 of little-endian float64
    bytes ("data"). load_checkpoint reads every array back bit for bit."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "params": {
            name: {"shape": list(t.shape),
                   "data": base64.b64encode(t.data.astype("<f8").tobytes()).decode("ascii")}
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


def _decoded(path: str, name: str, entry: dict, size: int) -> np.ndarray:
    """A v3 entry's values: its base64 "data" as a writable native array."""
    data = entry.get("data")
    if "values" in entry or not isinstance(data, str):
        raise DataFormatError(f"{path}: parameter {name} must store its values as a "
                              f"base64 string in 'data'")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error: not base64, or not ASCII
        raise DataFormatError(f"{path}: parameter {name} data is not base64") from None
    if len(raw) != 8 * size:
        raise DataFormatError(f"{path}: parameter {name} holds {len(raw)} bytes; "
                              f"its shape needs {8 * size}")
    return np.frombuffer(raw, "<f8").astype(np.float64)


def load_checkpoint(path: str) -> StarParams:
    """Read a checkpoint written by save_checkpoint (v3), or a v1 or v2 file,
    which stored each parameter's values as a list of decimal floats. The
    arrays are writable, C-ordered native float64. Malformed contents (a
    parameter set, shape, byte count or encoding that does not fit, or a
    non-finite value) raise DataFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise DataFormatError(f"{path}: not a JSON file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = payload.get("version")
    if type(version) is not int or version not in (1, 2, CHECKPOINT_VERSION):  # not 1.0 or true
        raise DataFormatError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        config = StarConfig(**payload["config"])
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
            values = (_decoded(path, name, entry, t.size) if version == CHECKPOINT_VERSION
                      else np.asarray(entry["values"], dtype=np.float64)).reshape(t.shape)
            if not np.all(np.isfinite(values)):
                raise DataFormatError(f"{path}: non-finite value in parameter {name}")
            t.data = values
    except DataFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint ({exc!r})") from None
    return params
