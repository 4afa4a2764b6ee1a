"""Spatio-temporal graph transformer for pedestrian trajectory prediction,
built on a small numpy reverse-mode autodiff core."""

from .tensor import Tensor, concat, dropout, layer_norm, linear, parameter, stack
from .optim import AdamState, adam_step, zero_grads
from .attention import (
    AttentionParams, TemporalBlockParams, positional_encoding, temporal_block,
)
from .graph import TGConvParams, build_graph, spatial_block
from .model import (
    StarConfig, StarParams, config_for_variant, decode_step, embed_inputs,
    encoder1, encoder2, init_params, load_checkpoint, rollout, save_checkpoint,
)
from .data import (
    Batch, TrajectoryScene, augment_rotation, load_dataset, make_scenes, merge_scenes,
    pack_batches, preprocess,
)
from .trainer import TrainSpec, ade, best_of_k, evaluate, fde, scene_loss, train
from .synthetic import simulate_scene

__version__ = "0.1.0"
