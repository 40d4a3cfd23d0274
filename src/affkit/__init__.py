"""Retrieval-augmented 2D affordance prediction (contact + action direction)."""

from .memory import Affordance2D, Memory, MemoryEntry, build_memory, \
    load_memory, reduce_trajectory, save_memory
from .model import ModelConfig, init_model, predict_direction, \
    load_checkpoint, save_checkpoint
from .retrieval import RetrievalResult, TaskSynonymTable, cosine_topk, \
    filter_by_task, retrieve
from .correspondence import transfer_contact
from .training import Episode, TrainConfig, build_episodes, train
from .evaluation import EvalReport, evaluate, mae
from .lifting import Affordance3D, Intrinsics, backproject, lift_affordance, \
    lift_contact, lift_direction
from .synthgen import BenchmarkVariant, Scene, generate_scene, generate_split

__version__ = "0.1.0"

__all__ = [
    "Affordance2D", "Affordance3D", "BenchmarkVariant", "EvalReport",
    "Episode", "Intrinsics", "Memory", "MemoryEntry", "ModelConfig",
    "RetrievalResult", "Scene", "TaskSynonymTable", "TrainConfig",
    "backproject", "build_episodes", "build_memory", "cosine_topk",
    "evaluate", "filter_by_task", "generate_scene", "generate_split",
    "init_model", "lift_affordance", "lift_contact",
    "lift_direction", "load_checkpoint", "load_memory", "mae",
    "predict_direction", "reduce_trajectory", "retrieve", "save_checkpoint",
    "save_memory", "train", "transfer_contact",
]
