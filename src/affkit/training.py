"""Episode construction, horizontal-flip augmentation, and the training loop."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, TrainingAbort
from .model import ablation, forward_direction, direction_loss
from .retrieval import retrieve
from .synthgen import hflip_image

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    k: int = 3
    candidate_pool_size: int = 15
    episodes_per_query: int = 5
    max_epochs: int = 50
    patience: int = 5
    lr: float = 3e-4
    batch_size: int = 16
    seed: int = 0
    flip_prob: float = 0.5
    flip_references: bool = False
    improvement_eps: float = 1e-6
    weighting: str = "full"

    def __post_init__(self):
        if not 10 <= self.candidate_pool_size <= 20:
            raise ConfigError("candidate_pool_size must be in [10, 20]")
        if not 0 <= self.k <= self.candidate_pool_size:
            raise ConfigError("k must be in [0, candidate_pool_size]")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.batch_size < 1 or self.episodes_per_query < 1:
            raise ConfigError("batch_size and episodes_per_query must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # Written so that a NaN fails too; lr = 0 is a legal frozen run.
        if not (0 <= self.lr < np.inf and 0 <= self.improvement_eps < np.inf):
            raise ConfigError(f"lr and improvement_eps must be finite and "
                              f">= 0, got {self.lr!r} and "
                              f"{self.improvement_eps!r}")
        if not 0 <= self.flip_prob <= 1:
            raise ConfigError(
                f"flip_prob must be in [0, 1], got {self.flip_prob!r}")
        ablation(self.weighting)


@dataclass
class Episode:
    query_id: str
    ref_indices: tuple  # memory entry indices, excludes the query itself
    similarities: tuple
    flip: bool


def build_episodes(train_scenes, memory, synonyms, cfg):
    """Per query: task-filter, cosine top-pool (self excluded), sample K
    without replacement; repeated episodes_per_query times."""
    rng = np.random.default_rng(cfg.seed)
    episodes = []
    for scene in train_scenes:
        ids, pool_sims = [], []  # K = 0 samples from an empty pool
        if cfg.k > 0:
            pool = retrieve(memory, scene, cfg.candidate_pool_size, synonyms)
            if len(pool) == 0:
                warnings.warn(f"query {scene.scene_id}: empty candidate pool, "
                              "skipping")
                continue
            if len(pool) < cfg.k:
                warnings.warn(f"query {scene.scene_id}: pool of {len(pool)} "
                              f"smaller than K={cfg.k}, using the full pool")
            ids, pool_sims = pool.indices, pool.similarities
        for _ in range(cfg.episodes_per_query):
            # Drawing nothing from an empty pool leaves the generator as it was.
            picks = sorted(rng.choice(len(ids), size=min(cfg.k, len(ids)),
                                      replace=False))
            episodes.append(Episode(
                query_id=scene.scene_id,
                ref_indices=tuple(ids[j] for j in picks),
                similarities=tuple(pool_sims[j] for j in picks),
                flip=bool(rng.random() < cfg.flip_prob)))
    return episodes


class Adam:
    """Adam with bias correction (BETA1, BETA2, ADAM_EPS)."""

    def __init__(self, params, lr=3e-4):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            mhat = m / b1t
            vhat = v / b2t
            p.data -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def _assemble_batch(batch, scenes_by_id, memory, cfg):
    """The batch's model inputs and targets; K = 0 is an empty axis."""
    scenes = [scenes_by_id[ep.query_id] for ep in batch]
    flips = np.array([ep.flip for ep in batch], dtype=bool)
    queries = np.stack([s.image for s in scenes])
    targets = np.array([s.direction for s in scenes], dtype=np.float64)
    queries[flips] = hflip_image(queries[flips])
    targets[flips, 0] = -targets[flips, 0]
    ref_imgs, ref_dirs = memory.references(
        np.array([ep.ref_indices for ep in batch], dtype=np.intp))
    if cfg.flip_references:
        ref_imgs[flips] = hflip_image(ref_imgs[flips])
        ref_dirs[flips, :, 0] = -ref_dirs[flips, :, 0]
    sims = np.array([ep.similarities for ep in batch], dtype=np.float64)
    return queries, ref_imgs, ref_dirs, sims, targets


def _batches(episodes, batch_size, rng):
    """Shuffled batches; episodes with equal reference counts share a batch."""
    buckets = {}
    for ep in episodes:
        buckets.setdefault(len(ep.ref_indices), []).append(ep)
    batches = []
    for k in sorted(buckets):
        idx = rng.permutation(len(buckets[k]))
        bucket = [buckets[k][i] for i in idx]
        for i in range(0, len(bucket), batch_size):
            batches.append(bucket[i:i + batch_size])
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


@np.errstate(over="ignore", invalid="ignore")
def train(params, model_cfg, train_cfg, episodes, train_scenes, memory,
          progress=None):
    """Optimize in place; returns the per-epoch mean loss history.

    Stops at max_epochs, or once the epoch loss has failed to improve the
    running best by improvement_eps for `patience` consecutive epochs.
    A diverging run ends in a TrainingAbort naming its epoch, raised by the
    loss check, a kernel's NaN check or the parameter check after each
    epoch, so numpy need not warn on the way.
    """
    if not episodes:
        raise ConfigError("no episodes to train on")
    scenes_by_id = {s.scene_id: s for s in train_scenes}
    rng = np.random.default_rng(train_cfg.seed + 1)
    opt = Adam(params, lr=train_cfg.lr)
    history = []
    best = np.inf
    bad_epochs = 0

    for epoch in range(train_cfg.max_epochs):
        total, count = 0.0, 0
        for batch in _batches(episodes, train_cfg.batch_size, rng):
            *inputs, targets = _assemble_batch(batch, scenes_by_id, memory,
                                               train_cfg)
            try:
                pred = forward_direction(params, model_cfg, *inputs,
                                         weighting=train_cfg.weighting)
            except NumericError as exc:
                raise TrainingAbort(f"epoch {epoch + 1}: {exc}") from exc
            loss = direction_loss(pred, targets)
            value = float(loss.data)
            if not np.isfinite(value):
                bad = _find_nonfinite_episode(pred, batch)
                raise TrainingAbort(f"non-finite loss in epoch {epoch + 1} "
                                    f"(episode {bad})", episode_id=bad)
            ad.zero_grads(params)
            ad.backward(loss)
            opt.step()
            # Free this step's tape before the next forward builds one.
            del pred, loss
            total += value * len(batch)
            count += len(batch)
        if not all(np.isfinite(p.data).all() for p in params.values()):
            raise TrainingAbort(f"non-finite parameters in epoch {epoch + 1}")
        epoch_loss = total / count
        history.append(epoch_loss)
        if progress is not None:
            progress(epoch + 1, epoch_loss)
        if epoch_loss < best - train_cfg.improvement_eps:
            best = epoch_loss
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= train_cfg.patience:
                break
    return history


def _find_nonfinite_episode(pred, batch):
    rows = ~np.isfinite(pred.data).all(axis=1)
    if rows.any():
        return batch[int(np.argmax(rows))].query_id
    return batch[0].query_id


def save_history(history, path):
    with open(path, "w") as fh:
        fh.write("epoch,mean_loss\n")
        for i, loss in enumerate(history, start=1):
            fh.write(f"{i},{loss!r}\n")
