"""Episode construction, horizontal-flip augmentation, and the training loop."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, TrainingAbort
from .model import ablation, forward_direction, direction_loss
from .retrieval import retrieve
from .synthgen import hflip_image


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
        if not (self.lr >= 0 and self.improvement_eps >= 0):
            raise ConfigError(f"lr and improvement_eps must be >= 0, got "
                              f"{self.lr!r} and {self.improvement_eps!r}")
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


def build_episodes(train_scenes, memory, synonyms, cfg, rng=None):
    """Per query: task-filter, cosine top-pool (self excluded), sample K
    without replacement; repeated episodes_per_query times."""
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    episodes = []
    for scene in train_scenes:
        if cfg.k > 0:
            pool = retrieve(memory, scene, cfg.candidate_pool_size, synonyms,
                            exclude=scene.scene_id)
            if len(pool) == 0:
                warnings.warn(f"query {scene.scene_id}: empty candidate pool, "
                              "skipping")
                continue
            if len(pool) < cfg.k:
                warnings.warn(f"query {scene.scene_id}: pool of {len(pool)} "
                              f"smaller than K={cfg.k}, using the full pool")
        for _ in range(cfg.episodes_per_query):
            if cfg.k > 0:
                n_pick = min(cfg.k, len(pool))
                picks = sorted(rng.choice(len(pool), size=n_pick, replace=False))
                refs = tuple(pool.indices[j] for j in picks)
                sims = tuple(pool.similarities[j] for j in picks)
            else:
                refs, sims = (), ()
            episodes.append(Episode(
                query_id=scene.scene_id,
                ref_indices=refs,
                similarities=sims,
                flip=bool(rng.random() < cfg.flip_prob)))
    return episodes


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999)."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / b1t
            vhat = self.v[name] / b2t
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _assemble_batch(batch, scenes_by_id, memory, cfg):
    queries, targets = [], []
    ref_imgs, ref_dirs, sims = [], [], []
    k = len(batch[0].ref_indices)
    for ep in batch:
        scene = scenes_by_id[ep.query_id]
        img = scene.image
        gt = scene.direction
        if ep.flip:
            img = hflip_image(img)
            gt = (-gt[0], gt[1])
        queries.append(img)
        targets.append(gt)
        if k > 0:
            entries = [memory.entries[i] for i in ep.ref_indices]
            imgs = [e.image for e in entries]
            dirs = [e.affordance.direction for e in entries]
            if cfg.flip_references and ep.flip:
                imgs = [hflip_image(im) for im in imgs]
                dirs = [(-d[0], d[1]) for d in dirs]
            ref_imgs.append(np.stack(imgs))
            ref_dirs.append(dirs)
            sims.append(ep.similarities)
    queries = np.stack(queries)
    targets = np.asarray(targets)
    if k > 0:
        return queries, np.stack(ref_imgs), np.asarray(ref_dirs), \
            np.asarray(sims), targets
    return queries, None, None, None, targets


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


def train(params, model_cfg, train_cfg, episodes, train_scenes, memory,
          progress=None):
    """Optimize in place; returns the per-epoch mean loss history.

    Stops at max_epochs, or once the epoch loss has failed to improve the
    running best by improvement_eps for `patience` consecutive epochs.
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
            arrays = _assemble_batch(batch, scenes_by_id, memory, train_cfg)
            queries, ref_imgs, ref_dirs, sims, targets = arrays
            pred = forward_direction(params, model_cfg, queries, ref_imgs,
                                     ref_dirs, sims,
                                     weighting=train_cfg.weighting)
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


def load_history(path):
    history = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, loss = line.strip().split(",")
            history.append(float(loss))
    return history
