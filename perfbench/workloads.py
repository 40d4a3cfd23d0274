"""The benchmark's workloads: set-up, one call of work, and output checks.

Each workload is a closed loop with one caller. A call does one or more
ops (an op is one optimizer step or one query); `check` then verifies the
call's outputs outside the timed region and returns how many of its ops
failed, one error value per checked output and how many outputs were
degenerate. The mean of the errors over the first pass is the workload's
deterministic output guard.
"""

import math
import os
import warnings

import numpy as np

from affkit import (correspondence, evaluation, lifting, memory, model,
                    retrieval, synthgen, training)

TASKS = synthgen.TASKS


def roundtrip_stores(train, test, mem, variant, workdir):
    """Write and read back the scene and memory stores.

    This is the hand-off between `affkit gen` and `affkit train`/`eval`.
    Returns the loaded splits and the store sizes in MB.
    """
    paths = {name: os.path.join(workdir, name + ".jsonl")
             for name in ("train", "test", "memory")}
    synthgen.save_scenes(train, variant, paths["train"])
    synthgen.save_scenes(test, variant, paths["test"])
    memory.save_memory(mem, paths["memory"])
    train, _ = synthgen.load_scenes(paths["train"])
    test, _ = synthgen.load_scenes(paths["test"])
    mem = memory.load_memory(paths["memory"])
    sizes = {"synthgen.store_mb": (os.path.getsize(paths["train"])
                                   + os.path.getsize(paths["test"])) / 1e6,
             "memory.store_mb": os.path.getsize(paths["memory"]) / 1e6}
    for path in paths.values():
        os.remove(path)
    return train, test, mem, sizes


class Train:
    """Optimizer steps of the criterion-5 setting through `training.train`.

    Noiseless variant, 70 train scenes per task, default ModelConfig and
    TrainConfig(k=3, batch_size=16). Each call trains one epoch over the
    next STEPS_PER_CALL batches of the episode list, cycling through it.
    """

    name = "train"
    guard = ("loss_final", "loss")
    STEPS_PER_CALL = 2

    def setup(self, seed, workdir):
        variant = synthgen.get_variant("noiseless")
        train, test, mem = synthgen.generate_split(70, 30, TASKS, seed=seed,
                                                   variant=variant)
        train, _, mem, stats = roundtrip_stores(train, test, mem, variant,
                                                workdir)
        self.mcfg = model.ModelConfig()
        self.tcfg = training.TrainConfig(k=3, batch_size=16, max_epochs=1,
                                         seed=seed)
        self.params = model.init_model(self.mcfg, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # counted below instead
            self.episodes = training.build_episodes(train, mem, None, self.tcfg)
        used = {ep.query_id for ep in self.episodes}
        stats["training.episodes_skipped"] = sum(
            s.scene_id not in used for s in train)
        self.train_scenes, self.mem = train, mem
        self.call(0)
        return stats

    def calls_per_pass(self):
        return 1

    def ops_in_call(self, i):
        return self.STEPS_PER_CALL

    def items_in_call(self, i):
        return self.STEPS_PER_CALL * self.tcfg.batch_size

    def call(self, i):
        size = self.items_in_call(i)
        eps = self.episodes
        chunk = [eps[(i * size + j) % len(eps)] for j in range(size)]
        return training.train(self.params, self.mcfg, self.tcfg, chunk,
                              self.train_scenes, self.mem)

    def check(self, i, history):
        loss = history[-1] if len(history) == 1 else math.nan
        if not math.isfinite(loss):
            return self.STEPS_PER_CALL, [], 0
        return 0, [loss], 0


class Eval:
    """`evaluation.evaluate` at K=3 with an untrained default-config model.

    Reference-informative variant, 100 test queries per task (300 in a
    pass). Each call evaluates the next QUERIES_PER_CALL test scenes.
    """

    name = "eval"
    guard = ("mae_deg", "deg")
    QUERIES_PER_CALL = 25

    def setup(self, seed, workdir):
        variant = synthgen.get_variant("reference-informative")
        train, test, mem = synthgen.generate_split(70, 100, TASKS, seed=seed,
                                                   variant=variant)
        _, self.test, self.mem, stats = roundtrip_stores(
            train, test, mem, variant, workdir)
        self.cfg = model.ModelConfig()
        self.params = model.init_model(self.cfg, seed=seed)
        self.call(0)
        return stats

    def calls_per_pass(self):
        return math.ceil(len(self.test) / self.QUERIES_PER_CALL)

    def _slice(self, i):
        start = (i % self.calls_per_pass()) * self.QUERIES_PER_CALL
        return self.test[start:start + self.QUERIES_PER_CALL]

    def ops_in_call(self, i):
        return len(self._slice(i))

    items_in_call = ops_in_call

    def call(self, i):
        return evaluation.evaluate(self.params, self.cfg, self._slice(i),
                                   self.mem, k=3)

    def check(self, i, report):
        expected = self.ops_in_call(i)
        failed = max(expected - len(report.records), 0)
        errors, degenerate = [], 0
        for rec in report.records[:expected]:
            if rec.degenerate:
                degenerate += 1
            elif (not math.isfinite(rec.error_deg)
                  or abs(np.linalg.norm(rec.predicted) - 1.0) > 1e-6):
                failed += 1
                continue
            errors.append(rec.error_deg)
        return failed, errors, degenerate


class Contact:
    """Static contact transfer and 3D lifting against a 900-entry memory.

    Noisy variant with 300 train scenes per task in memory and 100 test
    queries per task. One call is one query: task filter, cosine top-1
    (self excluded), contact transfer, then lifting with the retrieved
    reference's direction.
    """

    name = "contact"
    guard = ("contact_err_px", "px")

    def setup(self, seed, workdir):
        variant = synthgen.get_variant("noisy")
        train, test, mem = synthgen.generate_split(300, 100, TASKS, seed=seed,
                                                   variant=variant)
        _, self.test, self.mem, stats = roundtrip_stores(
            train, test, mem, variant, workdir)
        self.call(0)
        return stats

    def calls_per_pass(self):
        return len(self.test)

    def ops_in_call(self, i):
        return 1

    items_in_call = ops_in_call

    def call(self, i):
        scene = self.test[i % len(self.test)]
        subset = retrieval.filter_by_task(self.mem, scene.task)
        hits = retrieval.cosine_topk(scene.embedding, self.mem, subset, k=1,
                                     exclude=scene.scene_id)
        if not hits.entries:
            return None
        _, ref, _ = hits.entries[0]
        contact = correspondence.transfer_contact(
            ref.image, ref.affordance.contact, scene.image)
        lifted = lifting.lift_affordance(
            memory.Affordance2D(contact=contact,
                                direction=ref.affordance.direction),
            scene.depth, scene.intrinsics)
        return contact, lifted

    def check(self, i, out):
        if out is None:
            return 1, [], 0
        (x, y), lifted = out
        scene = self.test[i % len(self.test)]
        h, w = scene.image.shape[:2]
        point = np.asarray(lifted.contact, dtype=np.float64)
        direction = np.asarray(lifted.direction, dtype=np.float64)
        if (not (0 <= x < w and 0 <= y < h)
                or not np.isfinite(point).all()
                or not np.isfinite(direction).all()
                or abs(np.linalg.norm(direction) - 1.0) > 1e-6):
            return 1, [], 0
        return 0, [math.hypot(x - scene.contact[0], y - scene.contact[1])], 0


WORKLOADS = {cls.name: cls for cls in (Train, Eval, Contact)}
