"""Angular-error metric, evaluation harness, ablation rules, K-sweep output."""

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ContractError, LeakageError
from .model import WEIGHTING_RULES, ablation, detach, predict_direction
from .retrieval import retrieve

DEGENERATE_ERROR_DEG = 180.0


def mae(a, b):
    """Angular error in degrees between two unit 2D vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for v in (a, b):
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-6:  # NaN fails too
            raise ContractError(f"mae expects unit vectors, got norm "
                                f"{np.linalg.norm(v)!r}")
    return float(np.degrees(np.arccos(np.clip(a @ b, -1.0, 1.0))))


@dataclass
class SampleRecord:
    query_id: str
    task: str
    predicted: tuple  # unit vector, or None if degenerate
    ground_truth: tuple
    error_deg: float
    degenerate: bool = False


@dataclass
class EvalReport:
    per_task: dict = field(default_factory=dict)  # task -> mean degrees
    overall: float = 0.0
    records: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


def evaluate(params, cfg, test_scenes, memory, k, synonyms=None,
             weighting="full", metadata=None):
    """Per-query retrieval + direction prediction + MAE.

    Raises LeakageError if any test scene id appears in the memory, and
    ContractError if there are no test scenes or k < 0. Degenerate (near-zero raw) predictions score
    180 degrees.
    """
    ablation(weighting)
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
    if not test_scenes:
        raise ContractError("no test scenes to evaluate")
    memory_ids = {e.source_id for e in memory.entries if e.source_id}
    leaked = memory_ids & {s.scene_id for s in test_scenes}
    if leaked:
        raise LeakageError(f"test scenes present in memory: {sorted(leaked)[:5]}")

    # Detach once here rather than once per query in predict_direction.
    params = detach(params)
    records = []
    for scene in sorted(test_scenes, key=lambda s: s.scene_id):
        refs = retrieve(memory, scene, k, synonyms).refs
        _, unit = predict_direction(params, cfg, scene.image, refs,
                                    weighting=weighting)
        if unit is None:
            err = DEGENERATE_ERROR_DEG
            records.append(SampleRecord(scene.scene_id, scene.task, None,
                                        scene.direction, err, degenerate=True))
        else:
            err = mae(unit, scene.direction)
            records.append(SampleRecord(scene.scene_id, scene.task,
                                        tuple(unit), scene.direction, err))

    per_task = {}
    for rec in records:
        per_task.setdefault(rec.task, []).append(rec.error_deg)
    report = EvalReport(
        per_task={t: float(np.mean(v)) for t, v in sorted(per_task.items())},
        overall=float(np.mean([r.error_deg for r in records])),
        records=records,
        metadata=dict(metadata or {}, k=k, weighting=weighting,
                      n_queries=len(records)))
    return report


def save_sweep(rows, path):
    with open(path, "w") as fh:
        fh.write("k\tmae_deg\n")
        for k, value in rows:
            fh.write(f"{k}\t{value!r}\n")
