"""Query path `answer`, angular-error metric, eval harness, K-sweep output."""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import correspondence
from .errors import ContractError, LeakageError
from .model import ablation, detach, predict_direction
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
    contact: tuple = None  # (x, y) pixel, or None if retrieval is empty
    contact_err_px: float = None  # its distance from the true contact


@dataclass
class EvalReport:
    per_task: dict = field(default_factory=dict)  # task -> mean degrees
    overall: float = 0.0
    records: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(asdict(self), indent=2) + "\n")


def answer(params, cfg, scene, memory, k, synonyms=None, weighting="full"):
    """One query: (contact, raw, unit). The contact is transferred from the
    top-1 reference (None if retrieval is empty), the direction predicted
    from the top k; the query's own id is never retrieved."""
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
    top = retrieve(memory, scene, max(k, 1), synonyms)
    contact = None
    if top.entries:
        _, ref, _ = top.entries[0]
        contact = correspondence.transfer_contact(
            ref.image, ref.affordance.contact, scene.image)
    raw, unit = predict_direction(params, cfg, scene.image,
                                  *memory.references(top.indices[:k]),
                                  top.similarities[:k], weighting=weighting)
    return contact, raw, unit


def evaluate(params, cfg, test_scenes, memory, k, synonyms=None,
             weighting="full", metadata=None):
    """`answer` per query, scored: direction MAE and contact pixel error.

    Raises LeakageError if any test scene id appears in the memory, and
    ContractError if there are no test scenes or k < 0. Degenerate
    (near-zero raw) predictions score 180 degrees.
    """
    ablation(weighting)
    if not test_scenes:
        raise ContractError("no test scenes to evaluate")
    leaked = {s.scene_id for s in test_scenes
              if s.scene_id and s.scene_id in memory.rows_of}
    if leaked:
        raise LeakageError(f"test scenes present in memory: {sorted(leaked)[:5]}")

    # Detach once here: predict_direction still detaches per query, but on
    # detached parameters that returns the same Tensors, so it is cheap.
    params = detach(params)
    records = []
    for scene in sorted(test_scenes, key=lambda s: s.scene_id):
        contact, _, unit = answer(params, cfg, scene, memory, k, synonyms,
                                  weighting)
        degenerate = unit is None
        records.append(SampleRecord(
            scene.scene_id, scene.task, None if degenerate else tuple(unit),
            scene.direction,
            DEGENERATE_ERROR_DEG if degenerate else mae(unit, scene.direction),
            degenerate, contact, None if contact is None else math.hypot(
                contact[0] - scene.contact[0], contact[1] - scene.contact[1])))

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
