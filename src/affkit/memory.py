"""Affordance memory: trajectory reduction, construction, persistence.

A memory store (see `store`) has a header with `d_emb`, `count` and
`image_encoding`, then one entry per line.
"""

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import store
from .errors import ContractError, EmptyMemoryError, ParseError, SchemaError
from .kernels import row_norms

FORMAT_NAME = "affkit-memory"
IMAGE_ENCODING = "base64/float64-le"
DEGENERATE_EPS = 1e-6

_WS = re.compile(r"\s+")


def normalize_task(label):
    """Lowercase, single-spaced task label."""
    return _WS.sub(" ", label.strip().lower())


@dataclass(frozen=True)
class Affordance2D:
    """Contact point (pixels, x right / y down) and unit action direction."""

    contact: tuple  # (x, y)
    direction: tuple  # (x, y), unit norm

    def __post_init__(self):
        if not np.isfinite(np.asarray(self.contact, dtype=np.float64)).all():
            raise ContractError(f"contact {self.contact} is not finite")
        d = np.asarray(self.direction, dtype=np.float64)
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-9:  # NaN fails too
            raise ContractError(f"direction {self.direction} is not unit norm")


@dataclass
class MemoryEntry:
    image: np.ndarray  # H x W x C float64
    embedding: np.ndarray  # (d_emb,)
    task: str
    affordance: Affordance2D
    source_id: Optional[str] = None


@dataclass
class Memory:
    """Entries plus the retrieval index, built once here: `embeddings` (N, d_emb)
    and their row `norms` (N,), `by_task` (normalised task -> read-only
    ascending np.intp indices), `rows_of` (source id, None included -> list
    of rows), and `image_shape`, which every entry's image has ((0, 0, 0)
    if none)."""

    entries: list = field(default_factory=list)
    d_emb: int = 0

    def __post_init__(self):
        by_task, self.rows_of = {}, {}
        self.image_shape = (np.shape(self.entries[0].image) if self.entries
                            else (0, 0, 0))
        for i, e in enumerate(self.entries):
            if np.shape(e.embedding) != (self.d_emb,):  # also not 1-D
                raise SchemaError(f"entry {i}: embedding shape "
                                  f"{np.shape(e.embedding)} != ({self.d_emb},)")
            if np.shape(e.image) != self.image_shape:
                raise SchemaError(f"entry {i}: image shape {np.shape(e.image)}"
                                  f" != {self.image_shape} of entry 0")
            e.task = normalize_task(e.task)
            by_task.setdefault(e.task, []).append(i)
            self.rows_of.setdefault(e.source_id, []).append(i)
        self.embeddings = np.array(
            [e.embedding for e in self.entries],
            dtype=np.float64).reshape(len(self), self.d_emb)
        self.norms = row_norms(self.embeddings)
        self.by_task = {t: np.array(ix, dtype=np.intp)
                        for t, ix in by_task.items()}
        for ix in self.by_task.values():  # filter_by_task hands them out
            ix.flags.writeable = False

    def __len__(self):
        return len(self.entries)

    def references(self, indices):
        """Gather the entries at an index array of shape (..., K), K >= 0:
        float64 images (..., K, H, W, C) and directions (..., K, 2)."""
        indices = np.asarray(indices, dtype=np.intp)
        picked = [self.entries[i] for i in indices.ravel().tolist()]
        images = np.array([e.image for e in picked], dtype=np.float64)
        dirs = np.array([e.affordance.direction for e in picked],
                        dtype=np.float64)
        return (images.reshape(indices.shape + self.image_shape),
                dirs.reshape(indices.shape + (2,)))


def reduce_trajectory(points):
    """Dominant motion direction of a 2D trajectory, or None: the first
    principal component, its sign fixed by the net displacement."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ContractError(f"trajectory needs >= 2 2D points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ContractError("trajectory contains non-finite points")

    disp = pts[-1] - pts[0]
    if np.linalg.norm(disp) < DEGENERATE_EPS:
        return None

    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / pts.shape[0]
    if np.linalg.norm(cov) < DEGENERATE_EPS ** 2:
        return None
    evals, evecs = np.linalg.eigh(cov)
    axis = evecs[:, np.argmax(evals)]
    if axis @ disp < 0:
        axis = -axis
    return tuple(axis / np.linalg.norm(axis))


def build_memory(samples):
    """Build a Memory from (image, embedding, task, annotation[, source_id]).

    The annotation is either an Affordance2D (passed through) or a
    trajectory point list (reduced; degenerate samples are dropped, with
    the contact taken as the first trajectory point).
    """
    if not samples:
        raise EmptyMemoryError("no samples given")
    entries = []
    for sample in samples:
        image, embedding, task, annotation = sample[:4]
        source_id = sample[4] if len(sample) > 4 else None
        if isinstance(annotation, Affordance2D):
            aff = annotation
        else:
            direction = reduce_trajectory(annotation)
            if direction is None:
                continue
            contact = tuple(np.asarray(annotation, dtype=np.float64)[0])
            aff = Affordance2D(contact=contact, direction=direction)
        entries.append(MemoryEntry(
            image=np.asarray(image, dtype=np.float64),
            embedding=np.asarray(embedding, dtype=np.float64),
            task=task,
            affordance=aff,
            source_id=source_id))
    if not entries:
        raise EmptyMemoryError("all samples had degenerate trajectories")
    # A ragged embedding fails Memory's index check as a SchemaError.
    return Memory(entries=entries, d_emb=entries[0].embedding.size)


def affordance_from(rec):
    """The Affordance2D in a store record's `contact` and `direction`."""
    try:
        return Affordance2D(contact=tuple(rec.floats("contact", 2).tolist()),
                            direction=tuple(rec.floats("direction", 2).tolist()))
    except ContractError as exc:
        raise ParseError(str(exc), line=rec.line)


def save_memory(memory, path):
    """Write the memory store; an empty memory is just the header."""
    store.save(path, FORMAT_NAME, {
        "d_emb": memory.d_emb, "count": len(memory),
        "image_encoding": IMAGE_ENCODING}, ({
            "task": e.task, "h": e.image.shape[0], "w": e.image.shape[1],
            "c": e.image.shape[2], "image": store.encode(e.image),
            "embedding": e.embedding.tolist(),
            "contact": list(map(float, e.affordance.contact)),
            "direction": list(map(float, e.affordance.direction)),
            "source_id": e.source_id} for e in memory.entries))


def load_memory(path):
    with store.load(path, FORMAT_NAME) as (header, records):
        header.get("count", int)  # store.load matches it against the records
        if header.get("image_encoding", str) != IMAGE_ENCODING:
            raise ParseError("unsupported image encoding", line=1)
        d_emb = header.get("d_emb", int)
        if d_emb < 0:
            raise ParseError(f"d_emb {d_emb} is negative", line=1)
        return Memory(d_emb=d_emb, entries=[MemoryEntry(
            image=rec.array("image", (rec.get("h", int), rec.get("w", int),
                                      rec.get("c", int))),
            embedding=rec.floats("embedding", d_emb),
            task=rec.get("task", str),
            affordance=affordance_from(rec),
            source_id=rec.get("source_id", (str, type(None))))
            for rec in records])
