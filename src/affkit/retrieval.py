"""Two-stage retrieval: task filtering, then cosine top-K (`retrieve`)."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SchemaError
from .kernels import cosine_rows
from .memory import normalize_task


@dataclass
class TaskSynonymTable:
    """Groups of task labels treated as mutually relevant.

    Labels outside any group form implicit singletons.
    """

    groups: list = field(default_factory=list)

    def __post_init__(self):
        try:
            # A str group would otherwise split into one-letter labels.
            if not all(isinstance(g, (list, tuple, set, frozenset))
                       for g in self.groups):
                raise TypeError
            self.groups = [frozenset(normalize_task(t) for t in g)
                           for g in self.groups]
        except (TypeError, AttributeError):  # not iterables of str
            raise ContractError(f"synonym groups must be lists of task "
                                f"labels, got {self.groups!r}")
        seen = set()
        for g in self.groups:
            if seen & g:
                raise ContractError(f"synonym groups overlap on {sorted(seen & g)}")
            seen |= g

    def group_of(self, task):
        task = normalize_task(task)
        for g in self.groups:
            if task in g:
                return g
        return frozenset((task,))


@dataclass
class RetrievalResult:
    """(memory index, entry, similarity) triples, similarity non-increasing."""

    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    @property
    def indices(self):
        return [i for i, _, _ in self.entries]

    @property
    def similarities(self):
        return [s for _, _, s in self.entries]


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


def filter_by_task(memory, task, synonyms=None):
    """Ascending np.intp indices of the entries in the synonym group of `task`;
    for a one-label group, the memory's own read-only index array."""
    group = (synonyms or TaskSynonymTable()).group_of(task)
    if len(group) == 1:
        return memory.by_task.get(next(iter(group)), _NO_ROWS)
    return np.sort(np.concatenate([memory.by_task.get(t, _NO_ROWS)
                                   for t in group]))


def cosine_topk(query_embedding, memory, subset, k, exclude=None):
    """Top-k subset entries by cosine similarity to the query embedding.

    `exclude` is a source_id removed before ranking (prevents self-retrieval).
    Zero-norm embeddings are never retrieved. Ties break on lower memory index.
    """
    q = np.asarray(query_embedding, dtype=np.float64)
    if q.shape != (memory.d_emb,):
        raise SchemaError(f"embedding dim mismatch: query of shape {q.shape}, "
                          f"memory {memory.d_emb}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    candidates = np.asarray(subset, dtype=np.intp)
    if exclude is not None and exclude in memory.rows_of:
        candidates = candidates[~np.isin(candidates, memory.rows_of[exclude])]
    if not candidates.size:
        return RetrievalResult(entries=[])

    # Candidate order is kept: BLAS rounds a row by its place in the matrix.
    sims = cosine_rows(memory.embeddings[candidates], q,
                       memory.norms[candidates])
    # Order by (similarity desc, memory index asc); drop unreachable entries.
    order = np.lexsort((candidates, -sims))
    order = order[np.isfinite(sims[order])][:k]
    return RetrievalResult(entries=[
        (i, memory.entries[i], s)
        for i, s in zip(candidates[order].tolist(), sims[order].tolist())])


def retrieve(memory, query, k, synonyms=None):
    """Task filter, then cosine top-k (k >= 1) for a Scene, itself excluded."""
    subset = filter_by_task(memory, query.task, synonyms)
    return cosine_topk(query.embedding, memory, subset, k,
                       exclude=query.scene_id)
