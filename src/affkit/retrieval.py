"""Two-stage retrieval: task filtering, then cosine top-K."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SchemaError
from .memory import normalize_task


@dataclass
class TaskSynonymTable:
    """Groups of task labels treated as mutually relevant.

    Labels outside any group form implicit singletons.
    """

    groups: list = field(default_factory=list)

    def __post_init__(self):
        try:
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


def filter_by_task(memory, task, synonyms=None):
    """Indices of memory entries whose task lies in the synonym group of `task`."""
    synonyms = synonyms or TaskSynonymTable()
    group = synonyms.group_of(task)
    return [i for i, e in enumerate(memory.entries) if e.task in group]


def cosine_topk(query_embedding, memory, subset, k, exclude=None):
    """Top-k subset entries by cosine similarity to the query embedding.

    `exclude` is a source_id removed before ranking (prevents self-retrieval).
    Zero-norm embeddings are never retrieved. Ties break on lower memory index.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    q = np.asarray(query_embedding, dtype=np.float64)
    qn = np.linalg.norm(q)

    candidates = [i for i in subset
                  if exclude is None or memory.entries[i].source_id != exclude]
    if not candidates:
        return RetrievalResult(entries=[])

    embs = np.stack([memory.entries[i].embedding for i in candidates])
    if embs.shape[1] != q.shape[0]:
        raise SchemaError(
            f"embedding dim mismatch: query {q.shape[0]}, memory {embs.shape[1]}")

    norms = np.linalg.norm(embs, axis=1)
    sims = np.full(len(candidates), -np.inf)
    ok = norms > 0
    if qn > 0:
        sims[ok] = embs[ok] @ q / (norms[ok] * qn)

    # Sort by (similarity desc, memory index asc); drop unreachable entries.
    order = sorted(range(len(candidates)), key=lambda j: (-sims[j], candidates[j]))
    picked = [(candidates[j], memory.entries[candidates[j]], float(sims[j]))
              for j in order if np.isfinite(sims[j])][:k]
    return RetrievalResult(entries=picked)
