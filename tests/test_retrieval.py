"""Task filtering and cosine top-K retrieval."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import affkit.retrieval as retrieval
from affkit.errors import ContractError, SchemaError
from affkit.kernels import cosine_rows
from affkit.memory import Affordance2D, Memory, MemoryEntry
from affkit.retrieval import (TaskSynonymTable, cosine_topk, filter_by_task,
                              retrieve)
from affkit.synthgen import TASKS, generate_split, get_variant


def _memory(specs):
    """specs: list of (task, embedding[, source_id])."""
    entries = []
    for i, spec in enumerate(specs):
        task, emb = spec[0], np.asarray(spec[1], dtype=np.float64)
        sid = spec[2] if len(spec) > 2 else f"s{i}"
        entries.append(MemoryEntry(
            image=np.zeros((2, 2, 1)), embedding=emb, task=task,
            affordance=Affordance2D((0.0, 0.0), (1.0, 0.0)), source_id=sid))
    return Memory(entries=entries, d_emb=len(specs[0][1]))


# ---------------------------------------------------------------------------
# synonym table


def test_group_of_listed_and_unlisted():
    syn = TaskSynonymTable(groups=[{"open drawer", "open microwave"}])
    assert syn.group_of("Open  Drawer") == {"open drawer", "open microwave"}
    assert syn.group_of("pickup") == {"pickup"}


def test_overlapping_groups_rejected():
    with pytest.raises(ContractError):
        TaskSynonymTable(groups=[{"a", "b"}, {"b", "c"}])


@pytest.mark.parametrize("groups", [["open", "shut"], [{"open": 1}], "open"])
def test_group_not_a_list_of_labels_rejected(groups):
    with pytest.raises(ContractError, match="lists of task labels"):
        TaskSynonymTable(groups=groups)


# ---------------------------------------------------------------------------
# filter_by_task


def test_filter_verbatim():
    m = _memory([("open", [1, 0]), ("close", [0, 1]), ("open", [1, 1])])
    assert filter_by_task(m, "open").tolist() == [0, 2]
    # A one-label group gets the memory's own index array, read-only.
    for task in ("open", "juggle"):
        with pytest.raises(ValueError, match="read-only"):
            filter_by_task(m, task)[:] = 1
    assert filter_by_task(m, "open").tolist() == [0, 2]
    assert m.by_task["open"].tolist() == [0, 2]


def test_filter_synonym_union():
    m = _memory([("open drawer", [1, 0]), ("open microwave", [0, 1]),
                 ("close drawer", [1, 1])])
    syn = TaskSynonymTable(groups=[{"open drawer", "open microwave"}])
    assert filter_by_task(m, "open drawer", syn).tolist() == [0, 1]


def test_filter_unknown_task_empty():
    m = _memory([("open", [1, 0])])
    assert filter_by_task(m, "juggle").tolist() == []


# ---------------------------------------------------------------------------
# cosine_topk


def test_exact_match_first_with_similarity_one():
    m = _memory([("open", [0.0, 1.0]), ("open", [3.0, 4.0]),
                 ("open", [1.0, 0.0])])
    res = cosine_topk([6.0, 8.0], m, [0, 1, 2], k=3)
    assert res.indices[0] == 1
    assert res.similarities[0] == pytest.approx(1.0, abs=1e-12)


def test_k_larger_than_subset():
    m = _memory([("open", [1.0, 0.0]), ("open", [0.0, 1.0])])
    res = cosine_topk([1.0, 1.0], m, [0, 1], k=10)
    assert len(res) == 2
    assert res.similarities == sorted(res.similarities, reverse=True)


def test_matches_bruteforce_sort_oracle():
    rng = np.random.default_rng(0)
    embs = rng.normal(size=(5, 4))
    m = _memory([("open", e) for e in embs])
    q = rng.normal(size=4)
    res = cosine_topk(q, m, list(range(5)), k=3)

    sims = embs @ q / (np.linalg.norm(embs, axis=1) * np.linalg.norm(q))
    expected = sorted(range(5), key=lambda i: (-sims[i], i))[:3]
    assert res.indices == expected
    np.testing.assert_allclose(res.similarities, sims[expected], atol=1e-12)


def test_exclusion_never_returned():
    m = _memory([("open", [1.0, 0.0], "a"), ("open", [1.0, 0.0], "b")])
    res = cosine_topk([1.0, 0.0], m, [0, 1], k=5, exclude="a")
    assert res.indices == [1]
    # Repeated and None source ids: every row of the id goes, and
    # exclude=None excludes nothing, None-id rows included.
    ids = ["a", None, "a", "b", None, "c", "a"]
    m = _memory([("open", [1.0, 0.1 * i], sid) for i, sid in enumerate(ids)])
    assert m.rows_of == {"a": [0, 2, 6], None: [1, 4], "b": [3], "c": [5]}
    source_ids = np.array(ids, dtype=object)
    for subset in ([6, 0, 3, 1, 5], list(range(7)), []):
        for exclude in ("a", "b", "z", None):
            want = [i for i in subset
                    if exclude is None or source_ids[i] != exclude]
            got = cosine_topk([1.0, 0.0], m, subset, k=10, exclude=exclude)
            assert sorted(got.indices) == sorted(want), (subset, exclude)


def test_zero_norm_embedding_never_retrieved():
    m = _memory([("open", [0.0, 0.0]), ("open", [1.0, 0.0])])
    res = cosine_topk([1.0, 1.0], m, [0, 1], k=5)
    assert res.indices == [1]


def test_zero_norm_query_retrieves_nothing():
    m = _memory([("open", [1.0, 0.0])])
    assert len(cosine_topk([0.0, 0.0], m, [0], k=2)) == 0


def test_tie_breaks_on_lower_index():
    m = _memory([("open", [2.0, 0.0]), ("open", [1.0, 0.0])])
    res = cosine_topk([1.0, 0.0], m, [0, 1], k=2)
    assert res.indices == [0, 1]  # equal cosine, insertion order


def test_dimension_mismatch():
    m = _memory([("open", [1.0, 0.0])])
    # Checked before the candidates: none, all excluded, or a 0-d query.
    for query, subset, exclude in (([1.0, 0.0, 0.0], [0], None),
                                   ([1.0, 0.0, 0.0], [], None),
                                   ([1.0, 0.0, 0.0], [0], "s0"),
                                   (1.0, [0], None)):
        with pytest.raises(SchemaError):
            cosine_topk(query, m, subset, k=1, exclude=exclude)


def test_k_below_one_rejected():
    m = _memory([("open", [1.0, 0.0])])
    with pytest.raises(ContractError):
        cosine_topk([1.0, 0.0], m, [0], k=0)


@given(st.integers(0, 500), st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_query_scale_invariance(seed, scale_factor):
    rng = np.random.default_rng(seed)
    embs = rng.normal(size=(6, 3))
    m = _memory([("open", e) for e in embs])
    q = rng.normal(size=3)
    base = cosine_topk(q, m, list(range(6)), k=4)
    scaled = cosine_topk(q * scale_factor, m, list(range(6)), k=4)
    assert base.indices == scaled.indices
    np.testing.assert_allclose(base.similarities, scaled.similarities,
                               atol=1e-9)


# ---------------------------------------------------------------------------
# retrieve


@pytest.fixture(scope="module")
def noisy_split():
    return generate_split(8, 3, TASKS, seed=2, variant=get_variant("noisy"),
                          size=16)


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("synonyms", [
    None, TaskSynonymTable(groups=[["open", "close"]])])
def test_retrieve_equals_filter_then_topk(noisy_split, k, synonyms):
    train, test, memory = noisy_split
    train_ids = {scene.scene_id for scene in train}
    for scene in train + test:
        if k == 0:
            with pytest.raises(ContractError):
                retrieve(memory, scene, k, synonyms)
            continue
        got = retrieve(memory, scene, k, synonyms)
        subset = filter_by_task(memory, scene.task, synonyms)
        want = cosine_topk(scene.embedding, memory, subset, k,
                           exclude=scene.scene_id)
        assert got.indices == want.indices
        assert (np.asarray(got.similarities).tobytes()
                == np.asarray(want.similarities).tobytes())
        # Train scenes are in the memory; none is among its own results.
        own = memory.rows_of.get(scene.scene_id, [])
        assert len(own) == (scene.scene_id in train_ids)
        assert len(got) == k and not set(own) & set(got.indices)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_memory_references_gather_retrieved_entries(noisy_split, k):
    """`Memory.references` gathers the image and direction of each index
    of a (K,) or (B, K) array, K = 0 included, as float64 arrays."""
    train, test, memory = noisy_split
    h, w, c = memory.image_shape
    rows = [retrieve(memory, scene, k).indices if k else [] for scene in test]
    rows = [r for r in rows if len(r) == k]
    assert rows
    for index_array in [*rows, rows]:
        images, dirs = memory.references(index_array)
        shape = np.shape(index_array)
        assert images.shape == shape + (h, w, c)
        assert dirs.shape == shape + (2,)
        assert images.dtype == dirs.dtype == np.float64
        for pos, i in np.ndenumerate(np.asarray(index_array, dtype=np.intp)):
            e = memory.entries[i]
            assert images[pos].tobytes() == e.image.tobytes()
            assert tuple(dirs[pos]) == e.affordance.direction


def test_empty_memory_references_are_empty():
    memory = Memory(entries=[], d_emb=3)
    for indices in ([], np.empty((4, 0), dtype=np.intp)):
        images, dirs = memory.references(indices)
        assert images.shape == np.shape(indices) + memory.image_shape
        assert dirs.shape == np.shape(indices) + (2,)
        assert images.dtype == dirs.dtype == np.float64


def test_retrieve_calls_module_filter_and_topk(noisy_split, monkeypatch):
    # perfbench times these two module globals and counts len(subset).
    _, test, memory = noisy_split
    calls = []
    real_filter, real_topk = filter_by_task, cosine_topk

    def spy_filter(*args, **kwargs):
        calls.append("filter_by_task")
        return real_filter(*args, **kwargs)

    def spy_topk(query_embedding, memory, subset, k, exclude=None):
        calls.append(("cosine_topk", len(subset)))
        return real_topk(query_embedding, memory, subset, k, exclude=exclude)

    monkeypatch.setattr(retrieval, "filter_by_task", spy_filter)
    monkeypatch.setattr(retrieval, "cosine_topk", spy_topk)
    got = retrieve(memory, test[0], 3)
    n = len(real_filter(memory, test[0].task))
    assert calls == ["filter_by_task", ("cosine_topk", n)]
    assert len(got) == 3


def _sorted_reference(q, memory, subset, k, exclude=None):
    """The ranking the index replaced: stack the candidate embeddings per
    query, score them, and sort (similarity desc, memory index asc)."""
    candidates = [i for i in subset
                  if exclude is None or memory.entries[i].source_id != exclude]
    if not candidates:
        return [], []
    embs = np.stack([memory.entries[i].embedding for i in candidates])
    sims = cosine_rows(embs, np.asarray(q, dtype=np.float64),
                       np.linalg.norm(embs, axis=1))
    order = sorted(range(len(candidates)), key=lambda j: (-sims[j], candidates[j]))
    picked = [(candidates[j], float(sims[j]))
              for j in order if np.isfinite(sims[j])][:k]
    return [i for i, _ in picked], [s for _, s in picked]


def test_cosine_topk_matches_sorted_reference(noisy_split):
    train, test, memory = noisy_split
    # Duplicate embeddings (ties break on index) and zero-norm entries;
    # repeated source ids (a train scene's id on a second row) and None ids.
    extra = [replace(e, source_id=f"dup-{i}" if i % 2 else e.source_id)
             for i, e in enumerate(memory.entries[::3])]
    extra += [replace(e, embedding=np.zeros(memory.d_emb),
                      source_id=f"zero-{i}")
              for i, e in enumerate(memory.entries[1::5])]
    extra += [replace(e, source_id=None) for e in memory.entries[2::7]]
    memory = Memory(entries=memory.entries + extra, d_emb=memory.d_emb)
    n = len(memory)
    rng = np.random.default_rng(0)
    queries = [(s.embedding, s.task, s.scene_id) for s in train + test]
    queries.append((np.zeros(memory.d_emb), train[0].task, None))
    checked = 0
    for q, task, sid in queries:
        subsets = [filter_by_task(memory, task), list(range(n)),
                   rng.permutation(n).tolist()]
        for subset in subsets:
            # The stored norms are those of the gathered rows, bit for bit.
            assert (memory.norms[subset].tobytes() == np.linalg.norm(
                memory.embeddings[subset], axis=1).tobytes())
            for k in (1, 3, n + 5):
                for exclude in (None, sid):
                    got = cosine_topk(q, memory, subset, k, exclude=exclude)
                    ids, sims = _sorted_reference(q, memory, subset, k, exclude)
                    assert got.indices == ids
                    assert (np.asarray(got.similarities).tobytes()
                            == np.asarray(sims).tobytes())
                    checked += len(ids)
    assert checked > 0
