"""Task filtering and cosine top-K retrieval."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affkit.errors import ContractError, SchemaError
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


# ---------------------------------------------------------------------------
# filter_by_task


def test_filter_verbatim():
    m = _memory([("open", [1, 0]), ("close", [0, 1]), ("open", [1, 1])])
    assert filter_by_task(m, "open") == [0, 2]


def test_filter_synonym_union():
    m = _memory([("open drawer", [1, 0]), ("open microwave", [0, 1]),
                 ("close drawer", [1, 1])])
    syn = TaskSynonymTable(groups=[{"open drawer", "open microwave"}])
    assert filter_by_task(m, "open drawer", syn) == [0, 1]


def test_filter_unknown_task_empty():
    m = _memory([("open", [1, 0])])
    assert filter_by_task(m, "juggle") == []


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
    with pytest.raises(SchemaError):
        cosine_topk([1.0, 0.0, 0.0], m, [0], k=1)


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
    # Train scenes are in the memory, so excluding them changes the result.
    for scene in train + test:
        for exclude in (None, scene.scene_id):
            got = retrieve(memory, scene, k, synonyms, exclude=exclude)
            if k == 0:
                assert len(got) == 0
                continue
            subset = filter_by_task(memory, scene.task, synonyms)
            want = cosine_topk(scene.embedding, memory, subset, k,
                               exclude=exclude)
            assert got.indices == want.indices
            assert (np.asarray(got.similarities).tobytes()
                    == np.asarray(want.similarities).tobytes())
            assert len(got.refs) == len(want)
            for (image, direction, sim), (_, e, s) in zip(got.refs,
                                                          want.entries):
                assert image is e.image
                assert (direction, sim) == (e.affordance.direction, s)
