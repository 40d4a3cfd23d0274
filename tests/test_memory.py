"""Affordance memory: trajectory reduction, construction, persistence."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affkit.errors import (ContractError, EmptyMemoryError, ParseError,
                           SchemaError)
from affkit.memory import (Affordance2D, Memory, MemoryEntry,
                           build_memory, load_memory, normalize_task,
                           reduce_trajectory, save_memory)
from affkit.retrieval import cosine_topk, filter_by_task


def _img(seed=0, shape=(4, 4, 2)):
    return np.random.default_rng(seed).normal(size=shape)


def _samples(n, task="open", seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        out.append((_img(i), rng.normal(size=3), task,
                    Affordance2D(contact=(1.0, 2.0), direction=tuple(d)),
                    f"{task}-{i}"))
    return out


# ---------------------------------------------------------------------------
# Affordance2D


def test_affordance_requires_unit_direction():
    with pytest.raises(ContractError):
        Affordance2D(contact=(0.0, 0.0), direction=(1.0, 1.0))
    Affordance2D(contact=(0.0, 0.0), direction=(0.6, 0.8))  # ok


@pytest.mark.parametrize("contact,direction", [
    ((0.0, 0.0), (np.nan, np.nan)),
    ((0.0, 0.0), (np.nan, 1.0)),
    ((0.0, 0.0), (np.inf, 0.0)),
    ((np.nan, 0.0), (1.0, 0.0)),
    ((0.0, np.inf), (1.0, 0.0)),
    ((-np.inf, 0.0), (1.0, 0.0)),
])
def test_affordance_rejects_non_finite(contact, direction):
    with pytest.raises(ContractError):
        Affordance2D(contact=contact, direction=direction)


def test_normalize_task():
    assert normalize_task("  Open   DRAWER ") == "open drawer"


# ---------------------------------------------------------------------------
# reduce_trajectory


def test_reduce_collinear():
    np.testing.assert_allclose(
        reduce_trajectory([(0, 0), (1, 0), (2, 0)]), (1.0, 0.0), atol=1e-12)


def test_reduce_degenerate_returns_invalid():
    assert reduce_trajectory([(0, 0), (0, 0)]) is None


def test_reduce_closed_loop_returns_invalid():
    # Finite spread but zero net displacement.
    assert reduce_trajectory([(0, 0), (1, 0), (1, 1), (0, 0)]) is None


def test_reduce_matches_pca_oracle():
    pts = np.array([(0, 0), (1, 0.1), (2, -0.1), (3, 0.0)])
    got = np.asarray(reduce_trajectory(pts))
    # Independent oracle: eigen-decomposition of the 2x2 covariance.
    centered = pts - pts.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    axis = evecs[:, np.argmax(evals)]
    if axis[0] < 0:
        axis = -axis  # sign toward +x (the net displacement here)
    np.testing.assert_allclose(got, axis, atol=1e-12)
    assert got[0] > 0


def test_reduce_too_few_points():
    with pytest.raises(ContractError):
        reduce_trajectory([(0, 0)])


def test_reduce_nonfinite_points():
    with pytest.raises(ContractError):
        reduce_trajectory([(0, 0), (np.nan, 1)])


@given(st.integers(0, 10_000), st.floats(0.2, 50.0))
@settings(max_examples=40, deadline=None)
def test_reduce_output_is_unit(seed, scale_factor):
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.normal(size=(6, 2)), axis=0) * scale_factor
    out = reduce_trajectory(pts)
    if out is not None:
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# build_memory


def test_build_filters_degenerate():
    samples = [
        (_img(0), [1.0, 0, 0], "open", [(0, 0), (1, 0)]),
        (_img(1), [0, 1.0, 0], "open", [(0, 0), (2, 1)]),
        (_img(2), [0, 0, 1.0], "open", [(0, 0), (0, 0)]),  # degenerate
        (_img(3), [1.0, 1, 0], "open", [(1, 1), (1, 3)]),
    ]
    memory = build_memory(samples)
    assert len(memory) == 3
    # Contact is the first trajectory point of the surviving samples.
    assert memory.entries[2].affordance.contact == (1.0, 1.0)


def test_build_passes_affordances_through():
    aff = Affordance2D(contact=(3.0, 4.0), direction=(0.0, 1.0))
    memory = build_memory([(_img(), [1.0, 2.0], "open", aff)])
    assert memory.entries[0].affordance is aff


def test_build_per_task_counts():
    samples = (_samples(3, "open", 0) + _samples(2, "close", 1)
               + _samples(4, "pickup", 2))
    memory = build_memory(samples)
    assert Counter(e.task for e in memory.entries) == {
        "open": 3, "close": 2, "pickup": 4}


def test_build_all_degenerate_raises():
    with pytest.raises(EmptyMemoryError):
        build_memory([(_img(), [1.0], "open", [(0, 0), (0, 0)])])


def test_build_empty_raises():
    with pytest.raises(EmptyMemoryError):
        build_memory([])


def test_build_mixed_embedding_dims_raises():
    with pytest.raises(SchemaError):
        build_memory(_samples(1) + [(_img(), [1.0, 2.0], "open",
                                     Affordance2D((0, 0), (1.0, 0.0)))])


@pytest.mark.parametrize("embedding", [np.ones((1, 3)), np.ones(2)],
                         ids=["not-1d", "wrong-length"])
def test_ragged_memory_rejected(embedding):
    entries = [MemoryEntry(image=_img(i), embedding=e, task="open",
                           affordance=Affordance2D((0.0, 0.0), (1.0, 0.0)))
               for i, e in enumerate([np.ones(3), embedding])]
    with pytest.raises(SchemaError):
        Memory(entries=entries, d_emb=3)


def test_mixed_image_shapes_rejected(tmp_path):
    """A 12x12 entry among 16x16 ones fails typed, naming the entry, in
    Memory itself and so in load_memory."""
    entries = [MemoryEntry(image=_img(i, shape), embedding=np.ones(3),
                           task="open",
                           affordance=Affordance2D((0.0, 0.0), (1.0, 0.0)))
               for i, shape in enumerate([(16, 16, 4), (16, 16, 4),
                                          (12, 12, 4), (16, 16, 4)])]
    with pytest.raises(SchemaError, match=r"entry 2: image shape "
                       r"\(12, 12, 4\) != \(16, 16, 4\)"):
        Memory(entries=entries, d_emb=3)
    path = tmp_path / "m.jsonl"
    save_memory(Memory(entries=entries[:2], d_emb=3), path)
    lines = path.read_text().splitlines()
    odd = Memory(entries=entries[2:3], d_emb=3)
    save_memory(odd, tmp_path / "odd.jsonl")
    lines += (tmp_path / "odd.jsonl").read_text().splitlines()[1:]
    lines[0] = lines[0].replace('"count": 2', '"count": 3')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="entry 2: image shape"):
        load_memory(path)


def test_empty_memory_retrieves_nothing():
    memory = Memory(entries=[], d_emb=3)
    assert memory.embeddings.shape == (0, 3)
    subset = filter_by_task(memory, "open")
    assert subset.tolist() == []
    assert len(cosine_topk(np.ones(3), memory, subset, k=2)) == 0


def test_hand_built_task_label_is_normalised():
    entry = MemoryEntry(image=np.zeros((2, 2, 1)), embedding=np.ones(2),
                        task="Open  Drawer",
                        affordance=Affordance2D((0.0, 0.0), (1.0, 0.0)))
    memory = Memory(entries=[entry], d_emb=2)
    assert memory.entries[0].task == "open drawer"
    for label in ("open drawer", "Open  Drawer"):
        assert filter_by_task(memory, label).tolist() == [0]


@given(st.integers(0, 1000), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_build_filtering_monotone(seed, n):
    rng = np.random.default_rng(seed)
    samples = []
    degenerate = 0
    for i in range(n):
        if rng.random() < 0.3:
            traj = [(1.0, 1.0), (1.0, 1.0)]
            degenerate += 1
        else:
            traj = [(0.0, 0.0), tuple(rng.normal(size=2) + 3.0)]
        samples.append((_img(i), rng.normal(size=2), "open", traj))
    if degenerate == n:
        with pytest.raises(EmptyMemoryError):
            build_memory(samples)
    else:
        memory = build_memory(samples)
        assert len(memory) == n - degenerate
        for e in memory.entries:
            assert abs(np.linalg.norm(e.affordance.direction) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# persistence


def test_roundtrip_bitwise(tmp_path):
    memory = build_memory(_samples(100))
    path = tmp_path / "mem.jsonl"
    save_memory(memory, path)
    loaded = load_memory(path)
    assert len(loaded) == 100 and loaded.d_emb == memory.d_emb
    for a, b in zip(memory.entries, loaded.entries):
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        assert a.task == b.task and a.source_id == b.source_id
        assert a.affordance.contact == b.affordance.contact
        assert a.affordance.direction == b.affordance.direction


def test_save_deterministic(tmp_path):
    memory = build_memory(_samples(5))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_memory(memory, p1)
    save_memory(memory, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_store_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_memory(Memory(entries=[], d_emb=3), path)
    loaded = load_memory(path)
    assert len(loaded) == 0 and loaded.d_emb == 3


def test_loaded_task_label_is_normalised(tmp_path):
    path = tmp_path / "mem.jsonl"
    save_memory(build_memory(_samples(2, "open drawer")), path)
    path.write_text(path.read_text().replace('"open drawer"',
                                             '"Open  Drawer"'))
    loaded = load_memory(path)
    assert [e.task for e in loaded.entries] == ["open drawer"] * 2
    assert filter_by_task(loaded, "open drawer").tolist() == [0, 1]


def test_truncated_file_is_parse_error(tmp_path):
    memory = build_memory(_samples(4))
    path = tmp_path / "mem.jsonl"
    save_memory(memory, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # count now disagrees
    with pytest.raises(ParseError):
        load_memory(path)


def test_corrupt_line_reports_line_number(tmp_path):
    memory = build_memory(_samples(3))
    path = tmp_path / "mem.jsonl"
    save_memory(memory, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:40]  # mangle entry on line 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_memory(path)
    assert exc.value.line == 3


def test_wrong_format_header(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ParseError):
        load_memory(path)
