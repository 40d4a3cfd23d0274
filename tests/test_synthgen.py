"""Synthetic scene generator and benchmark variants."""

import tracemalloc

import numpy as np
import pytest

from affkit.errors import ConfigError, ParseError
from affkit.synthgen import (HANDLE_VALUE, TASKS, VARIANT_PRESETS,
                             generate_scene, generate_split, get_variant,
                             hflip_image, load_scenes, save_scenes,
                             scene_embedding)
from support import assert_scenes_equal

NOISELESS = get_variant("noiseless")


def _theta(seed):
    """The pose angle the generator draws for this seed (oracle replay)."""
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)


# ---------------------------------------------------------------------------
# variants


def test_variant_presets():
    assert get_variant("noisy").noise_std == 0.05
    assert get_variant("reference-informative").ambiguous
    assert not NOISELESS.ambiguous and NOISELESS.noise_std == 0.0
    assert get_variant("noisy", noise_std=0.2).noise_std == 0.2
    with pytest.raises(ConfigError):
        get_variant("pristine")


def test_unknown_task_rejected():
    with pytest.raises(ConfigError):
        generate_scene("juggle", 0, NOISELESS)


@pytest.mark.parametrize("noise", [-1.0, -1e-9, np.nan, np.inf])
def test_bad_noise_std_rejected(noise):
    with pytest.raises(ConfigError):
        get_variant("noisy", noise_std=noise)


@pytest.mark.parametrize("size", [-3, 0, 6, 8, 10])
def test_size_below_minimum_rejected(size):
    with pytest.raises(ConfigError):
        generate_scene("open", 0, NOISELESS, size=size)


@pytest.mark.parametrize("size", [11, 12])
def test_handle_inside_image_from_minimum_size(size):
    for seed in range(500):
        s = generate_scene("open", seed, NOISELESS, size=size)
        c0, r0 = int(s.contact[0]), int(s.contact[1])
        assert 0 <= c0 <= size - 2 and 0 <= r0 <= size - 2
        assert (s.image[r0:r0 + 2, c0:c0 + 2, 1] == HANDLE_VALUE).all()


# ---------------------------------------------------------------------------
# single scenes


def test_open_direction_follows_pose():
    for seed in range(20):
        scene = generate_scene("open", seed, NOISELESS)
        theta = _theta(seed)
        np.testing.assert_allclose(scene.direction,
                                   (np.cos(theta), np.sin(theta)), atol=1e-12)


def test_same_seed_bitwise_identical():
    a = generate_scene("open", 123, NOISELESS)
    b = generate_scene("open", 123, NOISELESS)
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.depth, b.depth)
    np.testing.assert_array_equal(a.embedding, b.embedding)
    assert a.contact == b.contact and a.direction == b.direction


def test_close_negates_open():
    for seed in (1, 7, 42):
        o = generate_scene("open", seed, NOISELESS)
        c = generate_scene("close", seed, NOISELESS)
        np.testing.assert_array_equal(o.image, c.image)
        assert c.direction == (-o.direction[0], -o.direction[1])
        assert c.contact == o.contact


def test_pickup_jitter_within_10_degrees():
    for seed in range(20):
        scene = generate_scene("pickup", seed, NOISELESS)
        cos_gap = np.dot(scene.direction, (0.0, -1.0))
        assert cos_gap >= np.cos(np.radians(10.0)) - 1e-12


def test_direction_unit_and_contact_in_bounds():
    for task in TASKS:
        for seed in range(10):
            s = generate_scene(task, seed, NOISELESS)
            assert abs(np.linalg.norm(s.direction) - 1.0) < 1e-9
            x, y = s.contact
            assert 0 <= x < s.image.shape[1] and 0 <= y < s.image.shape[0]


def test_contact_marks_handle_block():
    s = generate_scene("open", 9, NOISELESS)
    x, y = int(s.contact[0]), int(s.contact[1])
    block = s.image[y:y + 2, x:x + 2, 1]
    np.testing.assert_array_equal(block, np.full((2, 2), HANDLE_VALUE))
    # The handle signature exists nowhere else.
    assert (s.image[:, :, 1] > 0).sum() == 4


def test_orientation_field_constant_on_object():
    s = generate_scene("open", 3, NOISELESS)
    mask = s.image[:, :, 0] > 0.5
    theta = _theta(3)
    assert np.allclose(s.image[:, :, 2][mask], np.cos(theta))
    assert np.allclose(s.image[:, :, 3][mask], np.sin(theta))
    off = ~mask
    assert np.allclose(s.image[:, :, 2][off], 0.0)


# ---------------------------------------------------------------------------
# variants: noise and ambiguity


def test_noisy_keeps_noiseless_embedding():
    a = generate_scene("open", 11, NOISELESS)
    b = generate_scene("open", 11, get_variant("noisy"))
    np.testing.assert_array_equal(a.embedding, b.embedding)
    assert not np.array_equal(a.image, b.image)  # noise did land


def test_ambiguous_query_carries_no_orientation():
    s = generate_scene("open", 4, get_variant("reference-informative"))
    assert (s.image[:, :, 2] == 0).all() and (s.image[:, :, 3] == 0).all()


def test_ambiguous_direction_decoupled_from_pose():
    # Over many seeds, direction must not follow the visible pose theta.
    mismatches = 0
    for seed in range(30):
        s = generate_scene("open", seed, get_variant("reference-informative"))
        theta = _theta(seed)
        if abs(np.dot(s.direction, (np.cos(theta), np.sin(theta))) - 1) > 1e-6:
            mismatches += 1
    assert mismatches > 20


def test_embedding_matches_manual_computation():
    s = generate_scene("open", 6, NOISELESS)
    np.testing.assert_array_equal(s.embedding, scene_embedding(s.image))


# ---------------------------------------------------------------------------
# flips


def test_hflip_image_involution_and_field_negation():
    s = generate_scene("open", 2, NOISELESS)
    flipped = hflip_image(s.image)
    np.testing.assert_array_equal(flipped[:, :, 2], -s.image[:, ::-1, 2])
    np.testing.assert_array_equal(flipped[:, :, 3], s.image[:, ::-1, 3])
    np.testing.assert_array_equal(hflip_image(flipped), s.image)


# ---------------------------------------------------------------------------
# splits


@pytest.fixture(scope="module")
def split_70_30():
    return generate_split(70, 30, TASKS, seed=0, variant=NOISELESS, size=32)


def test_split_sizes(split_70_30):
    train, test, memory = split_70_30
    assert len(train) == 70 * 3 and len(test) == 30 * 3
    for task in TASKS:
        assert sum(s.task == task for s in train) == 70
        assert sum(s.task == task for s in test) == 30


def test_split_disjoint_and_memory_from_train(split_70_30):
    train, test, memory = split_70_30
    train_ids = {s.scene_id for s in train}
    test_ids = {s.scene_id for s in test}
    assert not train_ids & test_ids
    memory_ids = {e.source_id for e in memory.entries}
    assert memory_ids <= train_ids
    assert len(memory) == len(train)


def test_ambiguous_split_queries_blind_references_sighted():
    train, test, memory = generate_split(
        3, 2, ("open",), seed=1, variant=get_variant("reference-informative"),
        size=32)
    for s in test:
        assert (s.image[:, :, 2] == 0).all()
    for e in memory.entries:
        assert (np.abs(e.image[:, :, 2]) > 0).any()


@pytest.mark.parametrize("name", sorted(VARIANT_PRESETS))
def test_split_memory_holds_train_memory_views(name):
    """Each memory entry is its train scene's memory view: the query view
    itself, the same array, unless the variant blinds the query, in which
    case the entry keeps the orientation field that the query view zeroes."""
    variant = get_variant(name)
    train, _, memory = generate_split(4, 1, TASKS, seed=5, variant=variant)
    assert [e.source_id for e in memory.entries] == [s.scene_id for s in train]
    for s, e in zip(train, memory.entries):
        if not variant.ambiguous:
            assert e.image.tobytes() == s.image.tobytes()
            assert np.shares_memory(e.image, s.image)
            continue
        assert not np.shares_memory(e.image, s.image)
        assert e.image[:, :, :2].tobytes() == s.image[:, :, :2].tobytes()
        assert (s.image[:, :, 2:] == 0).all()
        mask = s.image[:, :, 0] > 0.5
        np.testing.assert_allclose(
            np.hypot(e.image[:, :, 2], e.image[:, :, 3])[mask], 1.0)


def test_split_counts_validated():
    with pytest.raises(ConfigError):
        generate_split(0, 1, TASKS, seed=0, variant=NOISELESS)


@pytest.mark.parametrize("name", ["noiseless", "noisy"])
def test_split_holds_one_copy_of_each_image(name):
    """The split's arrays outlive the call once: its memory adds no image
    copies, so what stays allocated is about the scenes' own arrays."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train, test, memory = generate_split(20, 1, TASKS, seed=0,
                                             variant=get_variant(name))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = sum(s.image.nbytes + s.depth.nbytes for s in train + test)
    assert held <= 1.1 * arrays, (held, arrays)


# ---------------------------------------------------------------------------
# persistence


def test_scene_roundtrip_bitwise(tmp_path):
    scenes = [generate_scene(t, s, get_variant("noisy"))
              for t in TASKS for s in range(2)]
    path = tmp_path / "scenes.jsonl"
    save_scenes(scenes, get_variant("noisy"), path)
    loaded, variant = load_scenes(path)
    assert variant == get_variant("noisy")
    assert len(loaded) == len(scenes)
    for a, b in zip(scenes, loaded):
        assert_scenes_equal(a, b)


def test_truncated_scene_store(tmp_path):
    scenes = [generate_scene("open", 0, NOISELESS)]
    path = tmp_path / "scenes.jsonl"
    save_scenes(scenes, NOISELESS, path)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n")
    with pytest.raises(ParseError):
        load_scenes(path)


def test_foreign_scene_file(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"format": "csv"}\n')
    with pytest.raises(ParseError):
        load_scenes(path)
