"""Episode sampling, flip augmentation, and the optimization loop."""

from dataclasses import replace

import numpy as np
import pytest

import affkit.training as training
from affkit.errors import ConfigError, TrainingAbort
from affkit.model import ModelConfig, init_model
from affkit.synthgen import generate_split, get_variant, hflip_image, TASKS
from affkit.training import (Episode, TrainConfig, build_episodes,
                             load_history, save_history, train)

TINY_MODEL = ModelConfig(d=8, patch_size=4, image_h=16, image_w=16, channels=4,
                         n_layers=1, n_heads=2, d_ff=16, film_hidden=8,
                         gate_hidden=8)


@pytest.fixture(scope="module")
def tiny_data():
    return generate_split(10, 2, ("open",), seed=5,
                          variant=get_variant("noiseless"), size=16)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(candidate_pool_size=9)
    with pytest.raises(ConfigError):
        TrainConfig(candidate_pool_size=21)
    with pytest.raises(ConfigError):
        TrainConfig(k=-1)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=0)
    for bad in (dict(batch_size=0), dict(batch_size=-4),
                dict(episodes_per_query=0), dict(lr=-0.1),
                dict(lr=float("nan")), dict(flip_prob=-0.5),
                dict(flip_prob=7.0), dict(flip_prob=float("nan")),
                dict(k=0, weighting="bogus"), dict(seed=-1),
                dict(improvement_eps=float("nan")),
                dict(improvement_eps=-1e-6)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    TrainConfig(lr=0.0, flip_prob=1.0, batch_size=1, episodes_per_query=1,
                seed=0, improvement_eps=0.0)


# ---------------------------------------------------------------------------
# episodes


def test_five_episodes_per_query(tiny_data):
    train_scenes, _, memory = tiny_data
    cfg = TrainConfig(k=3, candidate_pool_size=10, seed=0)
    episodes = build_episodes(train_scenes, memory, None, cfg)
    assert len(episodes) == 10 * 5
    for ep in episodes:
        assert len(ep.ref_indices) == 3


def test_k0_episodes_carry_no_references(tiny_data):
    train_scenes, _, memory = tiny_data
    cfg = TrainConfig(k=0, seed=0)
    episodes = build_episodes(train_scenes, memory, None, cfg)
    assert all(ep.ref_indices == () and ep.similarities == ()
               for ep in episodes)


def test_episodes_deterministic(tiny_data):
    train_scenes, _, memory = tiny_data
    cfg = TrainConfig(k=2, candidate_pool_size=10, seed=7)
    a = build_episodes(train_scenes, memory, None, cfg)
    b = build_episodes(train_scenes, memory, None, cfg)
    assert a == b


def test_episodes_never_self_retrieve(tiny_data):
    train_scenes, _, memory = tiny_data
    cfg = TrainConfig(k=3, candidate_pool_size=10, seed=0)
    for ep in build_episodes(train_scenes, memory, None, cfg):
        for i in ep.ref_indices:
            assert memory.entries[i].source_id != ep.query_id


def test_small_pool_warns(tiny_data):
    train_scenes, _, memory = tiny_data
    # Only 9 candidates exist after self-exclusion; ask for 10 per episode.
    cfg = TrainConfig(k=10, candidate_pool_size=10, seed=0)
    with pytest.warns(UserWarning, match="smaller than K"):
        episodes = build_episodes(train_scenes[:1], memory, None, cfg)
    assert len(episodes[0].ref_indices) == 9


def test_empty_pool_skips_query(tiny_data):
    train_scenes, _, memory = tiny_data
    lonely = train_scenes[0]
    # A task absent from the memory yields an empty pool.
    from dataclasses import replace
    stranger = replace(lonely, task="juggle", scene_id="juggle-0")
    cfg = TrainConfig(k=3, seed=0)
    with pytest.warns(UserWarning, match="empty candidate pool"):
        episodes = build_episodes([stranger], memory, None, cfg)
    assert episodes == []


# ---------------------------------------------------------------------------
# horizontal flip


def _assemble(scenes, memory, flips, directions=None, flip_references=False):
    """`training._assemble_batch` over one two-reference episode per scene."""
    cfg = TrainConfig(k=2, candidate_pool_size=10,
                      flip_references=flip_references)
    directions = directions or [s.direction for s in scenes]
    scenes = [replace(s, direction=d) for s, d in zip(scenes, directions)]
    batch = [Episode(s.scene_id, ref_indices=(0, 1), similarities=(0.5, 0.25),
                     flip=f)
             for s, f in zip(scenes, flips)]
    return training._assemble_batch(batch, {s.scene_id: s for s in scenes},
                                    memory, cfg)


def test_flip_direction_components(tiny_data):
    train_scenes, _, memory = tiny_data
    dirs = [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)]
    *_, targets = _assemble(train_scenes[:3], memory, [True] * 3, dirs)
    np.testing.assert_array_equal(targets, [(-1.0, 0.0), (0.0, 1.0),
                                            (-0.6, -0.8)])
    *_, targets = _assemble(train_scenes[:3], memory, [False] * 3, dirs)
    np.testing.assert_array_equal(targets, dirs)


def test_flip_is_involution(tiny_data):
    """The flipped query is `hflip_image` of the scene image, and flipping
    the flipped query and target again gives back the originals."""
    train_scenes, _, memory = tiny_data
    scene = train_scenes[3]
    queries, *_, targets = _assemble([scene], memory, [True])
    np.testing.assert_array_equal(queries[0], hflip_image(scene.image))
    mirrored = replace(scene, image=queries[0])
    queries, *_, targets = _assemble([mirrored], memory, [True],
                                     [tuple(targets[0])])
    np.testing.assert_array_equal(queries[0], scene.image)
    assert tuple(targets[0]) == scene.direction


@pytest.mark.parametrize("flip_references", [False, True])
def test_flip_references_only_when_set(tiny_data, flip_references):
    train_scenes, _, memory = tiny_data
    _, ref_imgs, ref_dirs, sims, _ = _assemble(
        train_scenes[:2], memory, [True, False],
        flip_references=flip_references)
    np.testing.assert_array_equal(sims, [(0.5, 0.25)] * 2)
    for j, entry in enumerate(memory.entries[:2]):
        image, (dx, dy) = entry.image, entry.affordance.direction
        if flip_references:
            image, dx = hflip_image(image), -dx
        np.testing.assert_array_equal(ref_imgs[0, j], image)
        np.testing.assert_array_equal(ref_dirs[0, j], (dx, dy))
        # References of an unflipped episode never flip.
        np.testing.assert_array_equal(ref_imgs[1, j], entry.image)
        np.testing.assert_array_equal(ref_dirs[1, j],
                                      entry.affordance.direction)


def test_flip_keeps_scene_self_consistent(tiny_data):
    """A flipped open-scene query still satisfies target == mean orientation
    field over object pixels, i.e. flipping stays in-distribution."""
    train_scenes, _, memory = tiny_data
    queries, *_, targets = _assemble(train_scenes[:5], memory, [True] * 5)
    for query, target in zip(queries, targets):
        mask = query[:, :, 0] > 0.5
        field = np.array([query[:, :, 2][mask].mean(),
                          query[:, :, 3][mask].mean()])
        field /= np.linalg.norm(field)
        np.testing.assert_allclose(field, target, atol=1e-6)


# ---------------------------------------------------------------------------
# train loop


def _tiny_train(tiny_data, **overrides):
    train_scenes, _, memory = tiny_data
    kwargs = dict(k=2, candidate_pool_size=10, episodes_per_query=2,
                  batch_size=8, seed=0)
    kwargs.update(overrides)
    cfg = TrainConfig(**kwargs)
    params = init_model(TINY_MODEL, seed=cfg.seed)
    episodes = build_episodes(train_scenes, memory, None, cfg)
    history = train(params, TINY_MODEL, cfg, episodes, train_scenes, memory)
    return params, history


def test_history_bounded_by_max_epochs(tiny_data):
    _, history = _tiny_train(tiny_data, max_epochs=3)
    assert 1 <= len(history) <= 3
    assert all(np.isfinite(history))


def test_improving_run_reaches_max_epochs(tiny_data):
    _, history = _tiny_train(tiny_data, max_epochs=4)
    assert len(history) == 4  # early optimization improves every epoch


def test_lr_zero_stops_after_patience_plus_one(tiny_data):
    _, history = _tiny_train(tiny_data, lr=0.0, max_epochs=50, patience=5)
    assert len(history) == 6
    # Nothing moves; losses agree up to batch-order summation rounding.
    assert np.ptp(history) < 1e-12


def test_loss_history_deterministic(tiny_data):
    _, h1 = _tiny_train(tiny_data, max_epochs=2)
    _, h2 = _tiny_train(tiny_data, max_epochs=2)
    assert h1 == h2  # bitwise: identical floats


def test_nan_loss_aborts_with_episode_id(tiny_data):
    train_scenes, _, memory = tiny_data
    cfg = TrainConfig(k=2, candidate_pool_size=10, episodes_per_query=1,
                      batch_size=8, seed=0, max_epochs=2)
    params = init_model(TINY_MODEL, seed=0)
    params["head.b2"].data[:] = np.nan
    episodes = build_episodes(train_scenes, memory, None, cfg)
    with pytest.raises(TrainingAbort) as exc:
        train(params, TINY_MODEL, cfg, episodes, train_scenes, memory)
    assert exc.value.episode_id in {s.scene_id for s in train_scenes}


def test_no_episodes_rejected(tiny_data):
    train_scenes, _, memory = tiny_data
    cfg = TrainConfig(seed=0)
    with pytest.raises(ConfigError):
        train(init_model(TINY_MODEL, seed=0), TINY_MODEL, cfg, [],
              train_scenes, memory)


def test_adam_skips_gradless_params():
    opt = training.Adam({"w": __import__("affkit.autodiff", fromlist=["Tensor"])
                        .Tensor(np.ones(2), requires_grad=True)}, lr=0.1)
    opt.step()  # grad is None: parameter must stay put
    np.testing.assert_array_equal(opt.params["w"].data, np.ones(2))


# ---------------------------------------------------------------------------
# history persistence


def test_history_roundtrip(tmp_path):
    history = [0.5, 0.25, 0.12500000001, 1e-9]
    path = tmp_path / "loss.csv"
    save_history(history, path)
    assert load_history(path) == history  # repr round-trips float64 exactly


def test_history_file_shape(tmp_path):
    path = tmp_path / "loss.csv"
    save_history([0.5, 0.25], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
