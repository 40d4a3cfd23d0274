"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
The three training-based criteria (5-7) take minutes of CPU and are
marked `slow`; the rest complete in seconds.
"""

import time

import numpy as np
import pytest

from affkit.correspondence import transfer_contact
from affkit.evaluation import evaluate, mae
from affkit.lifting import Intrinsics, backproject
from affkit.memory import save_memory
from affkit.model import (ModelConfig, direction_loss, dual_weights,
                          forward_direction, init_model, load_checkpoint,
                          save_checkpoint)
from affkit.synthgen import TASKS, generate_scene, generate_split, get_variant
from affkit.training import TrainConfig, build_episodes, train
from support import finite_diff_check, lift_contact, lift_direction, project

NOISELESS = get_variant("noiseless")


def _report(n, detail):
    print(f"\nPASS criterion {n}: {detail}")


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _train_model(variant, seed, k, max_epochs, size=32, n_train=30, n_test=12):
    """Reduced-scale training used by the retrieval-causality criteria."""
    tr, te, mem = generate_split(n_train, n_test, TASKS, seed=seed,
                                 variant=variant, size=size)
    mcfg = ModelConfig(d=32, patch_size=4, image_h=size, image_w=size,
                       channels=4, n_layers=2, n_heads=4, d_ff=128)
    tcfg = TrainConfig(k=k, candidate_pool_size=10, episodes_per_query=3,
                       batch_size=16, max_epochs=max_epochs, seed=seed,
                       flip_references=True)
    params = init_model(mcfg, seed=seed)
    episodes = build_episodes(tr, mem, None, tcfg)
    train(params, mcfg, tcfg, episodes, tr, mem)
    return params, mcfg, te, mem


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    """Full loss graph matches central differences to < 1e-4 in < 30 s."""
    t0 = time.time()
    # 8x8 images with patch 4 give 4 tokens per view (N = N_q = 4).
    cfg = ModelConfig(d=8, patch_size=4, image_h=8, image_w=8, channels=4,
                      n_layers=1, n_heads=2, d_ff=16, k_max=2,
                      film_hidden=8, gate_hidden=8)
    worst = 0.0
    n_coords = None
    for seed in (0, 1, 2):
        params = init_model(cfg, seed=seed)
        rng = np.random.default_rng(100 + seed)
        img = rng.normal(size=(1, 8, 8, 4))
        refs = rng.normal(size=(1, 2, 8, 8, 4))
        dirs = np.stack([[_unit(rng.normal(size=2)) for _ in range(2)]])
        sims = rng.uniform(-1, 1, size=(1, 2))
        gt = np.array([[0.0, 1.0]])

        def fn():
            pred = forward_direction(params, cfg, img, refs, dirs, sims)
            return direction_loss(pred, gt)

        n_coords = sum(min(p.data.size, 2) for p in params.values())
        worst = max(worst, finite_diff_check(
            fn, params, samples_per_param=2, rng=np.random.default_rng(seed)))
    elapsed = time.time() - t0
    assert n_coords >= 50
    assert worst < 1e-4
    assert elapsed < 30.0
    _report(1, f"max rel grad error {worst:.2e} over 3 seeds, "
               f"{n_coords} coords/seed, {elapsed:.1f}s")


def test_criterion_02_dual_weighting_suite():
    """Hand arithmetic, shift invariance, weight-sum, K=1 normalization."""
    eps = 1e-8
    out = dual_weights(np.array([1.0, 1.0]), np.array([0.8, 0.4])).data
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-4)

    s = np.array([0.2, -1.3, 0.7])
    w = np.array([0.9, 0.1, 0.5])
    base = dual_weights(s, w).data
    for shift in (0.5, -64.0, 1024.0):  # dyadic: sums round identically
        np.testing.assert_array_equal(dual_weights(s + shift, w).data, base)

    soft = np.exp(s - s.max())
    soft /= soft.sum()
    big_s = float((soft * w).sum())
    assert base.sum() == pytest.approx(big_s / (big_s + eps), rel=1e-12)

    single = dual_weights(np.array([0.3]), np.array([0.9])).data
    assert single.sum() == pytest.approx(1.0, abs=1e-6)
    _report(2, "hand case, dyadic shift invariance (bitwise), "
               "weight-sum S/(S+eps), K=1 ~ 1")


def test_criterion_03_metric_suite():
    """Crafted angular errors exact; fixed-vs-uniform expectation near 90."""
    assert mae((1, 0), (1, 0)) == pytest.approx(0.0, abs=1e-9)
    assert mae((1, 0), (0, 1)) == pytest.approx(90.0, abs=1e-9)
    assert mae((1, 0), (-1, 0)) == pytest.approx(180.0, abs=1e-9)

    rng = np.random.default_rng(0)
    angles = rng.uniform(0, 2 * np.pi, size=500)
    errors = [mae((1.0, 0.0), (np.cos(a), np.sin(a))) for a in angles]
    mean_err = float(np.mean(errors))
    assert abs(mean_err - 90.0) < 5.0
    _report(3, f"crafted pairs exact; uniform-angle mean {mean_err:.2f} deg")


def test_criterion_04_correspondence_oracle():
    """Exact contact transfer on noiseless scenes; cosine scale invariance."""
    exact = 0
    for i in range(200):
        task = TASKS[i % 3]
        query = generate_scene(task, 1000 + i, NOISELESS)
        ref = generate_scene(task, 5000 + i, NOISELESS)
        got = transfer_contact(ref.image, ref.contact, query.image)
        exact += got == (int(query.contact[0]), int(query.contact[1]))
    assert exact >= 198

    query = generate_scene("open", 42, NOISELESS)
    ref = generate_scene("open", 43, NOISELESS)
    base = transfer_contact(ref.image, ref.contact, query.image)
    base_feature = query.image[base[1], base[0]]
    rng = np.random.default_rng(1)
    for _ in range(100):
        scales = rng.uniform(0.05, 20.0,
                             size=(query.image.shape[0],
                                   query.image.shape[1], 1))
        scaled = transfer_contact(ref.image, ref.contact,
                                  query.image * scales)
        # Invariant up to exact cosine ties: the handle block holds four
        # bitwise-identical feature pixels, and rescaling rounding may pick
        # a different member of that tie class.
        np.testing.assert_array_equal(query.image[scaled[1], scaled[0]],
                                      base_feature)
    _report(4, f"exact contact on {exact}/200 scenes; "
               "argmax invariant under 100 positive rescalings")


@pytest.mark.slow
def test_criterion_05_end_to_end_learnability():
    """Noiseless 70/30 x 3 tasks, K=3, defaults: test MAE < 10 deg."""
    t0 = time.time()
    tr, te, mem = generate_split(70, 30, TASKS, seed=0, variant=NOISELESS)
    mcfg = ModelConfig()
    # Converges to ~5-6 deg by epoch 4-6; cap well inside the 50 allowed.
    tcfg = TrainConfig(k=3, max_epochs=6, seed=0)
    params = init_model(mcfg, seed=0)
    episodes = build_episodes(tr, mem, None, tcfg)
    history = train(params, mcfg, tcfg, episodes, tr, mem)
    report = evaluate(params, mcfg, te, mem, k=3)
    elapsed = time.time() - t0
    assert len(history) <= 50
    assert report.overall < 10.0
    assert elapsed < 600.0
    _report(5, f"test MAE {report.overall:.2f} deg after {len(history)} "
               f"epochs in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_06_retrieval_augmentation_causality():
    """Reference-informative: K=0 near-blind (>=60), K=3 accurate (<30)."""
    variant = get_variant("reference-informative")
    results = []
    for seed in (0, 1, 2):
        p0, c0, te0, mem0 = _train_model(variant, seed, k=0, max_epochs=4)
        m0 = evaluate(p0, c0, te0, mem0, k=0).overall
        p3, c3, te3, mem3 = _train_model(variant, seed, k=3, max_epochs=12)
        m3 = evaluate(p3, c3, te3, mem3, k=3).overall
        results.append((seed, m0, m3))
    wins = sum(m0 >= 60.0 and m3 < 30.0 for _, m0, m3 in results)
    detail = "  ".join(f"seed {s}: K=0 {m0:.1f} / K=3 {m3:.1f}"
                       for s, m0, m3 in results)
    assert wins >= 2, detail
    _report(6, f"{wins}/3 seeds pass ({detail})")


@pytest.mark.slow
def test_criterion_07_ablation_ordering():
    """Noisy reference-informative: dual weighting <= uniform + 2 deg."""
    variant = get_variant("reference-informative", noise_std=0.05)
    diffs = []
    for seed in (0, 1, 2):
        params, cfg, te, mem = _train_model(variant, seed, k=3, max_epochs=10)
        full = evaluate(params, cfg, te, mem, k=3, weighting="full").overall
        uni = evaluate(params, cfg, te, mem, k=3, weighting="uniform").overall
        diffs.append(full - uni)
    mean_diff = float(np.mean(diffs))
    assert mean_diff <= 2.0
    _report(7, f"mean(full - uniform) = {mean_diff:+.2f} deg over 3 seeds")


def test_criterion_08_lifting_geometry():
    """Backprojection round-trip, tilted-plane oracle, antisymmetry."""
    intr = Intrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        u, v, z = rng.uniform(0, 99), rng.uniform(0, 99), rng.uniform(0.1, 50)
        u2, v2 = project(backproject((u, v), z, intr), intr)
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9

    theta, z0 = 0.3, 2.0
    us = np.arange(101)[None, :].repeat(101, axis=0)
    depth = z0 / (1.0 - np.tan(theta) * (us - intr.cx) / intr.fx)
    c3d = lift_contact((50.0, 50.0), depth, intr)
    tau = np.asarray(lift_direction((1.0, 0.0), c3d, (50.0, 50.0), depth,
                                    intr))
    n = np.array([-np.sin(theta), 0.0, np.cos(theta)])
    d = n @ np.array([0.0, 0.0, z0])

    def hit(pixel):
        ray = np.array([(pixel[0] - intr.cx) / intr.fx,
                        (pixel[1] - intr.cy) / intr.fy, 1.0])
        return (d / (n @ ray)) * ray

    expected = hit((60.0, 50.0)) - hit((50.0, 50.0))
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(tau, expected, atol=1e-6)

    for _ in range(5):
        a = _unit(rng.normal(size=2))
        pos = np.asarray(lift_direction(a, c3d, (50.0, 50.0), depth, intr))
        neg = np.asarray(lift_direction(-a, c3d, (50.0, 50.0), depth, intr))
        np.testing.assert_allclose(neg, -pos, atol=1e-9)
    _report(8, "round-trip 1e-9, tilted-plane oracle 1e-6, antisymmetry")


def test_criterion_09_determinism_and_persistence(tmp_path):
    """Fixed seed: bitwise memory files, episodes, loss histories;
    checkpoint and memory round-trips lossless."""
    mcfg = ModelConfig(d=8, patch_size=4, image_h=16, image_w=16, channels=4,
                       n_layers=1, n_heads=2, d_ff=16, film_hidden=8,
                       gate_hidden=8)
    tcfg = TrainConfig(k=2, candidate_pool_size=10, episodes_per_query=2,
                       batch_size=8, max_epochs=2, seed=0)

    histories, episode_runs = [], []
    for run in range(2):
        tr, _, mem = generate_split(10, 2, ("open",), seed=5,
                                    variant=NOISELESS, size=16)
        save_memory(mem, tmp_path / f"mem{run}.jsonl")
        episodes = build_episodes(tr, mem, None, tcfg)
        episode_runs.append(episodes)
        params = init_model(mcfg, seed=0)
        histories.append(train(params, mcfg, tcfg, episodes, tr, mem))
    assert (tmp_path / "mem0.jsonl").read_bytes() == \
        (tmp_path / "mem1.jsonl").read_bytes()
    assert episode_runs[0] == episode_runs[1]
    assert histories[0] == histories[1]  # bitwise-equal floats

    save_checkpoint(params, mcfg, tmp_path / "m.ckpt")
    loaded, loaded_cfg = load_checkpoint(tmp_path / "m.ckpt")
    assert loaded_cfg == mcfg
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
    _report(9, "bitwise memory/episodes/histories; lossless round-trips")


def test_criterion_10_early_stopping_semantics():
    """lr=0 run halts after exactly patience+1 = 6 epochs."""
    tr, _, mem = generate_split(10, 2, ("open",), seed=5, variant=NOISELESS,
                                size=16)
    mcfg = ModelConfig(d=8, patch_size=4, image_h=16, image_w=16, channels=4,
                       n_layers=1, n_heads=2, d_ff=16, film_hidden=8,
                       gate_hidden=8)
    tcfg = TrainConfig(k=2, candidate_pool_size=10, episodes_per_query=2,
                       batch_size=8, seed=0, lr=0.0, max_epochs=50, patience=5)
    params = init_model(mcfg, seed=0)
    episodes = build_episodes(tr, mem, None, tcfg)
    history = train(params, mcfg, tcfg, episodes, tr, mem)
    assert len(history) == 6
    _report(10, "lr=0 run halted after exactly 6 epochs")
