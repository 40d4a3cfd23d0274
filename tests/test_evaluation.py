"""MAE metric, evaluation harness, ablation rules, K-sweep plumbing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import affkit.evaluation as evaluation
from affkit.errors import ConfigError, ContractError, LeakageError
from affkit.evaluation import (EvalReport, ablation, evaluate, mae,
                               save_sweep)
from affkit.memory import Affordance2D, Memory, MemoryEntry
from affkit.model import ModelConfig, init_model, predict_direction
from affkit.synthgen import generate_split, get_variant


def _angle(deg):
    r = math.radians(deg)
    return (math.cos(r), math.sin(r))


# ---------------------------------------------------------------------------
# mae


def test_mae_trivials():
    assert mae((1, 0), (1, 0)) == pytest.approx(0.0, abs=1e-9)
    assert mae((1, 0), (0, 1)) == pytest.approx(90.0, abs=1e-9)
    assert mae((1, 0), (-1, 0)) == pytest.approx(180.0, abs=1e-9)


def test_mae_rejects_non_unit():
    with pytest.raises(ContractError):
        mae((1, 1), (1, 0))
    with pytest.raises(ContractError):
        mae((1, 0), (0.5, 0))
    for v in ((math.nan, 0.0), (math.nan, math.nan), (math.inf, 0.0)):
        with pytest.raises(ContractError):
            mae(v, (1, 0))
        with pytest.raises(ContractError):
            mae((1, 0), v)


@given(st.floats(0, 360), st.floats(0, 360))
@settings(max_examples=60, deadline=None)
def test_mae_symmetry_and_range(a_deg, b_deg):
    a, b = _angle(a_deg), _angle(b_deg)
    err = mae(a, b)
    assert 0.0 <= err <= 180.0
    assert err == mae(b, a)
    # arccos near dot=1 amplifies the 1-ulp rounding of cos/sin inputs
    # to ~1e-6 degrees; exactly representable vectors do hit 0 (see the
    # trivial cases above).
    assert mae(a, a) == pytest.approx(0.0, abs=1e-5)


@given(st.floats(0, 360), st.floats(0, 360), st.floats(0, 360))
@settings(max_examples=60, deadline=None)
def test_mae_rotation_equivariance(a_deg, b_deg, rot):
    base = mae(_angle(a_deg), _angle(b_deg))
    rotated = mae(_angle(a_deg + rot), _angle(b_deg + rot))
    assert rotated == pytest.approx(base, abs=1e-5)


# ---------------------------------------------------------------------------
# ablation


def test_ablation_names():
    for name in ("full", "no_gating", "no_similarity", "uniform"):
        assert ablation(name) == name
    with pytest.raises(ConfigError):
        ablation("none_of_the_above")


# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture(scope="module")
def small_split():
    return generate_split(6, 4, ("open", "close"), seed=3,
                          variant=get_variant("noiseless"), size=16)


TINY = ModelConfig(d=8, patch_size=4, image_h=16, image_w=16, channels=4,
                   n_layers=1, n_heads=2, d_ff=16, film_hidden=8,
                   gate_hidden=8)


def test_oracle_model_scores_zero(small_split, monkeypatch):
    train_scenes, test_scenes, memory = small_split
    gt = {s.scene_id: s.direction for s in test_scenes}
    calls = {"n": 0}

    def echo(params, cfg, image, refs=(), weighting="full"):
        calls["n"] += 1
        for s in test_scenes:
            if np.array_equal(s.image, image):
                return np.asarray(s.direction), np.asarray(s.direction)
        raise AssertionError("unknown query image")

    monkeypatch.setattr(evaluation, "predict_direction", echo)
    report = evaluate({}, TINY, test_scenes, memory, k=2)
    assert report.overall == pytest.approx(0.0, abs=1e-9)
    assert calls["n"] == len(test_scenes)
    assert set(report.per_task) == {"open", "close"}


def test_fixed_prediction_uniform_angles_near_90(monkeypatch, small_split):
    _, _, memory = small_split
    rng = np.random.default_rng(0)
    from dataclasses import replace
    template = small_split[1][0]
    scenes = [replace(template, scene_id=f"q{i}",
                      direction=_angle(rng.uniform(0, 360)))
              for i in range(500)]

    fixed = np.array([1.0, 0.0])
    monkeypatch.setattr(evaluation, "predict_direction",
                        lambda *a, **k: (fixed, fixed))
    report = evaluate({}, TINY, scenes, memory, k=0)
    assert abs(report.overall - 90.0) < 5.0


def test_report_mean_matches_records(small_split):
    train_scenes, test_scenes, memory = small_split
    params = init_model(TINY, seed=0)
    report = evaluate(params, TINY, test_scenes, memory, k=2)
    brute = float(np.mean([r.error_deg for r in report.records]))
    assert report.overall == pytest.approx(brute, abs=1e-9)
    for task, value in report.per_task.items():
        per = [r.error_deg for r in report.records if r.task == task]
        assert value == pytest.approx(float(np.mean(per)), abs=1e-9)
    assert all(0.0 <= r.error_deg <= 180.0 for r in report.records)


def test_leakage_detected(small_split):
    train_scenes, test_scenes, memory = small_split
    params = init_model(TINY, seed=0)
    with pytest.raises(LeakageError):
        evaluate(params, TINY, train_scenes[:2], memory, k=1)


def test_negative_k_rejected(small_split):
    _, test_scenes, memory = small_split
    with pytest.raises(ContractError):
        evaluate(init_model(TINY, seed=0), TINY, test_scenes, memory, k=-1)


def test_empty_test_split_rejected(small_split):
    """An empty split fails typed instead of reporting a NaN mean."""
    _, _, memory = small_split
    with pytest.raises(ContractError, match="no test scenes"):
        evaluate(init_model(TINY, seed=0), TINY, [], memory, k=1)


def test_degenerate_scored_180(small_split, monkeypatch):
    _, test_scenes, memory = small_split
    monkeypatch.setattr(evaluation, "predict_direction",
                        lambda *a, **k: (np.zeros(2), None))
    report = evaluate({}, TINY, test_scenes, memory, k=0)
    assert report.overall == 180.0
    assert all(r.degenerate for r in report.records)


def test_k1_ablation_rules_coincide(small_split):
    train_scenes, test_scenes, memory = small_split
    params = init_model(TINY, seed=1)
    outputs = {}
    for rule in ("full", "no_gating", "no_similarity", "uniform"):
        report = evaluate(params, TINY, test_scenes, memory, k=1,
                          weighting=rule)
        outputs[rule] = [r.predicted for r in report.records]
    base = outputs["full"]
    for rule, preds in outputs.items():
        for a, b in zip(base, preds):
            # Rules differ only through the eps normalization at K=1.
            np.testing.assert_allclose(a, b, atol=1e-6)


def test_metadata_records_rule_and_k(small_split):
    _, test_scenes, memory = small_split
    params = init_model(TINY, seed=0)
    report = evaluate(params, TINY, test_scenes, memory, k=2,
                      weighting="uniform", metadata={"seed": "s0"})
    assert report.metadata["weighting"] == "uniform"
    assert report.metadata["k"] == 2
    assert report.metadata["seed"] == "s0"
    assert report.metadata["n_queries"] == len(test_scenes)


def test_report_json_roundtrips(small_split, tmp_path):
    _, test_scenes, memory = small_split
    params = init_model(TINY, seed=0)
    report = evaluate(params, TINY, test_scenes, memory, k=1)
    path = tmp_path / "report.json"
    report.save(path)
    payload = json.loads(path.read_text())
    assert payload["overall"] == report.overall
    assert len(payload["records"]) == len(report.records)


# ---------------------------------------------------------------------------
# k-sweep


def test_k_sweep_row_count_and_order(tmp_path):
    """save_sweep writes one row per K, in the given order, losslessly."""
    rows = [(0, 87.5), (1, 0.1 + 0.2), (2, 3.141592653589793)]
    path = tmp_path / "sweep.tsv"
    save_sweep(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k\tmae_deg"
    assert len(lines) == 4
    parsed = [(int(l.split("\t")[0]), float(l.split("\t")[1]))
              for l in lines[1:]]
    assert parsed == [(k, v) for k, v in rows]
