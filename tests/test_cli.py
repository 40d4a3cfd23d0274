"""Command-line interface: gen / train / eval / predict."""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from affkit import store
from affkit.cli import main
from affkit.synthgen import load_scenes
from support import load_history

RUNNER = CliRunner()

GEN_ARGS = ["gen", "--variant", "noiseless", "--tasks", "open,close",
            "--seed", "0", "--n-train", "6", "--n-test", "2"]

TINY_MODEL_YAML = {"d": 8, "patch_size": 4, "n_layers": 1, "n_heads": 2,
                   "d_ff": 16, "film_hidden": 8, "gate_hidden": 8}
TINY_TRAIN_YAML = {"k": 2, "candidate_pool_size": 10, "episodes_per_query": 2,
                   "batch_size": 8, "max_epochs": 2, "seed": 0}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    result = RUNNER.invoke(main, GEN_ARGS + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def _write_config(path, data_dir, **train_overrides):
    train = dict(TINY_TRAIN_YAML, **train_overrides)
    path.write_text(yaml.safe_dump({"data": str(data_dir),
                                    "model": TINY_MODEL_YAML,
                                    "train": train}))
    return str(path)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("ckpt")
    cfg = _write_config(out / "run.yaml", data_dir)
    ck = out / "model.ckpt"
    result = RUNNER.invoke(main, ["train", "--config", cfg,
                                  "--out-checkpoint", str(ck), "--quiet"])
    assert result.exit_code == 0, result.output
    return ck


# ---------------------------------------------------------------------------
# gen


def test_gen_manifest_and_files(data_dir):
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["n_train_per_task"] == 6
    assert manifest["n_test_per_task"] == 2
    assert manifest["tasks"] == ["open", "close"]
    assert len(manifest["train_ids"]) == 12
    assert len(manifest["test_ids"]) == 4
    assert not set(manifest["train_ids"]) & set(manifest["test_ids"])
    for name in ("train.jsonl", "test.jsonl", "memory.jsonl"):
        assert (data_dir / name).exists()
    train, _ = load_scenes(data_dir / "train.jsonl")
    assert [s.scene_id for s in train] == manifest["train_ids"]


def test_gen_same_seed_byte_identical(tmp_path, data_dir):
    result = RUNNER.invoke(main, GEN_ARGS + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for name in ("train.jsonl", "test.jsonl", "memory.jsonl", "manifest.json"):
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()


def test_gen_rejects_unknown_variant(tmp_path):
    result = RUNNER.invoke(main, ["gen", "--variant", "pristine",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_gen_rejects_bad_counts(tmp_path):
    result = RUNNER.invoke(main, ["gen", "--variant", "noiseless",
                                  "--n-train", "0", "--out", str(tmp_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--size", "-3"], ["--size", "8"], ["--size", "10"],
    ["--noise", "nan"], ["--noise", "-1"], ["--noise", "inf"]])
def test_gen_rejects_bad_scene_options(tmp_path, args):
    result = RUNNER.invoke(main, GEN_ARGS + args + ["--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "error: " in result.output
    assert not list(tmp_path.iterdir())


def test_gen_rejects_negative_seed(tmp_path):
    result = RUNNER.invoke(main, GEN_ARGS + ["--seed", "-1",
                                             "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_history(checkpoint):
    assert checkpoint.exists()
    history = load_history(str(checkpoint) + ".history.csv")
    assert 1 <= len(history) <= TINY_TRAIN_YAML["max_epochs"]
    assert all(np.isfinite(history))


def test_train_missing_memory_exits_2(tmp_path, data_dir):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("manifest.json", "train.jsonl", "test.jsonl"):
        (broken / name).write_bytes((data_dir / name).read_bytes())
    cfg = _write_config(tmp_path / "run.yaml", broken)
    result = RUNNER.invoke(main, ["train", "--config", cfg,
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2


def _with_empty_split(tmp_path, data_dir, split):
    """A copy of the data dir whose `split` store holds no scenes."""
    out = tmp_path / "data"
    out.mkdir()
    for name in ("manifest.json", "train.jsonl", "test.jsonl", "memory.jsonl"):
        (out / name).write_bytes((data_dir / name).read_bytes())
    header = json.loads((data_dir / split).read_text().splitlines()[0])
    (out / split).write_text(json.dumps(dict(header, count=0)) + "\n")
    return out


def _assert_typed_exit_2(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output
    assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def mixed_image_data(tmp_path_factory):
    """A 16x16 data dir whose memory store holds one 12x12 record."""
    out = tmp_path_factory.mktemp("mixed")
    result = RUNNER.invoke(main, GEN_ARGS + ["--size", "16", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "memory.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record.update(h=12, w=12,
                  image=store.encode(np.zeros((12, 12, record["c"]))))
    lines[2] = json.dumps(record)
    (out / "memory.jsonl").write_text("\n".join(lines) + "\n")
    return out


def test_train_mixed_memory_image_shapes_exits_2(tmp_path, mixed_image_data):
    cfg = _write_config(tmp_path / "run.yaml", mixed_image_data)
    result = RUNNER.invoke(main, ["train", "--config", cfg, "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    _assert_typed_exit_2(result)
    assert "entry 1: image shape (12, 12, 4)" in result.output


def test_eval_mixed_memory_image_shapes_exits_2(mixed_image_data, checkpoint):
    result = RUNNER.invoke(main, ["eval", "--data", str(mixed_image_data),
                                  "--checkpoint", str(checkpoint)])
    _assert_typed_exit_2(result)
    assert "entry 1: image shape (12, 12, 4)" in result.output


def test_train_empty_split_exits_2(tmp_path, data_dir):
    empty = _with_empty_split(tmp_path, data_dir, "train.jsonl")
    cfg = _write_config(tmp_path / "run.yaml", empty)
    _assert_typed_exit_2(RUNNER.invoke(main, [
        "train", "--config", cfg, "--out-checkpoint",
        str(tmp_path / "m.ckpt"), "--quiet"]))


def test_train_unknown_config_key_exits_2(tmp_path, data_dir):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"data": str(data_dir),
                                   "train": {"learning_rate": 0.1}}))
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2
    assert "learning_rate" in result.output


def test_train_unknown_top_level_key_exits_2(tmp_path, data_dir):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"data": str(data_dir), "optimizer": "sgd"}))
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2


@pytest.mark.parametrize("section", [
    {"train": [1, 2]}, {"model": [1, 2]}, {"train": {"lr": "1e-3"}},
    {"model": {"d": "64"}}, {"synonyms": 3}, {"synonyms": ["open", "shut"]}])
def test_train_malformed_config_section_exits_2(tmp_path, data_dir, section):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"data": str(data_dir), **section}))
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2, result.output
    assert "error: " in result.output


@pytest.mark.parametrize("train", [
    {"batch_size": 0}, {"batch_size": -4}, {"episodes_per_query": 0},
    {"lr": -0.1}, {"lr": float("nan")}, {"flip_prob": 7.0},
    {"k": 0, "weighting": "bogus"}, {"seed": -1},
    {"improvement_eps": float("nan")}, {"improvement_eps": -1e-6}])
def test_train_bad_config_value_exits_2(tmp_path, data_dir, train):
    cfg = _write_config(tmp_path / "run.yaml", data_dir, **train)
    result = RUNNER.invoke(main, ["train", "--config", cfg,
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output
    assert not (tmp_path / "m.ckpt").exists()


def test_train_negative_seed_flag_exits_2(tmp_path, data_dir):
    cfg = _write_config(tmp_path / "run.yaml", data_dir)
    result = RUNNER.invoke(main, ["train", "--config", cfg, "--seed", "-1",
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output
    assert not (tmp_path / "m.ckpt").exists()


def test_train_config_not_yaml_exits_2(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("data: [\n")
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2, result.output


def test_train_flag_overrides_win(tmp_path, data_dir):
    cfg = _write_config(tmp_path / "run.yaml", data_dir, max_epochs=50)
    ck = tmp_path / "m.ckpt"
    result = RUNNER.invoke(main, ["train", "--config", cfg,
                                  "--out-checkpoint", str(ck),
                                  "--max-epochs", "1", "--quiet"])
    assert result.exit_code == 0, result.output
    assert len(load_history(str(ck) + ".history.csv")) == 1


# ---------------------------------------------------------------------------
# eval


def test_eval_single_checkpoint(data_dir, checkpoint, tmp_path):
    out = tmp_path / "report.json"
    result = RUNNER.invoke(main, ["eval", "--data", str(data_dir),
                                  "--checkpoint", str(checkpoint),
                                  "--k", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["metadata"]["variant_rule"] == "full"
    assert payload["metadata"]["k"] == 2
    assert 0.0 <= payload["overall"] <= 180.0
    assert f"{payload['overall']:.3f}" in result.output


def test_eval_aggregate_is_mean_of_seeds(data_dir, checkpoint, tmp_path):
    out = tmp_path / "report.json"
    result = RUNNER.invoke(main, ["eval", "--data", str(data_dir),
                                  "--checkpoint", str(checkpoint),
                                  "--checkpoint", str(checkpoint),
                                  "--k", "1", "--seeds", "a,b",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    agg = json.loads((tmp_path / "report.json.aggregate.json").read_text())
    per_seed = agg["per_seed"]
    assert set(per_seed) == {"a", "b"}
    assert agg["aggregate"] == pytest.approx(
        np.mean(list(per_seed.values())), abs=1e-12)
    # Same checkpoint twice: both seeds score identically.
    assert per_seed["a"] == per_seed["b"]


@pytest.mark.parametrize("seeds", ["a,a", "a, a", "a,", ",b", "",
                                   "x/y,z", "..,z", "., z", "a b,c"])
def test_eval_bad_seed_labels_exits_2(data_dir, checkpoint, tmp_path, seeds):
    # A duplicate label would overwrite one per-seed report with the other;
    # a label that is not one plain file name would put a report elsewhere.
    out = tmp_path / "rep"
    n = 1 if seeds == "" else 2
    result = RUNNER.invoke(main, [
        "eval", "--data", str(data_dir), "--seeds", seeds, "--out", str(out)]
        + ["--checkpoint", str(checkpoint)] * n)
    _assert_typed_exit_2(result)
    assert "MAE" not in result.output  # rejected before any evaluation
    assert list(tmp_path.iterdir()) == []


def test_eval_seed_labels_name_report_files(data_dir, checkpoint, tmp_path):
    out = tmp_path / "rep"
    result = RUNNER.invoke(main, [
        "eval", "--data", str(data_dir), "--k", "1", "--seeds", "s-0.a,S_1",
        "--out", str(out)] + ["--checkpoint", str(checkpoint)] * 2)
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rep.aggregate.json", "rep.seedS_1.json", "rep.seeds-0.a.json"]


def test_eval_seeds_with_k_sweep_exits_2(data_dir, checkpoint, tmp_path):
    out = tmp_path / "sweep.tsv"
    _assert_typed_exit_2(RUNNER.invoke(main, [
        "eval", "--data", str(data_dir), "--k-sweep", "0..1", "--seeds", "a,b",
        "--out", str(out)] + ["--checkpoint", str(checkpoint)] * 2))
    assert not out.exists()


def test_eval_k_sweep_rows(data_dir, checkpoint, tmp_path):
    out = tmp_path / "sweep.tsv"
    args = ["eval", "--data", str(data_dir), "--k-sweep", "0..4",
            "--out", str(out)]
    for _ in range(5):
        args += ["--checkpoint", str(checkpoint)]
    result = RUNNER.invoke(main, args)
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "k\tmae_deg"
    assert [int(l.split("\t")[0]) for l in lines[1:]] == [0, 1, 2, 3, 4]


def test_eval_empty_split_exits_2(tmp_path, data_dir, checkpoint):
    empty = _with_empty_split(tmp_path, data_dir, "test.jsonl")
    _assert_typed_exit_2(RUNNER.invoke(main, [
        "eval", "--data", str(empty), "--checkpoint", str(checkpoint)]))


def test_eval_k_sweep_checkpoint_count_mismatch(data_dir, checkpoint):
    result = RUNNER.invoke(main, ["eval", "--data", str(data_dir),
                                  "--k-sweep", "0..4",
                                  "--checkpoint", str(checkpoint)])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--synonyms", "notjson"], ["--synonyms", "[[1]]"], ["--k-sweep", "abc"],
    ["--k", "-1"], ["--synonyms", '["open", "shut"]']])
def test_eval_malformed_option_exits_2(data_dir, checkpoint, args):
    result = RUNNER.invoke(main, ["eval", "--data", str(data_dir),
                                  "--checkpoint", str(checkpoint)] + args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output.lower()
    assert "Traceback" not in result.output


@pytest.mark.parametrize("manifest", ["{", '{"train": "train.jsonl"}', "[]"])
def test_eval_malformed_manifest_exits_2(tmp_path, data_dir, checkpoint,
                                         manifest):
    for name in ("train.jsonl", "test.jsonl", "memory.jsonl"):
        (tmp_path / name).write_bytes((data_dir / name).read_bytes())
    (tmp_path / "manifest.json").write_text(manifest)
    result = RUNNER.invoke(main, ["eval", "--data", str(tmp_path),
                                  "--checkpoint", str(checkpoint)])
    assert result.exit_code == 2, result.output
    assert "bad manifest" in result.output


# ---------------------------------------------------------------------------
# predict


def test_predict_contact_exact_on_noiseless(data_dir, checkpoint):
    scenes, _ = load_scenes(data_dir / "test.jsonl")
    result = RUNNER.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                  "--scene", str(data_dir / "test.jsonl"),
                                  "--index", "0",
                                  "--memory", str(data_dir / "memory.jsonl"),
                                  "--k", "2"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output.splitlines()[0])
    assert payload["scene_id"] == scenes[0].scene_id
    assert tuple(payload["contact_px"]) == scenes[0].contact
    assert not payload["degenerate"]
    assert np.linalg.norm(payload["direction"]) == pytest.approx(1.0, abs=1e-9)


def test_predict_lift_on_flat_depth(data_dir, checkpoint):
    result = RUNNER.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                  "--scene", str(data_dir / "test.jsonl"),
                                  "--memory", str(data_dir / "memory.jsonl"),
                                  "--k", "2", "--lift"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output.splitlines()[0])
    # Depth is a fronto-parallel plane, so the lifted direction stays in it.
    assert payload["direction_3d"][2] == pytest.approx(0.0, abs=1e-9)
    assert payload["contact_3d"][2] == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(payload["direction_3d"]) == pytest.approx(
        1.0, abs=1e-9)


def test_predict_k0_still_runs(data_dir, checkpoint):
    result = RUNNER.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                  "--scene", str(data_dir / "test.jsonl"),
                                  "--memory", str(data_dir / "memory.jsonl"),
                                  "--k", "0"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output.splitlines()[0])
    assert payload["direction_raw"] is not None


def test_predict_index_out_of_range(data_dir, checkpoint):
    result = RUNNER.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                  "--scene", str(data_dir / "test.jsonl"),
                                  "--index", "99",
                                  "--memory", str(data_dir / "memory.jsonl")])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [["--k", "-2"], ["--synonyms", "{"],
                                  ["--synonyms", '["open", "shut"]']])
def test_predict_malformed_option_exits_2(data_dir, checkpoint, args):
    result = RUNNER.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                  "--scene", str(data_dir / "test.jsonl"),
                                  "--memory", str(data_dir / "memory.jsonl")]
                           + args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output.lower()
    assert "Traceback" not in result.output
