"""Command-line interface: gen / train / eval / predict."""

import base64
import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from affkit import model, store
from affkit.cli import main
from affkit.evaluation import evaluate
from affkit.memory import load_memory
from affkit.model import (ModelConfig, init_model, load_checkpoint,
                          save_checkpoint)
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


def _copy_stores(src, out, names):
    out.mkdir(exist_ok=True)
    for name in names:
        (out / name).write_bytes((src / name).read_bytes())
    return out


@pytest.fixture(scope="module")
def sized_data(tmp_path_factory):
    """`gen` dirs of GEN_ARGS at 16, 20 and 32 px, keyed by size."""
    dirs = {}
    for size in (16, 20, 32):
        out = tmp_path_factory.mktemp(f"px{size}")
        result = RUNNER.invoke(main, GEN_ARGS + ["--size", str(size),
                                                 "--out", str(out)])
        assert result.exit_code == 0, result.output
        dirs[size] = out
    return dirs


@pytest.fixture(scope="module")
def checkpoint_16px(tmp_path_factory):
    cfg = ModelConfig(image_h=16, image_w=16, channels=4, **TINY_MODEL_YAML)
    path = tmp_path_factory.mktemp("ck16") / "m.ckpt"
    save_checkpoint(init_model(cfg), cfg, str(path))
    return path


@pytest.fixture(scope="module")
def mixed_scene_data(tmp_path_factory, sized_data):
    """A 16 px data dir whose train and test stores end in a 20 px scene."""
    out = _copy_stores(sized_data[16], tmp_path_factory.mktemp("mixed_scenes"),
                       ("manifest.json", "memory.jsonl"))
    for name in ("train.jsonl", "test.jsonl"):
        lines = (sized_data[16] / name).read_text().splitlines()
        header = json.loads(lines[0])
        header["count"] += 1
        extra = (sized_data[20] / name).read_text().splitlines()[1]
        (out / name).write_text("\n".join(
            [json.dumps(header)] + lines[1:] + [extra]) + "\n")
    return out


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


def test_gen_rejects_repeated_task(tmp_path):
    result = RUNNER.invoke(main, GEN_ARGS + ["--tasks", "open,open",
                                             "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "error: " in result.output and "repeat" in result.output
    assert not list(tmp_path.iterdir())


def test_gen_rejects_empty_task_list(tmp_path):
    result = RUNNER.invoke(main, GEN_ARGS + ["--tasks", ",",
                                             "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "error: tasks must be given and not repeat: []" in result.output
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
    broken = _copy_stores(data_dir, tmp_path / "broken",
                          ("manifest.json", "train.jsonl", "test.jsonl"))
    cfg = _write_config(tmp_path / "run.yaml", broken)
    result = RUNNER.invoke(main, ["train", "--config", cfg,
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2


def _with_empty_split(tmp_path, data_dir, split):
    """A copy of the data dir whose `split` store holds no scenes."""
    out = _copy_stores(data_dir, tmp_path / "data", ("manifest.json",
                       "train.jsonl", "test.jsonl", "memory.jsonl"))
    header = json.loads((data_dir / split).read_text().splitlines()[0])
    (out / split).write_text(json.dumps(dict(header, count=0)) + "\n")
    return out


def _assert_typed_exit_2(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output
    assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def mixed_image_data(tmp_path_factory, sized_data):
    """A 16x16 data dir whose memory store holds one 12x12 record."""
    out = _copy_stores(sized_data[16], tmp_path_factory.mktemp("mixed"),
                       ("manifest.json", "train.jsonl", "test.jsonl"))
    lines = (sized_data[16] / "memory.jsonl").read_text().splitlines()
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


def test_train_memory_size_other_than_scenes_exits_2(tmp_path, sized_data):
    data = _copy_stores(sized_data[16], tmp_path / "data",
                        ("manifest.json", "train.jsonl", "test.jsonl"))
    _copy_stores(sized_data[32], data, ("memory.jsonl",))
    cfg = _write_config(tmp_path / "run.yaml", data)
    result = RUNNER.invoke(main, ["train", "--config", cfg, "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    _assert_typed_exit_2(result)
    assert "(32, 32, 4)" in result.output and "(16, 16, 4)" in result.output


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_mixed_scene_sizes_exit_2(tmp_path, mixed_scene_data, checkpoint,
                                  command):
    data = mixed_scene_data
    if command == "train":
        args = ["train", "--config", _write_config(tmp_path / "run.yaml", data),
                "--out-checkpoint", str(tmp_path / "m.ckpt"), "--quiet"]
    elif command == "eval":
        args = ["eval", "--data", str(data), "--checkpoint", str(checkpoint)]
    else:
        args = ["predict", "--checkpoint", str(checkpoint),
                "--scene", str(data / "test.jsonl"),
                "--memory", str(data / "memory.jsonl")]
    result = RUNNER.invoke(main, args)
    _assert_typed_exit_2(result)
    # 12 train and 4 test scenes at 16 px, then the 20 px one.
    line = 14 if command == "train" else 6
    assert (f"line {line}: image shape (20, 20, 4) != (16, 16, 4)"
            in result.output)


def _negative_d_emb(lines):
    """A header-only memory store whose d_emb is -1."""
    return [json.dumps(dict(json.loads(lines[0]), d_emb=-1, count=0))]


def _repeated_scene_id(lines):
    """A scene store whose second scene has the first one's scene_id."""
    second = dict(json.loads(lines[2]),
                  scene_id=json.loads(lines[1])["scene_id"])
    return [lines[0], lines[1], json.dumps(second), *lines[3:]]


@pytest.mark.parametrize("name,edit,error", [
    ("memory.jsonl", _negative_d_emb, "line 1: d_emb -1 is negative"),
    ("train.jsonl", _repeated_scene_id, "line 3: repeated scene_id 'open-0'")],
    ids=["negative-d_emb", "repeated-scene_id"])
def test_train_corrupt_store_exits_2(tmp_path, data_dir, name, edit, error):
    data = _copy_stores(data_dir, tmp_path / "data", ("manifest.json",
                        "train.jsonl", "test.jsonl", "memory.jsonl"))
    lines = edit((data / name).read_text().splitlines())
    (data / name).write_text("\n".join(lines) + "\n")
    cfg = _write_config(tmp_path / "run.yaml", data)
    result = RUNNER.invoke(main, ["train", "--config", cfg, "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    _assert_typed_exit_2(result)
    assert f"error: {data / name}: {error}" in result.output


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
    {"model": {"d": "64"}}, {"synonyms": 3}, {"synonyms": ["open", "shut"]},
    {"data": 3}])
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
    {"improvement_eps": float("nan")}, {"improvement_eps": -1e-6},
    {"lr": float("inf")}, {"improvement_eps": float("inf")}])
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


@pytest.mark.parametrize("key,value", [
    ("image_h", 48), ("image_w", 48), ("channels", 4)])
def test_train_config_sets_image_geometry_exits_2(tmp_path, data_dir, key,
                                                  value):
    # Rejected even at the data's own value: the train split sets it.
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"data": str(data_dir),
                                   "model": {**TINY_MODEL_YAML, key: value}}))
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    _assert_typed_exit_2(result)
    assert f"['{key}'] come from the data" in result.output


def test_train_config_root_not_mapping_exits_2(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("- data\n")
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    _assert_typed_exit_2(result)
    assert "config root must be a mapping" in result.output


@pytest.mark.parametrize("text", [
    b"data: [\n", b"data: d\ntrain:\n  lr: 1.0e-3\n# \xff\xfe bad\n"],
    ids=["unclosed", "not-utf8"])
def test_train_config_not_yaml_exits_2(tmp_path, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_bytes(text)
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 2, result.output


def test_train_flag_overrides_win(tmp_path, data_dir):
    cfg = _write_config(tmp_path / "run.yaml", data_dir, max_epochs=50)
    ck = tmp_path / "m.ckpt"
    result = RUNNER.invoke(main, ["train", "--config", cfg,
                                  "--out-checkpoint", str(ck),
                                  "--max-epochs", "1"])
    assert result.exit_code == 0, result.output
    history = load_history(str(ck) + ".history.csv")
    assert len(history) == 1
    # Without --quiet, train reports each epoch's loss.
    assert result.output.startswith(f"epoch 1: loss {history[0]:.6f}\n")
    assert "epoch 2" not in result.output


@pytest.mark.parametrize("train", [
    {"max_epochs": 3, "lr": 1.0e+30},
    # One step per run: nothing reads the diverged parameters but the save.
    {"max_epochs": 1, "lr": 1.0e+30, "batch_size": 64}])
def test_train_diverging_run_exits_3_naming_the_epoch(tmp_path, train):
    # The suite turns numpy RuntimeWarnings into errors, so an overflow
    # that warned on the way would end the run with exit 1 instead.
    data = tmp_path / "d"
    result = RUNNER.invoke(main, ["gen", "--variant", "noisy", "--n-train",
                                  "6", "--n-test", "2", "--size", "16",
                                  "--out", str(data)])
    assert result.exit_code == 0, result.output
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({
        "data": str(data),
        "model": {"d": 16, "n_layers": 1, "n_heads": 2, "d_ff": 16},
        "train": train}))
    result = RUNNER.invoke(main, ["train", "--config", str(cfg),
                                  "--out-checkpoint",
                                  str(tmp_path / "m.ckpt"), "--quiet"])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and "epoch 1" in errors[0], result.output
    assert not (tmp_path / "m.ckpt").exists()


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


@pytest.mark.parametrize("spec", ["0..4", "0..100000000000000000000"],
                         ids=["five", "huge"])
def test_eval_k_sweep_checkpoint_count_mismatch(data_dir, checkpoint, spec):
    result = RUNNER.invoke(main, ["eval", "--data", str(data_dir),
                                  "--k-sweep", spec,
                                  "--checkpoint", str(checkpoint)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "checkpoints" in result.output


@pytest.mark.parametrize("args", [
    ["--synonyms", "notjson"], ["--synonyms", "[[1]]"], ["--k-sweep", "abc"],
    ["--k", "-1"], ["--synonyms", '["open", "shut"]'],
    ["--k-sweep", "3..1"], ["--k-sweep", "-1..2"], ["--k-sweep", "0:4"]])
def test_eval_malformed_option_exits_2(data_dir, checkpoint, args):
    result = RUNNER.invoke(main, ["eval", "--data", str(data_dir),
                                  "--checkpoint", str(checkpoint)] + args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output.lower()
    assert "Traceback" not in result.output
    if args[0] == "--k-sweep":
        # The error names the range itself, not a checkpoint count.
        assert f"--k-sweep {args[1]!r}" in result.output
        assert "checkpoints" not in result.output


@pytest.mark.parametrize("manifest", ["{", '{"train": "train.jsonl"}', "[]"])
def test_eval_malformed_manifest_exits_2(tmp_path, data_dir, checkpoint,
                                         manifest):
    _copy_stores(data_dir, tmp_path,
                 ("train.jsonl", "test.jsonl", "memory.jsonl"))
    (tmp_path / "manifest.json").write_text(manifest)
    result = RUNNER.invoke(main, ["eval", "--data", str(tmp_path),
                                  "--checkpoint", str(checkpoint)])
    assert result.exit_code == 2, result.output
    assert "bad manifest" in result.output


@pytest.mark.parametrize("name", ["test.jsonl", "memory.jsonl"])
def test_eval_error_names_the_bad_store(tmp_path, data_dir, checkpoint, name):
    data = _copy_stores(data_dir, tmp_path / "data", ("manifest.json",
                        "train.jsonl", "test.jsonl", "memory.jsonl"))
    lines = (data / name).read_text().splitlines()
    lines[2] = lines[2].replace('"image": "', '"image": "!', 1)
    (data / name).write_text("\n".join(lines) + "\n")
    result = RUNNER.invoke(main, ["eval", "--data", str(data),
                                  "--checkpoint", str(checkpoint)])
    _assert_typed_exit_2(result)
    assert f"error: {data / name}: line 3: bad 'image' payload" in result.output


def test_nan_image_exits_2_naming_store_and_line(tmp_path, data_dir,
                                                 checkpoint):
    data = _copy_stores(data_dir, tmp_path / "data", ("manifest.json",
                        "train.jsonl", "test.jsonl", "memory.jsonl"))
    lines = (data / "test.jsonl").read_text().splitlines()
    rec = json.loads(lines[2])
    image = np.frombuffer(base64.b64decode(rec["image"]), "<f8").copy()
    image[7] = np.nan
    lines[2] = json.dumps({**rec, "image": store.encode(image)})
    (data / "test.jsonl").write_text("\n".join(lines) + "\n")
    for args in (["eval", "--data", str(data)],
                 ["predict", "--scene", str(data / "test.jsonl"),
                  "--memory", str(data / "memory.jsonl")]):
        result = RUNNER.invoke(main, args + ["--checkpoint", str(checkpoint)])
        _assert_typed_exit_2(result)
        assert (f"error: {data / 'test.jsonl'}: line 3: field 'image' holds "
                "a non-finite value") in result.output


@pytest.mark.parametrize("args", [
    ["eval", "--data", "{d}"], ["eval", "--data", "{d}", "--k", "0"],
    ["predict", "--scene", "{d}/test.jsonl", "--memory", "{d}/memory.jsonl"]])
def test_store_size_other_than_checkpoint_exits_2(sized_data, checkpoint_16px,
                                                  args):
    result = RUNNER.invoke(main, [a.format(d=sized_data[32]) for a in args]
                           + ["--checkpoint", str(checkpoint_16px)])
    _assert_typed_exit_2(result)
    assert "(32, 32, 4)" in result.output and "(16, 16, 4)" in result.output


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


@pytest.mark.parametrize("k", [0, 2])
def test_predict_matches_eval_record(data_dir, checkpoint, k):
    """predict and eval answer a scene through one path, to the bit."""
    scenes, _ = load_scenes(data_dir / "test.jsonl")
    params, cfg = load_checkpoint(str(checkpoint))
    report = evaluate(params, cfg, scenes,
                      load_memory(str(data_dir / "memory.jsonl")), k)
    records = {rec.query_id: rec for rec in report.records}
    for index, scene in enumerate(scenes):
        result = RUNNER.invoke(main, [
            "predict", "--checkpoint", str(checkpoint),
            "--scene", str(data_dir / "test.jsonl"), "--index", str(index),
            "--memory", str(data_dir / "memory.jsonl"), "--k", str(k)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output.splitlines()[0])
        rec = records[scene.scene_id]
        assert payload["contact_px"] == list(rec.contact)
        assert payload["direction"] == list(rec.predicted)


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


def test_predict_lift_empty_retrieval_exits_2(tmp_path, data_dir,
                                              checkpoint):
    # Scene 0 is an "open" scene; the memory keeps only "close" entries.
    lines = (data_dir / "memory.jsonl").read_text().splitlines()
    kept = [l for l in lines[1:] if json.loads(l)["task"] != "open"]
    memory = tmp_path / "memory.jsonl"
    memory.write_text("\n".join(
        [json.dumps(dict(json.loads(lines[0]), count=len(kept)))] + kept)
        + "\n")
    result = RUNNER.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                  "--scene", str(data_dir / "test.jsonl"),
                                  "--memory", str(memory), "--lift"])
    _assert_typed_exit_2(result)
    assert "empty retrieval" in result.output


def test_predict_lift_degenerate_direction_exits_3(tmp_path, data_dir,
                                                   checkpoint):
    params, cfg = load_checkpoint(str(checkpoint))
    for name in ("head.w2", "head.b2"):  # the raw prediction is exactly 0
        params[name].data[:] = 0.0
    zeroed = tmp_path / "zero.ckpt"
    save_checkpoint(params, cfg, str(zeroed))
    result = RUNNER.invoke(main, ["predict", "--checkpoint", str(zeroed),
                                  "--scene", str(data_dir / "test.jsonl"),
                                  "--memory", str(data_dir / "memory.jsonl"),
                                  "--lift"])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: degenerate direction" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_overflowing_prediction_exits_3(tmp_path, data_dir, checkpoint,
                                        command):
    # Finite parameters, so the checkpoint loads; the raw norm overflows,
    # with only the output bias, or already inside the forward pass, where
    # numpy must not warn about it.
    args = {"predict": ["--scene", str(data_dir / "test.jsonl"),
                        "--memory", str(data_dir / "memory.jsonl")],
            "eval": ["--data", str(data_dir), "--out",
                     str(tmp_path / "report.json")]}[command]
    for edits in ({"head.b2": [1e200, 0.0]},
                  {"head.w2": 1e308, "head.b1": 50.0}):
        params, cfg = load_checkpoint(str(checkpoint))
        for name, value in edits.items():
            params[name].data[:] = value
        huge = tmp_path / "huge.ckpt"
        save_checkpoint(params, cfg, str(huge))
        result = RUNNER.invoke(main,
                               [command, "--checkpoint", str(huge)] + args)
        assert result.exit_code == 3, (edits, result.output)
        assert isinstance(result.exception, SystemExit)
        assert "error: direction prediction" in result.output
        assert "Traceback" not in result.output
        assert "RuntimeWarning" not in result.output


@pytest.mark.parametrize("size", [{"d": 20000}, {"n_layers": 10 ** 9}])
def test_header_only_checkpoint_builds_no_model(tmp_path, data_dir, size,
                                                monkeypatch):
    # Building either config's model would take gigabytes or ages, so the
    # loader must find the records missing before it builds anything.
    def refuse(*args, **kwargs):
        raise AssertionError("init_model called")
    monkeypatch.setattr(model, "init_model", refuse)
    ck = tmp_path / "header.ckpt"
    save_checkpoint({}, ModelConfig(**size), str(ck))
    for args in (["eval", "--data", str(data_dir)],
                 ["predict", "--scene", str(data_dir / "test.jsonl"),
                  "--memory", str(data_dir / "memory.jsonl")]):
        result = RUNNER.invoke(main, args + ["--checkpoint", str(ck)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "checkpoint lacks ['enc.w']" in result.output
        assert "Traceback" not in result.output


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
