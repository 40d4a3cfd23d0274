"""Command-line surface: gen / train / eval / predict.

Exit codes: 0 ok, 2 config or input error, 3 numeric error, 4 data
leakage, 5 geometry error.
"""

import functools
import json
import os
import re
import sys
from dataclasses import asdict

import click
import numpy as np
import yaml

from .errors import (AffkitError, ConfigError, GeometryError, LeakageError,
                     NoCorrespondenceError, NumericError, ParseError,
                     TrainingAbort)
from . import evaluation, store, synthgen
from .lifting import lift_affordance
from .memory import Affordance2D, load_memory, save_memory
from .model import (WEIGHTING_RULES, ModelConfig, init_model,
                    load_checkpoint, save_checkpoint)
from .retrieval import TaskSynonymTable
from .training import TrainConfig, build_episodes, save_history, train

EXIT_CONFIG, EXIT_NUMERIC, EXIT_LEAKAGE, EXIT_GEOMETRY = 2, 3, 4, 5

# Every other AffkitError, and an OSError, is a config or input error.
_EXIT_CODES = (
    ((LeakageError,), EXIT_LEAKAGE),
    ((GeometryError, NoCorrespondenceError), EXIT_GEOMETRY),
    ((NumericError, TrainingAbort), EXIT_NUMERIC),
)


def _run(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (AffkitError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next((code for types, code in _EXIT_CODES
                           if isinstance(exc, types)), EXIT_CONFIG))
    return wrapper


@click.group()
def main():
    """Retrieval-augmented 2D affordance prediction pipeline."""


# ---------------------------------------------------------------------------
# gen


@main.command()
@click.option("--variant", required=True,
              type=click.Choice(sorted(synthgen.VARIANT_PRESETS)))
@click.option("--tasks", default="open,close,pickup", show_default=True)
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path())
@click.option("--n-train", default=70, show_default=True, type=int)
@click.option("--n-test", default=30, show_default=True, type=int)
@click.option("--noise", default=None, type=float,
              help="Override the variant's noise std.")
@click.option("--size", default=48, show_default=True, type=int)
@_run
def gen(variant, tasks, seed, out, n_train, n_test, noise, size):
    """Generate scenes, a memory, and a split manifest into OUT."""
    var = synthgen.get_variant(variant, noise_std=noise)
    task_list = [t.strip() for t in tasks.split(",") if t.strip()]
    train_scenes, test_scenes, memory = synthgen.generate_split(
        n_train, n_test, task_list, seed, var, size=size)
    os.makedirs(out, exist_ok=True)
    synthgen.save_scenes(train_scenes, var, os.path.join(out, "train.jsonl"))
    synthgen.save_scenes(test_scenes, var, os.path.join(out, "test.jsonl"))
    save_memory(memory, os.path.join(out, "memory.jsonl"))
    manifest = {
        "variant": asdict(var), "seed": seed, "size": size, "tasks": task_list,
        "n_train_per_task": n_train, "n_test_per_task": n_test,
        "train": "train.jsonl", "test": "test.jsonl", "memory": "memory.jsonl",
        "train_ids": [s.scene_id for s in train_scenes],
        "test_ids": [s.scene_id for s in test_scenes],
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    click.echo(f"wrote {len(train_scenes)} train / {len(test_scenes)} test "
               f"scenes and a {len(memory)}-entry memory to {out}")


# ---------------------------------------------------------------------------
# run configuration


def _synonyms_option(text):
    try:
        return TaskSynonymTable(groups=json.loads(text) if text else [])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--synonyms is not JSON: {exc}")


def load_run_config(path, overrides=None):
    """Parse and validate a YAML run configuration. Unknown keys rejected."""
    with open(path, "rb") as fh:
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    allowed = {"data", "model", "train", "synonyms"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    if not isinstance(raw.get("data"), str):
        raise ConfigError("config is missing the 'data' directory")
    for key in ("train", "model"):
        if not isinstance(raw.get(key) or {}, dict):
            raise ConfigError(f"config section {key!r} must be a mapping")
    train_kwargs = dict(raw.get("train") or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            train_kwargs[key] = value
    model_cfg_kwargs = dict(raw.get("model") or {})
    fixed = sorted({"image_h", "image_w", "channels"} & set(model_cfg_kwargs))
    if fixed:
        raise ConfigError(f"model keys {fixed} come from the data: the train "
                          "split's images set them")
    synonyms = TaskSynonymTable(groups=raw.get("synonyms") or [])
    train_cfg = store.from_dict(TrainConfig, train_kwargs, "train", ConfigError)
    return raw["data"], model_cfg_kwargs, train_cfg, synonyms


def _load_dataset(data_dir, split):
    """The `split` scenes and the memory of a `gen` directory."""
    manifest_path = os.path.join(data_dir, "manifest.json")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
            scenes, mem = (os.path.join(data_dir, manifest[key])
                           for key in (split, "memory"))
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{manifest_path}: bad manifest: {exc!r}")
    return synthgen.load_scenes(scenes)[0], load_memory(mem)


# ---------------------------------------------------------------------------
# train


@main.command(name="train")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=False))
@click.option("--out-checkpoint", required=True, type=click.Path())
@click.option("--out-history", default=None, type=click.Path())
@click.option("--seed", default=None, type=int, help="Override train.seed.")
@click.option("--k", default=None, type=int, help="Override train.k.")
@click.option("--lr", default=None, type=float, help="Override train.lr.")
@click.option("--max-epochs", default=None, type=int)
@click.option("--quiet", is_flag=True)
@_run
def train_cmd(config_path, out_checkpoint, out_history, seed, k, lr,
              max_epochs, quiet):
    """Train the alignment model per the run configuration."""
    data_dir, model_kwargs, train_cfg, synonyms = load_run_config(
        config_path,
        overrides={"seed": seed, "k": k, "lr": lr, "max_epochs": max_epochs})
    train_scenes, memory = _load_dataset(data_dir, "train")
    if not train_scenes:
        raise ConfigError("the train split holds no scenes")
    h, w, c = train_scenes[0].image.shape
    model_cfg = store.from_dict(ModelConfig, dict(
        model_kwargs, image_h=h, image_w=w, channels=c), "model", ConfigError)
    params = init_model(model_cfg, seed=train_cfg.seed)
    episodes = build_episodes(train_scenes, memory, synonyms, train_cfg)

    progress = None if quiet else (
        lambda epoch, loss: click.echo(f"epoch {epoch}: loss {loss:.6f}"))
    history = train(params, model_cfg, train_cfg, episodes, train_scenes,
                    memory, progress=progress)
    save_checkpoint(params, model_cfg, out_checkpoint)
    history_path = out_history or out_checkpoint + ".history.csv"
    save_history(history, history_path)
    click.echo(f"trained {len(history)} epochs; checkpoint {out_checkpoint}, "
               f"history {history_path}")


# ---------------------------------------------------------------------------
# eval


def _parse_k_sweep(spec, n_checkpoints):
    """The Ks of the range `spec`, one per checkpoint, counted first."""
    lo, _, hi = spec.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        lo, hi = 0, -1
    if not 0 <= lo <= hi:
        raise ConfigError(f"--k-sweep {spec!r} is not a range lo..hi with "
                          "0 <= lo <= hi, like 0..4")
    if hi - lo + 1 != n_checkpoints:
        raise ConfigError(f"--k-sweep {spec} needs {hi - lo + 1} "
                          f"checkpoints, got {n_checkpoints}")
    return range(lo, hi + 1)


@main.command(name="eval")
@click.option("--data", "data_dir", required=True, type=click.Path())
@click.option("--checkpoint", "checkpoints", multiple=True, required=True,
              help="Repeat for multi-seed aggregation (or one per K with "
                   "--k-sweep).")
@click.option("--k", default=3, show_default=True, type=click.IntRange(min=0))
@click.option("--variant-rule", default="full", show_default=True,
              type=click.Choice(WEIGHTING_RULES))
@click.option("--seeds", default=None,
              help="Comma-separated labels matching --checkpoint order.")
@click.option("--k-sweep", "k_sweep_spec", default=None,
              help="Range like 0..4; expects one checkpoint per K.")
@click.option("--synonyms", "synonyms_json", default=None,
              help="JSON list of task synonym groups.")
@click.option("--out", default=None, type=click.Path(),
              help="Report path (per-seed suffixes added).")
@_run
def eval_cmd(data_dir, checkpoints, k, variant_rule, seeds, k_sweep_spec,
             synonyms_json, out):
    """Evaluate checkpoints; emits per-seed EvalReports plus an aggregate."""
    test_scenes, memory = _load_dataset(data_dir, "test")
    synonyms = _synonyms_option(synonyms_json)

    if k_sweep_spec:
        if seeds is not None:
            raise ConfigError("--seeds does not apply to --k-sweep")
        rows = []
        for kk, ck in zip(_parse_k_sweep(k_sweep_spec, len(checkpoints)),
                          checkpoints):
            params, cfg = load_checkpoint(ck)
            report = evaluation.evaluate(params, cfg, test_scenes, memory, kk,
                                         synonyms=synonyms,
                                         weighting=variant_rule)
            rows.append((kk, report.overall))
        for kk, value in rows:
            click.echo(f"K={kk}\tMAE={value:.3f} deg")
        if out:
            evaluation.save_sweep(rows, out)
        return

    labels = ([s.strip() for s in seeds.split(",")] if seeds is not None
              else [str(i) for i in range(len(checkpoints))])
    # A label becomes part of a report's file name: keep it one plain name.
    if not (len(set(labels)) == len(labels) == len(checkpoints) and all(
            re.fullmatch(r"[A-Za-z0-9_.-]+", s) and s.strip(".")
            for s in labels)):
        raise ConfigError("--seeds needs one distinct label per --checkpoint, "
                          "made of letters, digits, '_', '-' and '.' and not "
                          f"only dots, got {labels}")

    overalls = []
    for label, ck_path in zip(labels, checkpoints):
        params, cfg = load_checkpoint(ck_path)
        report = evaluation.evaluate(
            params, cfg, test_scenes, memory, k, synonyms=synonyms,
            weighting=variant_rule,
            metadata={"seed": label, "checkpoint": ck_path,
                      "variant_rule": variant_rule})
        overalls.append(report.overall)
        click.echo(f"seed {label}: overall MAE {report.overall:.3f} deg "
                   f"({json.dumps(report.per_task)})")
        if out:
            path = out if len(checkpoints) == 1 else f"{out}.seed{label}.json"
            report.save(path)
    aggregate = float(np.mean(overalls))
    click.echo(f"aggregate MAE over {len(overalls)} seed(s): "
               f"{aggregate:.3f} deg")
    if out and len(checkpoints) > 1:
        with open(f"{out}.aggregate.json", "w") as fh:
            json.dump({"k": k, "variant_rule": variant_rule,
                       "per_seed": dict(zip(labels, overalls)),
                       "aggregate": aggregate}, fh, indent=2)


# ---------------------------------------------------------------------------
# predict


@main.command()
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--scene", "scene_path", required=True, type=click.Path())
@click.option("--index", default=0, show_default=True, type=int,
              help="Scene index within the store.")
@click.option("--memory", "memory_path", required=True, type=click.Path())
@click.option("--k", default=3, show_default=True, type=click.IntRange(min=0))
@click.option("--variant-rule", default="full", show_default=True,
              type=click.Choice(WEIGHTING_RULES))
@click.option("--lift", "do_lift", is_flag=True)
@click.option("--synonyms", "synonyms_json", default=None)
@_run
def predict(checkpoint, scene_path, index, memory_path, k, variant_rule,
            do_lift, synonyms_json):
    """End-to-end prediction for one scene: contact, direction, optional 3D."""
    params, cfg = load_checkpoint(checkpoint)
    scenes, _ = synthgen.load_scenes(scene_path)
    if not 0 <= index < len(scenes):
        raise ConfigError(f"scene index {index} outside [0, {len(scenes)})")
    scene = scenes[index]
    memory = load_memory(memory_path)
    synonyms = _synonyms_option(synonyms_json)

    contact, raw, unit = evaluation.answer(params, cfg, scene, memory, k,
                                           synonyms, weighting=variant_rule)

    result = {"scene_id": scene.scene_id, "task": scene.task,
              "contact_px": list(contact) if contact else None,
              "direction_raw": [float(raw[0]), float(raw[1])],
              "direction": list(map(float, unit)) if unit is not None else None,
              "degenerate": unit is None}
    if do_lift:
        if contact is None:
            raise ConfigError("--lift needs a contact point (empty retrieval)")
        if unit is None:
            raise NumericError("degenerate direction prediction; cannot lift")
        aff3d = lift_affordance(
            Affordance2D(contact=(float(contact[0]), float(contact[1])),
                         direction=(float(unit[0]), float(unit[1]))),
            scene.depth, scene.intrinsics)
        result["contact_3d"] = list(aff3d.contact)
        result["direction_3d"] = list(aff3d.direction)

    click.echo(json.dumps(result))
    click.echo(f"# scene {scene.scene_id}: contact {result['contact_px']}, "
               f"direction {result['direction']}", err=True)


if __name__ == "__main__":
    main()
