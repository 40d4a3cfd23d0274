"""The shared store format: exact bytes, a typed error with a line number
for each corrupt memory, scene or checkpoint file, and a fuzz test."""

import base64
import json
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from affkit import store
from affkit.autodiff import Tensor
from affkit.cli import main
from affkit.errors import AffkitError, ParseError, SchemaError
from affkit.lifting import Intrinsics
from affkit.memory import (Affordance2D, Memory, MemoryEntry, build_memory,
                           load_memory, save_memory)
from affkit.model import (ModelConfig, init_model, load_checkpoint,
                          save_checkpoint)
from affkit.synthgen import Scene, get_variant, load_scenes, save_scenes

# Built from exact binary fractions, so the bytes do not depend on the
# platform's RNG or transcendental functions.
IMAGE = np.arange(16, dtype=np.float64).reshape(2, 2, 4) / 8
GOLDEN_MEMORY = (
    '{"format": "affkit-memory", "version": 1, "d_emb": 3, "count": 1, '
    '"image_encoding": "base64/float64-le"}\n'
    '{"task": "open", "h": 2, "w": 2, "c": 4, "image": "AAAAAAAAAAAAAAAAAADAPwA'
    'AAAAAANA/AAAAAAAA2D8AAAAAAADgPwAAAAAAAOQ/AAAAAAAA6D8AAAAAAADsPwAAAAAAAPA/A'
    'AAAAAAA8j8AAAAAAAD0PwAAAAAAAPY/AAAAAAAA+D8AAAAAAAD6PwAAAAAAAPw/AAAAAAAA/j8'
    '=", "embedding": [0.0, 0.5, 1.0], "contact": [1.0, 0.0], "direction": [0.6'
    ', -0.8], "source_id": "open-0"}\n')
GOLDEN_SCENES = (
    '{"format": "affkit-scenes", "version": 1, "count": 1, "variant": {"name": '
    '"noisy", "noise_std": 0.05, "ambiguous": false}}\n'
    '{"scene_id": "open-0", "task": "open", "h": 2, "w": 2, "c": 4, "image": "A'
    'AAAAAAAAAAAAAAAAADAPwAAAAAAANA/AAAAAAAA2D8AAAAAAADgPwAAAAAAAOQ/AAAAAAAA6D8'
    'AAAAAAADsPwAAAAAAAPA/AAAAAAAA8j8AAAAAAAD0PwAAAAAAAPY/AAAAAAAA+D8AAAAAAAD6P'
    'wAAAAAAAPw/AAAAAAAA/j8=", "memory_image": "AAAAAAAA8D8AAAAAAADyPwAAAAAAAPQ'
    '/AAAAAAAA9j8AAAAAAAD4PwAAAAAAAPo/AAAAAAAA/D8AAAAAAAD+PwAAAAAAAABAAAAAAAAAA'
    'UAAAAAAAAACQAAAAAAAAANAAAAAAAAABEAAAAAAAAAFQAAAAAAAAAZAAAAAAAAAB0A=", "dep'
    'th": "AAAAAAAA4D8AAAAAAAD4PwAAAAAAAARAAAAAAAAADEA=", "intrinsics": {"fx": '
    '2.5, "fy": 2.5, "cx": 0.5, "cy": 0.5}, "contact": [1.0, 0.0], "direction"'
    ': [0.6, -0.8], "embedding": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2'
    '.0, 2.25, 2.5, 2.75]}\n')
GOLDEN_CHECKPOINT = (
    '{"format": "affkit-checkpoint", "version": 1, "config": {"d": 4, "patch_si'
    'ze": 4, "image_h": 48, "image_w": 48, "channels": 4, "n_layers": 6, "n_hea'
    'ds": 2, "d_ff": 256, "k_max": 4, "film_hidden": 32, "gate_hidden": 32}}\n'
    '{"name": "enc.b", "shape": [2], "data": "AAAAAAAA4L8AAAAAAADgPw=="}\n')

TINY = ModelConfig(d=4, patch_size=2, image_h=2, image_w=2, channels=4,
                   n_layers=1, n_heads=2, d_ff=4, k_max=2, film_hidden=2,
                   gate_hidden=2)


def _scene(i, direction=(0.6, -0.8)):
    return Scene(scene_id=f"open-{i}", task="open", image=IMAGE + i,
                 memory_image=IMAGE + i + 1,
                 depth=np.arange(4, dtype=np.float64).reshape(2, 2) + 0.5,
                 intrinsics=Intrinsics(fx=2.5, fy=2.5, cx=0.5, cy=0.5),
                 contact=(1.0, 0.0), direction=direction,
                 embedding=np.arange(12, dtype=np.float64) / 4 + i)


def test_golden_bytes(tmp_path):
    memory = Memory(entries=[MemoryEntry(
        image=IMAGE, embedding=np.arange(3, dtype=np.float64) / 2,
        task="open", source_id="open-0",
        affordance=Affordance2D(contact=(1.0, 0.0), direction=(0.6, -0.8)))],
        d_emb=3)
    save_memory(memory, tmp_path / "m")
    assert (tmp_path / "m").read_text() == GOLDEN_MEMORY
    save_scenes([_scene(0)], get_variant("noisy"), tmp_path / "s")
    assert (tmp_path / "s").read_text() == GOLDEN_SCENES
    save_checkpoint({"enc.b": Tensor(np.arange(2, dtype=np.float64) - 0.5)},
                    ModelConfig(d=4, n_heads=2), tmp_path / "c")
    assert (tmp_path / "c").read_text() == GOLDEN_CHECKPOINT

    loaded = load_memory(tmp_path / "m").entries[0]
    np.testing.assert_array_equal(loaded.image, IMAGE)
    assert loaded.affordance == memory.entries[0].affordance
    (scene,), variant = load_scenes(tmp_path / "s")
    assert variant == get_variant("noisy")
    np.testing.assert_array_equal(scene.memory_image, IMAGE + 1)
    assert scene.direction == (0.6, -0.8) and scene.intrinsics.fx == 2.5


# ---------------------------------------------------------------------------
# corrupt stores: each must raise a ParseError or SchemaError naming its line


def _write_stores(directory):
    """A consistent memory, scene store and checkpoint for `affkit predict`."""
    scenes = [_scene(i) for i in range(2)]
    paths = {name: directory / name for name in ("memory", "scenes", "ckpt")}
    save_scenes(scenes, get_variant("noiseless"), paths["scenes"])
    save_memory(build_memory([
        (s.memory_image, s.embedding, s.task,
         Affordance2D(contact=s.contact, direction=s.direction),
         f"ref-{s.scene_id}") for s in scenes]), paths["memory"])
    save_checkpoint(init_model(TINY), TINY, paths["ckpt"])
    return paths


@pytest.fixture
def stores(tmp_path):
    return _write_stores(tmp_path)


def _edit(path, edit):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    edit(lines)
    path.write_bytes(b"".join(
        (line if isinstance(line, bytes) else json.dumps(line).encode())
        + b"\n" for line in lines))


def _set(i, key, value):
    return lambda lines: lines[i].__setitem__(key, value)


def _drop(i, key):
    return lambda lines: lines[i].pop(key)


def _raw(i, text):
    return lambda lines: lines.__setitem__(i, text)


def _delete(i):
    return lambda lines: lines.pop(i)


def _duplicate(i):
    return lambda lines: lines.insert(i, lines[i])


def _nested(i, key, **changes):
    def edit(lines):
        lines[i][key] = {k: v for k, v in {**lines[i][key], **changes}.items()
                         if v is not None}
    return edit


def _resized(i, h, w):
    """Record i's image, memory image and depth replaced by h x w zeros."""
    def edit(lines):
        c = lines[i]["c"]
        lines[i].update(h=h, w=w, depth=store.encode(np.zeros((h, w))), **{
            key: store.encode(np.zeros((h, w, c)))
            for key in ("image", "memory_image")})
    return edit


def _nan_payload(i, key):
    """Sets the first value of record i's base64 payload `key` to NaN."""
    def edit(lines):
        arr = np.frombuffer(base64.b64decode(lines[i][key]), dtype="<f8").copy()
        arr[0] = np.nan
        lines[i][key] = base64.b64encode(arr.tobytes()).decode("ascii")
    return edit


SEVEN_BYTES = base64.b64encode(b"\0" * 7).decode("ascii")
NAN, INF = float("nan"), float("inf")  # json writes them as NaN, Infinity

COMMON_CASES = [  # (id, edit, line of the error)
    ("header-not-dict", _raw(0, b"[1]"), 1),
    ("header-not-json", _raw(0, b"{"), 1),
    ("version-99", _set(0, "version", 99), 1),
    ("record-not-dict", _raw(1, b"[1]"), 2),
    ("record-not-json", _raw(2, b'{"a": '), 3),
    ("record-not-utf8", _raw(1, b'{"task": "\xff"}'), 2),
]
STORE_CASES = COMMON_CASES + [
    ("count-too-high", _set(0, "count", 3), 1),
    ("count-missing", _drop(0, "count"), 1),
    ("record-missing", _delete(2), 1),
    ("image-missing", _drop(1, "image"), 2),
    ("task-missing", _drop(2, "task"), 3),
    ("payload-7-bytes", _set(1, "image", SEVEN_BYTES), 2),
    ("payload-not-base64", _set(1, "image", "!!!!"), 2),
    ("shape-wrong", _set(1, "h", 3), 2),
    ("shape-negative", _set(1, "h", -2), 2),
    ("shape-not-int", _set(1, "c", 4.0), 2),
    ("direction-not-unit", _set(1, "direction", [3.0, 0.0]), 2),
    ("direction-3-coords", _set(1, "direction", [0.6, -0.8, 0.0]), 2),
    ("contact-1-coord", _set(1, "contact", [1.0]), 2),
    ("contact-not-numbers", _set(1, "contact", ["a", "b"]), 2),
    ("embedding-1-element", _set(1, "embedding", [0.5]), 2),
    ("contact-nan", _set(1, "contact", [NAN, 0.0]), 2),
    ("contact-inf", _set(1, "contact", [1.0, -INF]), 2),
    ("direction-nan", _set(1, "direction", [NAN, NAN]), 2),
    ("direction-inf", _set(1, "direction", [INF, 0.0]), 2),
    ("embedding-nan", _set(1, "embedding", [NAN] + [0.0] * 11), 2),
    ("embedding-inf", _set(1, "embedding", [0.0] * 11 + [INF]), 2),
]
MEMORY_CASES = STORE_CASES + [
    ("d_emb-missing", _drop(0, "d_emb"), 1),
    ("encoding-other", _set(0, "image_encoding", "base64/float32-le"), 1),
    ("source_id-not-str", _set(1, "source_id", 7), 2),
]
SCENE_CASES = STORE_CASES + [
    ("variant-missing", _drop(0, "variant"), 1),
    ("variant-unknown-key", _nested(0, "variant", colour="red"), 1),
    ("variant-missing-key", _nested(0, "variant", ambiguous=None), 1),
    ("variant-not-dict", _set(0, "variant", [1]), 1),
    ("scene_id-missing", _drop(1, "scene_id"), 2),
    ("depth-7-bytes", _set(1, "depth", SEVEN_BYTES), 2),
    ("intrinsics-missing", _drop(1, "intrinsics"), 2),
    ("intrinsics-unknown-key", _nested(1, "intrinsics", skew=0.0), 2),
    ("intrinsics-not-number", _nested(1, "intrinsics", fx="2.5"), 2),
    ("intrinsics-nan", _nested(1, "intrinsics", fx=NAN), 2),
    ("intrinsics-inf", _nested(1, "intrinsics", cx=INF), 2),
    ("intrinsics-zero-fx", _nested(1, "intrinsics", fx=0.0), 2),
    ("image-size-of-other-scene", _resized(2, 4, 4), 3),
]
CHECKPOINT_CASES = COMMON_CASES + [
    ("parameter-missing", _delete(3), None),
    ("parameter-repeated", _duplicate(3), 5),
    ("parameter-unknown", _set(3, "name", "nope"), 4),
    ("shape-wrong", _set(3, "shape", [99]), 4),
    ("shape-missing", _drop(3, "shape"), 4),
    ("data-missing", _drop(3, "data"), 4),
    ("payload-7-bytes", _set(3, "data", SEVEN_BYTES), 4),
    ("parameter-nan", _nan_payload(3, "data"), 4),
    ("config-missing", _drop(0, "config"), 1),
    ("config-unknown-key", _nested(0, "config", width=3), 1),
    ("config-missing-key", _nested(0, "config", k_max=None), 1),
    # The config of a checkpoint written before these two keys were removed.
    ("config-removed-key",
     _nested(0, "config", attn_mode="logit_bias", eps=1e-08), 1),
    ("config-mistyped", _nested(0, "config", d="4"), 1),
]


def _check(stores, name, edit, line, loader):
    _edit(stores[name], edit)
    with pytest.raises((ParseError, SchemaError)) as exc:
        loader(stores[name])
    assert getattr(exc.value, "line", None) == line
    result = CliRunner().invoke(main, [
        "predict", "--checkpoint", str(stores["ckpt"]),
        "--scene", str(stores["scenes"]), "--memory", str(stores["memory"])])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output


def test_untouched_stores_predict(stores):
    result = CliRunner().invoke(main, [
        "predict", "--checkpoint", str(stores["ckpt"]),
        "--scene", str(stores["scenes"]), "--memory", str(stores["memory"])])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("edit,line", [c[1:] for c in MEMORY_CASES],
                         ids=[c[0] for c in MEMORY_CASES])
def test_corrupt_memory_store(stores, edit, line):
    _check(stores, "memory", edit, line, load_memory)


@pytest.mark.parametrize("edit,line", [c[1:] for c in SCENE_CASES],
                         ids=[c[0] for c in SCENE_CASES])
def test_corrupt_scene_store(stores, edit, line):
    _check(stores, "scenes", edit, line, load_scenes)


@pytest.mark.parametrize("edit,line", [c[1:] for c in CHECKPOINT_CASES],
                         ids=[c[0] for c in CHECKPOINT_CASES])
def test_corrupt_checkpoint(stores, edit, line):
    _check(stores, "ckpt", edit, line, load_checkpoint)


def test_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    for loader in (load_memory, load_scenes, load_checkpoint):
        with pytest.raises(ParseError) as exc:
            loader(path)
        assert exc.value.line == 1


# ---------------------------------------------------------------------------
# fuzz: every damaged file loads or raises an AffkitError, nothing else


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    paths = _write_stores(tmp_path_factory.mktemp("pristine"))
    return [(loader, paths[name].read_bytes()) for name, loader in (
        ("memory", load_memory), ("scenes", load_scenes),
        ("ckpt", load_checkpoint))]


def _drop_field(data, pick):
    lines = data.splitlines(keepends=True)
    i = pick(len(lines))
    rec = json.loads(lines[i])
    rec.pop(sorted(rec)[pick(len(rec))])
    lines[i] = (json.dumps(rec) + "\n").encode()
    return b"".join(lines)


def _bump_version(data, version):
    first, _, rest = data.partition(b"\n")
    header = json.loads(first)
    header["version"] = version
    return json.dumps(header).encode() + b"\n" + rest


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_store_never_escapes_untyped(pristine, data):
    loader, good = data.draw(st.sampled_from(pristine))
    kind = data.draw(st.sampled_from(["truncate", "drop", "version", "flip"]))
    pick = lambda n: data.draw(st.integers(0, n - 1))  # noqa: E731
    if kind == "truncate":  # keep at least the final newline off
        bad = good[:pick(len(good) - 1)]
    elif kind == "drop":
        bad = _drop_field(good, pick)
    elif kind == "version":
        bad = _bump_version(good, data.draw(st.integers().filter(
            lambda v: v != 1)))
    else:
        i = pick(len(good))
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != good[i]))
        bad = good[:i] + bytes([byte]) + good[i + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store")
        with open(path, "wb") as fh:
            fh.write(bad)
        try:
            loader(path)
        except AffkitError:
            return
    assert kind == "flip", f"{kind} damage loaded without an error"
