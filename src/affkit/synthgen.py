"""Deterministic synthetic scenes, splits, and benchmark variants.

A scene is a rotated rectangular object with a distinct handle block on
one edge. Channels: object mask, handle signature, cos/sin motion
orientation fields. The same array serves as encoder input and as the
dense correspondence feature map. The "reference-informative" variant
zeroes the orientation channels in the query view and decouples the
motion orientation from the object pose, so direction information is
recoverable only through retrieved references.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import store
from .errors import ConfigError, ParseError
from .lifting import Intrinsics
from .memory import Affordance2D, affordance_from, build_memory

TASKS = ("open", "close", "pickup")
HANDLE_VALUE = 3.0
N_CHANNELS = 4
ORIENT_X_CHANNEL = 2  # holds cos(psi): the x component of a vector field
N_ORIENT_BINS = 8
SCENE_FORMAT = "affkit-scenes"
# Smallest size whose 2x2 handle, placed 0.3 * size - 2 px from a centre
# jittered by up to 3 px, always lies inside the image.
MIN_SIZE = 11


def hflip_image(image):
    """Mirror feature images (..., H, W, C) about the vertical axis.

    The orientation channels store a vector field, so mirroring must also
    negate the field's x component; otherwise flipped samples contradict
    the unflipped ones (same appearance, opposite x label).
    """
    out = image[..., ::-1, :].copy()
    out[..., ORIENT_X_CHANNEL] = -out[..., ORIENT_X_CHANNEL]
    return out


@dataclass(frozen=True)
class BenchmarkVariant:
    name: str
    noise_std: float = 0.0
    ambiguous: bool = False  # zero orientation channels in query views


VARIANT_PRESETS = {
    "noiseless": BenchmarkVariant("noiseless", 0.0, False),
    "noisy": BenchmarkVariant("noisy", 0.05, False),
    "reference-informative": BenchmarkVariant("reference-informative", 0.0, True),
}


def get_variant(name, noise_std=None):
    if name not in VARIANT_PRESETS:
        raise ConfigError(f"unknown variant {name!r}; "
                          f"choose from {sorted(VARIANT_PRESETS)}")
    base = VARIANT_PRESETS[name]
    if noise_std is None:
        return base
    if not 0.0 <= noise_std < np.inf:
        raise ConfigError(f"noise std must be finite and >= 0, got {noise_std}")
    return BenchmarkVariant(base.name, float(noise_std), base.ambiguous)


@dataclass
class Scene:
    scene_id: str
    task: str
    image: np.ndarray  # query view, H x W x C
    memory_image: np.ndarray  # intact channels, used when stored in memory
    depth: np.ndarray  # H x W meters
    intrinsics: Intrinsics
    contact: tuple  # (x, y) pixels
    direction: tuple  # unit (x, y)
    embedding: np.ndarray  # (4 + N_ORIENT_BINS,)


def _rotate(vec, angle):
    c, s = np.cos(angle), np.sin(angle)
    return (c * vec[0] - s * vec[1], s * vec[0] + c * vec[1])


def scene_embedding(channels):
    """Channel means plus an orientation histogram over object pixels."""
    mask = channels[:, :, 0] > 0.5
    if not mask.any():
        return np.zeros(N_CHANNELS + N_ORIENT_BINS)
    means = channels[mask].mean(axis=0)
    angles = np.arctan2(channels[:, :, 3][mask], channels[:, :, 2][mask])
    hist, _ = np.histogram(angles, bins=N_ORIENT_BINS, range=(-np.pi, np.pi))
    hist = hist / mask.sum()
    return np.concatenate([means, hist])


def generate_scene(task, seed, variant, size=48):
    """One synthetic scene; bitwise-reproducible for a given (task, seed).

    Random draws are task-independent, so "close" at a given seed is the
    "open" scene with the direction negated.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    if size < MIN_SIZE:
        raise ConfigError(f"scene size must be >= {MIN_SIZE}, got {size}")
    rng = np.random.default_rng(seed)
    h = w = size
    theta = rng.uniform(0.0, 2.0 * np.pi)
    center = np.array([w / 2.0, h / 2.0]) + rng.uniform(-3.0, 3.0, size=2)
    psi_free = rng.uniform(0.0, 2.0 * np.pi)
    pickup_jitter = rng.uniform(-np.pi / 18.0, np.pi / 18.0)
    noise = rng.normal(0.0, 1.0, size=(h, w, N_CHANNELS))

    # In the reference-informative variant, motion orientation is drawn
    # independently of the pose, so the (later zeroed) query image carries
    # no information about it.
    psi = psi_free if variant.ambiguous else theta

    half_len, half_wid = 0.30 * size, 0.17 * size
    ys, xs = np.mgrid[0:h, 0:w]
    dx, dy = xs - center[0], ys - center[1]
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    mask = (np.abs(u) <= half_len) & (np.abs(v) <= half_wid)

    channels = np.zeros((h, w, N_CHANNELS))
    channels[:, :, 0] = mask
    channels[:, :, 2] = mask * np.cos(psi)
    channels[:, :, 3] = mask * np.sin(psi)

    # Handle: a 2x2 block inset from the edge midpoint along the pose axis.
    hx = center[0] + (half_len - 2.0) * np.cos(theta)
    hy = center[1] + (half_len - 2.0) * np.sin(theta)
    c0, r0 = int(np.floor(hx)), int(np.floor(hy))
    channels[r0:r0 + 2, c0:c0 + 2, 1] = HANDLE_VALUE
    channels[r0:r0 + 2, c0:c0 + 2, 0] = 1.0
    contact = (float(c0), float(r0))

    if task == "open":
        direction = (np.cos(psi), np.sin(psi))
    elif task == "close":
        direction = (-np.cos(psi), -np.sin(psi))
    elif variant.ambiguous:
        direction = _rotate((0.0, -1.0), psi)
    else:
        direction = _rotate((0.0, -1.0), pickup_jitter)

    embedding = scene_embedding(channels)

    memory_image = channels.copy()
    query_image = channels.copy()
    if variant.ambiguous:
        query_image[:, :, 2] = 0.0
        query_image[:, :, 3] = 0.0
    if variant.noise_std > 0.0:
        memory_image = memory_image + variant.noise_std * noise
        query_image = query_image + variant.noise_std * noise

    return Scene(
        scene_id=f"{task}-{seed}",
        task=task,
        image=query_image,
        memory_image=memory_image,
        depth=np.ones((h, w)),
        intrinsics=Intrinsics(fx=1.25 * size, fy=1.25 * size,
                              cx=(w - 1) / 2.0, cy=(h - 1) / 2.0),
        contact=contact,
        direction=(float(direction[0]), float(direction[1])),
        embedding=embedding,
    )


def generate_split(n_train, n_test, tasks, seed, variant, size=48):
    """Disjoint train/test scenes plus a memory built from train scenes only."""
    if n_train < 1 or n_test < 1:
        raise ConfigError("n_train and n_test must be >= 1")
    train, test = [], []
    for t_idx, task in enumerate(tasks):
        base = seed * 1_000_003 + t_idx * 20_011
        for i in range(n_train):
            train.append(generate_scene(task, base + i, variant, size=size))
        for i in range(n_test):
            test.append(generate_scene(task, base + n_train + i, variant,
                                       size=size))
    memory = build_memory([
        (s.memory_image, s.embedding, s.task,
         Affordance2D(contact=s.contact, direction=s.direction), s.scene_id)
        for s in train])
    return train, test, memory


# ---------------------------------------------------------------------------
# scene store


def save_scenes(scenes, variant, path):
    store.save(path, SCENE_FORMAT, {
        "count": len(scenes), "variant": asdict(variant)}, ({
            "scene_id": s.scene_id, "task": s.task, "h": s.image.shape[0],
            "w": s.image.shape[1], "c": s.image.shape[2],
            "image": store.encode(s.image),
            "memory_image": store.encode(s.memory_image),
            "depth": store.encode(s.depth), "intrinsics": asdict(s.intrinsics),
            "contact": list(map(float, s.contact)),
            "direction": list(map(float, s.direction)),
            "embedding": s.embedding.tolist()} for s in scenes))


def _scene(rec):
    shape = (rec.get("h", int), rec.get("w", int), rec.get("c", int))
    aff = affordance_from(rec)
    return Scene(
        scene_id=rec.get("scene_id", str), task=rec.get("task", str),
        image=rec.array("image", shape),
        memory_image=rec.array("memory_image", shape),
        depth=rec.array("depth", shape[:2]),
        intrinsics=rec.dataclass("intrinsics", Intrinsics),
        contact=aff.contact, direction=aff.direction,
        embedding=rec.floats("embedding", shape[2] + N_ORIENT_BINS))


def load_scenes(path):
    """(scenes, variant) of a scene store; its scenes share one image shape."""
    records = store.load(path, SCENE_FORMAT)
    header = next(records)
    header.get("count", int)  # store.load matches it against the records
    variant = header.dataclass("variant", BenchmarkVariant)
    scenes = []
    for rec in records:
        scenes.append(_scene(rec))
        if scenes[-1].image.shape != scenes[0].image.shape:
            raise ParseError(f"image shape {scenes[-1].image.shape} != "
                             f"{scenes[0].image.shape} of the first scene",
                             line=rec.line)
    return scenes, variant
