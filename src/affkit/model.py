"""Retrieval-augmented cross-image alignment model for action direction.

Query and reference images are encoded by a shared trainable
patchify-and-project encoder. Reference tokens are FiLM-modulated by
their action vectors and tagged with per-rank ID embeddings; a gated
cross-attention layer fuses them into the query tokens, weighted by the
dual (similarity x learned-gate) scheme; a pre-norm transformer encoder
with a CLS token regresses the raw 2D direction.

The head reads only the CLS row. So when no tape is built (inference),
the last encoder block takes keys and values from every token but runs
its query side (queries, attention rows, output projection, LN2, the
feed-forward and the final norm) for the first two rows only: the CLS
row, plus one because numpy sends a one-row product to BLAS gemv, which
rounds differently from gemm; at two rows every output bit matches the
all-rows block. With the tape on every row is kept, as the backward
pass's products also round differently at fewer rows.
"""

import itertools
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import autodiff as ad
from . import kernels, store
from .autodiff import Tensor
from .errors import (ContractError, DimensionError, NumericError, ParseError,
                     SchemaError, ConfigError)

CHECKPOINT_FORMAT = "affkit-checkpoint"
WEIGHTING_RULES = ("full", "no_gating", "no_similarity", "uniform")
DEGENERATE_NORM = 1e-12
WEIGHT_EPS = 1e-8
TAPE_FREE_ROWS = 2  # query rows of the last block off the tape; see above


@dataclass
class ModelConfig:
    d: int = 64
    patch_size: int = 4
    image_h: int = 48
    image_w: int = 48
    channels: int = 4
    n_layers: int = 6
    n_heads: int = 4
    d_ff: int = 256
    k_max: int = 4
    film_hidden: int = 32
    gate_hidden: int = 32

    def __post_init__(self):
        sizes = {f.name: getattr(self, f.name) for f in fields(self)
                 if f.type is int}
        if min(sizes.values()) < 1:
            raise ConfigError(f"sizes must be >= 1, got {sizes}")
        if self.d % self.n_heads != 0:
            raise ConfigError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ConfigError(
                f"image {self.image_h}x{self.image_w} not divisible by "
                f"patch size {self.patch_size}")

    @property
    def n_patches(self):
        return (self.image_h // self.patch_size) * (self.image_w // self.patch_size)

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * self.channels


def param_specs(cfg):
    """(name, shape, init) of each parameter, in the order `init_model`
    draws them. init is "w" (normal, std 1/sqrt(shape[0]), the fan-in),
    "small" (normal, std 0.02), "zeros" or "ones"."""
    d = cfg.d
    yield "enc.w", (cfg.patch_dim, d), "w"
    yield "enc.b", (d,), "zeros"
    yield "enc.pos", (cfg.n_patches, d), "small"
    # Zero-init so modulation starts at identity (gamma=1, beta=0).
    yield from _mlp_specs("film.", 2, cfg.film_hidden, 2 * d, w2="zeros")
    yield "eref", (cfg.k_max, d), "small"
    yield from _mlp_specs("gate.", 2 * d, cfg.gate_hidden, 1)
    yield "cls", (1, 1, d), "small"
    yield from _mlp_specs("head.", d, d, 2)
    yield "final_ln.g", (d,), "ones"
    yield "final_ln.b", (d,), "zeros"
    for name in ("xattn.wq", "xattn.wk", "xattn.wv", "xattn.wo"):
        yield name, (d, d), "w"
    yield "xattn.bo", (d,), "zeros"
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        yield p + "ln1.g", (d,), "ones"
        yield p + "ln1.b", (d,), "zeros"
        for name in ("wq", "wk", "wv", "wo"):
            yield p + name, (d, d), "w"
        yield p + "bo", (d,), "zeros"
        yield p + "ln2.g", (d,), "ones"
        yield p + "ln2.b", (d,), "zeros"
        yield from _mlp_specs(p + "ff.", d, cfg.d_ff, d)


def _mlp_specs(prefix, d_in, hidden, d_out, w2="w"):
    """Specs of `_mlp`'s parameters; `w2` is the output weight's init."""
    yield prefix + "w1", (d_in, hidden), "w"
    yield prefix + "b1", (hidden,), "zeros"
    yield prefix + "w2", (hidden, d_out), w2
    yield prefix + "b2", (d_out,), "zeros"


def init_model(cfg, seed=0):
    """Freshly initialized parameter dict (name -> requires_grad Tensor)."""
    rng = np.random.default_rng(seed)
    draw = {"w": lambda shape: rng.normal(0.0, 1.0 / np.sqrt(shape[0]),
                                          size=shape),
            "small": lambda shape: rng.normal(0.0, 0.02, size=shape),
            "zeros": np.zeros, "ones": np.ones}
    return {name: Tensor(draw[init](shape), requires_grad=True)
            for name, shape, init in param_specs(cfg)}


# ---------------------------------------------------------------------------
# building blocks


def patchify(images, patch_size):
    """Non-overlapping patches, row-major over the patch grid.

    images: (..., H, W, C) -> (..., N, patch_size^2 * C)
    """
    *lead, h, wd, c = images.shape
    p = patch_size
    x = images.reshape(*lead, h // p, p, wd // p, p, c)
    x = np.moveaxis(x, -4, -3)
    return np.ascontiguousarray(x).reshape(*lead, (h // p) * (wd // p), p * p * c)


def encode_patches(params, cfg, images):
    """Shared patch encoder: project patches to d and add positions. Every
    image enters the model here, so here its (H, W, C) must be the config's."""
    images = np.asarray(images, dtype=np.float64)
    shape = (cfg.image_h, cfg.image_w, cfg.channels)
    if images.shape[-3:] != shape:
        raise ContractError(f"images of shape {images.shape[-3:]} do not fit "
                            f"the model's (H, W, C) {shape}")
    patches = patchify(images, cfg.patch_size)
    tokens = ad.add(ad.matmul(Tensor(patches), params["enc.w"]), params["enc.b"])
    return ad.add(tokens, params["enc.pos"])


def _mlp(params, prefix, x):
    """Two-layer GELU MLP over the last axis, weights under `prefix`."""
    hidden = ad.gelu(ad.add(ad.matmul(x, params[prefix + "w1"]),
                            params[prefix + "b1"]))
    return ad.add(ad.matmul(hidden, params[prefix + "w2"]),
                  params[prefix + "b2"])


def film_params(params, directions):
    """Map unit action vectors (..., 2) to FiLM (gamma, beta), each (..., d)."""
    out = _mlp(params, "film.", directions)
    d = out.shape[-1] // 2
    gamma = ad.add(ad.narrow(out, out.data.ndim - 1, 0, d), 1.0)
    beta = ad.narrow(out, out.data.ndim - 1, d, d)
    return gamma, beta


def film_modulate(feats, gamma, beta):
    """Per-token affine modulation: gamma * F[i] + beta for every token i."""
    nd = feats.data.ndim
    gamma = ad.reshape(gamma, gamma.shape[:-1] + (1, gamma.shape[-1]))
    beta = ad.reshape(beta, beta.shape[:-1] + (1, beta.shape[-1]))
    if gamma.data.ndim != nd:
        raise DimensionError("film_modulate: rank mismatch between feats and params")
    return ad.add(ad.mul(feats, gamma), beta)


def add_ref_id(params, feats):
    """Add rank k's ID embedding to reference k of (B, K, N, d) tokens."""
    k, k_max = feats.shape[1], params["eref"].shape[0]
    if k > k_max:
        raise ContractError(f"{k} references exceed k_max={k_max}")
    rows = ad.narrow(params["eref"], 0, 0, k)
    return ad.add(feats, ad.reshape(rows, (1, k, 1, feats.shape[-1])))


def global_pool(feats):
    """Mean over the token axis (second to last)."""
    return ad.mean(feats, axis=feats.data.ndim - 2)


def gate(params, z_q, z_r):
    """Sigmoid 2-layer MLP on [z_q; z_r] (query first) -> (...,) in (0, 1)."""
    out = _mlp(params, "gate.", ad.concat([z_q, z_r], axis=z_q.data.ndim - 1))
    return ad.reshape(ad.sigmoid(out), out.shape[:-1])


def ablation(variant):
    """Validate a Table-style weighting-rule name and return it."""
    if variant not in WEIGHTING_RULES:
        raise ConfigError(f"unknown ablation variant {variant!r}; "
                          f"choose from {WEIGHTING_RULES}")
    return variant


def dual_weights(sims, gates, rule="full"):
    """Combine similarity softmax with gate values along the last axis.

    full:           softmax(s)_k * w_k / (sum_j softmax(s)_j * w_j + WEIGHT_EPS)
    no_gating:      same with all w_k := 1
    no_similarity:  same with softmax(s) := 1/K
    uniform:        exactly 1/K

    `gates` is an array or a Tensor; the result is a Tensor.
    """
    ablation(rule)
    s = np.asarray(sims, dtype=np.float64)
    if not np.isfinite(s).all():
        raise NumericError("dual_weights: non-finite similarity scores")
    k = s.shape[-1]
    if rule == "uniform":
        return Tensor(np.full(s.shape, 1.0 / k))
    if rule == "no_similarity":
        coef = np.full(s.shape, 1.0 / k)
    else:
        coef = kernels.softmax_rows(s.copy())
    if rule == "no_gating":
        gates = np.ones(s.shape)
    numer = ad.mul(gates, Tensor(coef))
    denom = ad.add(ad.sum_(numer, axis=-1, keepdims=True), WEIGHT_EPS)
    return ad.div(numer, denom)


def _multi_head_attention(params, prefix, cfg, q_in, kv_in, logit_bias=None):
    """Multi-head attention with weights `wq`, `wk`, `wv`, `wo`, `bo` under
    `prefix`; optional additive (b, m) per-key bias."""
    # 1/sqrt(dh) is folded into Q so the scale touches (b, n, d) rather
    # than the much larger (b, h, n, m) logit array.
    q = ad.scale(ad.matmul(q_in, params[prefix + "wq"]),
                 1.0 / np.sqrt(cfg.d // cfg.n_heads))
    k = ad.matmul(kv_in, params[prefix + "wk"])
    v = ad.matmul(kv_in, params[prefix + "wv"])
    out = ad.attention(q, k, v, cfg.n_heads, bias=logit_bias)
    return ad.add(ad.matmul(out, params[prefix + "wo"]), params[prefix + "bo"])


def gated_cross_attention(params, cfg, f_q, ref_tokens, w_final):
    """Fuse reference tokens into the query tokens, residually.

    ref_tokens: Tensor (B, K, N, d); w_final: Tensor (B, K).
    The query attends over the K*N reference tokens at once, and every key
    of reference k inherits log(w_k + 1e-12) as an additive logit bias.
    """
    b, k, n, d = ref_tokens.shape
    f_mem = ad.reshape(ref_tokens, (b, k * n, d))
    bias = ad.log(ad.add(w_final, 1e-12))
    bias = ad.mul(ad.reshape(bias, (b, k, 1)), Tensor(np.ones((1, 1, n))))
    bias = ad.reshape(bias, (b, k * n))
    return ad.add(f_q, _multi_head_attention(params, "xattn.", cfg, f_q,
                                             f_mem, logit_bias=bias))


def _encoder_block(params, prefix, cfg, x, rows=None):
    """Pre-norm block over (B, T, d) tokens. With `rows`, keys and values
    still come from all T tokens, but only the first `rows` token rows are
    attended from and returned, (B, rows, d)."""
    normed = ad.layer_norm(x, params[prefix + "ln1.g"], params[prefix + "ln1.b"])
    q_in = normed
    if rows is not None:
        q_in, x = ad.narrow(normed, 1, 0, rows), ad.narrow(x, 1, 0, rows)
    x = ad.add(x, _multi_head_attention(params, prefix, cfg, q_in, normed))
    normed = ad.layer_norm(x, params[prefix + "ln2.g"], params[prefix + "ln2.b"])
    return ad.add(x, _mlp(params, prefix + "ff.", normed))


def forward_direction(params, cfg, query_images, ref_images, ref_dirs, sims,
                      weighting="full"):
    """Raw (unnormalized) direction predictions, Tensor (B, 2).

    query_images: (B, H, W, C); ref_images: (B, K, H, W, C); ref_dirs:
    (B, K, 2) unit vectors; sims: (B, K). K = 0 is the no-retrieval path.
    """
    b = np.shape(query_images)[0]
    f_q = encode_patches(params, cfg, query_images)

    k = np.shape(ref_images)[1]
    if k:
        ref_dirs = np.asarray(ref_dirs, dtype=np.float64)
        norms = np.linalg.norm(ref_dirs, axis=-1)
        if not np.abs(norms - 1.0).max() <= 1e-6:  # NaN fails too
            raise ContractError("reference action vectors must be unit norm")

        f_r = encode_patches(params, cfg, ref_images)
        gamma, beta = film_params(params, ref_dirs)
        f_r = film_modulate(f_r, gamma, beta)
        f_r = add_ref_id(params, f_r)

        z_q = global_pool(f_q)  # (B, d)
        z_r = global_pool(f_r)  # (B, K, d)
        z_q_rep = ad.add(ad.reshape(z_q, (b, 1, cfg.d)),
                         Tensor(np.zeros((b, k, cfg.d))))
        gates = gate(params, z_q_rep, z_r)  # (B, K)
        w_final = dual_weights(sims, gates, rule=weighting)
        fused = gated_cross_attention(params, cfg, f_q, f_r, w_final)
    else:
        fused = f_q

    cls = ad.add(params["cls"], Tensor(np.zeros((b, 1, cfg.d))))
    x = ad.concat([cls, fused], axis=1)
    for i in range(cfg.n_layers):
        # Off the tape nothing reads the last block's non-CLS rows.
        last = i == cfg.n_layers - 1 and not x.requires_grad
        x = _encoder_block(params, f"layer{i}.", cfg, x,
                           rows=TAPE_FREE_ROWS if last else None)
    x = ad.layer_norm(x, params["final_ln.g"], params["final_ln.b"])
    return _mlp(params, "head.", ad.reshape(ad.narrow(x, 1, 0, 1), (b, cfg.d)))


def detach(params):
    """The parameters as tape-free Tensors over the same arrays.

    A forward pass over the result records no closures or parent links.
    """
    return {name: Tensor(p.data) if p.requires_grad else p
            for name, p in params.items()}


def predict_direction(params, cfg, query_image, ref_images, ref_dirs, sims,
                      weighting="full"):
    """Single-query prediction, on detached parameters (no tape is built).

    References as forward_direction's for one query, (K, ...). Returns
    (raw (2,), unit (2,) or None); unit is None when the raw norm is
    degenerate (< 1e-12), which evaluation scores as a 180-degree error.
    A raw norm that is NaN or overflows is a NumericError.
    """
    # Finite parameters can overflow on the way; the norm check below
    # raises that as a NumericError, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        out = forward_direction(
            detach(params), cfg, np.asarray(query_image)[None],
            np.asarray(ref_images)[None], np.asarray(ref_dirs)[None],
            np.asarray(sims)[None], weighting=weighting)
        raw = out.data[0].copy()
        norm = np.linalg.norm(raw)
    if not np.isfinite(norm):
        raise NumericError(f"direction prediction {raw.tolist()} has norm {norm}")
    unit = raw / norm if norm >= DEGENERATE_NORM else None
    return raw, unit


def direction_loss(pred, targets):
    """Mean over the batch of 0.5 * ||raw - gt||^2 (raw, unnormalized)."""
    # x - y is x + (-y) in IEEE arithmetic, so this is exact.
    diff = ad.add(pred, Tensor(-np.asarray(targets, dtype=np.float64)))
    return ad.scale(ad.sum_(ad.mul(diff, diff)), 0.5 / pred.shape[0])


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params, cfg, path):
    store.save(path, CHECKPOINT_FORMAT, {"config": asdict(cfg)}, (
        {"name": name, "shape": list(params[name].shape),
         "data": store.encode(params[name].data)} for name in sorted(params)))


def load_checkpoint(path):
    """(params, cfg) from a checkpoint that holds each parameter of
    `param_specs(cfg)` once, at its shape. Each payload is decoded at the
    shape its record names and checked against the config only once all
    are read, so no header can make it build more than the file holds."""
    with store.load(path, CHECKPOINT_FORMAT) as (header, records):
        cfg = header.dataclass("config", ModelConfig)
        found = [(rec.line, rec.get("name", str),
                  rec.array("data", rec.get("shape", list)))
                 for rec in records]
        # n_layers is unbounded, so walk the layout no further than the file.
        layout = {name: shape for name, shape, _ in
                  itertools.islice(param_specs(cfg), len(found) + 1)}
        missing = sorted(set(layout) - {name for _, name, _ in found})
        if len(layout) > len(found):
            raise SchemaError(f"checkpoint lacks {missing}")
        params = {}
        for line, name, data in found:
            if name in params or layout.get(name) != data.shape:
                raise ParseError(f"unexpected or repeated parameter {name!r}",
                                 line=line)
            params[name] = Tensor(data, requires_grad=True)
    return {name: params[name] for name in layout}, cfg
