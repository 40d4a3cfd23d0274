"""Alignment model: encoder, FiLM, gating, dual weights, attention, head."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import affkit.autodiff as ad
import affkit.model as model
from affkit.autodiff import Tensor
from affkit.errors import ConfigError, ContractError, NumericError
from affkit.model import (ModelConfig, add_ref_id, direction_loss,
                          dual_weights, encode_patches, film_modulate,
                          film_params, forward_direction, gate,
                          gated_cross_attention, global_pool, init_model,
                          load_checkpoint, param_specs, predict_direction,
                          save_checkpoint)
from support import finite_diff_check, softmax, transpose

TINY = ModelConfig(d=8, patch_size=4, image_h=8, image_w=8, channels=4,
                   n_layers=1, n_heads=2, d_ff=16, k_max=4,
                   film_hidden=8, gate_hidden=8)


@pytest.fixture(scope="module")
def tiny():
    return init_model(TINY, seed=0), TINY


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _refs(rng, cfg, k):
    """One query's reference arrays: images (K, H, W, C), unit directions
    (K, 2) and similarities (K,)."""
    images = rng.normal(size=(k, cfg.image_h, cfg.image_w, cfg.channels))
    dirs = rng.normal(size=(k, 2))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    sims = rng.uniform(-1, 1, size=k)
    return images, dirs, sims


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=10, n_heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(n_layers=0)
    with pytest.raises(ConfigError):
        ModelConfig(image_h=50, patch_size=4)


def test_param_count_is_function_of_config():
    a = init_model(TINY, seed=0)
    b = init_model(TINY, seed=99)
    assert {k: v.shape for k, v in a.items()} == {k: v.shape for k, v in b.items()}


@pytest.mark.parametrize("cfg,count,digest", [
    (ModelConfig(), 102,
     "49935ee25396054f2323eb763e13e1c8c750b845778e28f4050b106d2c93b1c1"),
    (ModelConfig(d=8, n_layers=1, n_heads=2, d_ff=16), 37,
     "4b1f7ed4e7ac7ea597d2eafe53cb914bcd6716a1d3b3dd81d4f32951ab46fcf2")],
    ids=["default", "small"])
def test_param_specs_layout_pinned(cfg, count, digest):
    """`init_model` draws in `param_specs` order, so a reordered, renamed,
    reshaped or re-initialised entry changes every trained model; the
    sha256 of the (name, shape, init) list's repr pins it."""
    specs = list(param_specs(cfg))
    assert len(specs) == count
    assert hashlib.sha256(repr(specs).encode()).hexdigest() == digest, specs


# ---------------------------------------------------------------------------
# encode_patches


def test_patch_count_12x12():
    cfg = ModelConfig(d=8, patch_size=4, image_h=12, image_w=12, channels=4,
                      n_layers=1, n_heads=2, d_ff=16)
    params = init_model(cfg, seed=0)
    out = encode_patches(params, cfg, np.zeros((1, 12, 12, 4)))
    assert out.shape == (1, 9, 8)


def test_zero_image_zero_pos_gives_bias_rows():
    params, cfg = init_model(TINY, seed=1), TINY
    params["enc.pos"].data[:] = 0.0
    params["enc.b"].data[:] = np.arange(cfg.d, dtype=np.float64)
    out = encode_patches(params, cfg, np.zeros((1, cfg.image_h, cfg.image_w,
                                                cfg.channels)))
    np.testing.assert_array_equal(
        out.data, np.broadcast_to(np.arange(cfg.d), (1, cfg.n_patches, cfg.d)))


@pytest.mark.parametrize("h,w,p", [(8, 8, 4), (12, 8, 4), (16, 24, 8), (6, 6, 2)])
def test_token_count_formula(h, w, p):
    cfg = ModelConfig(d=8, patch_size=p, image_h=h, image_w=w, channels=2,
                      n_layers=1, n_heads=2, d_ff=16)
    params = init_model(cfg, seed=0)
    out = encode_patches(params, cfg, np.zeros((2, h, w, 2)))
    assert out.shape == (2, (h // p) * (w // p), 8)


def test_indivisible_image_rejected():
    params, cfg = init_model(TINY, seed=0), TINY
    with pytest.raises(ContractError):
        encode_patches(params, cfg, np.zeros((1, 9, 8, 4)))


def test_image_shape_other_than_config_rejected():
    # 12x8 images cut into as many 4x4 patches as the 8x12 model expects,
    # but on the wrong grid: the shape, not the patch count, must match.
    cfg = ModelConfig(d=8, patch_size=4, image_h=8, image_w=12, channels=4,
                      n_layers=1, n_heads=2, d_ff=16)
    params = init_model(cfg, seed=0)
    with pytest.raises(ContractError, match=r"\(12, 8, 4\).*\(8, 12, 4\)"):
        encode_patches(params, cfg, np.zeros((1, 12, 8, 4)))
    images, dirs, sims = _refs(np.random.default_rng(0), cfg, 2)
    with pytest.raises(ContractError):
        forward_direction(params, cfg, np.zeros((1, 8, 12, 4)),
                          np.swapaxes(images, 1, 2)[None], dirs[None],
                          sims[None])


# ---------------------------------------------------------------------------
# FiLM


def test_film_identity_at_init(tiny):
    params, cfg = tiny
    # film.w2 and biases start at zero, so gamma=1 and beta=0 exactly.
    gamma, beta = film_params(params, np.array([[0.6, 0.8]]))
    np.testing.assert_array_equal(gamma.data, np.ones((1, cfg.d)))
    np.testing.assert_array_equal(beta.data, np.zeros((1, cfg.d)))
    feats = Tensor(np.random.default_rng(0).normal(size=(1, 3, cfg.d)))
    out = film_modulate(feats, gamma, beta)
    np.testing.assert_array_equal(out.data, feats.data)


def test_film_zero_gamma_gives_beta():
    d = 4
    beta = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    gamma = Tensor(np.zeros((1, d)))
    feats = Tensor(np.random.default_rng(1).normal(size=(1, 5, d)))
    out = film_modulate(feats, gamma, beta)
    np.testing.assert_array_equal(out.data,
                                  np.broadcast_to(beta.data, (1, 5, d)))


def test_film_hand_arithmetic():
    gamma = Tensor(np.full((1, 2), 2.0))
    beta = Tensor(np.ones((1, 2)))
    feats = Tensor(np.array([[[1.0, -1.0]]]))
    out = film_modulate(feats, gamma, beta)
    np.testing.assert_array_equal(out.data, [[[3.0, -1.0]]])


# ---------------------------------------------------------------------------
# reference-ID embeddings


def test_add_ref_id_zeroed_is_identity(tiny):
    params, cfg = tiny
    zeroed = dict(params, eref=Tensor(np.zeros_like(params["eref"].data)))
    feats = Tensor(np.random.default_rng(2).normal(size=(1, 2, 3, cfg.d)))
    out = add_ref_id(zeroed, feats)
    np.testing.assert_array_equal(out.data, feats.data)


def test_add_ref_id_distinct_slots_differ(tiny):
    params, cfg = tiny
    out = add_ref_id(params, Tensor(np.zeros((1, 2, 2, cfg.d)))).data
    assert not np.array_equal(out[0, 0], out[0, 1])


def test_add_ref_id_matches_loop_oracle(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(2, 3, 4, cfg.d))
    out = add_ref_id(params, Tensor(feats)).data
    expected = feats.copy()
    for b in range(2):
        for rank in range(3):
            for t in range(4):
                expected[b, rank, t] += params["eref"].data[rank]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_add_ref_id_slot_out_of_range(tiny):
    params, cfg = tiny
    feats = Tensor(np.zeros((1, cfg.k_max + 1, 2, cfg.d)))
    with pytest.raises(ContractError):
        add_ref_id(params, feats)


# ---------------------------------------------------------------------------
# pooling and gate


def test_global_pool_single_token():
    x = np.random.default_rng(4).normal(size=(1, 1, 6))
    np.testing.assert_array_equal(global_pool(Tensor(x)).data, x[:, 0, :])


def test_global_pool_symmetry():
    x = np.random.default_rng(5).normal(size=(1, 1, 6))
    both = np.concatenate([x, -x], axis=1)
    np.testing.assert_allclose(global_pool(Tensor(both)).data,
                               np.zeros((1, 6)), atol=1e-15)


def test_global_pool_matches_loop():
    x = np.random.default_rng(6).normal(size=(2, 3, 5))
    np.testing.assert_allclose(global_pool(Tensor(x)).data,
                               x.sum(axis=1) / 3.0, atol=1e-12)


def test_gate_zero_weights_gives_half(tiny):
    params, cfg = tiny
    saved = {k: params[k].data.copy() for k in
             ("gate.w1", "gate.b1", "gate.w2", "gate.b2")}
    for k in saved:
        params[k].data[:] = 0.0
    out = gate(params, Tensor(np.ones((3, cfg.d))), Tensor(np.ones((3, cfg.d))))
    np.testing.assert_array_equal(out.data, np.full(3, 0.5))
    for k, v in saved.items():
        params[k].data[:] = v


def test_gate_range(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(7)
    out = gate(params, Tensor(rng.normal(size=(10, cfg.d)) * 10),
               Tensor(rng.normal(size=(10, cfg.d)) * 10)).data
    assert ((out > 0) & (out < 1)).all()


def test_gate_matches_hand_forward():
    # 2-neuron hand computation with fixed tiny weights, d=1.
    params = {
        "gate.w1": Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])),
        "gate.b1": Tensor(np.array([0.0, 0.5])),
        "gate.w2": Tensor(np.array([[1.0], [-1.0]])),
        "gate.b2": Tensor(np.array([0.25])),
    }
    z_q, z_r = Tensor(np.array([[2.0]])), Tensor(np.array([[-1.0]]))
    got = float(gate(params, z_q, z_r).data[0])

    from scipy.special import erf
    g = lambda x: x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pre = g(2.0) * 1.0 + g(-1.0 + 0.5) * (-1.0) + 0.25
    expected = 1.0 / (1.0 + np.exp(-pre))
    assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# dual weights


def test_dual_weights_hand_case():
    out = dual_weights(np.array([1.0, 1.0]), np.array([0.8, 0.4]))
    np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-4)


def test_dual_weights_single_reference_close_to_one():
    out = dual_weights(np.array([0.3]), np.array([0.7])).data
    assert abs(out[0] - 1.0) < 1e-6


def test_dual_weights_shift_invariance():
    s = np.array([0.25, -0.5, 0.75])
    w = np.array([0.9, 0.2, 0.6])
    np.testing.assert_array_equal(dual_weights(s, w).data,
                                  dual_weights(s + 100.0, w).data)


def test_dual_weights_sum_property():
    rng = np.random.default_rng(8)
    s = rng.normal(size=4)
    w = rng.uniform(0.01, 0.99, size=4)
    eps = 1e-8
    out = dual_weights(s, w).data
    ex = np.exp(s - s.max())
    soft = ex / ex.sum()
    total = float((soft * w).sum())
    assert out.sum() == pytest.approx(total / (total + eps), abs=1e-12)
    assert (out >= 0).all()


def test_dual_weights_rules():
    s = np.array([0.0, 0.0])
    np.testing.assert_allclose(
        dual_weights(np.zeros(4), np.ones(4), rule="uniform").data,
        np.full(4, 0.25))
    np.testing.assert_allclose(
        dual_weights(s, np.array([0.9, 0.1]), rule="no_gating").data,
        [0.5, 0.5], atol=1e-7)
    # no_similarity ignores s entirely.
    np.testing.assert_allclose(
        dual_weights(np.array([5.0, -5.0]), np.array([0.5, 0.5]),
                     rule="no_similarity").data,
        dual_weights(np.array([0.0, 0.0]), np.array([0.5, 0.5])).data,
        atol=1e-12)
    # full with equal s and equal gates collapses to uniform.
    np.testing.assert_allclose(
        dual_weights(np.array([2.0, 2.0]), np.array([0.3, 0.3])).data,
        [0.5, 0.5], atol=1e-7)


def test_dual_weights_nonfinite_raises():
    with pytest.raises(NumericError):
        dual_weights(np.array([np.inf, 0.0]), np.array([0.5, 0.5]))


def test_dual_weights_unknown_rule():
    with pytest.raises(ConfigError):
        dual_weights(np.zeros(2), np.ones(2), rule="bogus")


@pytest.mark.parametrize("rule", ["full", "no_similarity"])
def test_dual_weights_gate_gradcheck(rule):
    rng = np.random.default_rng(9)
    s = rng.normal(size=(2, 3))
    probe = rng.normal(size=(2, 3))
    params = {"w": Tensor(rng.uniform(0.1, 0.9, size=(2, 3)),
                          requires_grad=True)}

    def fn():
        out = dual_weights(s, params["w"], rule=rule)
        return ad.sum_(ad.mul(out, Tensor(probe)))

    assert finite_diff_check(fn, params, samples_per_param=6) < 1e-6


# ---------------------------------------------------------------------------
# gated cross-attention


def test_one_hot_weight_confines_attention(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(10)
    b, k, n = 1, 3, cfg.n_patches
    f_q = Tensor(0.1 * rng.normal(size=(b, n, cfg.d)))
    refs = Tensor(0.1 * rng.normal(size=(b, k, n, cfg.d)))
    hot = 1
    w = np.zeros((b, k))
    w[:, hot] = 1.0

    full = gated_cross_attention(params, cfg, f_q, refs, Tensor(w)).data
    only = gated_cross_attention(
        params, cfg, f_q,
        Tensor(refs.data[:, hot:hot + 1]), Tensor(np.ones((b, 1)))).data
    np.testing.assert_allclose(full, only, atol=1e-9)


def test_zero_values_give_residual_identity(tiny):
    params, cfg = tiny
    saved = params["xattn.wv"].data.copy()
    saved_b = params["xattn.bo"].data.copy()
    params["xattn.wv"].data[:] = 0.0
    params["xattn.bo"].data[:] = 0.0
    rng = np.random.default_rng(11)
    f_q = Tensor(rng.normal(size=(1, cfg.n_patches, cfg.d)))
    refs = Tensor(rng.normal(size=(1, 2, cfg.n_patches, cfg.d)))
    out = gated_cross_attention(params, cfg, f_q, refs,
                                Tensor(np.full((1, 2), 0.5)))
    np.testing.assert_allclose(out.data, f_q.data, atol=1e-12)
    params["xattn.wv"].data[:] = saved
    params["xattn.bo"].data[:] = saved_b


def test_k0_leaves_query_untouched(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(12)
    img = rng.normal(size=(1, cfg.image_h, cfg.image_w, cfg.channels))
    # The K=0 path must not touch any reference-side parameter: ablate them.
    ablated = {k: Tensor(v.data.copy(), requires_grad=True)
               for k, v in params.items()}
    for name in ("film.w1", "film.b1", "film.w2", "film.b2", "eref",
                 "gate.w1", "gate.b1", "gate.w2", "gate.b2",
                 "xattn.wq", "xattn.wk", "xattn.wv", "xattn.wo", "xattn.bo"):
        ablated[name].data[:] = 999.0
    no_refs = [a[None] for a in _refs(rng, cfg, 0)]
    base = forward_direction(params, cfg, img, *no_refs).data
    np.testing.assert_array_equal(
        forward_direction(ablated, cfg, img, *no_refs).data, base)


def _composed_attention(params, prefix, cfg, q_in, kv_in, logit_bias=None):
    """Multi-head attention built from separate reshape, transpose, matmul
    and softmax tape ops."""
    wq, wk, wv, wo, bo = (params[prefix + name]
                          for name in ("wq", "wk", "wv", "wo", "bo"))
    b, n_q, d = q_in.shape
    m = kv_in.shape[-2]
    h, dh = cfg.n_heads, cfg.d // cfg.n_heads

    def split_heads(x, n):
        return transpose(ad.reshape(x, (b, n, h, dh)), (0, 2, 1, 3))

    q = split_heads(ad.scale(ad.matmul(q_in, wq), 1.0 / np.sqrt(dh)), n_q)
    k = split_heads(ad.matmul(kv_in, wk), m)
    v = split_heads(ad.matmul(kv_in, wv), m)
    logits = ad.matmul(q, transpose(k, (0, 1, 3, 2)))
    if logit_bias is not None:
        logits = ad.add(logits, ad.reshape(logit_bias, (b, 1, 1, m)))
    attn = softmax(logits)
    out = transpose(ad.matmul(attn, v), (0, 2, 1, 3))
    out = ad.reshape(out, (b, n_q, d))
    return ad.add(ad.matmul(out, wo), bo)


def test_fused_attention_bitwise_equals_composed_ops(monkeypatch):
    cfg = ModelConfig(d=8, patch_size=4, image_h=8, image_w=12, channels=4,
                      n_layers=2, n_heads=2, d_ff=16, film_hidden=8,
                      gate_hidden=8)
    rng = np.random.default_rng(20)
    query = rng.normal(size=(3, cfg.image_h, cfg.image_w, cfg.channels))
    images = rng.normal(size=(3, 2, cfg.image_h, cfg.image_w, cfg.channels))
    dirs = rng.normal(size=(3, 2, 2))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    sims = rng.uniform(-1, 1, size=(3, 2))
    targets = rng.normal(size=(3, 2))

    def run():
        params = init_model(cfg, seed=4)
        pred = forward_direction(params, cfg, query, images, dirs, sims)
        ad.backward(direction_loss(pred, targets))
        return pred.data, {n: p.grad for n, p in params.items()}

    fused, fused_grads = run()
    monkeypatch.setattr(model, "_multi_head_attention", _composed_attention)
    composed, composed_grads = run()
    np.testing.assert_array_equal(fused, composed)
    for name, grad in composed_grads.items():
        np.testing.assert_array_equal(fused_grads[name], grad, err_msg=name)


# ---------------------------------------------------------------------------
# predict_direction


def test_predict_matches_forward_and_builds_no_tape(tiny, monkeypatch):
    params, cfg = tiny
    rng = np.random.default_rng(21)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    refs = _refs(rng, cfg, 3)
    expected = forward_direction(
        params, cfg, img[None], *(a[None] for a in refs)).data[0]
    outputs = []

    def recording(*args, **kwargs):
        outputs.append(forward_direction(*args, **kwargs))
        return outputs[-1]

    nodes = []

    class RecordedNode(ad._Node):
        __slots__ = ()

        def __init__(self, *args):
            nodes.append(args)
            super().__init__(*args)

    monkeypatch.setattr(model, "forward_direction", recording)
    monkeypatch.setattr(ad, "_Node", RecordedNode)
    raw, _ = predict_direction(params, cfg, img, *refs)
    np.testing.assert_array_equal(raw, expected)
    assert outputs[0]._node is None and not nodes
    assert all(p.grad is None for p in params.values())


@pytest.fixture(scope="module")
def default_model():
    cfg = ModelConfig()
    return init_model(cfg, seed=0), cfg


@pytest.mark.parametrize("rule", model.WEIGHTING_RULES)
@pytest.mark.parametrize("k", [0, 3])
def test_predict_bitwise_equals_taped_forward_at_default_config(
        default_model, k, rule):
    """The tape-free pass, which runs the last block for two token rows,
    gives the bits of the taped pass, which runs it for all of them."""
    params, cfg = default_model
    rng = np.random.default_rng(22 + k)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    refs = _refs(rng, cfg, k)
    taped = forward_direction(params, cfg, img[None],
                              *(a[None] for a in refs), weighting=rule)
    assert taped._node is not None
    raw, _ = predict_direction(params, cfg, img, *refs, weighting=rule)
    np.testing.assert_array_equal(raw, taped.data[0])


def test_last_block_attends_from_two_rows_only_off_the_tape(
        default_model, monkeypatch):
    params, cfg = default_model
    rng = np.random.default_rng(23)
    img = rng.normal(size=(1, cfg.image_h, cfg.image_w, cfg.channels))
    refs = [a[None] for a in _refs(rng, cfg, 3)]
    q_shapes = []
    attention = ad.attention

    def recording(q, *args, **kwargs):
        q_shapes.append(q.shape)
        return attention(q, *args, **kwargs)

    monkeypatch.setattr(ad, "attention", recording)
    tokens = cfg.n_patches + 1
    forward_direction(params, cfg, img, *refs)
    # Cross-attention, then one self-attention per block.
    assert q_shapes == ([(1, cfg.n_patches, cfg.d)]
                        + [(1, tokens, cfg.d)] * cfg.n_layers)
    q_shapes.clear()
    forward_direction(model.detach(params), cfg, img, *refs)
    assert q_shapes == ([(1, cfg.n_patches, cfg.d)]
                        + [(1, tokens, cfg.d)] * (cfg.n_layers - 1)
                        + [(1, 2, cfg.d)])


def test_predict_shape_and_unit_norm(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(14)
    raw, unit = predict_direction(
        params, cfg, rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels)),
        *_refs(rng, cfg, 3))
    assert raw.shape == (2,)
    assert abs(np.linalg.norm(unit) - 1.0) < 1e-12


@pytest.mark.parametrize("b2", [[1e200, 0.0], [np.inf, 0.0], [np.nan, 0.0]])
def test_predict_nonfinite_norm_raises(tiny, b2):
    """A raw prediction whose norm overflows or is NaN has no unit vector."""
    params, cfg = tiny
    params = dict(params, **{"head.b2": Tensor(np.array(b2))})
    rng = np.random.default_rng(14)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    with pytest.raises(NumericError, match="norm"):
        predict_direction(params, cfg, img, *_refs(rng, cfg, 3))


def test_predict_deterministic(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(15)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    refs = _refs(rng, cfg, 2)
    a, _ = predict_direction(params, cfg, img, *refs)
    b, _ = predict_direction(params, cfg, img, *refs)
    np.testing.assert_array_equal(a, b)


def test_predict_permutation_invariant_without_rank_ids(tiny):
    """With eref zeroed, permuting the references with their similarities
    leaves the prediction unchanged: the rank embedding is the only part of
    the model that depends on reference order."""
    params, cfg = tiny
    zeroed = dict(params, eref=Tensor(np.zeros_like(params["eref"].data)))
    rng = np.random.default_rng(16)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    refs = _refs(rng, cfg, 3)
    base, _ = predict_direction(zeroed, cfg, img, *refs)
    permuted, _ = predict_direction(zeroed, cfg, img,
                                    *(a[[2, 0, 1]] for a in refs))
    np.testing.assert_allclose(permuted, base, atol=1e-9)
    ranked, _ = predict_direction(params, cfg, img,
                                  *(a[[2, 0, 1]] for a in refs))
    assert not np.allclose(ranked, base, atol=1e-9)


def test_predict_too_many_refs(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(17)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    with pytest.raises(ContractError):
        predict_direction(params, cfg, img, *_refs(rng, cfg, cfg.k_max + 1))


def test_predict_non_unit_ref_direction(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(18)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    images = rng.normal(size=(1, cfg.image_h, cfg.image_w, cfg.channels))
    with pytest.raises(ContractError):
        predict_direction(params, cfg, img, images, [(1.0, 1.0)], [0.5])
    for direction in ((np.nan, 0.0), (np.nan, np.nan), (np.inf, 0.0)):
        images, dirs, sims = _refs(rng, cfg, 2)
        dirs[1] = direction
        with pytest.raises(ContractError):
            predict_direction(params, cfg, img, images, dirs, sims)


def test_degenerate_prediction_flagged(tiny):
    params, cfg = tiny
    zeroed = {k: Tensor(v.data.copy(), requires_grad=True)
              for k, v in params.items()}
    # Zero head output regardless of input.
    zeroed["head.w2"].data[:] = 0.0
    zeroed["head.b2"].data[:] = 0.0
    rng = np.random.default_rng(19)
    raw, unit = predict_direction(
        zeroed, cfg, rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels)),
        *_refs(rng, cfg, 0))
    assert unit is None and np.linalg.norm(raw) < 1e-12


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_on_match():
    pred = Tensor(np.array([[0.6, 0.8]]))
    assert float(direction_loss(pred, [[0.6, 0.8]]).data) == 0.0


def test_loss_hand_values():
    assert float(direction_loss(Tensor([[1.0, 0.0]]), [[0.0, 1.0]]).data) \
        == pytest.approx(1.0, abs=1e-15)
    assert float(direction_loss(Tensor([[0.6, 0.8]]), [[1.0, 0.0]]).data) \
        == pytest.approx(0.4, abs=1e-15)


def test_loss_is_batch_mean():
    pred = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    gt = [[0.0, 1.0], [0.0, 1.0]]
    assert float(direction_loss(pred, gt).data) == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# full-model gradients and uniform-shift invariance


def test_full_model_gradcheck():
    cfg = ModelConfig(d=8, patch_size=2, image_h=4, image_w=4, channels=2,
                      n_layers=1, n_heads=2, d_ff=16, k_max=2,
                      film_hidden=4, gate_hidden=4)
    params = init_model(cfg, seed=0)
    rng = np.random.default_rng(20)
    img = rng.normal(size=(1, 4, 4, 2))
    refs = rng.normal(size=(1, 2, 4, 4, 2))
    dirs = np.stack([[_unit(rng.normal(size=2)) for _ in range(2)]])
    sims = rng.uniform(-1, 1, size=(1, 2))
    gt = np.array([[0.0, 1.0]])

    def fn():
        pred = forward_direction(params, cfg, img, refs, dirs, sims)
        return direction_loss(pred, gt)

    assert finite_diff_check(fn, params, samples_per_param=2,
                             rng=np.random.default_rng(0)) < 1e-4


def test_similarity_shift_leaves_prediction_unchanged(tiny):
    params, cfg = tiny
    rng = np.random.default_rng(21)
    img = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))
    refs = _refs(rng, cfg, 3)
    images, dirs, sims = refs
    base, _ = predict_direction(params, cfg, img, *refs)
    moved, _ = predict_direction(params, cfg, img, images, dirs, sims + 123.0)
    np.testing.assert_allclose(moved, base, atol=1e-9)


def test_film_identity_feeds_raw_tokens(tiny):
    """With identity FiLM and zero ref-ID embeddings, references enter
    attention exactly as the shared encoder produced them."""
    params, cfg = tiny
    scrubbed = {k: Tensor(v.data.copy(), requires_grad=True)
                for k, v in params.items()}
    scrubbed["eref"].data[:] = 0.0  # film.* already identity at init
    rng = np.random.default_rng(22)
    ref_img = rng.normal(size=(1, cfg.image_h, cfg.image_w, cfg.channels))

    encoded = encode_patches(scrubbed, cfg, ref_img)
    gamma, beta = film_params(scrubbed, np.array([[1.0, 0.0]]))
    conditioned = add_ref_id(
        scrubbed,
        ad.reshape(film_modulate(encoded, gamma, beta),
                   (1, 1, cfg.n_patches, cfg.d)))
    np.testing.assert_array_equal(conditioned.data[0, 0], encoded.data[0])


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, tiny):
    params, cfg = tiny
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, cfg, path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "other"
    path.write_text('{"format": "nope"}\n')
    from affkit.errors import ParseError
    with pytest.raises(ParseError):
        load_checkpoint(path)
