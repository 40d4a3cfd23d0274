"""Tensor engine: forward values, adjoints, and the finite-difference checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import affkit.autodiff as ad
import affkit.kernels as kernels
from affkit.autodiff import Tensor
from affkit.errors import ContractError, DimensionError, NumericError
from support import finite_diff_check, softmax, transpose


def _param(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    x = np.array([[2.0, -1.0], [0.5, 3.0]])
    out = ad.matmul(Tensor(np.eye(2)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_hand_arithmetic():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_zeros_annihilator():
    rng = np.random.default_rng(0)
    out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(rng.normal(size=(3, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_gradient_rules():
    # d a = g b^T, d b = a^T g with g = ones (loss = sum of the product).
    rng = np.random.default_rng(1)
    a = _param(rng.normal(size=(3, 4)))
    b = _param(rng.normal(size=(4, 2)))
    ad.backward(ad.sum_(ad.matmul(a, b)))
    g = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-12)


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(2)
    params = {"a": _param(rng.normal(size=(2, 3, 4))),
              "b": _param(rng.normal(size=(4, 5)))}

    def fn():
        return ad.sum_(ad.sigmoid(ad.matmul(params["a"], params["b"])))

    assert finite_diff_check(fn, params, samples_per_param=8) < 1e-6


# ---------------------------------------------------------------------------
# elementwise


def test_sigmoid_symmetry_and_saturation():
    assert ad.sigmoid(Tensor(0.0)).data == 0.5
    big = float(ad.sigmoid(Tensor(50.0)).data)
    assert 1.0 - 1e-6 < big <= 1.0
    tiny = float(ad.sigmoid(Tensor(-745.0)).data)  # no overflow on either side
    assert 0.0 <= tiny < 1e-6


def test_add_identity():
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(ad.add(Tensor(x), 0.0).data, x)


def test_add_incompatible_shapes():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


@pytest.mark.parametrize("op,a,b", [
    (ad.sub, (3,), (4,)), (ad.mul, (2, 3), (2,)), (ad.div, (3, 1), (2, 2)),
    (ad.matmul, (3,), (3, 2))])  # matmul needs both operands 2-D or more
def test_shape_errors_name_both_shapes(op, a, b):
    with pytest.raises(DimensionError) as exc:
        op(Tensor(np.zeros(a)), Tensor(np.zeros(b)))
    assert f"{a} and {b}" in str(exc.value)


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_elementwise_broadcast_gradcheck(op):
    rng = np.random.default_rng(3)
    params = {"a": _param(rng.normal(size=(2, 3)) + 3.0),
              "b": _param(rng.normal(size=(1, 3)) + 3.0)}

    def fn():
        return ad.sum_(op(params["a"], params["b"]))

    assert finite_diff_check(fn, params, samples_per_param=6) < 1e-6


@pytest.mark.parametrize("op", [ad.sigmoid, ad.gelu])
def test_unary_gradcheck(op):
    rng = np.random.default_rng(4)
    params = {"x": _param(rng.normal(size=(3, 5)))}

    def fn():
        return ad.sum_(op(params["x"]))

    assert finite_diff_check(fn, params, samples_per_param=10) < 1e-6


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_shift_invariance():
    # Dyadic shifts keep x + c exact, so invariance holds bitwise.
    for c in (-64.0, 0.5, 1024.0):
        np.testing.assert_array_equal(
            softmax(Tensor([c, c + 1.75])).data,
            softmax(Tensor([0.0, 1.75])).data)
    # Non-dyadic shifts are exact up to one rounding of the inputs.
    np.testing.assert_allclose(softmax(Tensor([0.3, 0.3 + 1.7])).data,
                               softmax(Tensor([0.0, 1.7])).data, rtol=1e-12)


def test_softmax_hand_computation():
    # Independent oracle: direct exp/sum at a shifted origin.
    ex = [math.exp(v - 3.0) for v in (1.0, 2.0, 3.0)]
    expected = np.array(ex) / sum(ex)
    np.testing.assert_allclose(softmax(Tensor([1.0, 2.0, 3.0])).data,
                               expected, atol=1e-12)
    np.testing.assert_allclose(expected, [0.09003, 0.24473, 0.66524], atol=1e-5)


def test_softmax_nan_raises():
    with pytest.raises(NumericError):
        softmax(Tensor([0.0, np.nan]))


def test_softmax_huge_inputs_stable():
    out = softmax(Tensor([1e4, 1e4 + 1.0])).data
    assert np.isfinite(out).all() and abs(out.sum() - 1.0) < 1e-12


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one(values):
    out = softmax(Tensor(values)).data
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("axis", [-1, 0, 1])
def test_softmax_gradcheck(axis):
    # softmax runs over the last axis; another axis is moved there and back.
    rng = np.random.default_rng(5)
    params = {"x": _param(rng.normal(size=(3, 4)))}
    probe = rng.normal(size=(3, 4))
    perm = (1, 0) if axis == 0 else (0, 1)

    def fn():
        out = transpose(softmax(transpose(params["x"], perm)), perm)
        return ad.sum_(ad.mul(out, Tensor(probe)))

    assert finite_diff_check(fn, params, samples_per_param=8) < 1e-6


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row():
    out = ad.layer_norm(Tensor(np.full((2, 4), 7.0)),
                        Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_layer_norm_closed_form():
    out = ad.layer_norm(Tensor([[1.0, -1.0]]),
                        Tensor(np.ones(2)), Tensor(np.zeros(2)))
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data, [[expected, -expected]], rtol=1e-12)


def test_layer_norm_zero_gain_gives_bias():
    rng = np.random.default_rng(6)
    b = np.array([1.0, 2.0, 3.0])
    out = ad.layer_norm(Tensor(rng.normal(size=(5, 3))),
                        Tensor(np.zeros(3)), Tensor(b))
    np.testing.assert_array_equal(out.data, np.broadcast_to(b, (5, 3)))


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(7)
    params = {"x": _param(rng.normal(size=(2, 3, 4))),
              "g": _param(rng.normal(size=4)),
              "b": _param(rng.normal(size=4))}
    probe = rng.normal(size=(2, 3, 4))

    def fn():
        out = ad.layer_norm(params["x"], params["g"], params["b"])
        return ad.sum_(ad.mul(out, Tensor(probe)))

    assert finite_diff_check(fn, params, samples_per_param=8) < 1e-6


# ---------------------------------------------------------------------------
# shape ops


def test_shape_ops_gradcheck():
    rng = np.random.default_rng(8)
    params = {"x": _param(rng.normal(size=(2, 3, 4))),
              "y": _param(rng.normal(size=(2, 1, 4)))}

    def fn():
        t = transpose(params["x"], (1, 0, 2))
        t = ad.reshape(t, (3, 8))
        c = ad.concat([params["x"], params["y"]], axis=1)
        n = ad.narrow(c, 1, 1, 2)
        return ad.add(ad.sum_(ad.gelu(t)), ad.sum_(ad.mul(n, n)))

    assert finite_diff_check(fn, params, samples_per_param=8) < 1e-6


def test_mean_matches_sum():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 6))
    np.testing.assert_allclose(ad.mean(Tensor(x), axis=1).data,
                               x.sum(axis=1) / 6.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = _param(np.arange(6.0).reshape(2, 3))
    ad.backward(ad.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_half_square_norm_gives_x():
    x = _param([3.0, -4.0])
    ad.backward(ad.scale(ad.sum_(ad.mul(x, x)), 0.5))
    np.testing.assert_allclose(x.grad, x.data, rtol=1e-15)


def test_backward_rejects_non_scalar():
    x = _param(np.ones(3))
    with pytest.raises(ContractError):
        ad.backward(ad.mul(x, 2.0))


def test_backward_accumulates_shared_subexpression():
    x = _param([2.0])
    y = ad.mul(x, x)  # x used twice: d/dx x^2 = 2x
    ad.backward(ad.sum_(y))
    np.testing.assert_allclose(x.grad, [4.0])


def test_backward_keeps_gradients_on_leaves_only():
    x = _param([2.0, -1.0])
    y = ad.mul(x, x)
    ad.backward(ad.sum_(y))
    np.testing.assert_array_equal(x.grad, [4.0, -2.0])
    assert y.grad is None


def test_backward_bitwise_deterministic():
    rng = np.random.default_rng(10)
    params = {"w": _param(rng.normal(size=(4, 4))),
              "x": _param(rng.normal(size=(2, 4)))}

    def run():
        ad.zero_grads(params)
        out = softmax(ad.matmul(params["x"], params["w"]))
        ad.backward(ad.sum_(ad.mul(out, out)))
        return {k: p.grad.copy() for k, p in params.items()}

    first, second = run(), run()
    for k in first:
        np.testing.assert_array_equal(first[k], second[k])


# ---------------------------------------------------------------------------
# finite_diff_check


def test_finite_diff_quadratic_form():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    a = a + a.T
    params = {"x": _param(rng.normal(size=(5, 1)))}

    def fn():
        x = params["x"]
        return ad.scale(ad.sum_(ad.mul(x, ad.matmul(Tensor(a), x))), 0.5)

    assert finite_diff_check(fn, params, samples_per_param=5) < 1e-9


def test_finite_diff_zero_function():
    params = {"x": _param(np.ones(3))}

    def fn():
        return ad.sum_(ad.mul(params["x"], 0.0))

    assert finite_diff_check(fn, params) == 0.0


def test_finite_diff_rejects_bad_step():
    params = {"x": _param(np.ones(2))}
    fn = lambda: ad.sum_(params["x"])
    for h in (1e-7, 1e-3):
        with pytest.raises(ContractError):
            finite_diff_check(fn, params, h=h)


def test_finite_diff_nonfinite_loss_raises():
    params = {"x": _param(np.ones(2))}

    def fn():
        return ad.sum_(ad.log(ad.sub(params["x"], params["x"])))

    with np.errstate(divide="ignore"):  # log(0) -> -inf is the point here
        with pytest.raises(NumericError):
            finite_diff_check(fn, params)


# ---------------------------------------------------------------------------
# in-place kernels agree bitwise with the plain formulas


def test_kernels_match_plain_formulas():
    from scipy.special import erf
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 5, 7))
    g = rng.normal(size=(3, 5, 7))
    ex = np.exp(x - x.max(axis=-1, keepdims=True))
    y = ex / ex.sum(axis=-1, keepdims=True)
    np.testing.assert_array_equal(kernels.softmax_rows(x.copy()), y)
    dot = (g * y).sum(axis=-1, keepdims=True)
    np.testing.assert_array_equal(kernels.softmax_rows_grad(g.copy(), y),
                                  (g - dot) * y)
    erf1 = np.empty_like(x)
    np.testing.assert_array_equal(
        kernels.gelu_forward(x, erf1),
        x * 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
    cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
    np.testing.assert_array_equal(kernels.gelu_grad(g, x, erf1),
                                  g * (cdf + x * pdf))


def test_softmax_kernel_works_in_place():
    x = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert kernels.softmax_rows(x) is x
    np.testing.assert_allclose(x[1], [0.5, 0.5])


# ---------------------------------------------------------------------------
# fused attention


def _attention_params(rng, b=2, n=3, m=5, d=4):
    return {"q": _param(rng.normal(size=(b, n, d))),
            "k": _param(rng.normal(size=(b, m, d))),
            "v": _param(rng.normal(size=(b, m, d))),
            "bias": _param(rng.normal(size=(b, m)))}


@pytest.mark.parametrize("with_bias", [False, True])
def test_attention_gradcheck(with_bias):
    rng = np.random.default_rng(13)
    params = _attention_params(rng)
    if not with_bias:
        del params["bias"]
    probe = Tensor(rng.normal(size=(2, 3, 4)))

    def fn():
        out = ad.attention(params["q"], params["k"], params["v"], 2,
                           bias=params.get("bias"))
        return ad.sum_(ad.mul(out, probe))

    assert finite_diff_check(fn, params, samples_per_param=8) < 1e-6


def test_attention_nan_logit_raises():
    rng = np.random.default_rng(15)
    params = _attention_params(rng)
    q = params["q"].data.copy()
    q[1, 2, 0] = np.nan
    with pytest.raises(NumericError):
        ad.attention(Tensor(q), params["k"], params["v"], 2)


@pytest.mark.parametrize("shapes", [
    ((2, 3, 4), (2, 5, 4), (2, 4, 4), None),   # k and v token counts
    ((2, 3, 4), (2, 5, 6), (2, 5, 6), None),   # q and k widths
    ((2, 3, 4), (1, 5, 4), (1, 5, 4), None),   # batch sizes
    ((2, 3, 4), (2, 5, 4), (2, 5, 4), (2, 3)),  # bias length
    ((3, 4), (2, 5, 4), (2, 5, 4), None),      # q rank
    ((2, 3, 3), (2, 5, 3), (2, 5, 3), None),   # width not split by 2 heads
])
def test_attention_shape_mismatch_raises(shapes):
    q, k, v, bias = (s and Tensor(np.zeros(s)) for s in shapes)
    with pytest.raises(DimensionError):
        ad.attention(q, k, v, 2, bias=bias)
