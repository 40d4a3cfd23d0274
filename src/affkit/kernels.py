"""In-place numpy kernels for the attention softmax and GELU.

The attention softmax and GELU passes dominate training time once the
matmuls hit BLAS, so each runs in place or keeps the work its backward
needs. Every kernel computes the same arithmetic, in the same order, as
the plain formulas: `exp(x - max) / sum`, `(g - sum(g * y)) * y`,
`x * 0.5 * (1 + erf(x / sqrt 2))` and `g * (cdf + x * pdf)`.
"""

import math

import numpy as np
from scipy.special import erf

from .errors import NumericError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def softmax_rows(x):
    """Softmax over the last axis, computed in `x`, which is returned.

    Raises NumericError if `x` holds a NaN; the row max, which the shift
    needs anyway, propagates it.
    """
    top = x.max(axis=-1, keepdims=True)
    if np.isnan(top).any():
        raise NumericError("softmax: NaN in input")
    x -= top
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax_rows_grad(g, y):
    """Adjoint of `softmax_rows` with output `y`, computed in `g`."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    g -= dot
    g *= y
    return g


def gelu_forward(x, erf1):
    """Exact GELU of `x`; fills `erf1` with 1 + erf(x / sqrt 2)."""
    np.multiply(x, _INV_SQRT2, out=erf1)
    erf(erf1, out=erf1)
    erf1 += 1.0
    out = x * 0.5
    out *= erf1
    return out


def gelu_grad(g, x, erf1):
    """Adjoint of `gelu_forward`, reusing its `erf1` term."""
    out = x * -0.5
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT2PI
    out *= x
    out += 0.5 * erf1
    out *= g
    return out
