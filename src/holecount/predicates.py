"""Exact acuteness of planar triangles, in two vectorised tiers.

A triangle is acute iff its three vertex dot products are positive.
`dot_certified` evaluates them in floating point and uses error-free
transforms (Knuth two-sum, Dekker two-product; Shewchuk 1997) to show, in a
few numpy passes over a whole batch, which values are already exact.
`acute_exact` decides the remaining rows with integer arithmetic.
"""

from __future__ import annotations

import numpy as np

# Dekker's splitter 2**27 + 1, and the range of nonzero coordinate
# differences inside which neither the split overflows nor a product's
# rounding error drops below the subnormal range.
_SPLITTER = 134217729.0
_CERTIFY_MIN = 2.0 ** -480
_CERTIFY_MAX = 2.0 ** 480


def _two_diff(a, b):
    """(a - b rounded, its rounding error), both exact."""
    x = a - b
    b_virtual = a - x
    a_virtual = x + b_virtual
    return x, (a - a_virtual) + (b_virtual - b)


def _two_sum(a, b):
    """(a + b rounded, its rounding error), both exact."""
    x = a + b
    b_virtual = x - a
    a_virtual = x - b_virtual
    return x, (a - a_virtual) + (b - b_virtual)


def _split(a):
    """Dekker split of a into two halves of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product_tail(a, b, x):
    """Rounding error of the product x = a * b, exact."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    err = ((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo
    return a_lo * b_lo - err


def dot_certified(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """(values, exact) for the dot products (b - a)·(c - a) of the rows of
    the (n, 2) arrays a, b and c.

    values are evaluated in floating point as (ux*vx) + (uy*vy).  exact is
    True where that value is provably the exact real dot product: every
    coordinate difference, both products and their sum have a zero
    rounding error, and every nonzero difference lies in [2**-480, 2**480],
    so the error-free transforms can neither overflow nor underflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u, u_err = _two_diff(b, a)
        v, v_err = _two_diff(c, a)
        prod = u * v
        prod_err = _two_product_tail(u, v, prod)
        values, sum_err = _two_sum(prod[:, 0], prod[:, 1])
        mag = np.abs(np.concatenate((u, v), axis=1))
    exact = (
        (sum_err == 0.0)
        & (u_err == 0.0).all(axis=1)
        & (v_err == 0.0).all(axis=1)
        & (prod_err == 0.0).all(axis=1)
        & ((mag == 0.0) | ((mag >= _CERTIFY_MIN) & (mag <= _CERTIFY_MAX))).all(axis=1)
    )
    return values, exact


def acute_exact(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """True for the rows of the (n, 2) vertex arrays a, b and c that form a
    strictly acute triangle, decided exactly.

    Each double is an integer times a power of two: its 53-bit mantissa
    from `np.frexp`, shifted left by its exponent above the smallest one of
    its row.  The three vertex dot products of these Python integers are
    the exact ones times a positive power of two, so their signs decide.  A
    right or collinear row has a dot product of zero or less and is not
    acute.
    """
    mant, exp = np.frexp(np.concatenate((a, b, c), axis=1))
    exp = exp - exp.min(axis=1, keepdims=True)
    ints = np.ldexp(mant, 53).astype(np.int64).astype(object) << exp.astype(object)
    ax, ay, bx, by, cx, cy = ints.T
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    # the dot products at a, b and c are -(u·w), -(v·u) and -(w·v)
    return ((ux * wx + uy * wy < 0) & (vx * ux + vy * uy < 0)
            & (wx * vx + wy * vy < 0)).astype(bool)
