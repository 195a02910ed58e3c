"""Cancellation-safe kernels.

The closed-form covariance, characteristic-coefficient and density results
all involve the dimensionless damping time u = 2*lam*alpha*t through the
combinations

    gamma(u) = 1 - e^-u
    f2(u)    = u - 1 + e^-u
    k1(u)    = gamma^2 + 2 gamma - 2u

For laboratory masses and times u is of order 1e-20, and the last two are
O(u^2) or O(u^3) differences of O(1) terms: direct evaluation returns noise.
Each kernel therefore switches to its exact Taylor series below a fixed
threshold.  Series coefficients are generated from integer arithmetic at
import time, and the retained order makes the truncation error far below
double precision at the switch point.

The callers pass a scalar u, and a scalar is evaluated as a Python float:
a Python float is used as it is, an np.float64, an int or a 0-d array is
converted once, and no 0-d array is made from a float.  Horner runs on
Python floats, whose products and sums round exactly as numpy's do.  The
final power u^n and the exponentials (np.power, np.exp, np.expm1) are
numpy's ufuncs called on the float, because libm's pow and exp (Python's
** and math.exp) round differently from numpy's on a few percent of
arguments.  So a scalar call returns a float equal, bit for bit, to the
same element of an array call.
Horner runs the whole table: a cut after term K keeps the bits only where
the terms above K cannot move the running sum at c_K by a quarter ulp, and
for every table that fails above u ~ 1e-15, far below the callers' u.

Signs for u >= 0: gamma, f2 >= 0; k1 <= 0.
"""

from __future__ import annotations

from math import factorial

import numpy as np

_N_TERMS = 40
_SWITCH = 0.75


def _series_coeffs(num_of_n, n_min):
    """Horner table for sum_{n>=n_min} num_of_n(n) / n! u^n.

    Integer true division rounds correctly, so each entry is the exact
    rational coefficient rounded once.
    """
    return [num_of_n(n) / factorial(n) for n in range(n_min, _N_TERMS + 1)]


_F2_COEFFS = _series_coeffs(lambda n: (-1) ** n, 2)
_K1_COEFFS = _series_coeffs(lambda n: (-1) ** (n + 1) * (4 - 2**n), 3)


def _horner(u, coeffs):
    """sum_j coeffs[j] u^j for a float or an array u."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * u + c
    return acc


def _operand(u):
    """u as a Python float if it is a scalar, else as a float array."""
    if isinstance(u, float):   # np.float64 included
        return float(u)
    u = np.asarray(u, dtype=float)
    return float(u) if u.ndim == 0 else u


def _eval_kernel(u, coeffs, n_min, direct):
    u = _operand(u)
    if isinstance(u, float):
        if u < _SWITCH:
            return _horner(u, coeffs) * float(np.power(u, n_min))
        return float(direct(u))
    out = np.empty_like(u)
    small = u < _SWITCH
    if small.any():
        us = u[small]
        out[small] = _horner(us, coeffs) * us**n_min
    big = ~small
    if big.any():
        out[big] = direct(u[big])
    return out


def one_minus_exp(u):
    """gamma(u) = 1 - e^-u, accurate for all u >= 0."""
    u = _operand(u)
    out = -np.expm1(-u)
    return float(out) if isinstance(u, float) else out


def f2(u):
    """u - 1 + e^-u  (= u^2/2 - u^3/6 + ...), non-negative."""
    return _eval_kernel(u, _F2_COEFFS, 2, lambda v: v - 1.0 + np.exp(-v))


def k1(u):
    """gamma^2 + 2 gamma - 2u  (= -(2/3)u^3 + ...), non-positive."""

    def direct(v):
        g = -np.expm1(-v)
        return g * g + 2.0 * g - 2.0 * v

    return _eval_kernel(u, _K1_COEFFS, 3, direct)


__all__ = ["one_minus_exp", "f2", "k1"]
