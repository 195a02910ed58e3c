"""Cancellation-safe kernels.

The closed-form covariance, characteristic-coefficient and density results
all involve the dimensionless damping time u = 2*lam*alpha*t through the
combinations below, each divided by its leading power of u:

    G(u) = (1 - e^-u) / u                        (= 1 - u/2 + ...)
    F(u) = (u - 1 + e^-u) / u^2                  (= 1/2 - u/6 + ...)
    K(u) = (gamma^2 + 2 gamma - 2u) / u^3        (= -2/3 + u/2 - ...)

gamma = 1 - e^-u.  Each is O(1) and takes its limit at u = 0, so a result
written with them is one formula from the usual model (alpha = 0) through
laboratory scale (u ~ 1e-20) to saturation.  The numerators of F and K are
O(u^2) and O(u^3) differences of O(1) terms, so below a fixed threshold
they switch to their exact Taylor series, generated from integer
arithmetic at import time; the retained order puts the truncation error
far below double precision at the switch point.  Above it each is its
direct form over u^n, with u^n a product of u's.  G is -expm1(-u) / u.

The callers pass a scalar u, and a scalar is evaluated as a Python float:
a Python float is used as it is, an np.float64, an int or a 0-d array is
converted once, and no 0-d array is made from a float.  The arithmetic
runs on Python floats, whose products, sums and quotients round exactly as
numpy's do.  The exponentials are numpy's ufuncs called on the float,
because libm's exp (math.exp) rounds differently from numpy's on a few
percent of arguments.  So a scalar call returns a float equal, bit for
bit, to the same element of an array call.
Horner runs the whole table: a cut after term K keeps the bits only where
the terms above K cannot move the running sum at c_K by a quarter ulp, and
for every table that fails above u ~ 1e-15, far below the callers' u.

Signs for u >= 0: 0 < G <= 1, F > 0, K < 0.

A fourth kernel serves the width flow, on complex w = mu^2 t^2:

    H(w) = tanh(sqrt w) / sqrt w                 (= 1 - w/3 + ...)

For |w| < 1 it is the ratio of the 11-term series of sinh(sqrt w) / sqrt w
and of cosh(sqrt w), truncated below 1e-21; above, tanh(z) / z at z = sqrt w
(H is even in z, so the branch of the root does not matter).  H(0) = 1
exactly.  Its one caller passes an array, so H has the array path only.
"""

from __future__ import annotations

from math import factorial

import numpy as np

_N_TERMS = 40
_SWITCH = 0.75


def _series_coeffs(num_of_n, n_min):
    """Horner table for sum_{n>=n_min} num_of_n(n) / n! u^(n - n_min).

    Integer true division rounds correctly, so each entry is the exact
    rational coefficient rounded once.
    """
    return [num_of_n(n) / factorial(n) for n in range(n_min, _N_TERMS + 1)]


_F2_COEFFS = _series_coeffs(lambda n: (-1) ** n, 2)
_K1_COEFFS = _series_coeffs(lambda n: (-1) ** (n + 1) * (4 - 2**n), 3)
_SINHC_COEFFS = [1 / factorial(2 * n + 1) for n in range(11)]
_COSH_COEFFS = [1 / factorial(2 * n) for n in range(11)]


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


def _eval_kernel(u, coeffs, direct):
    """The series on coeffs below the switch, direct(u) above it."""
    u = _operand(u)
    if isinstance(u, float):
        return _horner(u, coeffs) if u < _SWITCH else float(direct(u))
    out = np.empty_like(u)
    small = u < _SWITCH
    if small.any():
        out[small] = _horner(u[small], coeffs)
    big = ~small
    if big.any():
        out[big] = direct(u[big])
    return out


def G(u):
    """(1 - e^-u) / u, in (0, 1]; 1 at u = 0."""
    u = _operand(u)
    if isinstance(u, float):
        return float(-np.expm1(-u)) / u if u != 0.0 else 1.0
    out = np.ones_like(u)
    np.divide(-np.expm1(-u), u, out=out, where=u != 0.0)
    return out


def F(u):
    """(u - 1 + e^-u) / u^2  (= 1/2 - u/6 + ...), positive."""
    return _eval_kernel(u, _F2_COEFFS,
                        lambda v: (v - 1.0 + np.exp(-v)) / (v * v))


def K(u):
    """(gamma^2 + 2 gamma - 2u) / u^3  (= -2/3 + u/2 - ...), negative."""

    def direct(v):
        g = -np.expm1(-v)
        return (g * g + 2.0 * g - 2.0 * v) / (v * v * v)

    return _eval_kernel(u, _K1_COEFFS, direct)


def H(w):
    """tanh(sqrt w) / sqrt w for a complex array w; 1 at w = 0."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < 1.0
    ws = w[small]
    out[small] = _horner(ws, _SINHC_COEFFS) / _horner(ws, _COSH_COEFFS)
    z = np.sqrt(w[~small])
    out[~small] = np.tanh(z) / z
    return out


__all__ = ["G", "F", "K", "H"]
