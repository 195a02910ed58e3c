"""Ensemble (master equation) dynamics in characteristic-function form.

Averaging the trajectory ensemble gives a translation-covariant master
equation for the density matrix.  Its characteristic function

    rho~_t(k, x) = exp{ -c1 k^2 - c2 k x - c3 x^2 - i c4 k - i c5 x + c6 }

stays Gaussian-exponential for Gaussian data, with the moment dictionary

    <q> = -hbar c4          var_q  = 2 hbar^2 c1
    <p> = -hbar c5          var_p  = 2 hbar^2 c3
    cov_qp (symmetrized) = hbar^2 c2

coeff_flow advances the coefficient vector by the closed-form solution of

    c1' = c2/m + lam alpha^2 / (2 hbar^2)      c4' = c5/m
    c2' = 2 c3/m - 2 lam alpha c2              c5' = -2 lam alpha c5
    c3' = lam/2 - 4 lam alpha c3               c6' = 0

For general states the same dynamics is carried by a Green identity: the full
characteristic function is the freely sheared one evaluated at a damped
argument times an explicit Gaussian weight.  position_density turns the
identity into the spatial probability density.
Integrated over its momentum argument, each of its routes (exact, short-time
expansion, beta_t smoothing, free) is the freely evolved state smeared by a
Gaussian weight e^{-b k^2} and a k-proportional split s k of its two
arguments.  For Gaussian data that integral is itself a normal density whose
mean and variance are closed forms in (b, s), so every route costs one
exponential per point.

All long-time kernels are evaluated through `numerics`, divided by their
leading power of u = 2*lam*alpha*t, so each result is one formula that
holds from the usual model (alpha = 0, u = 0) through u ~ 1e-20 (SI,
laboratory times) up to saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .gaussian import GaussianState, _free_width
from .model import ModelParams


@dataclass(frozen=True)
class CharCoefficients:
    """Coefficient vector of the exponential characteristic function."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float = 0.0


@dataclass(frozen=True)
class StateMoments:
    q_mean: float
    p_mean: float
    var_q: float
    var_p: float
    cov_qp: float


@dataclass(frozen=True)
class DensityProfile:
    """Position density on the points x, with the smoothing parameter of
    the 'smoothed' route.  Its trapezoid norm on x, a self-check, is
    computed on first read."""

    density: np.ndarray
    x: np.ndarray
    beta: float | None = None

    @cached_property
    def norm(self) -> float:
        # np.trapezoid's bits; the / 2 scales exactly without underflow
        x, dens = self.x, self.density
        w = np.subtract(x[1:], x[:-1])
        np.multiply(w, np.add(dens[1:], dens[:-1]), out=w)
        return float(np.add.reduce(w)) / 2.0


def coefficients_from_gaussian(g: GaussianState, p: ModelParams) -> CharCoefficients:
    """Coefficient vector of a pure Gaussian state."""
    a = complex(g.a)
    ar, ai = a.real, a.imag
    hb = p.hbar
    return CharCoefficients(
        c1=1.0 / (8.0 * hb * hb * ar),
        c2=-ai / (2.0 * hb * ar),
        # |a|^2 / Re a without |a|^2, which underflows once |a| < 1e-154
        c3=(ar + ai * (ai / ar)) / 2.0,
        c4=-g.xbar / hb,
        c5=-g.kbar,
        c6=0.0,
    )


def moments_from_coefficients(c: CharCoefficients, p: ModelParams) -> StateMoments:
    hb = p.hbar
    return StateMoments(
        q_mean=-hb * c.c4,
        p_mean=-hb * c.c5,
        var_q=2.0 * hb * hb * c.c1,
        var_p=2.0 * hb * hb * c.c3,
        cov_qp=hb * hb * c.c2,
    )


def purity(c: CharCoefficients, p: ModelParams):
    """Tr rho^2, elementwise; equals 1 exactly for a pure Gaussian."""
    disc = 4.0 * c.c1 * c.c3 - c.c2 * c.c2
    if not np.all(disc > 0.0):
        raise ValueError("coefficient vector is not a physical state")
    return 1.0 / (2.0 * p.hbar * np.sqrt(disc))


def energy_from_coefficients(c: CharCoefficients, p: ModelParams) -> float:
    """Ensemble mean kinetic energy <p^2>/2m."""
    hb = p.hbar
    return hb * hb * (2.0 * c.c3 + c.c5 * c.c5) / (2.0 * p.mass)


def mean_energy(e0: float, t, p: ModelParams):
    """Closed-form ensemble energy: relaxation to the asymptotic value
    hbar^2 / (8 m alpha) at rate 4 lam alpha.

    Written as e0 e^{-v} + lam hbar^2 t G(v) / 2m, v = 4 lam alpha t, a sum
    of non-negative terms.  At laboratory scale e_inf / e0 is of order 1e15
    and v of order 1e-20, and the form e_inf + (e0 - e_inf) e^{-v} loses a
    few percent there to cancellation.  Its limits are the same formula:
    linear heating e0 + lam hbar^2 t / 2m at alpha = 0 (G(0) = 1), and e0
    at lam = 0.
    """
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    t = np.asarray(t, dtype=float)
    v = 4.0 * lam * al * t
    out = e0 * np.exp(-v) + lam * hb * hb * t * numerics.G(v) / (2.0 * m)
    return float(out) if out.ndim == 0 else out


def coeff_flow(c: CharCoefficients, t, p: ModelParams) -> CharCoefficients:
    """Closed-form coefficient vector after time t.  t and c1..c5 broadcast
    (c6 stays as given), and a scalar call has an array call's bits.

    With u = 2 lam alpha t, d = e^{-u} and g = t G(u) / m, every term is a
    product of well-scaled factors, one formula from the free shear
    (lam = 0) and the usual model (alpha = 0, where G = 1, K = -2/3) to
    saturation.  The fixed-point-plus-deviation form
    1/(8 alpha) + (c3 - 1/(8 alpha)) d^2 would cancel catastrophically when
    c3 << 1/(8 alpha) and u is at laboratory scale.
    """
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    u = 2.0 * lam * al * t
    d = np.exp(-u)
    gu = numerics.G(u)
    g = t * gu / m
    return CharCoefficients(
        c1=c.c1 + lam * al * al * t / (2.0 * hb * hb) + c.c2 * g
        + c.c3 * g * g - lam * t * t * t * numerics.K(u) / (4.0 * m * m),
        c2=c.c2 * d + 2.0 * c.c3 * g * d + lam * t * t * gu * gu / (2.0 * m),
        c3=c.c3 * d * d + lam * t * numerics.G(2.0 * u) / 2.0,
        c4=c.c4 + c.c5 * g,
        c5=c.c5 * d,
        c6=c.c6,
    )


def beta_t(t: float, p: ModelParams) -> float:
    """Width parameter of the Gaussian that the Green weight approaches.

    The smoothed density is the free density convolved with a Gaussian kernel
    exp(-beta y^2); beta decays like t^-3 for short damping times.
    """
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    if lam == 0.0 or t == 0.0:
        return math.inf
    ratio = m * al / (hb * t)
    return 1.5 * (m * m) / (hb * hb * lam * (1.0 + 3.0 * ratio * ratio) * t**3)


def position_density(g0: GaussianState, t: float, p: ModelParams, x,
                     method: str = "exact") -> DensityProfile:
    """Spatial probability density of the evolved ensemble.

    Every route is the Green identity integrated over its momentum argument,

        p_t(x) = (1/2 pi hbar) int dk dy e^{-iky/hbar} e^{-b k^2}
                 psi_S(x + y + s k) conj(psi_S(x + y - s k)),

    with psi_S the free evolution of g0, of width a0 / (1 + 2 i hbar a0 t / m)
    and centre xbar + hbar kbar t / m, and a route-specific pair (b, s):

      'exact'     b = lam alpha^2 t / (2 hbar^2) - lam t^3 K(u) / (4 m^2),
                  s = lam alpha t^2 F(u) / m,  u = 2 lam alpha t
      'expansion' the short-time (cubic) weight: b = lam t^3 / 6m^2
                  + lam alpha^2 t / (2 hbar^2), s = lam alpha t^2 / 2m
      'smoothed'  the free density convolved with exp(-beta_t y^2):
                  b = 1 / (4 beta_t hbar^2), s = 0
      'free'      the freely evolved density itself: b = s = 0

    The 'exact' pair is one formula for every lam, alpha and t: at
    alpha = 0 it is the position-noise weight b = lam t^3 / 6m^2, s = 0
    (F and K take their u = 0 limits 1/2 and -2/3), and at lam = 0 or
    t = 0 it is b = s = 0.  For the Gaussian psi_S with width
    a_S = ar + i ai the integral is a normal density with

        mean = xbar_S - 2 hbar kbar s,
        var  = 2 hbar^2 (b + 2 ar s^2) + (1 + 4 hbar ai s)^2 / (4 ar),

    which at b = s = 0 is |psi_S|^2 itself.  The profile's trapezoid norm
    on x, a self-check, is computed on first read.
    """
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    # a copy, so the norm does not follow a caller's later writes to x
    x = np.array(x, dtype=float)
    beta = None
    b = s = 0.0
    if method == "exact":
        u = 2.0 * lam * al * t
        b = lam * al * al * t / (2.0 * hb * hb) \
            - lam * t**3 * numerics.K(u) / (4.0 * m * m)
        s = lam * al * t * t * numerics.F(u) / m
    elif method == "expansion":
        b = lam * t**3 / (6.0 * m * m) + lam * al * al * t / (2.0 * hb * hb)
        s = lam * al * t * t / (2.0 * m)
    elif method == "smoothed":
        beta = beta_t(t, p)
        b = 1.0 / (4.0 * beta * hb * hb)
    elif method != "free":
        raise ValueError(f"unknown density method: {method}")
    # on Python floats, which round as numpy's arrays do
    ar, ai = _free_width(complex(g0.a), float(t), m, hb)
    if not ar > 0.0:
        raise ValueError("Re a must be positive for a normalizable state")
    mean = g0.xbar + hb * g0.kbar * t / m - 2.0 * hb * g0.kbar * s
    var = 2.0 * hb * hb * (b + 2.0 * ar * s * s) \
        + (1.0 + 4.0 * hb * ai * s) ** 2 / (4.0 * ar)
    # exp(-0.5 (x - mean)^2 / var) / sqrt(2 pi var) in one buffer; -2 var
    # scales exactly without underflow
    dens = np.subtract(x, mean)
    np.square(dens, out=dens)
    np.divide(dens, -2.0 * var, out=dens)
    np.exp(dens, out=dens)
    np.divide(dens, math.sqrt(2.0 * math.pi * var), out=dens)
    return DensityProfile(density=dens, x=x, beta=beta)


__all__ = [
    "CharCoefficients", "StateMoments", "DensityProfile",
    "coefficients_from_gaussian", "moments_from_coefficients", "purity",
    "energy_from_coefficients", "mean_energy", "coeff_flow", "beta_t",
    "position_density",
]
