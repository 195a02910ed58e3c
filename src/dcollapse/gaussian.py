"""Closed-form dynamics of Gaussian trajectory states.

A Gaussian state is parametrized as

    psi(x) ~ exp(-a (x - xbar)^2 + i kbar (x - xbar)),   Re a > 0.

Under the nonlinear stochastic dynamics the class is preserved: the complex
width parameter a obeys a deterministic Riccati equation

    da/dt = -(2 i hbar / m) a^2 - 4 lam alpha a + lam,

while the centres (xbar, kbar) pick up the noise.  With gamma = 2 lam alpha,
kappa' = 2 hbar / m and tau = tanh(mu t) / mu, mu^2 = gamma^2 + i kappa' lam,
one Moebius map solves the flow for every lam, alpha and t:

    a_t = (a0 + (lam - gamma a0) tau) / (1 + (gamma + i kappa' a0) tau).

It relaxes every Re a0 > 0 to a_inf of `derive_constants`; at lam = 0,
tau = t and it is the free spreading a0 / (1 + 2 i hbar a0 t / m).  At
laboratory scale Re a_t is a tiny fraction of |a_t|, which the real part of
a complex quotient would lose to the cancellation of the free-spreading
terms, so a_closed_form writes N conj(D) out in real arithmetic with those
terms cancelled in the algebra, and divides each part by |D|^2.

Centre-of-packet statistics over the ensemble of noise realizations obey
linear ODEs with a-dependent coefficients.  For a trajectory sitting at
a_inf, stationary_covariance solves them in closed form, one formula from
alpha = 0 to saturation through the cancellation-safe kernels in
`numerics`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import ModelParams, derive_constants


@dataclass(frozen=True)
class GaussianState:
    """Width parameter and centres of one Gaussian trajectory state."""

    a: complex
    xbar: float = 0.0
    kbar: float = 0.0

    def __post_init__(self):
        a = complex(self.a)
        if not (cmath.isfinite(a) and a.real > 0.0):
            raise ValueError("Re a must be positive and a finite for a "
                             "normalizable state")


@dataclass(frozen=True)
class SpreadTriple:
    """Spreads of a Gaussian state.  sigma_qp_sq is the symmetrized
    covariance (1/2)<{q,p}> - <q><p> = -hbar Im a / (2 Re a) itself, not a
    stored square: it is negative when Im a > 0.  The name follows the
    sigma_qp^2 notation of `localization`."""

    sigma_q: float
    sigma_p: float
    sigma_qp_sq: float


@dataclass(frozen=True)
class CovarianceMatrix:
    """Ensemble covariances of the packet centres (position units for qq,
    mixed for qp, momentum units for pp), at one time or on a time grid."""

    qq: float
    qp: float
    pp: float


@np.errstate(over="ignore", invalid="ignore")  # a non-finite result raises
def a_closed_form(a0, t, p: ModelParams):
    """Width parameter at time t for the initial value a0, broadcast over
    arrays: N conj(D) = re + i im of the module docstring, in tau = tr + i ti
    and kappa' tau = kr + i ki.  It returns a0 exactly at t = 0, and the
    bits of `_free_width` at lam = 0.  Where the law overflows (t * t
    does from |t| ~ 1.3e154 on), it raises ValueError, not NaN."""
    a0 = np.asarray(a0, dtype=complex)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(a0) & (a0.real > 0.0)):
        raise ValueError("a0 must be finite with Re a0 > 0")
    lam, m, hb = p.collapse_rate, p.mass, p.hbar
    g = 2.0 * lam * p.momentum_coupling
    kp = 2.0 * hb / m
    tau = t * numerics.H((g * g + 1j * kp * lam) * (t * t))
    tr, ti = tau.real, tau.imag
    kr, ki = 2.0 * hb * tr / m, 2.0 * hb * ti / m
    tau2 = tr * tr + ti * ti
    q = kr * tr + ki * ti
    c = 1.0 - g * g * tau2
    ar, ai = a0.real, a0.imag
    a2 = ar * ar + ai * ai
    dr = (1.0 + g * tr) - (ar * ki + ai * kr)
    di = g * ti + (ar * kr - ai * ki)
    den = dr * dr + di * di
    re = ar * c - a2 * ki + lam * (tr + g * tau2) \
        - ai * (lam * q - 2.0 * g * ti)
    im = ai * c - a2 * (kr - g * kp * tau2) + lam * ti \
        - ar * (lam * q + 2.0 * g * ti)
    out = np.empty(den.shape, dtype=complex)
    np.divide(re, den, out=out.real)
    np.divide(im, den, out=out.imag)
    if not np.isfinite(out).all():
        raise ValueError(f"t = {np.abs(t).max():g} overflows the width law")
    return complex(out) if out.ndim == 0 else out


def _free_width(a0, t, m, hb):
    """Real and imaginary parts of the free width a0 / (1 + i kappa a0),
    kappa = 2 hbar t / m, over D = |1 + i kappa a0|^2.  Re a_t = Re a0 / D
    keeps full precision however far the packet spreads, and + - * / on
    Python floats give the bits of the array path."""
    ar, ai = a0.real, a0.imag
    kappa = 2.0 * hb * t / m
    w = 1.0 - kappa * ai
    v = kappa * ar
    den = w * w + v * v
    return ar / den, (ai - kappa * (ar * ar + ai * ai)) / den


def spreads(a, p: ModelParams):
    """Position/momentum spreads and correlation of a Gaussian with width a.

    For array input returns a SpreadTriple of arrays.  The product
    sigma_q * sigma_p equals (hbar/2) sqrt(1 + (Im a / Re a)^2), so the
    uncertainty relation is saturated exactly when a is real.
    """
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a) & (a.real > 0.0)):
        raise ValueError("Re a must be positive and a finite")
    ar, ai = a.real, a.imag
    hb = p.hbar
    sq = 0.5 / np.sqrt(ar)
    # |a|^2 / Re a without |a|^2, which underflows once |a| < 1e-154
    sp = hb * np.sqrt(ar + ai * (ai / ar))
    sqp = -0.5 * hb * ai / ar
    if a.ndim == 0:
        return SpreadTriple(float(sq), float(sp), float(sqp))
    return SpreadTriple(sq, sp, sqp)


def stationary_covariance(t, p: ModelParams) -> CovarianceMatrix:
    """Closed-form centre covariances for a trajectory with a = a_inf,
    the solution, from zero covariance, of

        d Cqq = 2 Cqp / m + lam s(a)^2
        d Cqp = Cpp / m - 2 lam alpha Cqp + lam hbar c(a) s(a)
        d Cpp = -4 lam alpha Cpp + lam hbar^2 c(a)^2

    with s(a) = 1/(2 Re a) - alpha and c(a) = -Im a / Re a.

    Vectorizes over t.  One formula in u = 2 lam alpha t through the kernels
    of `numerics`, which keeps full relative precision even in SI units,
    where u is ~1e-20 for laboratory times; its alpha = 0 limit is the
    polynomial growth (G = 1, F = 1/2, K = -2/3).  At lam = 0 there is no
    stationary width, and the covariances stay 0.
    """
    d = derive_constants(p, boltzmann=1.0)
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    t = np.asarray(t, dtype=float)
    if lam == 0.0:
        z = np.zeros_like(t)
        out = CovarianceMatrix(qq=z, qp=z, pp=z)
        return _scalarize(out) if t.ndim == 0 else out
    c = 2.0 * d.sigma_qp_bar_sq / hb
    s = 2.0 * d.sigma_q_bar**2 - al
    u = 2.0 * lam * al * t
    tg = t * numerics.G(u)
    qq = lam * s * s * t + 2.0 * lam * hb * c * s * t * t * numerics.F(u) / m \
        - lam * hb * hb * c * c * t**3 * numerics.K(u) / (2.0 * m * m)
    qp = tg * (lam * hb * c * s + lam * hb * hb * c * c * tg / (2.0 * m))
    pp = lam * hb * hb * c * c * t * numerics.G(2.0 * u)
    out = CovarianceMatrix(qq=qq, qp=qp, pp=pp)
    return _scalarize(out) if t.ndim == 0 else out


def _scalarize(cm: CovarianceMatrix) -> CovarianceMatrix:
    return CovarianceMatrix(qq=float(cm.qq), qp=float(cm.qp), pp=float(cm.pp))


__all__ = [
    "GaussianState", "SpreadTriple", "CovarianceMatrix",
    "a_closed_form", "spreads", "stationary_covariance",
]
