"""Closed-form dynamics of Gaussian trajectory states.

A Gaussian state is parametrized as

    psi(x) ~ exp(-a (x - xbar)^2 + i kbar (x - xbar)),   Re a > 0.

Under the nonlinear stochastic dynamics the class is preserved: the complex
width parameter a obeys a deterministic Riccati equation

    da/dt = -(2 i hbar / m) a^2 - 4 lam alpha a + lam,

while the centres (xbar, kbar) pick up the noise.  The Riccati flow is solved
in closed form through a Moebius substitution: with

    A = -2 i lam alpha m / hbar,
    B = (m omega / (sqrt(2) hbar)) e^{i theta}   (so B^2 = -A^2 + 2 i lam m/hbar),

the solution is

    a_t = -A/2 - (i B / 2) (tau0 + T) / (1 + tau0 T),
    T   = tanh((hbar/m) B t),     tau0 = i (2 a0 + A) / B.

tau0 = 1 is the attracting fixed point a_inf = -(A + i B)/2; every Re a0 > 0
initial condition converges to it at the complex rate omega1 + i omega2.

Centre-of-packet statistics over the ensemble of noise realizations obey
linear ODEs with a-dependent coefficients.  For a trajectory sitting at
a_inf, stationary_covariance solves them in closed form, one formula from
alpha = 0 to saturation through the cancellation-safe kernels in
`numerics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .model import ModelParams, derive_constants

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GaussianState:
    """Width parameter and centres of one Gaussian trajectory state."""

    a: complex
    xbar: float = 0.0
    kbar: float = 0.0

    def __post_init__(self):
        if not complex(self.a).real > 0.0:
            raise ValueError("Re a must be positive for a normalizable state")


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


def _riccati_constants(p: ModelParams):
    d = derive_constants(p, boltzmann=1.0)
    A = -2j * p.collapse_rate * p.momentum_coupling * p.mass / p.hbar
    B = (p.mass * d.omega / (_SQRT2 * p.hbar)) * np.exp(1j * d.theta)
    return A, B


def a_closed_form(a0, t, p: ModelParams):
    """Width parameter at time t for the initial value a0.

    Broadcasts over array a0 and t.  The collapse-free limit is the familiar
    free-spreading law a0 / (1 + 2 i hbar a0 t / m).
    """
    a0 = np.asarray(a0, dtype=complex)
    t = np.asarray(t, dtype=float)
    if np.any(a0.real <= 0.0):
        raise ValueError("Re a0 must be positive")
    m, hb = p.mass, p.hbar
    if p.collapse_rate == 0.0:
        ar_t, ai_t = _free_width(a0, t, m, hb)
        out = ar_t + 1j * ai_t
    else:
        A, B = _riccati_constants(p)
        tau0 = 1j * (2.0 * a0 + A) / B
        T = np.tanh((hb / m) * B * t)
        out = -A / 2.0 - 0.5j * B * (tau0 + T) / (1.0 + tau0 * T)
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
    if np.any(a.real <= 0.0):
        raise ValueError("Re a must be positive")
    ar, ai = a.real, a.imag
    hb = p.hbar
    sq = 0.5 / np.sqrt(ar)
    sp = hb * np.sqrt((ar * ar + ai * ai) / ar)
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
