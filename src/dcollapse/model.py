"""Model parameters, mass scaling, and the derived stationary constants.

The model couples a particle of mass m to a white-noise field through the
non-hermitian operator A = q + i(alpha/hbar) p with strength lambda, and a
matching drift that makes the dynamics dissipative.  Both couplings scale
with mass so that the pair (lambda*alpha) and every stationary width below
are the same for every object:

    lambda(m) = (m / m_0) lambda_base
    alpha(m)  = (m_0 / m) alpha_base

with m_0 the nucleon mass and the base couplings from `constants`.  For
the centre of mass of a composite, scale_parameters takes the total
mass.  derive_constants evaluates the stationary regime of the single
trajectory dynamics from two numbers: the rate r = sqrt(16 (lam alpha)^2 +
8 i hbar lam / m) on the principal root, minus the slope of the Gaussian
width law of `gaussian` at its attracting fixed point, and that fixed point
a_inf = 2 lam / (4 lam alpha + r), written so that nothing cancels.  The
stationary spreads are those of a_inf; the asymptotic ensemble energy and
temperature follow from the couplings alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import (BOLTZMANN, COLLAPSE_RATE_BASE, HBAR,
                        MOMENTUM_COUPLING_BASE, NUCLEON_MASS)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Couplings for one object.  SI units unless the caller works in
    rescaled units, in which case hbar carries the chosen convention."""

    mass: float
    collapse_rate: float        # lambda  [m^-2 s^-1]
    momentum_coupling: float    # alpha   [m^2]
    hbar: float

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        if self.collapse_rate < 0.0:
            raise ValueError("collapse_rate must be non-negative")
        if self.momentum_coupling < 0.0:
            raise ValueError("momentum_coupling must be non-negative")
        if not self.hbar > 0.0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class DerivedConstants:
    """Stationary-regime constants for a given ModelParams.

    omega1, omega2:  r = omega1+i*omega2, minus the width law's slope at a_inf
    omega, theta:    |r| / sqrt(2) and arg r
    kappa:           dissipation ratio 4*lam*alpha/|r|
    a_inf:           attracting fixed point of the Gaussian width parameter;
                     the three spreads below are those of a width a_inf
    sigma_q_bar:     stationary position spread
    sigma_p_bar:     stationary momentum spread
    sigma_qp_bar_sq: stationary symmetrized correlation (a square by name,
                     kept signed; it is positive for this model)
    energy_inf:      asymptotic ensemble mean kinetic energy (+inf if the
                     momentum coupling vanishes)
    temperature:     energy_inf expressed as (1/2) k_B T
    """

    omega: float
    theta: float
    omega1: float
    omega2: float
    kappa: float
    a_inf: complex
    sigma_q_bar: float
    sigma_p_bar: float
    sigma_qp_bar_sq: float
    energy_inf: float
    temperature: float


def scale_parameters(mass: float) -> ModelParams:
    """SI couplings for a pointlike object of the given mass."""
    if not mass > 0.0:  # before the couplings divide by it
        raise ValueError("mass must be positive")
    ratio = mass / NUCLEON_MASS
    return ModelParams(
        mass=mass,
        collapse_rate=COLLAPSE_RATE_BASE * ratio,
        momentum_coupling=MOMENTUM_COUPLING_BASE / ratio,
        hbar=HBAR,
    )


def derive_constants(p: ModelParams, boltzmann: float = BOLTZMANN) -> DerivedConstants:
    """Stationary constants for the couplings p.

    boltzmann converts the asymptotic energy to a temperature; pass 1.0 when
    working in rescaled units.
    """
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar

    if lam == 0.0:
        # Free dynamics: no stationary width.  Values below are the limits of
        # the lam -> 0 family: the width parameter collapses to zero (infinite
        # spread) and nothing relaxes.
        return DerivedConstants(
            omega=0.0, theta=0.25 * math.pi, omega1=0.0, omega2=0.0,
            kappa=0.0, a_inf=0.0 + 0.0j,
            sigma_q_bar=math.inf, sigma_p_bar=0.0,
            sigma_qp_bar_sq=0.5 * hb,
            energy_inf=math.inf, temperature=math.inf,
        )

    r = cmath.sqrt(complex(16.0 * (lam * al) ** 2, 8.0 * hb * lam / m))
    a_inf = 2.0 * lam / (4.0 * lam * al + r)
    ar, ai = a_inf.real, a_inf.imag
    if al > 0.0:
        energy_inf = hb**2 / (8.0 * m * al)
        temperature = hb**2 / (4.0 * m * al * boltzmann)
    else:
        energy_inf = math.inf
        temperature = math.inf
    return DerivedConstants(
        omega=abs(r) / _SQRT2, theta=cmath.phase(r),
        omega1=r.real, omega2=r.imag, kappa=4.0 * lam * al / abs(r),
        a_inf=a_inf, sigma_q_bar=0.5 / math.sqrt(ar),
        # |a|^2 / Re a without |a|^2, which underflows once |a| < 1e-154
        sigma_p_bar=hb * math.sqrt(ar + ai * (ai / ar)),
        sigma_qp_bar_sq=-0.5 * hb * ai / ar,
        energy_inf=energy_inf, temperature=temperature,
    )


__all__ = [
    "ModelParams",
    "DerivedConstants",
    "scale_parameters",
    "derive_constants",
]
