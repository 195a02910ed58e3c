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
trajectory dynamics: the complex relaxation frequency, the attracting width
parameter a_inf of Gaussian solutions, the stationary spreads, and the
asymptotic ensemble energy and temperature.
"""

from __future__ import annotations

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

    omega, theta:    modulus/phase of the relaxation rate; the complex decay
                     frequency is omega1 + i*omega2 = sqrt(2)*omega*e^{i theta}
    kappa:           dissipation ratio 2*sqrt(2)*lam*alpha/omega
    a_inf:           attracting fixed point of the Gaussian width parameter
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

    omega = 2.0 * (4.0 * (lam * al) ** 4 + lam**2 * hb**2 / m**2) ** 0.25
    theta = 0.5 * math.atan2(hb, 2.0 * lam * al**2 * m)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    omega1 = _SQRT2 * omega * cos_t
    omega2 = _SQRT2 * omega * sin_t
    kappa = 2.0 * _SQRT2 * lam * al / omega
    a_inf = (m * omega / (2.0 * _SQRT2 * hb)) * complex(sin_t, -(cos_t - kappa))
    sigma_q_sq = hb / (_SQRT2 * m * omega * sin_t)
    sigma_p_sq = (hb * m * omega / (2.0 * _SQRT2)) * (
        (sin_t**2 + (cos_t - kappa) ** 2) / sin_t
    )
    sigma_qp_sq = 0.5 * hb * (cos_t - kappa) / sin_t
    if al > 0.0:
        energy_inf = hb**2 / (8.0 * m * al)
        temperature = hb**2 / (4.0 * m * al * boltzmann)
    else:
        energy_inf = math.inf
        temperature = math.inf
    return DerivedConstants(
        omega=omega, theta=theta, omega1=omega1, omega2=omega2,
        kappa=kappa, a_inf=a_inf,
        sigma_q_bar=math.sqrt(sigma_q_sq),
        sigma_p_bar=math.sqrt(sigma_p_sq),
        sigma_qp_bar_sq=sigma_qp_sq,
        energy_inf=energy_inf, temperature=temperature,
    )


__all__ = [
    "ModelParams",
    "DerivedConstants",
    "scale_parameters",
    "derive_constants",
]
