"""Physical constants and the fundamental parameter set of the collapse model.

hbar and k_B are CODATA 2018 exact values.  The model itself is specified by
three numbers fixed once and for all at a reference mass (one nucleon): a base
noise strength, a base momentum coupling, and the reference mass.  Parameters
for any other object follow from the amplification rules in `model`.
"""

from __future__ import annotations

from dataclasses import dataclass

HBAR = 1.054571817e-34          # J s
BOLTZMANN = 1.380649e-23        # J / K
NUCLEON_MASS = 1.67262192369e-27  # kg


@dataclass(frozen=True)
class FundamentalConstants:
    """Base couplings of the collapse noise, quoted at the reference mass.

    collapse_rate_base:     noise strength for one nucleon  [m^-2 s^-1]
    momentum_coupling_base: dissipative coupling for one nucleon  [m^2]
    reference_mass:         the nucleon mass  [kg]
    """

    collapse_rate_base: float = 1.0e-2
    momentum_coupling_base: float = 1.0e-18
    reference_mass: float = NUCLEON_MASS
    hbar: float = HBAR


__all__ = ["HBAR", "BOLTZMANN", "NUCLEON_MASS", "FundamentalConstants"]
