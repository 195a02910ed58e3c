"""Physical constants and the base couplings of the collapse model.

hbar and k_B are CODATA 2018 exact values.  The model itself is specified by
two couplings fixed once and for all at a reference mass, one nucleon: a
base noise strength and a base momentum coupling.  Couplings for any other
object follow from the mass scaling in `model`.
"""

HBAR = 1.054571817e-34          # J s
BOLTZMANN = 1.380649e-23        # J / K
NUCLEON_MASS = 1.67262192369e-27  # kg
COLLAPSE_RATE_BASE = 1.0e-2     # m^-2 s^-1, at NUCLEON_MASS
MOMENTUM_COUPLING_BASE = 1.0e-18  # m^2, at NUCLEON_MASS

__all__ = ["HBAR", "BOLTZMANN", "NUCLEON_MASS", "COLLAPSE_RATE_BASE",
           "MOMENTUM_COUPLING_BASE"]
