"""Simulation and verification toolkit for a dissipative collapse model.

The model adds a mass-amplified, dissipative white-noise coupling to the
Schroedinger equation.  Individual trajectories localize toward a universal
Gaussian of fixed width while the ensemble obeys a translation-covariant
master equation with closed-form Green machinery; the library implements
both levels plus the cross-validation harness that pins one against the
other.

Module map:
    model         parameters, mass scaling, derived stationary constants
    gaussian      closed-form Gaussian trajectory dynamics
    grid          split-step spectral SDE integrator, batched (one
                  trajectory is a batch of one)
    master        characteristic-function / Green-function ensemble results
    localization  the contractive observable and its drift law
    ensemble      batched reproducible Monte Carlo runs
    cli           command-line entry points
"""

from .constants import BOLTZMANN, HBAR, NUCLEON_MASS
from .errors import InstabilityError
from .model import (DerivedConstants, ModelParams, derive_constants,
                    scale_parameters)
from .gaussian import (GaussianState, SpreadTriple, a_closed_form, spreads,
                       stationary_covariance)
from .grid import (RECORD_FIELDS, Grid, NoiseStream, build_gaussian,
                   build_superposition, evolve_batch)
from .master import CharCoefficients, coeff_flow, position_density
from .localization import drift_prediction, sigma_O_sq
from .ensemble import (EnsembleSummary, ExperimentConfig, compare_to_master,
                       run_ensemble)

__version__ = "0.1.0"

__all__ = [
    "BOLTZMANN", "HBAR", "NUCLEON_MASS",
    "InstabilityError",
    "DerivedConstants", "ModelParams", "derive_constants",
    "scale_parameters",
    "GaussianState", "SpreadTriple", "a_closed_form", "spreads",
    "stationary_covariance",
    "RECORD_FIELDS", "Grid", "NoiseStream", "build_gaussian",
    "build_superposition", "evolve_batch",
    "CharCoefficients", "coeff_flow", "position_density",
    "drift_prediction", "sigma_O_sq",
    "EnsembleSummary", "ExperimentConfig", "compare_to_master",
    "run_ensemble",
    "__version__",
]
