"""Shared fixtures.

The collapse ensemble used by the reduction and drift-law acceptance tests
is expensive (10^3 grid trajectories), so it is built once per session.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from dcollapse.ensemble import EnsembleSummary, ExperimentConfig, run_ensemble
from dcollapse.grid import RECORD_FIELDS
from dcollapse.model import ModelParams, derive_constants, scale_parameters


NATURAL = dict(mass=1.0, collapse_rate=0.1, momentum_coupling=0.5, hbar=1.0)


def write_config(cfg: ExperimentConfig, path) -> None:
    """Write cfg as the JSON experiment file that `--config` reads."""
    with open(path, "w") as f:
        json.dump(cfg.to_dict(), f)


@pytest.fixture(scope="session")
def p_nat():
    return ModelParams(**NATURAL)


@pytest.fixture(scope="session")
def d_nat(p_nat):
    return derive_constants(p_nat, boltzmann=1.0)


@pytest.fixture(scope="session")
def p_si():
    return scale_parameters(1.67262192369e-27)


@dataclass(frozen=True)
class CollapseRun:
    """The shared two-branch collapse ensemble: its config, what
    run_ensemble returns, and the wall seconds the run took."""

    cfg: ExperimentConfig
    summary: EnsembleSummary
    records: np.ndarray  # (n_rec, n_traj, len(RECORD_FIELDS))
    aborted: np.ndarray
    elapsed: float

    def column(self, name):
        return self.records[:, :, RECORD_FIELDS.index(name)]


@pytest.fixture(scope="session")
def collapse_run():
    """10^3 nonlinear trajectories from a two-Gaussian superposition.

    900 steps of dt = 0.008; reduction itself is complete after a few
    hundred steps, the rest of the run watches the localized packets
    diffuse.  Records every 5 steps.  The model is NATURAL, so p_nat and
    d_nat describe it.
    """
    cfg = ExperimentConfig(
        **NATURAL, initial="superposition", centers=(-5.0, 5.0),
        weights=(0.3, 0.7), x_min=-32.0, x_max=32.0, n_points=256,
        dt=0.008, n_steps=900, record_every=5, n_trajectories=1000,
        master_seed=20250, n_workers=2)
    t_start = time.perf_counter()
    summary, records, aborted = run_ensemble(cfg, return_records=True)
    return CollapseRun(cfg, summary, records, aborted,
                       time.perf_counter() - t_start)
