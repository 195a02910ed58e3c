"""Write perfbench/reference_density.json, the recorded values that the
master_verify gate holds the `expansion` and `smoothed` density routes to.

The initial state is the ensemble_gaussian packet (stationary width,
xbar0 = 1, kbar0 = -0.3).  Times give u = 2 lam alpha t = 0.1, 0.45 and 0.8;
at each, 32 points span the coeff_flow mean +- 3 standard deviations.  The
quadrature routes size their grids from the evaluation points, but every
subset of a lattice gets the same values to rounding, so a rep may evaluate
any subset.

Run from the root of a checkout:  python3 perfbench/make_reference.py
"""

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, "src")

from dcollapse import master  # noqa: E402
from dcollapse.ensemble import ExperimentConfig  # noqa: E402

TIMES = (1.0, 4.5, 8.0)
LATTICE = 32


def build() -> dict:
    cfg = ExperimentConfig(xbar0=1.0, kbar0=-0.3)
    p, g0 = cfg.params(), cfg.initial_gaussian()
    c0 = master.coefficients_from_gaussian(g0, p)
    out = {
        "params": {"mass": p.mass, "collapse_rate": p.collapse_rate,
                   "momentum_coupling": p.momentum_coupling, "hbar": p.hbar},
        "state": {"a_real": g0.a.real, "a_imag": g0.a.imag,
                  "xbar": g0.xbar, "kbar": g0.kbar},
        "times": list(TIMES), "x": [], "expansion": [], "smoothed": [],
    }
    for t in TIMES:
        mom = master.moments_from_coefficients(master.coeff_flow(c0, t, p), p)
        x = mom.q_mean + math.sqrt(mom.var_q) * np.linspace(-3.0, 3.0, LATTICE)
        out["x"].append(x.tolist())
        for route in ("expansion", "smoothed"):
            dens = master.position_density(g0, t, p, x, method=route).density
            out[route].append(dens.tolist())
    return out


if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference_density.json")
    with open(path, "w") as f:
        json.dump(build(), f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
