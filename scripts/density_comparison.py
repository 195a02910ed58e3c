"""Ensemble-averaged position density vs the closed-form predictions.

Runs an ensemble of nonlinear trajectories from a single Gaussian start
through run_ensemble, takes its mean normalized |psi|^2 at the final time,
and compares it against the 'exact', 'expansion', 'smoothed' and 'free'
density routes.  The trajectories are independent: there is no antithetic
pairing, so the sampling error is that of n_traj plain draws.

    python scripts/density_comparison.py --n-traj 2000 --out results/density
"""

import argparse
import os

import numpy as np

from dcollapse import master as ms
from dcollapse.ensemble import ExperimentConfig, run_ensemble

METHODS = ("exact", "expansion", "smoothed", "free")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-traj", type=int, default=2000)
    ap.add_argument("--batch", type=int, default=250)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--dt", type=float, default=0.005)
    ap.add_argument("--collapse-rate", type=float, default=0.1)
    ap.add_argument("--momentum-coupling", type=float, default=0.5)
    ap.add_argument("--kbar0", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=4041)
    ap.add_argument("--out", default="density_comparison")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        collapse_rate=args.collapse_rate,
        momentum_coupling=args.momentum_coupling, kbar0=args.kbar0,
        x_min=-16.0, x_max=16.0, n_points=256, dt=args.dt,
        n_steps=args.steps, record_every=args.steps,
        n_trajectories=args.n_traj, batch_size=args.batch,
        master_seed=args.seed)
    summary = run_ensemble(cfg)
    if summary.n_aborted:
        print(f"warning: {summary.n_aborted} aborted trajectories dropped")
    x, dens = summary.density_x, summary.density
    dx = x[1] - x[0]
    t_final = args.steps * args.dt
    print(f"averaged {args.n_traj - summary.n_aborted} trajectories "
          f"to t = {t_final:g}")

    profiles = {}
    for method in METHODS:
        prof = ms.position_density(cfg.initial_gaussian(), t_final,
                                   cfg.params(), x, method=method)
        profiles[method] = prof.density
        l1 = float(np.abs(dens - prof.density).sum() * dx)
        print(f"L1(ensemble, {method:10s}) = {l1:.5f}   "
              f"(profile norm {prof.norm:.6f})")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "profiles.csv")
    with open(path, "w") as f:
        f.write("x,ensemble," + ",".join(METHODS) + "\n")
        for i in range(len(x)):
            vals = ",".join(f"{profiles[m][i]:.8g}" for m in METHODS)
            f.write(f"{x[i]:.6g},{dens[i]:.8g},{vals}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
