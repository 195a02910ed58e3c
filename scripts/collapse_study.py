"""Reduction of a two-packet superposition, trajectory by trajectory.

Runs an ensemble of nonlinear trajectories started from a weighted pair of
stationary-width packets, then reports how fast the position spread contracts
to the stationary value and how often each branch wins.  Writes the
localized-fraction curve and the per-trajectory outcomes to CSV.

    python scripts/collapse_study.py --n-traj 400 --out results/collapse
"""

import argparse
import os

import numpy as np

from dcollapse.ensemble import ExperimentConfig, run_ensemble
from dcollapse.grid import RECORD_FIELDS
from dcollapse.model import derive_constants


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-traj", type=int, default=400)
    ap.add_argument("--batch", type=int, default=200)
    ap.add_argument("--steps", type=int, default=900)
    ap.add_argument("--dt", type=float, default=0.008)
    ap.add_argument("--centers", type=float, nargs=2, default=(-5.0, 5.0))
    ap.add_argument("--weights", type=float, nargs=2, default=(0.3, 0.7))
    ap.add_argument("--collapse-rate", type=float, default=0.1)
    ap.add_argument("--momentum-coupling", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--out", default="collapse_study")
    args = ap.parse_args()

    w = np.asarray(args.weights, dtype=float)
    w = w / w.sum()
    cfg = ExperimentConfig(
        collapse_rate=args.collapse_rate,
        momentum_coupling=args.momentum_coupling, initial="superposition",
        centers=tuple(args.centers), weights=tuple(w), x_min=-32.0,
        x_max=32.0, n_points=256, dt=args.dt, n_steps=args.steps,
        record_every=5, n_trajectories=args.n_traj, batch_size=args.batch,
        master_seed=args.seed)
    d = derive_constants(cfg.params(), boltzmann=1.0)
    summary, records, aborted = run_ensemble(cfg, return_records=True)
    times = summary.times
    ok = ~aborted
    print(f"{args.n_traj} trajectories, {aborted.sum()} aborted")

    i_s = RECORD_FIELDS.index("sigma_q_sq")
    i_q = RECORD_FIELDS.index("q_mean")
    sig_q = np.sqrt(records[:, ok, i_s])
    qm = records[:, ok, i_q]
    within = np.abs(sig_q - d.sigma_q_bar) <= 0.05 * d.sigma_q_bar
    frac = within.mean(axis=1)

    # branch outcome at the start of each trajectory's final localized stretch
    n_rec, n_ok = within.shape
    last_not = n_rec - 1 - np.argmax(~within[::-1], axis=0)
    seal = np.minimum(last_not + 1, n_rec - 1)
    settled = within[-1]
    picks = qm[seal, np.arange(n_ok)][settled] > 0.0
    se = np.sqrt(w[1] * w[0] / max(picks.size, 1))
    print(f"localized at end: {settled.mean():.3f}")
    print(f"right-branch fraction: {picks.mean():.4f} "
          f"(weight {w[1]:.3f}, binomial se {se:.4f})")
    t_seal = times[seal][settled]
    print(f"reduction time: median {np.median(t_seal):.3f}, "
          f"90th pct {np.percentile(t_seal, 90):.3f}")

    os.makedirs(args.out, exist_ok=True)
    curve = os.path.join(args.out, "localized_fraction.csv")
    with open(curve, "w") as f:
        f.write("t,localized_fraction,mean_sigma_q\n")
        for i, t in enumerate(times):
            f.write(f"{t:.6g},{frac[i]:.6g},{sig_q[i].mean():.6g}\n")
    outcomes = os.path.join(args.out, "outcomes.csv")
    with open(outcomes, "w") as f:
        f.write("trajectory,settled,t_reduce,branch_right\n")
        idx = np.nonzero(ok)[0]
        for col, traj in enumerate(idx):
            f.write(f"{traj},{int(within[-1, col])},"
                    f"{times[seal[col]]:.6g},{int(qm[seal[col], col] > 0)}\n")
    print(f"wrote {curve} and {outcomes}")


if __name__ == "__main__":
    main()
