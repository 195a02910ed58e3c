"""Alternating in-process replay of evolve_batch from two source trees.

Loads the dcollapse package twice, from --base (for example the src/ of a
checkout of the commit being compared against) and from this tree's src/
(the head), and times both on the same batch in alternation, the side
that goes first switching every round.  Each side runs a sparse
replay, recorded only at both ends, and a dense one, recorded after every
step.  The sparse run minus its two records gives the cost of a step; the
dense minus the sparse run over the extra records gives the cost of a
record; the dense run over its steps gives the cost of a recorded step.
A round's reading of each run is the fastest of 3.  The default shape is
the dense-record benchmark workload's: two packets (weights 0.3 and 0.7)
on n = 512 points, a batch of 32 nonlinear trajectories at dt = 0.005.  Prints, in microseconds per trajectory, the median per side,
the median ratio head / base and the rounds head won, and the largest
difference between the two sides' records; --json writes that with the
quartiles and the per-round readings.

    python scripts/record_replay.py --base /path/to/base/src --rounds 15
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys
import time

import numpy as np

HEAD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
DT, REPEATS, SEED = 0.005, 3, 6301


def load(name, src):
    """The dcollapse package under src, imported as the module name."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "dcollapse", "__init__.py"),
        submodule_search_locations=[os.path.join(src, "dcollapse")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--json")
    args = ap.parse_args()

    sides = {"base": load("dcollapse_base", args.base),
             "head": load("dcollapse_head", HEAD)}
    gr = sides["head"].grid
    model = sys.modules["dcollapse_head.model"]
    p = model.ModelParams(mass=1.0, collapse_rate=0.1, momentum_coupling=0.5,
                          hbar=1.0)
    d = model.derive_constants(p, boltzmann=1.0)
    g = gr.Grid(-24.0, 24.0, args.n)
    one = gr.build_superposition(g, complex(d.a_inf), (-5.0, 5.0), (0.3, 0.7))
    psi = np.broadcast_to(one, (args.batch, g.n)).copy()
    incr = np.stack([gr.NoiseStream(SEED, i).increments(args.steps, DT)
                     for i in range(args.batch)])

    grids = {side: mod.grid.Grid(g.x_min, g.x_max, g.n)
             for side, mod in sides.items()}

    def replay(side, every):
        return sides[side].grid.evolve_batch(
            psi, grids[side], p, DT, args.steps, incr, record_every=every)

    def seconds(side, every):
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            replay(side, every)
            best = min(best, time.perf_counter() - t0)
        return best

    extra = args.steps - 1
    keys = ("step_us", "record_us", "dense_step_us")
    readings = {side: {key: [] for key in keys} for side in sides}
    for rnd in range(args.rounds):
        order = ("base", "head") if rnd % 2 == 0 else ("head", "base")
        for side in order:
            sparse, dense = seconds(side, args.steps), seconds(side, 1)
            rec = (dense - sparse) / extra
            step = (sparse - 2.0 * rec) / args.steps
            per_traj = 1e6 / args.batch
            readings[side]["step_us"].append(step * per_traj)
            readings[side]["record_us"].append(rec * per_traj)
            readings[side]["dense_step_us"].append(
                dense / args.steps * per_traj)

    recs = {side: replay(side, 1)[1] for side in sides}
    both = np.isfinite(recs["base"]) & np.isfinite(recs["head"])
    result = {
        "shape": {"n": args.n, "batch": args.batch, "steps": args.steps,
                  "dt": DT, "rounds": args.rounds, "repeats": REPEATS,
                  "seed": SEED},
        "max_abs_record_diff": float(np.max(
            np.abs(recs["base"] - recs["head"]), where=both, initial=0.0)),
        "rounds": readings,
    }
    print(f"n = {args.n}, B = {args.batch}, {args.steps} steps, "
          f"{args.rounds} rounds; us per trajectory")
    for key in keys:
        base, head = readings["base"][key], readings["head"][key]
        ratios = [h / b for b, h in zip(base, head)]
        wins = sum(h < b for b, h in zip(base, head))
        result[key] = {"base_q1_median_q3": quartiles(base),
                       "head_q1_median_q3": quartiles(head),
                       "median_ratio": statistics.median(ratios),
                       "head_wins": wins}
        print(f"{key:13s} base {statistics.median(base):7.2f}  head "
              f"{statistics.median(head):7.2f}  ratio "
              f"{statistics.median(ratios):.3f}  head won {wins}/"
              f"{args.rounds}")
    print(f"max |record difference| {result['max_abs_record_diff']:.2e}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(result, f, indent=1)


if __name__ == "__main__":
    main()
