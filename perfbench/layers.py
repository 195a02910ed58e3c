"""Per-layer figures for the traced run: replays of single layers at a
workload's shape, and layer totals derived from the recorded spans."""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from dcollapse import grid, master

REPLAY_STEPS = 40


def _seconds(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def grid_replay(cfg, seed: int, fft, repeats: int = 5) -> dict:
    """Step and record cost of evolve_batch at the (n, B) of cfg.

    A sparse replay records only at both ends; a dense one records after
    every step.  Their difference over the REPLAY_STEPS - 1 extra records
    gives the record cost; the sparse replay minus its two records gives
    the step cost.  FFT calls are split the same way and are exact.
    """
    g, p = cfg.grid(), cfg.params()
    n_batch = min(cfg.batch_size, cfg.n_trajectories)
    psi = np.broadcast_to(cfg.initial_psi(g), (n_batch, g.n)).copy()
    incr = np.stack([grid.NoiseStream(seed, i).increments(REPLAY_STEPS, cfg.dt)
                     for i in range(n_batch)])

    def replay(every):
        return grid.evolve_batch(psi, g, p, cfg.dt, REPLAY_STEPS, incr,
                                 equation=cfg.equation, record_every=every)

    _, fft_sparse = fft.count(replay, REPLAY_STEPS)
    _, fft_dense = fft.count(replay, 1)
    sparse, dense = [], []
    for _ in range(repeats):
        sparse.append(_seconds(replay, REPLAY_STEPS))
        dense.append(_seconds(replay, 1))
    extra = REPLAY_STEPS - 1
    rec_s = (statistics.median(dense) - statistics.median(sparse)) / extra
    step_s = (statistics.median(sparse) - 2.0 * rec_s) / REPLAY_STEPS
    fft_rec = (fft_dense - fft_sparse) / extra
    return {
        "grid.step_us_per_traj_step": 1e6 * step_s / n_batch,
        "grid.fft_calls_per_step": (fft_sparse - 2.0 * fft_rec) / REPLAY_STEPS,
        "grid.record_us_per_traj_record": 1e6 * rec_s / n_batch,
        "grid.fft_calls_per_record": fft_rec,
    }


def density_replay(ref: dict, routes, n_points: int = 4,
                   repeats: int = 3) -> dict:
    """Milliseconds per point of each position_density route, on n_points
    lattice points at the middle reference time."""
    i = len(ref["times"]) // 2
    t, x = ref["times"][i], ref["x"][i]
    x = x[np.linspace(0, len(x) - 1, n_points).astype(int)]
    out = {}
    for route in routes:
        sec = statistics.median(
            _seconds(master.position_density, ref["state"], t, ref["params"],
                     x, method=route)
            for _ in range(repeats))
        out[f"master.density_ms_per_point.{route}"] = 1e3 * sec / n_points
    return out


# Metrics of the layers that only `dcollapse verify` enters on some
# workloads, with the layer whose spans they come from.
VERIFY_SIDE = {
    "master.compare_busy_s": "master",
    "master.coeff_flow_us": "master",
    "master.coeff_flow_calls": "master",
    "gaussian.integrate_a_ode_busy_s": "gaussian",
    "gaussian.integrate_covariance_busy_s": "gaussian",
    "localization.busy_s": "localization",
    "verify.ensemble_busy_s": "cli",
    "cli.self_s": "cli",
}


def _tree(tracer, root):
    """The spans under `root`, root first.  Span ids follow start order, so
    a parent always precedes its children."""
    inside = {root.span_id}
    out = [root]
    for s in tracer.spans[root.span_id + 1:]:
        if s.parent in inside:
            inside.add(s.span_id)
            out.append(s)
    return out


def layers_entered(tracer, root) -> set:
    return {s.name.split(".")[0] for s in _tree(tracer, root)[1:]}


def span_metrics(tracer, root) -> dict:
    """Layer totals of the spans under `root`."""
    own = tracer.self_times()
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    verify_ens = 0.0
    for s in _tree(tracer, root)[1:]:
        dur[s.name] += s.duration
        self_s[s.name] += own[s.span_id]
        calls[s.name] += 1
        if s.name in ("ensemble.run_ensemble", "master.compare_to_master") \
                and any(a.name == "cli.main" for a in tracer.ancestors(s)):
            verify_ens += s.duration
    n_cf = calls["master.coeff_flow"]
    # time no leaf layer accounts for: the root's own, and the self time of
    # the two spans that only hand work on to other layers
    unattributed = (own[root.span_id] + self_s["ensemble.run_ensemble"]
                    + self_s["cli.main"])
    return {
        "grid.evolve_batch_busy_s": dur["grid.evolve_batch"],
        "noise.busy_s": dur["noise.increments"],
        "noise.calls": calls["noise.increments"],
        "ensemble.self_s": self_s["ensemble.run_ensemble"],
        "ensemble.batches": calls["grid.evolve_batch"],
        "master.compare_busy_s": dur["master.compare_to_master"],
        "master.coeff_flow_us": 1e6 * dur["master.coeff_flow"] / n_cf
        if n_cf else 0.0,
        "master.coeff_flow_calls": n_cf,
        "gaussian.integrate_a_ode_busy_s": dur["gaussian.integrate_a_ode"],
        "gaussian.integrate_covariance_busy_s":
            dur["gaussian.integrate_covariance"],
        "localization.busy_s": sum(v for k, v in dur.items()
                                   if k.startswith("localization.")),
        "verify.ensemble_busy_s": verify_ens,
        "cli.self_s": self_s["cli.main"],
        "trace.attributed_frac": 1.0 - unattributed / root.duration,
    }
