"""The benchmark's three workloads.

Each workload splits one repetition ("rep") into parts:
  inputs(seed, ...)  everything derived from the seed, untimed;
  call(inputs)       the library calls that are timed (and traced);
  check(inputs, raw) the per-rep correctness gates, untimed;
  gate(reps, ...)    gates on the first `pooled_reps` reps of a run, untimed.
A rep's seed becomes the ensemble's master_seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from dcollapse import cli, ensemble, master
from dcollapse.ensemble import ExperimentConfig
from dcollapse.gaussian import GaussianState
from dcollapse.grid import RECORD_FIELDS
from dcollapse.model import ModelParams

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference_density.json")

Z_MAX, L1_MAX = 4.5, 0.1     # the thresholds `dcollapse verify` applies
BORN_Z_MAX = 4.5
EXACT_TOL = 1e-9             # exact route vs closed-form Gaussian, x peak
RECORDED_TOL = 1e-8          # expansion/smoothed vs recorded values, x peak
ROUTES = ("exact", "expansion", "smoothed", "free")
GATED_ROUTES = ("exact", "expansion", "smoothed")

_Q = RECORD_FIELDS.index("q_mean")


@dataclass
class RepResult:
    """What one rep did, as the run-level metrics and gates need it."""

    wall_s: float                 # wall time of the timed calls
    traj_steps: int               # trajectory-steps integrated
    density_points: int           # density values produced
    density_s: float              # seconds in the calls that produce them
    attempted: int                # gated operations
    failed: int                   # aborted trajectories and failed points
    aborted: int
    samples: np.ndarray           # per-trajectory samples of the estimator
    ens_cfg: ExperimentConfig     # config of the rep's trajectory ensemble
    ens_s: float                  # seconds in that ensemble's run_ensemble
    ensemble: tuple | None        # its (summary, records, aborted); None
                                  # once checked, unless the run pools it
    fingerprint: str              # digest of the rep's outputs
    errors: list = field(default_factory=list)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _final(records, aborted):
    return records[-1, ~aborted, :]


def _q_mean(records, aborted):
    return _final(records, aborted)[:, _Q]


class Workload:
    name = ""
    pooled_reps = 0   # leading reps of a run whose ensembles gate() reads

    def rep(self, seed: int, workers: int | None = None,
            broken: bool = False) -> RepResult:
        inp = self.inputs(seed, workers, broken)
        return self.check(inp, self.call(inp))

    def gate(self, reps, broken: bool = False) -> list:
        return []


class _Ensemble(Workload):
    """Shared shape of the two trajectory workloads."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    def setup_config(self) -> ExperimentConfig:
        return self.cfg

    def inputs(self, seed, workers=None, broken=False):
        cfg = self.cfg.replace(master_seed=seed)
        if workers is not None:
            cfg = cfg.replace(n_workers=workers)
        return cfg, broken

    def _result(self, cfg, raw, samples, errors):
        summary, records, aborted = raw["ensemble"]
        n, n_aborted = cfg.n_trajectories, int(aborted.sum())
        return RepResult(
            wall_s=raw["wall_s"], traj_steps=n * cfg.n_steps,
            density_points=n * cfg.n_points,
            density_s=raw["ens_s"], attempted=n, failed=n_aborted,
            aborted=n_aborted, samples=samples, ens_cfg=cfg,
            ens_s=raw["ens_s"], ensemble=raw["ensemble"],
            fingerprint=_digest(summary.to_json().encode()), errors=errors)


class EnsembleGaussian(_Ensemble):
    """Stationary-width Gaussian, checked against the master moments.

    The [-24, 24] box keeps packets that wander to +-8 by t = 3 clear of
    the boundary check; the default [-16, 16] box aborts some of them.
    """

    name = "ensemble_gaussian"
    pooled_reps = 3

    def __init__(self, tiny: bool = False, out_dir: str = ""):
        cfg = ExperimentConfig(
            equation="nonlinear", initial="gaussian", xbar0=1.0, kbar0=-0.3,
            x_min=-24.0, x_max=24.0, n_points=256, dt=0.01, n_steps=300,
            record_every=20, n_trajectories=256, batch_size=128,
            n_workers=1)
        if tiny:
            cfg = cfg.replace(x_min=-16.0, x_max=16.0, n_points=128,
                              n_steps=100)
        super().__init__(cfg)

    def call(self, inp):
        cfg, _ = inp
        t0 = time.perf_counter()
        summary, records, aborted = ensemble.run_ensemble(
            cfg, return_records=True)
        t1 = time.perf_counter()
        ensemble.compare_to_master(cfg, summary, records, aborted)
        t2 = time.perf_counter()
        return {"ensemble": (summary, records, aborted),
                "ens_s": t1 - t0, "wall_s": t2 - t0}

    def check(self, inp, raw):
        cfg, _ = inp
        return self._result(cfg, raw, _q_mean(*raw["ensemble"][1:]), [])

    def gate(self, reps, broken=False):
        """verify's ensemble-vs-master check on the trajectories of the
        run's first pooled_reps reps, so that every run and every commit
        applies the same test, however many reps fit into the run.

        One rep's 256 trajectories are too few for it: the skewed <p^2>
        sample alone fails |z| < 4.5 for about one master seed in 80."""
        reps = reps[:self.pooled_reps]
        summaries = [r.ensemble[0] for r in reps]
        records = np.concatenate([r.ensemble[1] for r in reps], axis=1)
        aborted = np.concatenate([r.ensemble[2] for r in reps])
        n_ok = [int((~r.ensemble[2]).sum()) for r in reps]
        density = sum(n * s.density for n, s in zip(n_ok, summaries)) \
            / max(sum(n_ok), 1)
        pooled = dataclasses.replace(
            summaries[0], density=density, n_aborted=int(aborted.sum()),
            n_trajectories=int(aborted.size))
        theory = reps[0].ens_cfg
        if broken:  # a wrong gate input: the theory starts from another packet
            theory = theory.replace(xbar0=theory.xbar0 + 1.0)
        comp = ensemble.compare_to_master(theory, pooled, records, aborted)
        if comp.passed(Z_MAX, L1_MAX):
            return []
        return [f"ensemble vs master over {aborted.size} trajectories: "
                f"max|z| {comp.max_abs_z:.3g} (< {Z_MAX}), "
                f"L1 {comp.l1_density:.3g} (< {L1_MAX})"]


class TwoPacketDense(_Ensemble):
    """The two-packet reduction, recorded at every step on two workers.

    dt = 0.005 keeps the Euler update inside its step budget while the
    packets are 10 apart; at dt = 0.01 the right-branch fraction reads
    0.678 over 4096 trajectories (z = -3.1 against the 0.7 weight).
    """

    name = "twopacket_dense"

    def __init__(self, tiny: bool = False, out_dir: str = ""):
        cfg = ExperimentConfig(
            equation="nonlinear", initial="superposition",
            centers=(-5.0, 5.0), weights=(0.3, 0.7), x_min=-24.0,
            x_max=24.0, n_points=512, dt=0.005, n_steps=300, record_every=1,
            n_trajectories=128, batch_size=32, n_workers=2)
        if tiny:
            cfg = cfg.replace(dt=0.01, n_steps=150, n_trajectories=64)
        super().__init__(cfg)

    def call(self, inp):
        cfg, _ = inp
        t0 = time.perf_counter()
        out = ensemble.run_ensemble(cfg, return_records=True)
        t1 = time.perf_counter()
        return {"ensemble": out, "ens_s": t1 - t0, "wall_s": t1 - t0}

    def check(self, inp, raw):
        cfg, broken = inp
        _, records, aborted = raw["ensemble"]
        right = (_final(records, aborted)[:, _Q] > 0.0).astype(float)
        # Born rule: the right branch wins with its weight; a wrong gate
        # input expects the left weight instead
        w = cfg.weights[0] if broken else cfg.weights[1]
        errors = []
        if right.size == 0:
            errors.append("every trajectory aborted")
        else:
            se = math.sqrt(w * (1.0 - w) / right.size)
            frac = float(right.mean())
            if abs(frac - w) > BORN_Z_MAX * se:
                errors.append(f"Born fraction {frac:.4f} is not within "
                              f"{BORN_Z_MAX} SE ({se:.4f}) of {w}")
        return self._result(cfg, raw, right, errors)


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as f:
        ref = json.load(f)
    ref["params"] = ModelParams(**ref["params"])
    s = ref["state"]
    ref["state"] = GaussianState(a=complex(s["a_real"], s["a_imag"]),
                                 xbar=s["xbar"], kbar=s["kbar"])
    for key in ("x", "expansion", "smoothed"):
        ref[key] = [np.asarray(row) for row in ref[key]]
    return ref


def gaussian_reference(g0, t, p, x):
    """Density of the Gaussian built from the coeff_flow moments, and its
    peak value."""
    c0 = master.coefficients_from_gaussian(g0, p)
    mom = master.moments_from_coefficients(master.coeff_flow(c0, t, p), p)
    peak = 1.0 / math.sqrt(2.0 * math.pi * mom.var_q)
    return peak * np.exp(-((x - mom.q_mean) ** 2) / (2.0 * mom.var_q)), peak


class _Capture:
    """Pass-through for a function looked up by name, keeping each call's
    first argument, result and duration."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, first, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.fn(first, *args, **kwargs)
        self.calls.append((first, out, time.perf_counter() - t0))
        return out


class MasterVerify(Workload):
    """Master side only: every position_density route at three times, then
    `dcollapse verify` in-process, writing its report under out_dir.

    The seed picks the density points.  verify runs at its default master
    seed, as users run it: its own ensemble check is a 4.5-sigma test on
    256 trajectories and fails for some seeds (179 is one) without any
    defect in the dynamics.
    """

    name = "master_verify"

    def __init__(self, tiny: bool = False, out_dir: str = ""):
        self.ref = load_reference()
        self.points = 2 if tiny else 12
        self.out_dir = out_dir

    def setup_config(self) -> ExperimentConfig:
        g = self.ref["state"]
        return ExperimentConfig(xbar0=g.xbar, kbar0=g.kbar)

    def inputs(self, seed, workers=None, broken=False):
        rng = np.random.default_rng(seed)
        picks = [np.sort(rng.choice(len(x), self.points, replace=False))
                 for x in self.ref["x"]]
        return picks, broken

    def call(self, inp):
        picks, _ = inp
        ref = self.ref
        g0, p = ref["state"], ref["params"]
        dens = {}
        t0 = time.perf_counter()
        for i, t in enumerate(ref["times"]):
            x = ref["x"][i][picks[i]]
            for route in ROUTES:
                dens[i, route] = master.position_density(
                    g0, t, p, x, method=route).density
        t1 = time.perf_counter()
        capture = _Capture(cli.run_ensemble)
        saved, cli.run_ensemble = cli.run_ensemble, capture
        try:
            with contextlib.redirect_stdout(io.StringIO()) as log:
                rc = cli.main(["verify", "--out", self.out_dir])
        finally:
            cli.run_ensemble = saved
        t2 = time.perf_counter()
        return {"dens": dens, "rc": rc, "log": log.getvalue(),
                "ensembles": capture.calls, "density_s": t1 - t0,
                "wall_s": t2 - t0}

    def check(self, inp, raw):
        picks, broken = inp
        ref = self.ref
        errors = []
        failed_points = 0
        for i, t in enumerate(ref["times"]):
            x = ref["x"][i][picks[i]]
            gauss, peak = gaussian_reference(ref["state"], t, ref["params"], x)
            expect = {"exact": (gauss, EXACT_TOL * peak)}
            # a wrong gate input: recorded values off by one part in 1e6
            scale = 1.0 + 1e-6 if broken else 1.0
            for route in ("expansion", "smoothed"):
                rec = ref[route][i]
                expect[route] = (rec[picks[i]] * scale,
                                 RECORDED_TOL * float(np.max(rec)))
            for route, (want, tol) in expect.items():
                bad = int(np.sum(np.abs(raw["dens"][i, route] - want) > tol))
                if bad:
                    failed_points += bad
                    errors.append(f"{route} density at t={t}: {bad} points "
                                  f"off by more than {tol:.3g}")
        if raw["rc"] != 0:
            errors.append(f"verify exited {raw['rc']}:\n{raw['log']}")
        if len(raw["ensembles"]) != 1:
            raise RuntimeError("expected verify to run one ensemble, it ran "
                               f"{len(raw['ensembles'])}")
        cfg, out, ens_s = raw["ensembles"][0]
        summary, records, aborted = out
        n_points = sum(len(pk) for pk in picks)
        dens = b"".join(raw["dens"][k].tobytes() for k in sorted(raw["dens"]))
        return RepResult(
            wall_s=raw["wall_s"], traj_steps=cfg.n_trajectories * cfg.n_steps,
            density_points=n_points * len(ROUTES),
            density_s=raw["density_s"],
            attempted=n_points * len(GATED_ROUTES) + cfg.n_trajectories,
            failed=failed_points + int(aborted.sum()),
            aborted=int(aborted.sum()), samples=_q_mean(records, aborted),
            ens_cfg=cfg, ens_s=ens_s, ensemble=out,
            fingerprint=_digest(summary.to_json().encode(), dens),
            errors=errors)


WORKLOADS = {w.name: w for w in (EnsembleGaussian, TwoPacketDense,
                                 MasterVerify)}
