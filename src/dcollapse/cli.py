"""Command-line interface.

Subcommands:
    constants   derived stationary constants for a parameter set
    gaussian    closed-form width/spread relaxation curves
    trajectory  one stochastic grid trajectory, moment records
    ensemble    batched ensemble run with summary statistics; a nonlinear
                superposition run also writes its localization curve and
                per-trajectory branch outcomes and prints the branch
                fractions against the Born weights, a nonlinear Gaussian
                run prints the L1 distance of its final density to each
                master density route
    master      closed-form master-equation coefficient flow
    density     closed-form master densities at the final time by four
                routes (exact / expansion / smoothed / free); master and
                density need a Gaussian initial state
    verify      internal consistency battery (exit code 2 on failure)

Common flags: --config PATH (flat key=value or JSON experiment file),
--seed N (overrides the master seed), --out DIR, --units si|natural,
--format csv|json.  Exit codes: 0 success, 1 run error, 2 verification
failure.  Every output file is written here, through _write_text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import gaussian as ge
from . import localization as loc
from . import master as me
from .constants import BOLTZMANN, NUCLEON_MASS
from .ensemble import (ExperimentConfig, _abort_reason, branch_outcomes,
                       compare_to_master, run_ensemble)
from .errors import InstabilityError
from .grid import RECORD_FIELDS, NoiseStream, evolve_batch, record_steps
from .model import derive_constants, scale_parameters


def _add_common(sp):
    sp.add_argument("--config", default=None, help="experiment file")
    sp.add_argument("--seed", type=int, default=None, help="master seed override")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--units", choices=("si", "natural"), default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.units is not None:
        cfg = cfg.replace(units=args.units)
    if args.seed is not None:
        cfg = cfg.replace(master_seed=args.seed)
    return cfg


def _write_text(args, name, text):
    """Write text to the file name under args.out, making the directory
    first, and return its path: every file the commands write goes
    through here."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _write_table(args, name, schema, cols, rows):
    """Write a table under args.out as name.csv or name.json, as
    args.format says.  A CSV row prints a number as %.17g and a string as
    it is."""
    file_name = f"{name}.{args.format}"
    if args.format == "json":
        return _write_text(args, file_name, json.dumps(
            {"schema": schema, "columns": list(cols),
             "rows": np.atleast_2d(rows).tolist()}, sort_keys=True) + "\n")
    lines = [f"# schema={schema}", ",".join(cols)]
    lines += [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)
              for row in rows]
    return _write_text(args, file_name, "\n".join(lines) + "\n")


def cmd_constants(args) -> int:
    cfg = _load_config(args)
    if args.mass is not None:
        cfg = cfg.replace(mass=args.mass)
    elif cfg.units == "si" and "mass" not in (
            ExperimentConfig.read_fields(args.config) if args.config else {}):
        # SI mass defaults to the reference nucleon mass; the field's
        # default of 1.0 cannot tell a config that sets it apart
        cfg = cfg.replace(mass=NUCLEON_MASS)
    p = cfg.params()
    d = derive_constants(p, boltzmann=BOLTZMANN if cfg.units == "si" else 1.0)
    rows = {
        "mass": p.mass,
        "collapse_rate": p.collapse_rate,
        "momentum_coupling": p.momentum_coupling,
        "hbar": p.hbar,
        "omega": d.omega,
        "theta": d.theta,
        "omega1": d.omega1,
        "omega2": d.omega2,
        "kappa": d.kappa,
        "a_inf_real": d.a_inf.real,
        "a_inf_imag": d.a_inf.imag,
        "sigma_q_bar": d.sigma_q_bar,
        "sigma_p_bar": d.sigma_p_bar,
        "sigma_qp_bar_sq": d.sigma_qp_bar_sq,
        "uncertainty_product": d.sigma_q_bar * d.sigma_p_bar,
        "energy_inf": d.energy_inf,
        "temperature": d.temperature,
    }
    if args.format == "json":
        path = _write_text(args, "constants.json",
                           json.dumps({"schema": "constants-v1", **rows},
                                      sort_keys=True, indent=1) + "\n")
    else:
        path = _write_table(args, "constants", "constants-v1",
                            ["name", "value"], rows.items())
    print(f"constants written to {path}")
    print(f"omega={d.omega:.6g}  theta={d.theta:.6g}  "
          f"sigma_q_bar={d.sigma_q_bar:.6g}  energy_inf={d.energy_inf:.6g}")
    return 0


def cmd_gaussian(args) -> int:
    cfg = _load_config(args)
    p = cfg.params()
    g0 = cfg.initial_gaussian()
    steps = record_steps(cfg.n_steps, cfg.record_every)
    times = np.asarray(steps, dtype=float) * cfg.dt
    a_t = ge.a_closed_form(g0.a, times, p)
    tr = ge.spreads(a_t, p)
    so = loc.sigma_O_sq(tr.sigma_q**2, tr.sigma_p**2, tr.sigma_qp_sq, p)
    cov = ge.stationary_covariance(times, p)
    body = np.column_stack([
        times, a_t.real, a_t.imag, tr.sigma_q, tr.sigma_p, tr.sigma_qp_sq,
        np.broadcast_to(so, times.shape), cov.qq, cov.qp, cov.pp,
    ])
    cols = ["t", "a_real", "a_imag", "sigma_q", "sigma_p", "sigma_qp_sq",
            "sigma_O_sq", "cov_qq", "cov_qp", "cov_pp"]
    path = _write_table(args, "gaussian", "gaussian-relaxation-v1", cols, body)
    print(f"gaussian relaxation written to {path}")
    return 0


def cmd_trajectory(args) -> int:
    cfg = _load_config(args)
    grid = cfg.grid()
    incr = NoiseStream(cfg.master_seed, 0).increments(cfg.n_steps, cfg.dt)
    _, records, _, aborted = evolve_batch(
        cfg.initial_psi(grid), grid, cfg.params(), cfg.dt, cfg.n_steps,
        incr[None, :], equation=cfg.equation, record_every=cfg.record_every)
    path = _write_table(args, "trajectory", "trajectory-v1",
                        list(RECORD_FIELDS), records[:, 0, :])
    print(f"trajectory records written to {path}")
    if aborted[0]:
        print("trajectory aborted a validity check"
              f"{_abort_reason(cfg)}", file=sys.stderr)
        return 1
    return 0


def _require_gaussian(cfg, command):
    """Refuse a superposition config: the closed-form master results
    describe a single Gaussian start only."""
    if cfg.initial != "gaussian":
        raise ValueError(f"dcollapse {command} needs a Gaussian initial state")


def _route_profiles(cfg, t, x) -> dict:
    """The master density of the config's Gaussian start at time t on x,
    by each position_density route."""
    return {m: me.position_density(cfg.initial_gaussian(), t, cfg.params(),
                                   x, method=m)
            for m in ("exact", "expansion", "smoothed", "free")}


def _report_branches(args, cfg, records, aborted) -> list:
    localization, outcomes = branch_outcomes(cfg, records, aborted)
    written = [
        _write_table(args, "localization", "ensemble-localization-v1",
                     ["t", "localized_fraction", "mean_sigma_q"],
                     localization),
        _write_table(args, "outcomes", "ensemble-outcomes-v1",
                     ["trajectory", "settled", "t_reduce", "branch"],
                     outcomes)]
    settled = outcomes[:, 1] == 1
    n = int(settled.sum())
    print(f"localized at end: {localization[-1, 1]:.3f} "
          f"({n} of {settled.size} kept trajectories)")
    if n == 0:
        return written
    weights = np.asarray(cfg.weights) / sum(cfg.weights)
    for k, (c, w) in enumerate(zip(cfg.centers, weights)):
        frac = np.mean(outcomes[settled, 3] == k)
        print(f"branch {k} at {c:g}: fraction {frac:.4f} (weight {w:.3f}, "
              f"binomial se {math.sqrt(w * (1.0 - w) / n):.4f})")
    t_reduce = outcomes[settled, 2]
    print(f"reduction time: median {np.median(t_reduce):.3f}, "
          f"90th pct {np.percentile(t_reduce, 90):.3f}")
    return written


def cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    summary, records, aborted = run_ensemble(cfg, return_records=True)
    if args.format == "json":
        written = [_write_text(args, "summary.json", summary.to_json() + "\n")]
    else:
        # each field's mean and standard error side by side, behind t
        cols = ["t"] + [f"{stat}_{name}" for name in RECORD_FIELDS[1:]
                        for stat in ("mean", "sem")]
        pairs = np.stack([summary.mean[:, 1:], summary.sem[:, 1:]], axis=2)
        centers = 0.5 * (summary.hist_edges[:-1] + summary.hist_edges[1:])
        written = [
            _write_table(args, "moments", "ensemble-moments-v1", cols,
                         np.column_stack([summary.times,
                                          pairs.reshape(len(pairs), -1)])),
            _write_table(args, "final_density", "ensemble-density-v1",
                         ["x", "density"],
                         np.column_stack([summary.density_x, summary.density])),
            _write_table(args, "final_q_hist", "ensemble-hist-v1",
                         ["q_center", "count"],
                         np.column_stack([centers, summary.hist_counts]))]
    print(f"{cfg.n_trajectories} trajectories, {summary.n_aborted} aborted")
    # raw-measure branch fractions of the linear equation would mislead
    if cfg.equation == "nonlinear" and cfg.initial == "superposition":
        written += _report_branches(args, cfg, records, aborted)
    elif cfg.equation == "nonlinear":
        x = summary.density_x
        profiles = _route_profiles(cfg, float(summary.times[-1]), x)
        for m, prof in profiles.items():
            l1 = np.abs(summary.density - prof.density).sum() * (x[1] - x[0])
            print(f"L1(ensemble, {m:10s}) = {l1:.5f}")
    for w in written:
        print(f"wrote {w}")
    return 0


def cmd_master(args) -> int:
    cfg = _load_config(args)
    _require_gaussian(cfg, "master")
    p = cfg.params()
    c0 = me.coefficients_from_gaussian(cfg.initial_gaussian(), p)
    steps = record_steps(cfg.n_steps, cfg.record_every)
    times = np.asarray(steps, dtype=float) * cfg.dt
    c = me.coeff_flow(c0, times, p)
    mom = me.moments_from_coefficients(c, p)
    body = np.column_stack([
        times, c.c1, c.c2, c.c3, c.c4, c.c5, np.full_like(times, c.c6),
        mom.q_mean, mom.p_mean, mom.var_q, mom.var_p, mom.cov_qp,
        me.energy_from_coefficients(c, p), me.purity(c, p)])
    cols = ["t", "c1", "c2", "c3", "c4", "c5", "c6", "q_mean", "p_mean",
            "var_q", "var_p", "cov_qp", "energy", "purity"]
    path = _write_table(args, "master", "master-flow-v1", cols, body)
    print(f"master coefficient flow written to {path}")
    return 0


def cmd_density(args) -> int:
    cfg = _load_config(args)
    _require_gaussian(cfg, "density")
    t = cfg.dt * cfg.n_steps
    grid, p = cfg.grid(), cfg.params()
    # a density narrower than dx falls on one grid point or none, and
    # its trapezoid norm reads anything
    c0 = me.coefficients_from_gaussian(cfg.initial_gaussian(), p)
    sigma_q = math.sqrt(
        me.moments_from_coefficients(me.coeff_flow(c0, t, p), p).var_q)
    if sigma_q < grid.dx:
        raise ValueError(
            f"the grid cannot resolve the density at t={t:g}: its width "
            f"sigma_q = {sigma_q:.3g} is below the grid spacing "
            f"dx = {grid.dx:.3g}; raise n_points or narrow the box "
            "(x_min, x_max)")
    x = grid.x
    profiles = _route_profiles(cfg, t, x)
    body = np.column_stack([x] + [profiles[m].density for m in profiles])
    cols = ["x"] + list(profiles)
    path = _write_table(args, "density", "density-v1", cols, body)
    beta = profiles["smoothed"].beta
    print(f"densities at t={t:g} written to {path}")
    print("norms: " + "  ".join(f"{m}={profiles[m].norm:.6f}" for m in profiles)
          + (f"  beta_t={beta:.6g}" if beta is not None else ""))
    return 0


def _relative(gap, size):
    """gap / size elementwise, reading 0 / 0 as 0."""
    with np.errstate(divide="ignore"):
        return np.divide(gap, size, out=np.zeros_like(gap), where=gap != 0.0)


def _ode_residual(f, terms, t, y0) -> float:
    """How far the closed form f is from the solution of dy/dt =
    sum(terms(y)), y(0) = y0, on the time grid t (t[0] = 0, time on axis 0
    of f(t)).  A function that meets its start and its ODE at every point
    is the solution, so no integrator is needed.

    Returns the larger of two relative gaps.  One is the fourth-order
    central difference of f at step h = 1e-3 t[-1] / len(t), on the grid
    points t >= 2h, against the right-hand side.  It is relative to the
    larger of two sizes: the summed sizes of the terms, and the largest |f|
    on the grid divided by the span t[-1], so a component that barely moves
    is measured on the scale of its value.  The other is f(0) against y0,
    relative to the largest |f| on the grid.  A gap of 0 over a size of 0
    (a component that stays 0) reads 0.
    """
    h = 1e-3 * t[-1] / len(t)
    t = t[t >= 2.0 * h]
    slope = (f(t - 2.0 * h) - 8.0 * f(t - h) + 8.0 * f(t + h)
             - f(t + 2.0 * h)) / (12.0 * h)
    y = f(t)
    parts = terms(y)
    y_max = np.max(np.abs(y), axis=0)
    ode = _relative(np.abs(slope - sum(parts)),
                    np.maximum(sum(np.abs(x) for x in parts), y_max / t[-1]))
    start = _relative(np.abs(f(np.zeros(1)) - y0), y_max)
    # np.maximum, not max: a NaN in either gap must fail the check
    return float(np.maximum(np.max(ode), np.max(start)))


def _riccati_terms(a, p):  # free spreading, damping, collapse
    lam = p.collapse_rate
    return (-(2j * p.hbar / p.mass) * a * a,
            -4.0 * lam * p.momentum_coupling * a, lam)


def _contraction_gap(a, p):
    """drift_prediction against the slope of sigma_O^2 along the width law
    at the widths a, relative to the sizes of the slope's three terms."""
    ar, ai, hb = a.real, a.imag, p.hbar
    r = sum(_riccati_terms(a, p))
    # the squared spreads' slopes; sigma_O^2 is affine in the spreads
    dq = -r.real / (4.0 * ar * ar)
    dp = hb * hb * (r.real * (1.0 - (ai / ar) ** 2) + 2.0 * ai * r.imag / ar)
    dqp = hb * (ai * r.real / ar - r.imag) / (2.0 * ar)
    slope = loc.sigma_O_sq(dq, dp, dqp, p) - loc.sigma_O_sq(0.0, 0.0, 0.0, p)
    s = ge.spreads(a, p)
    drift = loc.drift_prediction(s.sigma_q**2, s.sigma_p**2, s.sigma_qp_sq, p)
    sq2, sp2, sqp2 = loc._bars(p)  # sigma_O^2's own coefficients
    size = np.abs(dp) + (sp2 * np.abs(dq)
                         + 2.0 * abs(sqp2) * np.abs(dqp)) / sq2
    return _relative(np.abs(slope - drift), size)


def _verify_checks(cfg) -> dict:
    """Run verify's checks in report order."""
    p = cfg.params()
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    d = derive_constants(p, boltzmann=1.0)
    rng = np.random.default_rng(cfg.master_seed)
    checks = {}

    # the constants are the width law's fixed point: its right-hand side
    # vanishes at a_inf (each part relative to its real monomials' sizes),
    # its slope there is omega1 + i omega2, whence omega, theta and kappa,
    # the bars are a_inf's spreads, and the temperature is 2 energy_inf
    ar, ai = d.a_inf.real, d.a_inf.imag
    g, k = 4.0 * lam * al, 4.0 * hb / m
    bars = ge.spreads(d.a_inf, p)
    gaps, sizes = np.array([
        (k * ar * ai - g * ar + lam, abs(k * ar * ai) + g * ar + lam),
        (0.5 * k * (ai * ai - ar * ar) - g * ai,
         0.5 * k * (ar * ar + ai * ai) + g * abs(ai)),
        (g - k * ai - d.omega1, g + k * abs(ai)),
        (k * ar - d.omega2, k * ar),
        (bars.sigma_q - d.sigma_q_bar, d.sigma_q_bar),
        (bars.sigma_p - d.sigma_p_bar, d.sigma_p_bar),
        (bars.sigma_qp_sq - d.sigma_qp_bar_sq, abs(d.sigma_qp_bar_sq)),
        (d.omega - math.hypot(d.omega1, d.omega2) / math.sqrt(2.0), d.omega),
        (d.theta - math.atan2(d.omega2, d.omega1), abs(d.theta)),
        (d.kappa - g / math.hypot(d.omega1, d.omega2), d.kappa),
        # in reciprocals, which read 0 where both are inf (alpha = 0)
        (1.0 / d.temperature - 0.5 / d.energy_inf, 1.0 / d.temperature),
    ]).T
    checks["stationary_identities"] = {
        "max_residual": float(np.max(_relative(np.abs(gaps), sizes))),
        "tol": 1e-9,
    }

    t_grid = np.linspace(0.0, 8.0 / d.omega1, 400)
    a0 = (d.a_inf * rng.uniform(0.3, 3.0, size=32)
          + 1j * np.abs(d.a_inf) * rng.uniform(-0.5, 0.5, size=32))
    a0 = np.where(a0.real > 0, a0, a0 - 2 * a0.real)
    checks["width_closed_form"] = {
        "max_residual": _ode_residual(
            lambda t: ge.a_closed_form(a0, t[:, None], p),
            lambda a: _riccati_terms(a, p), t_grid, a0),
        "tol": 1e-8,
    }

    # the coefficient system of master's docstring, on c1..c5 (c6 is
    # constant); the terms are transport, damping and noise, with the
    # coefficients on the last axis
    starts = np.column_stack([rng.uniform(0.2, 2.0, size=(8, 3)),
                              rng.uniform(-1.0, 1.0, size=(8, 2))])

    def coefficients(t):
        c = me.coeff_flow(me.CharCoefficients(*starts.T), t[:, None], p)
        return np.stack([c.c1, c.c2, c.c3, c.c4, c.c5], axis=-1)

    def coefficient_terms(y):
        _, c2, c3, _, c5 = np.moveaxis(y, -1, 0)
        zero = np.zeros_like(c2)
        return (np.stack([c2 / m, 2.0 * c3 / m, zero, c5 / m, zero], axis=-1),
                np.stack([zero, -2.0 * lam * al * c2, -4.0 * lam * al * c3,
                          zero, -2.0 * lam * al * c5], axis=-1),
                np.array([lam * al * al / (2.0 * hb * hb), 0.0, 0.5 * lam,
                          0.0, 0.0]))

    checks["coefficient_flow"] = {
        "max_residual": _ode_residual(coefficients, coefficient_terms,
                                      np.linspace(0.0, t_grid[-1], 5), starts),
        "tol": 1e-10,
    }

    # the centre covariances (qq, qp, pp) of a trajectory at a_inf, as in
    # stationary_covariance's docstring; the terms are transport, damping
    # and noise, with one column per equation
    s, c = 0.5 / d.a_inf.real - al, -d.a_inf.imag / d.a_inf.real

    def covariances(t):
        cov = ge.stationary_covariance(t, p)
        return np.column_stack([cov.qq, cov.qp, cov.pp])

    def covariance_terms(y):
        _, qp, pp = y.T
        zero = np.zeros_like(qp)
        return (np.column_stack([2.0 * qp / m, pp / m, zero]),
                np.column_stack([zero, -2.0 * lam * al * qp,
                                 -4.0 * lam * al * pp]),
                lam * np.array([s * s, hb * c * s, hb * hb * c * c]))

    checks["stationary_covariance"] = {
        "max_residual": _ode_residual(covariances, covariance_terms,
                                      np.linspace(0, 5.0, 200), 0.0),
        "tol": 1e-6,
    }

    gaps = []
    nucleon = scale_parameters(NUCLEON_MASS)
    d_nucleon = derive_constants(nucleon)
    for pe, de, g0 in ((p, d, cfg.initial_gaussian()),
                       (nucleon, d_nucleon, ge.GaussianState(a=d_nucleon.a_inf))):
        c0 = me.coefficients_from_gaussian(g0, pe)
        e0 = me.energy_from_coefficients(c0, pe)
        rate = 2.0 * pe.collapse_rate * pe.momentum_coupling
        # u = 2 lam alpha t from the laboratory scale to saturation; without
        # damping the config's run time stands in for 1 / (2 lam alpha)
        scale = 1.0 / rate if rate > 0.0 else cfg.dt * cfg.n_steps
        t = np.logspace(-20.0, math.log10(40.0), 16) * scale
        flow = me.energy_from_coefficients(me.coeff_flow(c0, t, pe), pe)
        gaps.append(me.mean_energy(e0, t, pe) / flow - 1.0)
        if math.isfinite(de.energy_inf):
            gaps.append(me.mean_energy(e0, t[-1], pe) / de.energy_inf - 1.0)
        # without momentum coupling the energy grows as e0 + lam hbar^2 t / 2m
        heat = dataclasses.replace(pe, momentum_coupling=0.0)
        t = t[::2]
        linear = e0 + pe.collapse_rate * pe.hbar**2 * t / (2.0 * pe.mass)
        flow = me.energy_from_coefficients(me.coeff_flow(c0, t, heat), heat)
        gaps += [flow / linear - 1.0,
                 me.mean_energy(e0, t, heat) / linear - 1.0]
    # np.max, not max: a NaN gap must fail the check
    checks["energy_relaxation"] = {
        "max_residual": float(np.max(np.abs(np.hstack(gaps)))), "tol": 1e-12}

    # the contraction law, an identity in the width, at the width check's
    # starts; sigma_O^2 of the bars vanishes, on its constant term's scale
    at_rest = loc.sigma_O_sq(bars.sigma_q**2, bars.sigma_p**2,
                             bars.sigma_qp_sq, p)
    checks["localization_drift"] = {
        "max_residual": float(np.maximum(
            np.max(_contraction_gap(a0, p)),
            abs(at_rest) / (hb * hb / (2.0 * d.sigma_q_bar**2)))),
        "tol": 1e-9,
    }

    ver_cfg = cfg.replace(n_trajectories=256, n_steps=100, dt=0.01,
                          record_every=20, n_points=128, initial="gaussian",
                          equation="nonlinear", xbar0=1.0)
    try:
        summary, records, aborted = run_ensemble(ver_cfg, return_records=True)
    except InstabilityError:
        # run_ensemble's advice names dt and the grid, which verify fixes
        raise InstabilityError(
            f"verify's ensemble check aborted all {ver_cfg.n_trajectories} "
            f"trajectories at its fixed settings (dt = {ver_cfg.dt}, "
            f"n_points = {ver_cfg.n_points}, {ver_cfg.n_steps} steps), "
            "which a config does not change; verify cannot check this "
            "model") from None
    comp = compare_to_master(ver_cfg, summary, records, aborted)
    checks["ensemble_vs_master"] = {
        "max_residual": comp.max_abs_z,
        "tol": 4.5,
        "l1_density": comp.l1_density,
        "l1_tol": 0.1,
    }
    return checks


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    if cfg.units == "si":
        raise ValueError("verify runs in natural units only: its ensemble "
                         "check sets its own grid (n_points = 128) and start "
                         "(xbar0 = 1), which cannot resolve a packet in SI "
                         "units; energy_relaxation already checks a nucleon "
                         "in SI units")
    if cfg.params().collapse_rate == 0.0:
        raise ValueError("verify needs collapse_rate > 0: its checks follow "
                         "the relaxation to the stationary width, and "
                         "collapse_rate = 0 has none")
    checks = _verify_checks(cfg)

    all_ok = True
    for name, c in checks.items():
        ok = (c["max_residual"] < c["tol"]
              and c.get("l1_density", 0.0) < c.get("l1_tol", math.inf))
        c["passed"] = bool(ok)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: "
              f"residual {c['max_residual']:.3g} (tol {c['tol']:.3g})")

    path = _write_text(args, "verify.json", json.dumps(
        {"schema": "verify-v1", "passed": bool(all_ok), "checks": checks},
        sort_keys=True, indent=1) + "\n")
    print(f"report written to {path}")
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcollapse",
        description="simulate and verify the dissipative collapse model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "constants": cmd_constants,
        "gaussian": cmd_gaussian,
        "trajectory": cmd_trajectory,
        "ensemble": cmd_ensemble,
        "master": cmd_master,
        "density": cmd_density,
        "verify": cmd_verify,
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "constants":
            sp.add_argument("--mass", type=float, default=None,
                            help="object mass (kg in SI units)")
        sp.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InstabilityError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
