"""End-to-end checks of the package's headline claims.

Every test here gates on a quantitative statement: derived constants for a
nucleon, closed-form width flow against direct integration, relaxation of the
spreads, the norm martingale of the linear equation, reduction of a
two-packet superposition with Born statistics, the variance contraction law,
the characteristic-coefficient flow and its density, energy relaxation, the
moment inequalities, and bit-level determinism of parallel runs.  Each test
prints the measured figure so a failing run is immediately diagnosable.
"""

import math
import time

import numpy as np
import pytest

from dcollapse import gaussian as ge
from dcollapse import grid as gr
from dcollapse import localization as loc
from dcollapse import master as ms
from dcollapse.constants import HBAR, MOMENTUM_COUPLING_BASE, NUCLEON_MASS
from dcollapse.ensemble import (ExperimentConfig, branch_outcomes,
                                run_ensemble)
from dcollapse.gaussian import GaussianState
from dcollapse.model import ModelParams, derive_constants, scale_parameters

from moment_sampler import random_moment_triples
import reference_closed_forms as rcf
from reference_ode import riccati_rhs, rk4_path


def as_vec(c):
    return np.array([c.c1, c.c2, c.c3, c.c4, c.c5, c.c6])


def reldiff(ca, cb):
    a, b = as_vec(ca), as_vec(cb)
    return float(np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-300)))


def random_widths(n, d, rng):
    """Random physical initial widths spread around the stationary one."""
    mag = abs(d.a_inf)
    ar = mag * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    ai = mag * rng.uniform(-2.0, 2.0, size=n)
    return ar + 1j * ai


class TestDerivedConstants:
    def test_nucleon_scale(self):
        t0 = time.perf_counter()
        p = scale_parameters(NUCLEON_MASS)
        d = derive_constants(p)
        elapsed = time.perf_counter() - t0
        print(f"omega={d.omega:.6e} theta={d.theta:.6f} "
              f"T={d.temperature:.4f} E_inf={d.energy_inf:.6e} "
              f"[{elapsed * 1e3:.1f} ms]")
        assert 5e-6 <= d.omega <= 5e-4
        assert abs(d.theta - math.pi / 4) <= 0.01
        assert 0.1 / 3 <= d.temperature <= 0.1 * 3
        e_ref = HBAR**2 / (8.0 * NUCLEON_MASS * MOMENTUM_COUPLING_BASE)
        assert d.energy_inf == pytest.approx(e_ref, rel=1e-12)
        assert elapsed < 1.0

    def test_mass_invariants(self):
        ref = derive_constants(scale_parameters(NUCLEON_MASS))
        kg = derive_constants(scale_parameters(1.0))
        assert kg.omega == pytest.approx(ref.omega, rel=1e-12)
        assert kg.theta == pytest.approx(ref.theta, rel=1e-12)
        assert kg.temperature == pytest.approx(ref.temperature, rel=1e-12)
        assert kg.energy_inf == pytest.approx(ref.energy_inf, rel=1e-12)


class TestWidthFlow:
    def test_closed_form_matches_integration(self, p_nat, d_nat):
        rng = np.random.default_rng(1234)
        a0 = random_widths(100, d_nat, rng)
        t_grid = np.linspace(0.0, 10.0 / d_nat.omega1, 81)
        t0 = time.perf_counter()
        rk = rk4_path(riccati_rhs(p_nat), a0, t_grid, substeps=40)
        closed = ge.a_closed_form(a0[None, :], t_grid[:, None], p_nat)
        rel = float(np.max(np.abs(rk - closed) / np.abs(closed)))
        elapsed = time.perf_counter() - t0
        print(f"width flow max rel err {rel:.3e} over 100 starts "
              f"[{elapsed:.2f} s]")
        assert rel < 1e-6
        assert elapsed < 10.0

    def test_spread_reaches_stationary_value(self, p_nat, d_nat):
        rng = np.random.default_rng(4321)
        a0 = random_widths(100, d_nat, rng)
        t0 = time.perf_counter()
        t_star = 20.0 / d_nat.omega1
        a_t = ge.a_closed_form(a0, t_star, p_nat)
        sig_q = ge.spreads(a_t, p_nat).sigma_q
        worst = float(np.max(np.abs(sig_q / d_nat.sigma_q_bar - 1.0)))
        print(f"spread rel offset at t=20/omega1: {worst:.2e}")
        assert worst <= 1e-3
        assert time.perf_counter() - t0 < 10.0

    def test_stationary_spreads_respect_uncertainty(self):
        rng = np.random.default_rng(5678)
        t0 = time.perf_counter()
        worst = np.inf
        for _ in range(1000):
            lam = 10.0 ** rng.uniform(-4.0, 2.0)
            al = 10.0 ** rng.uniform(-4.0, 2.0)
            p = ModelParams(mass=1.0, collapse_rate=lam,
                            momentum_coupling=al, hbar=1.0)
            d = derive_constants(p, boltzmann=1.0)
            worst = min(worst, d.sigma_q_bar * d.sigma_p_bar / p.hbar)
        elapsed = time.perf_counter() - t0
        print(f"min uncertainty product {worst:.12f} (>= 0.5) "
              f"[{elapsed:.2f} s]")
        assert worst >= 0.5 * (1.0 - 1e-12)
        assert elapsed < 10.0


class TestLinearNormMartingale:
    def test_mean_squared_norm_is_one(self):
        cfg = ExperimentConfig(
            collapse_rate=0.05, equation="linear", initial="superposition",
            centers=(0.0,), weights=(1.0,), x_min=-24.0, x_max=24.0,
            n_points=256, dt=0.01, n_steps=200, record_every=200,
            n_trajectories=10_000, master_seed=777, n_workers=2)
        t0 = time.perf_counter()
        _, records, aborted = run_ensemble(cfg, return_records=True)
        elapsed = time.perf_counter() - t0
        assert not aborted.any()
        norms = records[-1, :, gr.RECORD_FIELDS.index("norm_sq")]
        se = norms.std(ddof=1) / math.sqrt(norms.size)
        z = (norms.mean() - 1.0) / se
        print(f"E[norm^2]={norms.mean():.6f} se={se:.6f} z={z:+.3f} "
              f"[{elapsed:.0f} s]")
        assert abs(norms.mean() - 1.0) < 3.0 * se
        assert elapsed < 300.0


class TestSuperpositionReduction:
    def test_single_packet_and_born_statistics(self, collapse_run):
        run = collapse_run
        assert run.aborted.sum() == 0
        localization, outcomes = branch_outcomes(run.cfg, run.records,
                                                 run.aborted)
        frac_final = localization[-1, 1]
        times = run.summary.times
        i500 = int(round(500 * run.cfg.dt / (times[1] - times[0])))
        frac_500 = localization[i500, 1]
        print(f"localized fraction: {frac_500:.4f} at step 500, "
              f"{frac_final:.4f} at the end [{run.elapsed:.0f} s ensemble]")
        assert frac_final > 0.99
        assert frac_500 > 0.95

        # branch statistics, read off where each trajectory settles
        _, settled, _, branch = outcomes.T
        picks = branch[settled == 1] == 1
        w_right = run.cfg.weights[1]
        se = math.sqrt(w_right * (1 - w_right) / picks.size)
        z = (picks.mean() - w_right) / se
        print(f"right-branch fraction {picks.mean():.4f} vs weight "
              f"{w_right} (z={z:+.2f}, n={picks.size})")
        assert abs(picks.mean() - w_right) < 3.0 * se
        assert run.elapsed < 1500.0


class TestVarianceContractionLaw:
    def test_drift_matches_prediction_at_checkpoints(self, collapse_run,
                                                     p_nat):
        run = collapse_run
        sq2 = run.column("sigma_q_sq")
        sp2 = run.column("sigma_p_sq")
        sqp2 = run.column("sigma_qp_sq")
        so = run.column("sigma_O_sq")
        dt_rec = run.summary.times[1] - run.summary.times[0]
        n_traj = so.shape[1]
        worst = 0.0
        for j in range(10):
            t_ck = 1.0 + 0.6 * j
            i = int(round(t_ck / dt_rec))
            fd = (so[i + 1] - so[i - 1]) / (2.0 * dt_rec)
            pred = loc.drift_prediction(sq2[i], sp2[i], sqp2[i], p_nat)
            assert np.all(pred <= 0.0)
            diff = fd - pred
            z = diff.mean() / (diff.std(ddof=1) / math.sqrt(n_traj))
            print(f"t={t_ck:4.1f}: measured {fd.mean():+.5f} "
                  f"predicted {pred.mean():+.5f} z={z:+.2f}")
            worst = max(worst, abs(z))
            assert abs(z) < 3.0
        print(f"max |z| over checkpoints: {worst:.2f}")

    def test_mean_variance_never_increases(self, collapse_run):
        run = collapse_run
        so = run.column("sigma_O_sq")
        n_traj = so.shape[1]
        d_so = np.diff(so, axis=0)
        mean_d = d_so.mean(axis=1)
        sem_d = d_so.std(axis=1, ddof=1) / math.sqrt(n_traj)
        z_up = mean_d / sem_d
        print(f"largest upward step z: {z_up.max():.2f} "
              f"over {len(z_up)} intervals")
        assert np.all(mean_d <= 3.0 * sem_d)
        # and the contraction is by orders of magnitude overall
        m = so.mean(axis=1)
        assert m[-1] < 0.01 * m[0]


class TestCharacteristicFlow:
    def test_flow_matches_ode_integration(self, p_nat):
        lam, al, m, hb = (p_nat.collapse_rate, p_nat.momentum_coupling,
                          p_nat.mass, p_nat.hbar)

        def rhs(t, y):
            c1, c2, c3, c4, c5, c6 = y
            return np.array([
                c2 / m + lam * al * al / (2.0 * hb * hb),
                2.0 * c3 / m - 2.0 * lam * al * c2,
                lam / 2.0 - 4.0 * lam * al * c3,
                c5 / m,
                -2.0 * lam * al * c5,
                0.0 * c6,
            ])

        rng = np.random.default_rng(99)
        t_grid = np.linspace(0.0, 6.0, 61)
        worst = 0.0
        for _ in range(5):
            c0 = ms.CharCoefficients(*rng.uniform(0.2, 2.0, size=3),
                                     *rng.uniform(-1.0, 1.0, size=3))
            path = rk4_path(rhs, as_vec(c0), t_grid, substeps=50)
            for i, t in enumerate(t_grid):
                flow = ms.coeff_flow(c0, float(t), p_nat)
                worst = max(worst, reldiff(flow,
                                           ms.CharCoefficients(*path[i])))
        print(f"coefficient flow vs integration: max rel {worst:.3e}")
        assert worst < 1e-9

    def test_flow_composes_as_a_semigroup(self, p_nat):
        rng = np.random.default_rng(555)
        worst = 0.0
        for _ in range(32):
            c0 = ms.CharCoefficients(*rng.uniform(0.2, 2.0, size=3),
                                     *rng.uniform(-1.0, 1.0, size=3))
            t1 = float(rng.uniform(0.05, 4.0))
            t2 = float(rng.uniform(0.05, 4.0))
            two = ms.coeff_flow(ms.coeff_flow(c0, t1, p_nat), t2, p_nat)
            one = ms.coeff_flow(c0, t1 + t2, p_nat)
            worst = max(worst, reldiff(two, one))
        print(f"semigroup composition: max rel {worst:.3e}")
        assert worst < 1e-10

    def test_trajectory_average_matches_density(self, p_nat, d_nat):
        grid = gr.Grid(-16.0, 16.0, 256)
        psi0 = gr.build_superposition(grid, d_nat.a_inf, [0.0], [1.0])
        n_pairs, n_steps, dt, batch = 5000, 200, 0.005, 64
        t0 = time.perf_counter()
        acc = np.zeros(grid.n)
        for start in range(0, n_pairs, batch):
            nb = min(batch, n_pairs - start)
            base = np.stack([
                gr.NoiseStream(4040, start + j).increments(n_steps, dt)
                for j in range(nb)
            ])
            # antithetic pairing keeps the n=10^4 histogram noise well under
            # the comparison tolerance
            inc = np.concatenate([base, -base])
            psis = np.broadcast_to(psi0, (2 * nb, grid.n)).copy()
            _, _, fin, ab = gr.evolve_batch(psis, grid, p_nat, dt, n_steps,
                                            inc, "nonlinear",
                                            record_every=n_steps)
            assert not ab.any()
            prob = np.abs(fin) ** 2
            prob /= prob.sum(axis=1, keepdims=True) * grid.dx
            acc += prob.sum(axis=0)
        dens = acc / (2 * n_pairs)
        g0 = GaussianState(a=d_nat.a_inf, xbar=0.0, kbar=0.0)
        exact = ms.position_density(g0, n_steps * dt, p_nat, grid.x,
                                    method="exact")
        l1 = float(np.abs(dens - exact.density).sum() * grid.dx)
        elapsed = time.perf_counter() - t0
        print(f"ensemble vs closed density: L1={l1:.5f} over 10^4 "
              f"trajectories [{elapsed:.0f} s]")
        assert l1 < 0.02

    def test_decoherence_scale_for_a_kilogram(self):
        p = scale_parameters(1.0)
        beta = ms.beta_t(1.0, p)
        print(f"beta_t at one kilogram, one second: {beta:.4e}")
        assert 1e43 / 3 < beta < 3e43


class TestEnergyRelaxation:
    def test_mean_energy_follows_exponential_approach(self, p_nat, d_nat):
        a0 = 2.0 * d_nat.a_inf
        x0, k0 = 0.0, 0.8
        e0 = ms.energy_from_coefficients(ms.coefficients_from_gaussian(
            GaussianState(a=a0, xbar=x0, kbar=k0), p_nat), p_nat)
        # run to 4 lam alpha t = 3, with checkpoints every tenth of the span
        t_grid = np.linspace(0.0, 15.0, 1501)
        ck = np.arange(0, 1501, 150)
        n, chunk = 100_000, 10_000
        rng = np.random.default_rng(606060)
        t0 = time.perf_counter()
        k2 = []
        for _ in range(n // chunk):
            inc = rng.standard_normal((1500, chunk)) * math.sqrt(0.01)
            _, ks = rcf.simulate_means(a0, x0, k0, t_grid, p_nat, inc)
            k2.append(ks[ck] ** 2)
        k2 = np.concatenate(k2, axis=1)
        elapsed = time.perf_counter() - t0
        sp2 = ge.spreads(ge.a_closed_form(a0, t_grid[ck], p_nat),
                         p_nat).sigma_p ** 2
        e_hat = (k2.mean(axis=1) + sp2) / (2.0 * p_nat.mass)
        e_sem = k2.std(axis=1, ddof=1) / math.sqrt(n) / (2.0 * p_nat.mass)
        e_th = ms.mean_energy(e0, t_grid[ck], p_nat)
        assert e_hat[0] == pytest.approx(e_th[0], rel=1e-12)
        z = (e_hat[1:] - e_th[1:]) / e_sem[1:]
        print(f"energy curve max |z| {np.max(np.abs(z)):.2f} over "
              f"{len(z)} checkpoints; E_inf={d_nat.energy_inf:.4f} "
              f"[{elapsed:.0f} s]")
        assert np.max(np.abs(z)) < 3.0
        # and the approach really is toward the floor, not the start
        assert abs(e_hat[-1] - d_nat.energy_inf) < 0.1 * abs(e0
                                                             - d_nat.energy_inf)

    def test_diffusion_limit_heating_rate(self):
        lam = 0.1
        p = ModelParams(mass=1.0, collapse_rate=lam, momentum_coupling=0.0,
                        hbar=1.0)
        # width chosen to make the packet shape stationary without damping
        a0 = math.sqrt(lam / 4.0) * (1.0 - 1.0j)
        t_grid = np.linspace(0.0, 10.0, 501)
        rng = np.random.default_rng(70707)
        t0 = time.perf_counter()
        dk = []
        for _ in range(10):
            inc = rng.standard_normal((500, 10_000)) * math.sqrt(0.02)
            _, ks = rcf.simulate_means(a0, 0.0, 0.0, t_grid, p, inc)
            dk.append(ks[-1] ** 2 - ks[0] ** 2)
        dk = np.concatenate(dk)
        slope = dk.mean() * p.hbar**2 / (2.0 * p.mass) / t_grid[-1]
        slope_th = lam * p.hbar**2 / (2.0 * p.mass)
        rel = slope / slope_th - 1.0
        elapsed = time.perf_counter() - t0
        print(f"heating rate {slope:.6f} vs {slope_th:.6f} "
              f"({rel:+.2%}) [{elapsed:.0f} s]")
        assert abs(rel) < 0.02


class TestMomentInequalities:
    def test_contraction_never_reverses(self, p_nat):
        rng = np.random.default_rng(2718)
        t0 = time.perf_counter()
        q2, p2, qp2 = random_moment_triples(100_000, p_nat, rng)
        so = loc.sigma_O_sq(q2, p2, qp2, p_nat)
        dr = loc.drift_prediction(q2, p2, qp2, p_nat)
        elapsed = time.perf_counter() - t0
        scale = float(np.max(np.abs(dr))) + 1.0
        print(f"over 10^5 moment draws: max drift {dr.max():.3e}, "
              f"min variance {so.min():.3e} [{elapsed:.1f} s]")
        assert np.all(dr <= 1e-12 * scale)
        assert np.all(so >= -1e-12 * scale)
        assert elapsed < 10.0


class TestParallelDeterminism:
    def test_summaries_identical_for_any_worker_count(self):
        cfg = ExperimentConfig(n_trajectories=64, batch_size=8, n_steps=60,
                               record_every=20, master_seed=909, xbar0=0.3,
                               kbar0=-0.2)
        payloads = {}
        for w in (1, 4, 8):
            payloads[w] = run_ensemble(cfg.replace(n_workers=w)).to_json()
        assert payloads[1] == payloads[4] == payloads[8]
        print(f"summary bytes identical across 1/4/8 workers "
              f"({len(payloads[1])} bytes)")
