import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcollapse.model import ModelParams
from dcollapse import gaussian as ge
from dcollapse import master as ms

import reference_closed_forms as rcf
from reference_ode import covariance_rhs, riccati_rhs, rk4_path


def random_states(rng, n):
    ar = rng.uniform(0.05, 2.0, n)
    ai = rng.uniform(-1.5, 1.5, n)
    return ar + 1j * ai


class TestWidthFlow:
    def test_closed_form_vs_rk_oracle(self, p_nat):
        rng = np.random.default_rng(42)
        a0 = random_states(rng, 20)
        t_grid = np.linspace(0.0, 12.0, 25)
        path = rk4_path(riccati_rhs(p_nat), a0, t_grid, substeps=200)
        closed = ge.a_closed_form(a0, t_grid[:, None], p_nat)
        assert np.max(np.abs(closed - path) / np.abs(path)) < 1e-9

    def test_free_limit_matches_dispersion(self):
        p = ModelParams(mass=1.0, collapse_rate=0.0, momentum_coupling=0.5,
                        hbar=1.0)
        a0 = 0.4 + 0.2j
        t = 3.0
        expect = a0 / (1.0 + 2j * p.hbar * a0 * t / p.mass)
        assert complex(ge.a_closed_form(a0, t, p)) == pytest.approx(expect)

    def test_converges_to_stationary_width(self, p_nat, d_nat):
        a_t = complex(ge.a_closed_form(0.3 + 0.7j, 80.0, p_nat))
        assert a_t == pytest.approx(complex(d_nat.a_inf), rel=1e-10)

    def test_integrate_matches_closed_form(self, p_nat):
        t_grid = np.linspace(0.0, 6.0, 61)
        a0 = 0.9 - 0.4j
        path = rk4_path(riccati_rhs(p_nat), a0, t_grid, substeps=50)
        closed = ge.a_closed_form(a0, t_grid, p_nat)
        assert np.max(np.abs(path - closed)) < 2e-9

    def test_stationary_point_is_fixed(self, p_nat, d_nat):
        a = ge.a_closed_form(d_nat.a_inf, np.array([0.5, 5.0, 50.0]), p_nat)
        assert np.max(np.abs(a - d_nat.a_inf)) < 1e-12


class TestPhaseConstants:
    def test_width_formula_matches_closed_form(self, p_nat):
        rng = np.random.default_rng(3)
        for a0 in random_states(rng, 8):
            pc = rcf.phase_constants(a0, p_nat)
            t = np.linspace(0.0, 15.0, 301)
            a_t = ge.a_closed_form(a0, t, p_nat)
            direct = 0.25 / a_t.real
            formula = rcf.sigma_q_of_t(t, pc, p_nat) ** 2
            assert np.max(np.abs(formula - direct)) < 1e-8

    def test_equilibration_time_scale(self, p_nat, d_nat):
        # within t = 20/omega1 the width settles to 0.1%
        pc = rcf.phase_constants(1.1 + 0.3j, p_nat)
        t_eq = 20.0 / d_nat.omega1
        sig = float(rcf.sigma_q_of_t(t_eq, pc, p_nat))
        assert abs(sig / d_nat.sigma_q_bar - 1.0) < 1e-3

    def test_degenerate_direction_raises(self, p_nat):
        # tau0 = -1 corresponds to the unreachable repulsive branch
        A, B = ge._riccati_constants(p_nat)
        a_bad = (-A - 1j * B * (-1.0)) / 2.0
        with pytest.raises(ValueError):
            rcf.phase_constants(complex(a_bad), p_nat)

    def test_stationary_start_gives_infinite_phi1(self, p_nat, d_nat):
        pc = rcf.phase_constants(complex(d_nat.a_inf), p_nat)
        assert math.isinf(pc.phi1)


class TestSpreads:
    def test_pure_state_saturates_uncertainty(self, p_nat):
        rng = np.random.default_rng(5)
        for a in random_states(rng, 12):
            tr = ge.spreads(a, p_nat)
            lhs = tr.sigma_q ** 2 * tr.sigma_p ** 2 - tr.sigma_qp_sq ** 2
            assert lhs == pytest.approx(0.25 * p_nat.hbar ** 2, rel=1e-12)

    def test_spread_values(self, p_nat):
        tr = ge.spreads(0.25 + 0.1j, p_nat)
        assert tr.sigma_q == pytest.approx(1.0)
        assert tr.sigma_p ** 2 == pytest.approx((0.0625 + 0.01) / 0.25)
        assert tr.sigma_qp_sq == pytest.approx(-0.5 * 0.1 / 0.25)

    def test_stationary_spreads_match_derived(self, p_nat, d_nat):
        tr = ge.spreads(complex(d_nat.a_inf), p_nat)
        assert tr.sigma_q == pytest.approx(d_nat.sigma_q_bar, rel=1e-12)
        assert tr.sigma_p == pytest.approx(d_nat.sigma_p_bar, rel=1e-12)
        assert tr.sigma_qp_sq == pytest.approx(d_nat.sigma_qp_bar_sq,
                                               rel=1e-12)


class TestWavefunction:
    def test_normalized_on_fine_grid(self):
        g = ge.GaussianState(a=0.7 + 0.2j, xbar=1.3, kbar=-0.4)
        x = np.linspace(-12, 14, 4001)
        psi = rcf.wavefunction(g, x)
        norm = np.trapezoid(np.abs(psi) ** 2, x)
        assert norm == pytest.approx(1.0, rel=1e-10)

    def test_moments_match_state(self, p_nat):
        g = ge.GaussianState(a=0.7 + 0.2j, xbar=1.3, kbar=-0.4)
        x = np.linspace(-14, 16, 8001)
        psi = rcf.wavefunction(g, x)
        prob = np.abs(psi) ** 2
        xm = np.trapezoid(x * prob, x)
        assert xm == pytest.approx(1.3, abs=1e-9)
        var = np.trapezoid((x - xm) ** 2 * prob, x)
        assert var == pytest.approx(ge.spreads(g.a, p_nat).sigma_q ** 2,
                                    rel=1e-9)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            ge.GaussianState(a=-0.1 + 0.3j)


class TestMeans:
    def test_momentum_damping(self, p_nat):
        # the ensemble mean momentum of the master flow decays at 2 lam alpha
        t = np.linspace(0.0, 10.0, 11)
        c0 = ms.coefficients_from_gaussian(
            ge.GaussianState(a=0.5, kbar=2.0 / p_nat.hbar), p_nat)
        out = [ms.moments_from_coefficients(ms.coeff_flow(c0, ti, p_nat),
                                            p_nat).p_mean for ti in t]
        lam, al = p_nat.collapse_rate, p_nat.momentum_coupling
        assert np.allclose(out, 2.0 * np.exp(-2.0 * lam * al * t))

    def test_simulate_means_zero_noise_is_drift(self, p_nat, d_nat):
        n_steps, dt = 400, 0.01
        t_grid = np.arange(n_steps + 1) * dt
        inc = np.zeros((n_steps, 1))
        xs, ks = rcf.simulate_means(complex(d_nat.a_inf), 1.0, 0.5, t_grid,
                                    p_nat, inc)
        lam, al, m, hb = (p_nat.collapse_rate, p_nat.momentum_coupling,
                          p_nat.mass, p_nat.hbar)
        T = t_grid[-1]
        k_expect = 0.5 * math.exp(-2.0 * lam * al * T)
        x_expect = 1.0 + hb * 0.5 * (1.0 - math.exp(-2.0 * lam * al * T)) \
            / (2.0 * lam * al * m)
        assert ks[-1, 0] == pytest.approx(k_expect, rel=2e-3)
        assert xs[-1, 0] == pytest.approx(x_expect, rel=2e-3)

    def test_mean_momentum_relaxation_statistics(self, p_nat, d_nat):
        # ensemble average of kbar follows the damping law
        n, n_steps, dt = 40_000, 150, 0.01
        rng = np.random.default_rng(123)
        inc = rng.standard_normal((n_steps, n)) * math.sqrt(dt)
        t_grid = np.arange(n_steps + 1) * dt
        xs, ks = rcf.simulate_means(complex(d_nat.a_inf), 0.0, 1.0, t_grid,
                                    p_nat, inc)
        k_end = ks[-1]
        c0 = ms.coefficients_from_gaussian(
            ge.GaussianState(a=d_nat.a_inf, kbar=1.0), p_nat)
        expect = ms.moments_from_coefficients(
            ms.coeff_flow(c0, t_grid[-1], p_nat), p_nat).p_mean / p_nat.hbar
        se = k_end.std(ddof=1) / math.sqrt(n)
        assert abs(k_end.mean() - expect) < 3.5 * se


class TestCovariance:
    def test_closed_form_vs_ode_oracle(self, p_nat):
        t_grid = np.linspace(0.0, 6.0, 121)
        path = rk4_path(covariance_rhs(p_nat), np.zeros(3), t_grid,
                        substeps=8)
        closed = ge.stationary_covariance(t_grid, p_nat)
        for got, want in zip(path.T, (closed.qq, closed.qp, closed.pp)):
            scale = np.max(np.abs(want)) + 1e-30
            assert np.max(np.abs(got - want)) / scale < 1e-8

    def test_short_time_rates(self, p_nat, d_nat):
        # d/dt at t = 0 of (Cqq, Cqp, Cpp): lam s^2, lam hbar c s,
        # lam hbar^2 c^2 with s = 2 sq~^2 - alpha and c = 2 sqp~^2 / hbar
        lam, al, hb = (p_nat.collapse_rate, p_nat.momentum_coupling,
                       p_nat.hbar)
        s = 2.0 * d_nat.sigma_q_bar ** 2 - al
        c = 2.0 * d_nat.sigma_qp_bar_sq / hb
        rate_qq, rate_qp, rate_pp = lam * s * s, lam * hb * c * s, \
            lam * hb * hb * c * c
        t = 1e-6
        cov = ge.stationary_covariance(t, p_nat)
        assert cov.qq == pytest.approx(rate_qq * t, rel=1e-4)
        assert cov.qp == pytest.approx(rate_qp * t, rel=1e-4)
        assert cov.pp == pytest.approx(rate_pp * t, rel=1e-4)

    def test_momentum_variance_saturates(self, p_nat, d_nat):
        lam, al, hb = (p_nat.collapse_rate, p_nat.momentum_coupling,
                       p_nat.hbar)
        c = 2.0 * d_nat.sigma_qp_bar_sq / hb
        cap = hb * hb * c * c / (4.0 * al)
        cov = ge.stationary_covariance(1e4, p_nat)
        assert cov.pp == pytest.approx(cap, rel=1e-10)
        # and the capped momentum variance completes the energy floor
        e_inf = (d_nat.sigma_p_bar ** 2 + cap) / (2.0 * p_nat.mass)
        assert e_inf == pytest.approx(d_nat.energy_inf, rel=1e-12)

    def test_zero_momentum_coupling_branch(self):
        p = ModelParams(mass=1.0, collapse_rate=0.1, momentum_coupling=0.0,
                        hbar=1.0)
        t_grid = np.linspace(0.0, 4.0, 81)
        path = rk4_path(covariance_rhs(p), np.zeros(3), t_grid, substeps=8)
        closed = ge.stationary_covariance(t_grid, p)
        for got, want in zip(path.T, (closed.qq, closed.qp, closed.pp)):
            scale = np.max(np.abs(want)) + 1e-30
            assert np.max(np.abs(got - want)) / scale < 1e-8

    def test_covariance_positive_definite(self, p_nat):
        for t in (0.3, 1.0, 4.0, 20.0):
            cov = ge.stationary_covariance(t, p_nat)
            assert cov.qq > 0.0
            assert cov.pp > 0.0
            assert cov.qq * cov.pp - cov.qp ** 2 > 0.0

    def test_localization_length_decomposition(self, p_nat, d_nat):
        # Cqq grows like lam * width^2 * t at early times and like
        # lam * (tilt + width)^2 * t once the damping time 1/(2 lam alpha)
        # has passed: the momentum tilt adds its drift to the width term
        lam, al, m = p_nat.collapse_rate, p_nat.momentum_coupling, p_nat.mass
        width = 2.0 * d_nat.sigma_q_bar ** 2 - al
        tilt = d_nat.sigma_qp_bar_sq / (lam * al * m)
        t = 1e-5
        cov = ge.stationary_covariance(t, p_nat)
        assert cov.qq == pytest.approx(lam * width ** 2 * t, rel=1e-3)
        t1, t2 = np.array([50.0, 100.0]) / (2.0 * lam * al)
        late = ge.stationary_covariance(np.array([t1, t2]), p_nat)
        slope = (late.qq[1] - late.qq[0]) / (t2 - t1)
        assert slope == pytest.approx(lam * (tilt + width) ** 2, rel=1e-9)


class TestEnergyAndInstability:
    def test_gaussian_energy_formula(self, p_nat):
        g = ge.GaussianState(a=0.4 + 0.3j, xbar=0.0, kbar=1.2)
        tr = ge.spreads(g.a, p_nat)
        expect = ((p_nat.hbar * 1.2) ** 2 + tr.sigma_p ** 2) \
            / (2.0 * p_nat.mass)
        got = ms.energy_from_coefficients(
            ms.coefficients_from_gaussian(g, p_nat), p_nat)
        assert got == pytest.approx(expect)

@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=120, deadline=None)
def test_width_flow_preserves_validity(ar, ai, t):
    p = ModelParams(**{"mass": 1.0, "collapse_rate": 0.1,
                       "momentum_coupling": 0.5, "hbar": 1.0})
    a_t = complex(ge.a_closed_form(ar + 1j * ai, t, p))
    # contraction of the upper half plane: widths stay physical
    assert a_t.real > 0.0
    assert np.isfinite(a_t.real) and np.isfinite(a_t.imag)
