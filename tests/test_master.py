import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcollapse.gaussian import (GaussianState, _free_width, spreads,
                                stationary_covariance)
from dcollapse.model import ModelParams, derive_constants, scale_parameters
from dcollapse import master as ms

import reference_closed_forms as rcf
import reference_quadrature
from reference_ode import rk4_path


def flow_rhs(p):
    """Right side of the coefficient ODE system, for the RK oracle."""
    lam, al, m, hb = (p.collapse_rate, p.momentum_coupling, p.mass, p.hbar)

    def f(t, y):
        c1, c2, c3, c4, c5, c6 = y
        return np.array([
            c2 / m + lam * al * al / (2.0 * hb * hb),
            2.0 * c3 / m - 2.0 * lam * al * c2,
            lam / 2.0 - 4.0 * lam * al * c3,
            c5 / m,
            -2.0 * lam * al * c5,
            0.0 * c6,
        ])

    return f


# the coefficients that move with time; c6 stays as given, a scalar
MOVING = ("c1", "c2", "c3", "c4", "c5")


def as_vec(c):
    return np.array([c.c1, c.c2, c.c3, c.c4, c.c5, c.c6])


def reldiff(ca, cb):
    a, b = as_vec(ca), as_vec(cb)
    return float(np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-300)))


def log_char(c, k, x):
    """Log of the exponential characteristic function at (k, x)."""
    re = -c.c1 * k * k - c.c2 * k * x - c.c3 * x * x + c.c6
    im = -c.c4 * k - c.c5 * x
    return re, im


@pytest.fixture(scope="module")
def g0():
    return GaussianState(a=0.8 + 0.3j, xbar=-0.4, kbar=0.6)


@pytest.fixture(scope="module")
def c0(g0, p_nat):
    return ms.coefficients_from_gaussian(g0, p_nat)


@pytest.fixture(scope="module")
def g_si(p_si):
    # 0.1 micron wide packet, slightly squeezed, gently moving
    ar = 0.25 / (1e-7) ** 2
    return GaussianState(a=ar + 0.3j * ar, xbar=1e-9, kbar=1e7)


def _natural_draw(rng, i):
    """Couplings, start and time in natural units, and points on
    [-20, 20] whatever the route."""
    lam = 0.0 if i % 10 == 0 else 10.0 ** rng.uniform(-3.0, 0.5)
    al = 0.0 if i % 10 == 1 else 10.0 ** rng.uniform(-3.0, 0.5)
    t = 0.0 if i % 10 == 2 else 10.0 ** rng.uniform(-3.0, 1.0)
    p = ModelParams(mass=10.0 ** rng.uniform(-1.0, 1.0), collapse_rate=lam,
                    momentum_coupling=al, hbar=10.0 ** rng.uniform(-0.5, 0.5))
    g0 = GaussianState(a=complex(10.0 ** rng.uniform(-1.0, 1.0),
                                 rng.uniform(-1.0, 1.0)),
                       xbar=rng.uniform(-3.0, 3.0), kbar=rng.uniform(-2.0, 2.0))
    x = np.sort(rng.uniform(-20.0, 20.0, int(rng.integers(0, 200))))
    return p, g0, t, lambda mean, var: x


def _si_draw(rng, i):
    """SI couplings of a random mass, a packet 1e-12 to 1e-6 m wide, a
    laboratory time, and points within 12 standard deviations of each
    route's mean."""
    p = scale_parameters(10.0 ** rng.uniform(-27.0, 0.0))
    if i % 10 == 0:
        p = dataclasses.replace(p, collapse_rate=0.0)
    elif i % 10 == 1:
        p = dataclasses.replace(p, momentum_coupling=0.0)
    t = 0.0 if i % 10 == 2 else 10.0 ** rng.uniform(-20.0, 3.0)
    ar = 0.25 / (10.0 ** rng.uniform(-12.0, -6.0)) ** 2
    g0 = GaussianState(a=complex(ar, ar * rng.uniform(-1.0, 1.0)),
                       xbar=rng.uniform(-1e-6, 1e-6),
                       kbar=rng.uniform(-1e7, 1e7))
    z = np.sort(rng.uniform(-12.0, 12.0, int(rng.integers(0, 200))))
    return p, g0, t, lambda mean, var: mean + math.sqrt(var) * z


class TestCoefficients:
    def test_round_trip_matches_state_moments(self, p_nat):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = GaussianState(
                a=complex(rng.uniform(0.05, 2.0), rng.uniform(-1.5, 1.5)),
                xbar=rng.uniform(-3, 3), kbar=rng.uniform(-3, 3))
            mom = ms.moments_from_coefficients(
                ms.coefficients_from_gaussian(g, p_nat), p_nat)
            tr = spreads(g.a, p_nat)
            assert mom.q_mean == pytest.approx(g.xbar, rel=1e-12)
            assert mom.p_mean == pytest.approx(p_nat.hbar * g.kbar, rel=1e-12)
            assert mom.var_q == pytest.approx(tr.sigma_q ** 2, rel=1e-12)
            assert mom.var_p == pytest.approx(tr.sigma_p ** 2, rel=1e-12)
            assert mom.cov_qp == pytest.approx(tr.sigma_qp_sq, rel=1e-12)

    def test_pure_state_purity_is_one(self, c0, p_nat):
        assert ms.purity(c0, p_nat) == pytest.approx(1.0, rel=1e-12)

    def test_purity_rejects_unphysical_vector(self, p_nat):
        bad = ms.CharCoefficients(c1=0.1, c2=2.0, c3=0.1, c4=0.0, c5=0.0)
        with pytest.raises(ValueError):
            ms.purity(bad, p_nat)

    def test_purity_rejects_any_unphysical_entry(self, p_nat):
        # one bad entry among physical ones, or a NaN, is refused
        # 4 c1 c3 = 1/4, 1/2 and 1 at hbar = 1: purity 1, 1/sqrt(2), 1/2
        good = ms.CharCoefficients(c1=np.array([0.125, 0.25, 0.5]),
                                   c2=np.zeros(3), c3=np.full(3, 0.5),
                                   c4=0.0, c5=0.0)
        assert ms.purity(good, dataclasses.replace(p_nat, hbar=1.0)) \
            == pytest.approx([1.0, math.sqrt(0.5), 0.5], rel=1e-15)
        for c2 in (np.array([0.0, 2.0, 0.0]), np.array([0.0, np.nan, 0.0])):
            with pytest.raises(ValueError):
                ms.purity(dataclasses.replace(good, c2=c2), p_nat)

    def test_energy_agrees_with_state_energy(self, g0, c0, p_nat):
        # <p^2>/2m of the state: its mean momentum and its spread
        want = ((p_nat.hbar * g0.kbar) ** 2 + spreads(g0.a, p_nat).sigma_p ** 2) \
            / (2.0 * p_nat.mass)
        assert ms.energy_from_coefficients(c0, p_nat) == pytest.approx(
            want, rel=1e-12)


class TestCoeffFlow:
    @pytest.mark.parametrize("params", ["natural", "usual", "free", "si"])
    def test_time_axis_matches_scalar_calls(self, params, c0, p_nat, g_si,
                                            p_si):
        p, c = {"natural": (p_nat, c0),
                "usual": (dataclasses.replace(p_nat, momentum_coupling=0.0),
                          c0),
                "free": (dataclasses.replace(p_nat, collapse_rate=0.0), c0),
                "si": (p_si, ms.coefficients_from_gaussian(g_si, p_si))}[params]
        times = np.concatenate([[0.0], np.logspace(-20.0, 2.0, 23)])
        if params == "si":
            times = times * 1e-3
        flow = ms.coeff_flow(c, times, p)
        for i, t in enumerate(times):
            want = ms.coeff_flow(c, float(t), p)
            assert [getattr(flow, f)[i] for f in MOVING] \
                == [getattr(want, f) for f in MOVING]

    def test_broadcasts_vectors_against_times(self, p_nat):
        rng = np.random.default_rng(5)
        starts = np.column_stack([rng.uniform(0.2, 2.0, size=(8, 3)),
                                  rng.uniform(-1.0, 1.0, size=(8, 2))])
        times = np.linspace(0.0, 4.0, 5)
        flow = ms.coeff_flow(ms.CharCoefficients(*starts.T), times[:, None],
                             p_nat)
        for f in MOVING:
            assert getattr(flow, f).shape == (5, 8)
        for j, row in enumerate(starts):
            for i, t in enumerate(times):
                want = ms.coeff_flow(ms.CharCoefficients(*row), float(t),
                                     p_nat)
                assert [getattr(flow, f)[i, j] for f in MOVING] \
                    == [getattr(want, f) for f in MOVING]

    def test_matches_ode_oracle(self, c0, p_nat):
        t_grid = np.linspace(0.0, 6.0, 13)
        path = rk4_path(flow_rhs(p_nat), as_vec(c0), t_grid, substeps=50)
        for i, t in enumerate(t_grid):
            want = as_vec(ms.coeff_flow(c0, float(t), p_nat))
            err = np.max(np.abs(path[i] - want) / (1.0 + np.abs(want)))
            assert err < 1e-11

    def test_matches_ode_oracle_si(self, g_si, p_si):
        # laboratory scale: u ~ 1e-20, the regime where naive forms cancel
        c0 = ms.coefficients_from_gaussian(g_si, p_si)
        t_grid = np.linspace(0.0, 1.0, 5)
        path = rk4_path(flow_rhs(p_si), as_vec(c0), t_grid, substeps=100)
        want = as_vec(ms.coeff_flow(c0, 1.0, p_si))
        err = np.max(np.abs(path[-1] - want) / (np.abs(want) + 1e-300))
        assert err < 1e-11

    def test_semigroup_property(self, c0, p_nat):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s, t = rng.uniform(0.01, 8.0, 2)
            one = ms.coeff_flow(ms.coeff_flow(c0, s, p_nat), t, p_nat)
            two = ms.coeff_flow(c0, s + t, p_nat)
            assert reldiff(one, two) < 1e-12

    def test_zero_time_is_identity(self, c0, p_nat):
        assert reldiff(ms.coeff_flow(c0, 0.0, p_nat), c0) == 0.0

    def test_free_branch_is_pure_shear(self, c0):
        p = ModelParams(mass=1.3, collapse_rate=0.0, momentum_coupling=0.5,
                        hbar=1.0)
        t = 2.0
        ct = ms.coeff_flow(c0, t, p)
        m = p.mass
        assert ct.c1 == pytest.approx(
            c0.c1 + c0.c2 * t / m + c0.c3 * t * t / (m * m), rel=1e-14)
        assert ct.c2 == pytest.approx(c0.c2 + 2.0 * c0.c3 * t / m, rel=1e-14)
        assert ct.c3 == c0.c3
        assert ct.c4 == pytest.approx(c0.c4 + c0.c5 * t / m, rel=1e-14)
        assert ct.c5 == c0.c5

    def test_position_noise_branch_vs_oracle(self, c0):
        # alpha = 0: polynomial flow, where RK4 is exact
        p = ModelParams(mass=1.0, collapse_rate=0.2, momentum_coupling=0.0,
                        hbar=1.0)
        t_grid = np.linspace(0.0, 5.0, 6)
        path = rk4_path(flow_rhs(p), as_vec(c0), t_grid, substeps=4)
        want = as_vec(ms.coeff_flow(c0, float(t_grid[-1]), p))
        assert np.max(np.abs(path[-1] - want) / (1.0 + np.abs(want))) < 1e-13

    def test_two_routes_agree(self, c0, p_nat, g_si, p_si):
        for t in (1e-6, 0.05, 0.5, 3.0, 30.0):
            assert reldiff(ms.coeff_flow(c0, t, p_nat),
                           rcf.evolve_characteristic(c0, t, p_nat)) < 1e-12
        c_si = ms.coefficients_from_gaussian(g_si, p_si)
        for t in (1e-3, 1.0, 100.0, 1e6):
            assert reldiff(ms.coeff_flow(c_si, t, p_si),
                           rcf.evolve_characteristic(c_si, t, p_si)) < 1e-12

    def test_flow_keeps_state_physical(self, c0, p_nat):
        for t in (0.1, 1.0, 10.0, 100.0):
            ct = ms.coeff_flow(c0, t, p_nat)
            pur = ms.purity(ct, p_nat)
            assert 0.0 < pur <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(min_value=1e-4, max_value=50.0))
    def test_purity_never_exceeds_one(self, t, c0, p_nat):
        assert ms.purity(ms.coeff_flow(c0, t, p_nat), p_nat) <= 1.0 + 1e-12


class TestGreenFactors:
    def test_pullback_identity(self, c0, p_nat):
        # the evolved characteristic function is the initial one at the
        # pulled-back argument times the explicit weight
        rng = np.random.default_rng(7)
        for t in (0.05, 0.4, 2.0, 12.0):
            ct = ms.coeff_flow(c0, t, p_nat)
            for _ in range(25):
                k, x = rng.uniform(-4.0, 4.0, 2)
                gf = rcf.green_factors(k, x, t, p_nat)
                re_t, im_t = log_char(ct, k, x)
                re_0, im_0 = log_char(c0, gf.k0, gf.x0)
                scale = 1.0 + abs(re_t) + abs(im_t)
                assert abs(re_t - (re_0 + gf.log_weight)) < 1e-9 * scale
                assert abs(im_t - im_0) < 1e-9 * scale

    def test_position_noise_kernel(self, p_nat):
        p = ModelParams(mass=2.0, collapse_rate=0.3, momentum_coupling=0.0,
                        hbar=1.0)
        k, x, t = 1.2, -0.7, 0.9
        gf = rcf.green_factors(k, x, t, p)
        x0 = x + k * t / p.mass
        assert gf.k0 == k
        assert gf.x0 == pytest.approx(x0, rel=1e-14)
        want = -(p.collapse_rate * t / 6.0) * (x0 * x0 + x * x0 + x * x)
        assert gf.log_weight == pytest.approx(want, rel=1e-14)

    def test_free_flow_has_unit_weight(self):
        p = ModelParams(mass=1.0, collapse_rate=0.0, momentum_coupling=0.5,
                        hbar=1.0)
        gf = rcf.green_factors(0.8, 0.5, 3.0, p)
        assert gf.log_weight == 0.0
        assert gf.x0 == pytest.approx(0.5 + 0.8 * 3.0, rel=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(logu=st.floats(min_value=-6.0, max_value=1.7),
           k=st.floats(min_value=-10.0, max_value=10.0),
           x=st.floats(min_value=-10.0, max_value=10.0))
    def test_weight_always_damps(self, logu, k, x, p_nat):
        u = 10.0 ** logu
        t = u / (2.0 * p_nat.collapse_rate * p_nat.momentum_coupling)
        gf = rcf.green_factors(k, x, t, p_nat)
        assert gf.log_weight <= 1e-12


class TestMeanEnergy:
    def test_closed_form_matches_flow(self, c0, p_nat):
        e0 = ms.energy_from_coefficients(c0, p_nat)
        for t in (0.3, 1.5, 6.0, 40.0):
            via_flow = ms.energy_from_coefficients(
                ms.coeff_flow(c0, t, p_nat), p_nat)
            assert ms.mean_energy(e0, t, p_nat) == pytest.approx(
                via_flow, rel=1e-12)

    def test_asymptotic_value(self, p_nat, d_nat):
        e_inf = p_nat.hbar ** 2 / (8.0 * p_nat.mass * p_nat.momentum_coupling)
        assert ms.mean_energy(5.0, 1e6, p_nat) == pytest.approx(e_inf,
                                                                rel=1e-12)
        assert d_nat.energy_inf == pytest.approx(e_inf, rel=1e-12)

    @pytest.mark.parametrize("mass", [1.67262192369e-27, 1e-20, 1.0])
    def test_closed_form_matches_flow_at_laboratory_scale(self, mass):
        # u = 2 lam alpha t from 1e-22 to saturation, with E_inf / E0 ~ 6e14:
        # the form E_inf + (E0 - E_inf) e^{-4 lam alpha t} cancels to
        # several percent here
        p = scale_parameters(mass)
        a_inf = derive_constants(p).a_inf
        rate = 2.0 * p.collapse_rate * p.momentum_coupling
        for g in (GaussianState(a=a_inf), GaussianState(a=4.0 * a_inf),
                  GaussianState(a=0.25 * a_inf.real, kbar=1e8)):
            c0 = ms.coefficients_from_gaussian(g, p)
            e0 = ms.energy_from_coefficients(c0, p)
            for u in np.logspace(-22.0, 2.0, 25):
                t = u / rate
                via_flow = ms.energy_from_coefficients(
                    ms.coeff_flow(c0, t, p), p)
                # energies are of order 1e-30 J, so no absolute tolerance
                assert ms.mean_energy(e0, t, p) == pytest.approx(
                    via_flow, rel=1e-12, abs=0.0)

    def test_position_noise_heats_linearly(self):
        p = ModelParams(mass=1.5, collapse_rate=0.2, momentum_coupling=0.0,
                        hbar=1.0)
        e0 = 0.7
        slope = p.collapse_rate * p.hbar ** 2 / (2.0 * p.mass)
        for t in (0.5, 2.0, 9.0):
            assert ms.mean_energy(e0, t, p) == pytest.approx(e0 + slope * t,
                                                             rel=1e-14)

    def test_free_flow_conserves(self):
        p = ModelParams(mass=1.0, collapse_rate=0.0, momentum_coupling=0.3,
                        hbar=1.0)
        assert ms.mean_energy(0.9, 25.0, p) == 0.9

    def test_vector_time_argument(self, p_nat):
        t = np.array([0.0, 1.0, 4.0])
        out = ms.mean_energy(1.2, t, p_nat)
        assert out.shape == t.shape
        assert out[0] == pytest.approx(1.2, rel=1e-14)


class TestBeta:
    def test_laboratory_scale_magnitude(self):
        # a 1 kg mass after 1 s: the smoothing kernel is a fraction of an
        # angstrom wide, beta ~ 1e43 per square metre
        b = ms.beta_t(1.0, scale_parameters(1.0))
        assert b == pytest.approx(2.2559876735683827e43, rel=1e-10)
        assert 1e43 / 3.0 < b < 3e43

    def test_limiting_regimes(self):
        hb = 1.0
        # late times: beta -> 3 m^2 / (2 hbar^2 lam t^3)
        p = ModelParams(mass=2.0, collapse_rate=0.3, momentum_coupling=1e-6,
                        hbar=hb)
        t = 50.0
        want = 1.5 * p.mass ** 2 / (hb ** 2 * p.collapse_rate * t ** 3)
        assert ms.beta_t(t, p) == pytest.approx(want, rel=1e-6)
        # early times (ratio >> 1): beta -> 1 / (2 lam alpha^2 t)
        p2 = ModelParams(mass=2.0, collapse_rate=0.3, momentum_coupling=1e6,
                         hbar=hb)
        t2 = 1e-3
        want2 = 1.0 / (2.0 * p2.collapse_rate * p2.momentum_coupling ** 2 * t2)
        assert ms.beta_t(t2, p2) == pytest.approx(want2, rel=1e-6)

    def test_infinite_cases(self, p_nat):
        free = ModelParams(mass=1.0, collapse_rate=0.0, momentum_coupling=0.5,
                           hbar=1.0)
        assert math.isinf(ms.beta_t(2.0, free))
        assert math.isinf(ms.beta_t(0.0, p_nat))


class TestPositionDensity:
    def test_exact_matches_flowed_moments(self, g0, c0, p_nat):
        # for Gaussian data the ensemble stays Gaussian, so the quadrature
        # must land on the moment flow exactly
        t = 0.3
        mom = ms.moments_from_coefficients(ms.coeff_flow(c0, t, p_nat), p_nat)
        sd = math.sqrt(mom.var_q)
        x = np.linspace(mom.q_mean - 6 * sd, mom.q_mean + 6 * sd, 121)
        prof = ms.position_density(g0, t, p_nat, x, method="exact")
        want = np.exp(-0.5 * (x - mom.q_mean) ** 2 / mom.var_q) \
            / math.sqrt(2.0 * math.pi * mom.var_q)
        assert np.max(np.abs(prof.density - want)) / np.max(want) < 1e-8
        assert prof.norm == pytest.approx(1.0, abs=1e-6)

    def test_interval_probability_splits(self, g0, c0, p_nat):
        t = 0.3
        mom = ms.moments_from_coefficients(ms.coeff_flow(c0, t, p_nat), p_nat)
        sd = math.sqrt(mom.var_q)
        x = np.linspace(mom.q_mean - 7 * sd, mom.q_mean + 7 * sd, 141)
        prof = ms.position_density(g0, t, p_nat, x, method="exact")
        # x is symmetric about the mean, which is its middle point
        centre = len(x) // 2

        def prob(lo, hi):
            return float(np.trapezoid(prof.density[lo:hi + 1], x[lo:hi + 1]))

        total = prob(0, len(x) - 1)
        half = prob(centre, len(x) - 1)
        assert total == pytest.approx(prof.norm, rel=1e-12)
        assert half == pytest.approx(0.5 * total, rel=1e-9)
        mid = centre + 10
        assert prob(0, mid) + prob(mid, len(x) - 1) == pytest.approx(
            total, rel=1e-12)

    def test_expansion_converges_at_short_times(self, g0, c0, p_nat):
        errs = {}
        for t in (0.05, 0.2):
            mom = ms.moments_from_coefficients(ms.coeff_flow(c0, t, p_nat),
                                               p_nat)
            sd = math.sqrt(mom.var_q)
            x = np.linspace(mom.q_mean - 6 * sd, mom.q_mean + 6 * sd, 61)
            pe = ms.position_density(g0, t, p_nat, x, method="exact")
            px = ms.position_density(g0, t, p_nat, x, method="expansion")
            errs[t] = np.max(np.abs(pe.density - px.density)) \
                / np.max(pe.density)
        assert errs[0.05] < 1e-6
        # cubic weight: error falls much faster than the time step
        assert errs[0.2] / errs[0.05] > 20.0

    def test_smoothed_is_exact_convolution(self, g0, p_nat):
        # for a Gaussian the convolution has a closed form: the free density
        # widened by half the inverse smoothing parameter
        t = 0.5
        beta = ms.beta_t(t, p_nat)
        gs = rcf.free_evolve(g0, t, p_nat)
        var_tot = spreads(gs.a, p_nat).sigma_q ** 2 + 0.5 / beta
        sd = math.sqrt(var_tot)
        x = np.linspace(gs.xbar - 6 * sd, gs.xbar + 6 * sd, 121)
        prof = ms.position_density(g0, t, p_nat, x, method="smoothed")
        want = np.exp(-0.5 * (x - gs.xbar) ** 2 / var_tot) \
            / math.sqrt(2.0 * math.pi * var_tot)
        assert np.max(np.abs(prof.density - want)) / np.max(want) < 1e-12
        assert prof.beta == pytest.approx(beta, rel=1e-12)

    def test_smoothed_approximates_exact(self, g0, p_nat):
        t = 0.5
        gs = rcf.free_evolve(g0, t, p_nat)
        sd = spreads(gs.a, p_nat).sigma_q
        x = np.linspace(gs.xbar - 6 * sd, gs.xbar + 6 * sd, 61)
        pe = ms.position_density(g0, t, p_nat, x, method="exact")
        psm = ms.position_density(g0, t, p_nat, x, method="smoothed")
        assert np.max(np.abs(pe.density - psm.density)) \
            / np.max(pe.density) < 0.03

    def test_free_method_returns_unitary_density(self, g0, p_nat):
        t = 0.7
        gs = rcf.free_evolve(g0, t, p_nat)
        sd = spreads(gs.a, p_nat).sigma_q
        x = np.linspace(gs.xbar - 5 * sd, gs.xbar + 5 * sd, 81)
        prof = ms.position_density(g0, t, p_nat, x, method="free")
        want = np.abs(rcf.wavefunction(gs, x)) ** 2
        # the normal density and |psi|^2 are two roundings of one function
        assert np.max(np.abs(prof.density - want)) < 2e-15 * np.max(want)

    def test_lambda_zero_exact_equals_free(self, g0):
        p = ModelParams(mass=1.0, collapse_rate=0.0, momentum_coupling=0.5,
                        hbar=1.0)
        x = np.linspace(-4, 4, 41)
        pe = ms.position_density(g0, 0.6, p, x, method="exact")
        pf = ms.position_density(g0, 0.6, p, x, method="free")
        assert np.max(np.abs(pe.density - pf.density)) == 0.0

    @pytest.mark.parametrize("method", ["exact", "expansion", "smoothed",
                                        "free"])
    def test_norm_is_trapezoid_bit_for_bit(self, g0, p_nat, method):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-12.0, 12.0, 301))
        prof = ms.position_density(g0, 1.3, p_nat, x, method=method)
        # computed on first read, then kept
        assert "norm" not in vars(prof)
        want = float(np.trapezoid(prof.density, x))
        assert np.float64(prof.norm).tobytes() == np.float64(want).tobytes()
        assert vars(prof)["norm"] is prof.norm

    def test_norm_ignores_later_writes_to_x(self, g0, p_nat):
        # the profile keeps its own copy of the points
        x = np.linspace(-10.0, 10.0, 201)
        want = float(np.trapezoid(
            ms.position_density(g0, 0.8, p_nat, x).density, x))
        prof = ms.position_density(g0, 0.8, p_nat, x)
        x *= 2.0
        assert np.float64(prof.norm).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_routes_equal_the_expression_form_bit_for_bit(self, units):
        # random couplings, times, states and points, with lam = 0,
        # alpha = 0 and t = 0 among them; (b, s), mean and var as the
        # position_density docstring writes them, on the oracle's free
        # state.  SI draws span 1e-27 to 1 kg at scale_parameters'
        # couplings and t from 1e-20 to 1e3 s, on points placed across
        # each route's own window
        draw = _natural_draw if units == "natural" else _si_draw
        rng = np.random.default_rng(20)
        for i in range(300):
            p, g0, t, x_of = draw(rng, i)
            gs = rcf.free_evolve(g0, t, p)
            ar, ai, hb = gs.a.real, gs.a.imag, p.hbar
            for method in ("exact", "expansion", "smoothed", "free"):
                if method == "smoothed":
                    b, s = 1.0 / (4.0 * ms.beta_t(t, p) * hb * hb), 0.0
                elif method == "free":
                    b, s = 0.0, 0.0
                else:
                    b, s = reference_quadrature.route_weights(method, t, p)
                mean = gs.xbar - 2.0 * hb * gs.kbar * s
                var = 2.0 * hb * hb * (b + 2.0 * ar * s * s) \
                    + (1.0 + 4.0 * hb * ai * s) ** 2 / (4.0 * ar)
                x = x_of(mean, var)
                want, norm = rcf.normal_density(x, mean, var)
                prof = ms.position_density(g0, t, p, x, method=method)
                assert prof.density.tobytes() == want.tobytes()
                assert np.float64(prof.norm).tobytes() \
                    == np.float64(norm).tobytes()

    def test_free_width_keeps_its_precision_when_far_spread(self):
        # a 1e-27 kg packet 1 pm wide after 1e3 s: 2 hbar |a0| t / m is
        # 5.5e19, where the complex quotient a0 / (1 + 2 i hbar a0 t / m)
        # leaves Re a_S rounding noise of either sign (-1.5e-13 and
        # +1.5e-13 for the two spellings of a0) against its true 8.2e-17
        p, t = scale_parameters(1e-27), 1e3
        x = np.linspace(-1.0, 1.0, 5)
        kappa = 2 * Fraction(p.hbar) * Fraction(t) / Fraction(p.mass)
        for a0 in (complex(2.5e23, 7.5e22), 2.5e23 * (1 + 0.3j)):
            ar, ai = Fraction(a0.real), Fraction(a0.imag)
            want = float(ar / ((1 - kappa * ai) ** 2 + (kappa * ar) ** 2))
            assert _free_width(a0, t, p.mass, p.hbar)[0] == pytest.approx(
                want, rel=1e-12)
            g0 = GaussianState(a=a0)
            assert rcf.free_evolve(g0, t, p).a.real == pytest.approx(
                want, rel=1e-12)
            for method in ("exact", "free"):
                prof = ms.position_density(g0, t, p, x, method=method)
                assert np.all(prof.density > 0.0)

    def test_unknown_method_raises(self, g0, p_nat):
        with pytest.raises(ValueError):
            ms.position_density(g0, 0.5, p_nat, np.linspace(-1, 1, 5),
                                method="typo")

    def test_far_window_hits_resolution_guard(self, g0, p_nat):
        # the quadrature oracle refuses a grid it cannot resolve
        x = np.linspace(1e5, 1e5 + 1.0, 3)
        b, s = reference_quadrature.route_weights("exact", 0.3, p_nat)
        with pytest.raises(reference_quadrature.QuadratureLimitError):
            reference_quadrature.density_quadrature(g0, 0.3, p_nat, x, b, s)

    @pytest.mark.parametrize("t", [0.05, 0.5])
    @pytest.mark.parametrize("method", ["exact", "expansion"])
    def test_closed_form_matches_quadrature(self, g0, c0, p_nat, method, t):
        # the Green identity integrated numerically, independent of both the
        # Gaussian closed form and coeff_flow
        mom = ms.moments_from_coefficients(ms.coeff_flow(c0, t, p_nat), p_nat)
        x = mom.q_mean + math.sqrt(mom.var_q) * np.array([-2.5, -1.0, 0.0,
                                                          0.7, 2.0])
        b, s = reference_quadrature.route_weights(method, t, p_nat)
        want = reference_quadrature.density_quadrature(g0, t, p_nat, x, b, s)
        got = ms.position_density(g0, t, p_nat, x, method=method).density
        assert np.max(np.abs(got - want)) / np.max(want) < 1e-8

    @pytest.mark.parametrize("mass", [1e-20, 1e-6, 1.0])
    def test_exact_matches_flowed_moments_si(self, g_si, mass):
        # laboratory scale, u = 2 lam alpha t down to about 1e-23
        p = scale_parameters(mass)
        c_si = ms.coefficients_from_gaussian(g_si, p)
        for t in (1e-3, 1.0, 1e3):
            mom = ms.moments_from_coefficients(ms.coeff_flow(c_si, t, p), p)
            sd = math.sqrt(mom.var_q)
            x = mom.q_mean + sd * np.linspace(-8.0, 8.0, 801)
            prof = ms.position_density(g_si, t, p, x, method="exact")
            peak = 1.0 / math.sqrt(2.0 * math.pi * mom.var_q)
            want = peak * np.exp(-0.5 * (x - mom.q_mean) ** 2 / mom.var_q)
            assert np.max(np.abs(prof.density - want)) / peak < 1e-10
            assert prof.norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [1e-110, 1e-300])
def test_vanishing_momentum_coupling_gives_the_usual_model(alpha, g0, c0):
    # u = 2 lam alpha t underflows, and a form that divides by powers of
    # lam alpha (lam^2 alpha^3 is 0 at alpha = 1e-110) fails there; each
    # closed form must land on its alpha = 0 value
    usual = ModelParams(mass=1.0, collapse_rate=0.1, momentum_coupling=0.0,
                        hbar=1.0)
    tiny = dataclasses.replace(usual, momentum_coupling=alpha)
    t = 2.0
    x = np.linspace(-6.0, 6.0, 49)
    e0 = ms.energy_from_coefficients(c0, usual)

    def results(p):
        return [as_vec(ms.coeff_flow(c0, t, p)),
                ms.mean_energy(e0, t, p),
                ms.position_density(g0, t, p, x, method="exact").density,
                dataclasses.astuple(stationary_covariance(t, p))]

    for got, want in zip(results(tiny), results(usual)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
