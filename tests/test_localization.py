import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcollapse.gaussian import spreads
from dcollapse.model import ModelParams, derive_constants, scale_parameters
from dcollapse import localization as lo

from moment_sampler import random_moment_triples


def random_params(rng):
    return ModelParams(mass=10 ** rng.uniform(-2, 2),
                       collapse_rate=10 ** rng.uniform(-3, 1),
                       momentum_coupling=10 ** rng.uniform(-3, 1),
                       hbar=1.0)


class TestSigmaO:
    def test_vanishes_at_stationary_triple(self, p_nat, d_nat):
        out = lo.sigma_O_sq(d_nat.sigma_q_bar ** 2, d_nat.sigma_p_bar ** 2,
                            d_nat.sigma_qp_bar_sq, p_nat)
        assert abs(out) < 1e-12 * d_nat.sigma_p_bar ** 2

    def test_pure_state_identity(self, p_nat, d_nat):
        # for a pure Gaussian of width a the variance has the closed form
        # 4 hbar^2 |a - a_inf|^2 sigma_q^2, since (O - <O>) acts on the state
        # as 2 i hbar (a - a_inf)(q - <q>)
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = complex(rng.uniform(0.05, 3.0), rng.uniform(-2.0, 2.0))
            tr = spreads(a, p_nat)
            got = lo.sigma_O_sq(tr.sigma_q ** 2, tr.sigma_p ** 2,
                                tr.sigma_qp_sq, p_nat)
            want = 4.0 * p_nat.hbar ** 2 * abs(a - complex(d_nat.a_inf)) ** 2 \
                * tr.sigma_q ** 2
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_non_negative_on_sampled_moments(self, p_nat, d_nat):
        rng = np.random.default_rng(7)
        q2, p2, qp2 = random_moment_triples(100_000, p_nat, rng)
        vals = lo.sigma_O_sq(q2, p2, qp2, p_nat)
        assert float(np.min(vals)) > -1e-12 * d_nat.sigma_p_bar ** 2

    def test_broadcasts(self, p_nat, d_nat):
        q2 = np.full(5, d_nat.sigma_q_bar ** 2)
        out = lo.sigma_O_sq(q2, d_nat.sigma_p_bar ** 2,
                            d_nat.sigma_qp_bar_sq, p_nat)
        assert out.shape == (5,)


class TestDrift:
    def test_zero_at_stationary_point(self, p_nat, d_nat):
        out = lo.drift_prediction(d_nat.sigma_q_bar ** 2,
                                  d_nat.sigma_p_bar ** 2,
                                  d_nat.sigma_qp_bar_sq, p_nat)
        scale = p_nat.collapse_rate * d_nat.sigma_p_bar ** 2 \
            * d_nat.sigma_q_bar ** 2
        assert abs(out) < 1e-12 * scale

    def test_never_positive_on_large_sample(self, p_nat, d_nat):
        rng = np.random.default_rng(11)
        q2, p2, qp2 = random_moment_triples(100_000, p_nat, rng)
        drift = lo.drift_prediction(q2, p2, qp2, p_nat)
        scale = p_nat.collapse_rate * d_nat.sigma_p_bar ** 2 \
            * d_nat.sigma_q_bar ** 2
        assert float(np.max(drift)) <= 1e-12 * scale

    def test_scales_linearly_with_rate(self, p_nat, d_nat):
        q2 = 1.8 * d_nat.sigma_q_bar ** 2
        p2 = 1.3 * d_nat.sigma_p_bar ** 2
        qp2 = 0.6 * d_nat.sigma_qp_bar_sq
        base = lo.drift_prediction(q2, p2, qp2, p_nat)
        # five times the rate with m*lam and alpha held fixed leaves the
        # stationary width equation (and so the bars) unchanged
        p5 = ModelParams(mass=p_nat.mass / 5.0,
                         collapse_rate=5.0 * p_nat.collapse_rate,
                         momentum_coupling=p_nat.momentum_coupling,
                         hbar=p_nat.hbar)
        d5 = derive_constants(p5, boltzmann=1.0)
        assert d5.sigma_q_bar == pytest.approx(d_nat.sigma_q_bar, rel=1e-12)
        got = lo.drift_prediction(q2, p2, qp2, p5)
        assert got == pytest.approx(5.0 * base, rel=1e-12)

    def test_strictly_negative_off_stationary(self, p_nat, d_nat):
        drift = lo.drift_prediction(2.0 * d_nat.sigma_q_bar ** 2,
                                    d_nat.sigma_p_bar ** 2,
                                    d_nat.sigma_qp_bar_sq, p_nat)
        assert drift < -1e-6

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(min_value=-0.9, max_value=3.0),
           y=st.floats(min_value=-0.9, max_value=3.0),
           z=st.floats(min_value=-0.9, max_value=3.0))
    def test_never_positive_property(self, x, y, z, p_nat, d_nat):
        q2 = d_nat.sigma_q_bar ** 2 * (1.0 + x)
        p2 = d_nat.sigma_p_bar ** 2 * (1.0 + y)
        qp2 = d_nat.sigma_qp_bar_sq * (1.0 + z)
        if q2 * p2 - qp2 * qp2 < 0.25 * p_nat.hbar ** 2:
            return
        scale = p_nat.collapse_rate * d_nat.sigma_p_bar ** 2 \
            * d_nat.sigma_q_bar ** 2
        assert lo.drift_prediction(q2, p2, qp2, p_nat) <= 1e-12 * scale


class TestRateBound:
    """The localization rate lam hbar^2 (sigma_q^2 / sq~^2)^2 of a packet
    of width sigma_q equals prefactor * m^3 sigma_q^4, with the prefactor
    2 lam omega^2 sin^2(theta) / m of the derived constants."""

    @staticmethod
    def prefactor(p, d):
        return 2.0 * p.collapse_rate * d.omega ** 2 * math.sin(d.theta) ** 2 \
            / p.mass

    def test_stationary_value(self, p_nat, d_nat):
        # at the stationary width the rate is lam hbar^2
        s2 = d_nat.sigma_q_bar ** 2
        got = self.prefactor(p_nat, d_nat) * p_nat.mass ** 3 * s2 ** 2
        assert got == pytest.approx(p_nat.collapse_rate * p_nat.hbar ** 2,
                                    rel=1e-12)

    def test_prefactor_identity(self):
        # rate == prefactor * m^3 * sigma_q^4 for any parameter set
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_params(rng)
            d = derive_constants(p, boltzmann=1.0)
            s2 = d.sigma_q_bar ** 2 * rng.uniform(0.2, 5.0)
            lhs = p.collapse_rate * p.hbar ** 2 * (s2 / d.sigma_q_bar ** 2) ** 2
            rhs = self.prefactor(p, d) * p.mass ** 3 * s2 ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_prefactor_mass_invariance_and_magnitude(self):
        vals = []
        for m in (1.67262192369e-27, 1e-9, 1.0):
            p = scale_parameters(m)
            vals.append(self.prefactor(p, derive_constants(p)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-10)
        assert vals[0] == pytest.approx(vals[2], rel=1e-10)
        assert vals[0] == pytest.approx(1.507789e16, rel=1e-4)
        # order of magnitude: about 1e15 in SI units
        assert 1e15 / 30.0 < vals[0] < 1e15 * 30.0


class TestMomentSampler:
    def test_all_triples_are_physical(self, p_nat):
        rng = np.random.default_rng(21)
        q2, p2, qp2 = random_moment_triples(5000, p_nat, rng)
        quarter = 0.25 * p_nat.hbar ** 2
        assert q2.shape == p2.shape == qp2.shape == (5000,)
        assert np.all(q2 * p2 - qp2 ** 2 >= quarter)
        assert np.all(q2 > 0) and np.all(p2 > 0)

    def test_respects_deviation_bounds(self, p_nat, d_nat):
        # relative deviations are drawn from the fixed range [-0.9, 3.0]
        rng = np.random.default_rng(22)
        q2, p2, qp2 = random_moment_triples(2000, p_nat, rng)
        for got, bar in ((q2, d_nat.sigma_q_bar ** 2),
                         (p2, d_nat.sigma_p_bar ** 2),
                         (qp2, d_nat.sigma_qp_bar_sq)):
            assert np.all(got >= 0.1 * bar * (1 - 1e-12))
            assert np.all(got <= 4.0 * bar * (1 + 1e-12))

    def test_reproducible_with_seed(self, p_nat):
        one = random_moment_triples(100, p_nat, np.random.default_rng(5))
        two = random_moment_triples(100, p_nat, np.random.default_rng(5))
        for x, y in zip(one, two):
            assert np.array_equal(x, y)
