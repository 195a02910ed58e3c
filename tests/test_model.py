import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcollapse.constants import (COLLAPSE_RATE_BASE, HBAR,
                                 MOMENTUM_COUPLING_BASE, NUCLEON_MASS)
from dcollapse.gaussian import a_closed_form
from dcollapse.model import ModelParams, derive_constants, scale_parameters

from reference_closed_forms import constants_80_digits


def test_scale_parameters_reference_mass():
    p = scale_parameters(NUCLEON_MASS)
    assert p.collapse_rate == pytest.approx(1e-2)
    assert p.momentum_coupling == pytest.approx(1e-18, rel=1e-12, abs=0.0)
    assert p.hbar == HBAR


def test_scale_parameters_mass_dependence():
    # rate grows with mass, coupling shrinks, product is invariant
    p1 = scale_parameters(NUCLEON_MASS)
    p2 = scale_parameters(1000.0 * NUCLEON_MASS)
    assert p2.collapse_rate == pytest.approx(1000.0 * p1.collapse_rate)
    assert p2.momentum_coupling == pytest.approx(
        p1.momentum_coupling / 1000.0, rel=1e-12, abs=0.0)
    assert p2.collapse_rate * p2.momentum_coupling == pytest.approx(
        p1.collapse_rate * p1.momentum_coupling, rel=1e-12, abs=0.0)


def test_derived_constants_si_values():
    d = derive_constants(scale_parameters(NUCLEON_MASS))
    assert d.omega == pytest.approx(5.021912987305437e-05, rel=1e-12)
    assert d.theta == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert d.kappa == pytest.approx(5.632170712427685e-16, rel=1e-9, abs=0.0)
    assert d.sigma_q_bar == pytest.approx(0.035432728469966285, rel=1e-12)
    assert d.temperature == pytest.approx(0.12039577943343933, rel=1e-12)
    assert d.energy_inf == pytest.approx(
        HBAR ** 2 / (8.0 * NUCLEON_MASS * 1e-18), rel=1e-12)


def test_derived_constants_mass_invariants():
    # omega, theta, temperature, and energy floor do not depend on mass
    d1 = derive_constants(scale_parameters(NUCLEON_MASS))
    d2 = derive_constants(scale_parameters(1.0))
    assert d2.omega == pytest.approx(d1.omega, rel=1e-12)
    assert d2.theta == pytest.approx(d1.theta, abs=1e-12)
    assert d2.temperature == pytest.approx(d1.temperature, rel=1e-12)
    assert d2.energy_inf == pytest.approx(d1.energy_inf, rel=1e-12)


def test_derived_constants_natural(p_nat, d_nat):
    assert d_nat.omega == pytest.approx(0.6328504467012849, rel=1e-13)
    assert d_nat.theta == pytest.approx(0.7604189655364769, rel=1e-13)
    assert d_nat.sigma_q_bar ** 2 == pytest.approx(1.6211486820500447, rel=1e-12)
    assert d_nat.sigma_p_bar ** 2 == pytest.approx(0.2357213354401732, rel=1e-12)
    assert d_nat.sigma_qp_bar_sq == pytest.approx(0.36350974165751504, rel=1e-12)
    assert d_nat.omega1 == pytest.approx(
        math.sqrt(2.0) * d_nat.omega * math.cos(d_nat.theta), rel=1e-13)
    assert d_nat.omega2 == pytest.approx(
        math.sqrt(2.0) * d_nat.omega * math.sin(d_nat.theta), rel=1e-13)


def test_stationary_width_is_riccati_fixed_point(p_nat, d_nat):
    lam, al, m, hb = (p_nat.collapse_rate, p_nat.momentum_coupling,
                      p_nat.mass, p_nat.hbar)
    a = d_nat.a_inf
    residual = -2j * hb * a * a / m - 4.0 * lam * al * a + lam
    assert abs(residual) < 1e-14


def _oracle_sets():
    """Parameter sets, by group, on which every derived constant is held to
    the 80-digit trig route."""
    rng = np.random.default_rng(31415)
    spread = [ModelParams(mass=10.0 ** rng.uniform(-30.0, 3.0),
                          collapse_rate=10.0 ** rng.uniform(-6.0, 2.0),
                          momentum_coupling=10.0 ** rng.uniform(-20.0, 2.0),
                          hbar=1.0) for _ in range(100)]
    natural = dict(mass=1.0, momentum_coupling=0.5, hbar=1.0)
    return {
        "spread": [ModelParams(collapse_rate=0.1, **natural),
                   scale_parameters(NUCLEON_MASS), *spread],
        "si masses": [scale_parameters(10.0 ** e) for e in range(-27, 1, 3)],
        # lam alpha^2 m / hbar up to 2.5e6, where cos theta - kappa cancels
        "saturation": [ModelParams(mass=1.0, collapse_rate=0.1,
                                   momentum_coupling=al, hbar=1.0)
                       for al in (0.5, 5.0, 50.0, 500.0, 5000.0)],
        # lam^2 is subnormal, then 0; at m = 1e-30, |a_inf|^2 is 0 too
        "tiny rates": [*(ModelParams(collapse_rate=lam, **natural)
                         for lam in (1e-160, 1e-300)),
                       ModelParams(mass=1e-30, collapse_rate=1e-300,
                                   momentum_coupling=0.5, hbar=1.0)],
    }


def _oracle_error(d, ref) -> float:
    """Largest relative error of the fields of d against the 80-digit
    constants ref, a_inf's real and imaginary parts each on its own."""
    worst = 0.0
    for f in dataclasses.fields(d):
        got, want = getattr(d, f.name), getattr(ref, f.name)
        pairs = ([(got.real, want.real), (got.imag, want.imag)]
                 if f.name == "a_inf" else [(got, want)])
        for g, w in pairs:
            worst = max(worst, 0.0 if g == w else float(abs(g - w) / abs(w)))
    return worst


@pytest.mark.parametrize("group", list(_oracle_sets()))
def test_constants_match_the_80_digit_trig_route(group):
    # the trig route in double precision reads up to 8.9e-9 on "spread",
    # 4.5e-2 on "saturation" (Im a_inf at alpha = 5000), 2.8e-6 at
    # lam = 1e-160 and divides by zero at lam = 1e-300
    worst = max(_oracle_error(derive_constants(p, boltzmann=1.0),
                             constants_80_digits(p))
                for p in _oracle_sets()[group])
    print(f"{group}: worst relative error {worst:.2e}")
    assert worst < 2e-15


@pytest.mark.parametrize("al", [0.5, 50.0, 500.0, 5000.0])
def test_width_law_relaxes_to_a_inf(al):
    # 200 relaxation times on, tanh(mu t) = 1 and the law is its fixed point
    p = ModelParams(mass=1.0, collapse_rate=0.1, momentum_coupling=al,
                    hbar=1.0)
    d = derive_constants(p, boltzmann=1.0)
    a = a_closed_form(1.0 + 0.5j, 200.0 / d.omega1, p)
    assert abs(a - d.a_inf) < 1e-12 * abs(d.a_inf)


def test_omega1_equals_four_lambda_width(p_nat, d_nat):
    assert d_nat.omega1 == pytest.approx(
        4.0 * p_nat.collapse_rate * d_nat.sigma_q_bar ** 2, rel=1e-12)


def test_kappa_squared_is_cos_two_theta(d_nat):
    assert d_nat.kappa ** 2 == pytest.approx(math.cos(2.0 * d_nat.theta),
                                             rel=1e-12)


def test_zero_collapse_rate_branch():
    p = ModelParams(mass=1.0, collapse_rate=0.0, momentum_coupling=0.5,
                    hbar=1.0)
    d = derive_constants(p, boltzmann=1.0)
    assert d.theta == pytest.approx(math.pi / 4.0)
    assert d.kappa == 0.0
    assert d.a_inf == 0.0
    assert math.isinf(d.sigma_q_bar)
    assert d.sigma_p_bar == 0.0
    assert d.sigma_qp_bar_sq == pytest.approx(0.5 * p.hbar)


def test_zero_momentum_coupling_energy_floor():
    p = ModelParams(mass=1.0, collapse_rate=0.1, momentum_coupling=0.0,
                    hbar=1.0)
    d = derive_constants(p, boltzmann=1.0)
    assert math.isinf(d.energy_inf)
    assert math.isinf(d.temperature)


def test_uncertainty_product_at_least_half_hbar(d_nat, p_nat):
    prod = d_nat.sigma_q_bar * d_nat.sigma_p_bar
    assert prod >= 0.5 * p_nat.hbar - 1e-15
    # the stationary state saturates the generalized relation instead
    lhs = (d_nat.sigma_q_bar * d_nat.sigma_p_bar) ** 2 \
        - d_nat.sigma_qp_bar_sq ** 2
    assert lhs == pytest.approx(0.25 * p_nat.hbar ** 2, rel=1e-12)


@given(st.floats(min_value=1e-4, max_value=1e2),
       st.floats(min_value=1e-4, max_value=1e2))
@settings(max_examples=200, deadline=None)
def test_uncertainty_product_random_couplings(lam, al):
    p = ModelParams(mass=1.0, collapse_rate=lam, momentum_coupling=al,
                    hbar=1.0)
    d = derive_constants(p, boltzmann=1.0)
    assert d.sigma_q_bar * d.sigma_p_bar >= 0.5 - 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mass=-1.0, collapse_rate=0.1, momentum_coupling=0.5,
                    hbar=1.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, collapse_rate=-0.1, momentum_coupling=0.5,
                    hbar=1.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, collapse_rate=0.1, momentum_coupling=-0.5,
                    hbar=1.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, collapse_rate=0.1, momentum_coupling=0.5,
                    hbar=0.0)


def test_natural_units_preserve_derived_shape():
    # dimensionless combinations survive the change to units in which
    # hbar = m = 1: length sqrt(alpha), time m L^2 / hbar
    p_si = scale_parameters(NUCLEON_MASS)
    length = math.sqrt(p_si.momentum_coupling)
    time = p_si.mass * length ** 2 / p_si.hbar
    p_nat = ModelParams(mass=1.0,
                        collapse_rate=p_si.collapse_rate * length ** 2 * time,
                        momentum_coupling=1.0, hbar=1.0)
    d_si = derive_constants(p_si)
    d_nat = derive_constants(p_nat, boltzmann=1.0)
    assert d_nat.theta == pytest.approx(d_si.theta, rel=1e-10)
    assert d_nat.kappa == pytest.approx(d_si.kappa, rel=1e-6, abs=0.0)
    # omega in natural units maps back to SI through the time scale
    assert d_nat.omega / time == pytest.approx(d_si.omega, rel=1e-10)


def test_fundamental_constants_frozen():
    assert COLLAPSE_RATE_BASE == 1e-2
    assert MOMENTUM_COUPLING_BASE == 1e-18
