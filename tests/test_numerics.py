import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcollapse import numerics as nu

import reference_closed_forms as rcf
from reference_ode import rk4_path


def brute_f2(u):
    return float(u) - 1.0 + math.exp(-float(u))


def brute_k1(u):
    g = -math.expm1(-float(u))
    return g * g + 2.0 * g - 2.0 * float(u)


def brute_k2(u):
    u = float(u)
    return math.exp(-2.0 * u) + 2.0 * u * math.exp(-u) - 1.0


def brute_k3(u):
    u = float(u)
    g = -math.expm1(-u)
    return -2.0 * u * math.exp(-2.0 * u) - g * g + 2.0 * g * math.exp(-u)


def series_reference(coeffs_fn, u, terms=60):
    # direct rational-series evaluation, summed in exact arithmetic
    from fractions import Fraction
    tot = Fraction(0)
    uu = Fraction(u).limit_denominator(10**12)
    for n, c in coeffs_fn(terms):
        tot += c * uu**n
    return float(tot)


def f2_coeffs(terms):
    from fractions import Fraction
    import math as m
    for n in range(2, terms):
        yield n, Fraction((-1) ** n, m.factorial(n))


def k1_coeffs(terms):
    from fractions import Fraction
    import math as m
    for n in range(3, terms):
        yield n, Fraction((-1) ** (n + 1) * (4 - 2 ** n), m.factorial(n))


def k2_coeffs(terms):
    from fractions import Fraction
    import math as m
    for n in range(3, terms):
        yield n, Fraction((-1) ** n * (2 ** n - 2 * n), m.factorial(n))


def k3_coeffs(terms):
    from fractions import Fraction
    import math as m
    for n in range(3, terms):
        yield n, Fraction((-1) ** n * (2 ** n * n + 4 - 3 * 2 ** n),
                          m.factorial(n))


@pytest.mark.parametrize("fn,ref_direct,ref_series", [
    (nu.f2, brute_f2, f2_coeffs),
    (nu.k1, brute_k1, k1_coeffs),
    (rcf.k2, brute_k2, k2_coeffs),
    (rcf.k3, brute_k3, k3_coeffs),
])
def test_kernels_match_series_oracle(fn, ref_direct, ref_series):
    # small arguments: compare against the exact rational series
    for u in [1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.5, 0.74]:
        want = series_reference(ref_series, u)
        got = float(fn(u))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
    # large arguments: direct formula is accurate there
    for u in [0.76, 1.0, 3.0, 10.0, 50.0]:
        assert float(fn(u)) == pytest.approx(ref_direct(u), rel=1e-12)


@pytest.mark.parametrize("table,n_min,gen", [
    (nu._F2_COEFFS, 2, f2_coeffs),
    (nu._K1_COEFFS, 3, k1_coeffs),
    (rcf._K2_COEFFS, 3, k2_coeffs),
    (rcf._K3_COEFFS, 3, k3_coeffs),
], ids=["f2", "k1", "k2", "k3"])
def test_series_tables_are_rounded_rationals(table, n_min, gen):
    want = [float(c) for _, c in gen(nu._N_TERMS + 1)]
    assert len(want) == nu._N_TERMS + 1 - n_min
    assert table == want


@pytest.mark.parametrize("fn", [nu.f2, nu.k1, rcf.k2, rcf.k3,
                                nu.one_minus_exp])
def test_scalar_call_equals_array_element_bit_for_bit(fn):
    # both sides of the series switch, the switch itself and u = 0
    u = np.concatenate([[0.0, np.nextafter(0.75, 0.0), 0.75],
                        np.logspace(-25.0, math.log10(60.0), 10001)])
    arr = fn(u)
    # a Python float, a numpy scalar and a 0-d array
    for form in (float, np.float64, np.array):
        got = np.empty_like(u)
        for i, v in enumerate(u.tolist()):
            out = fn(form(v))
            assert type(out) is float
            got[i] = out
        assert got.tobytes() == arr.tobytes()


def test_kernels_continuous_at_switch():
    eps = 1e-9
    for fn in (nu.f2, nu.k1, rcf.k2, rcf.k3):
        lo = float(fn(0.75 - eps))
        hi = float(fn(0.75 + eps))
        assert hi == pytest.approx(lo, rel=1e-7, abs=1e-12)


def test_kernel_asymptotes():
    # u -> inf: f2 ~ u - 1, k1 ~ -(2u - 3), k2 and k3 -> -1
    u = 60.0
    assert float(nu.f2(u)) == pytest.approx(u - 1.0, rel=1e-14)
    assert float(nu.k1(u)) == pytest.approx(3.0 - 2.0 * u, rel=1e-14)
    assert float(rcf.k2(u)) == pytest.approx(-1.0, rel=1e-14)
    assert float(rcf.k3(u)) == pytest.approx(-1.0, rel=1e-14)


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_kernel_signs(u):
    assert float(nu.f2(u)) >= 0.0
    assert float(nu.k1(u)) <= 0.0
    assert float(rcf.k2(u)) <= 0.0
    assert float(rcf.k3(u)) <= 1e-15
    g = float(nu.one_minus_exp(u))
    assert 0.0 <= g <= 1.0


def test_kernels_vectorized():
    u = np.array([0.0, 1e-6, 0.3, 0.75, 2.0, 40.0])
    for fn, brute in [(nu.f2, brute_f2), (nu.k1, brute_k1),
                      (rcf.k2, brute_k2), (rcf.k3, brute_k3)]:
        out = fn(u)
        assert out.shape == u.shape
        # spot check the large entries; small ones covered above
        assert out[4] == pytest.approx(brute(2.0), rel=1e-12)
        assert out[5] == pytest.approx(brute(40.0), rel=1e-12)
        assert out[0] == 0.0


def test_one_minus_exp_small_argument():
    u = 1e-14
    assert float(nu.one_minus_exp(u)) == pytest.approx(u, rel=1e-10)


# rk4_path is the tests' reference, not the library's: the closed forms'
# ODE oracles rest on it
def test_rk4_path_exact_on_cubic():
    # RK4 integrates polynomials of degree <= 3 exactly
    t = np.linspace(0.0, 2.0, 11)
    path = rk4_path(lambda tt, y: 3.0 * tt ** 2, np.array(0.0), t)
    assert np.allclose(path, t ** 3, rtol=0, atol=1e-13)


def test_rk4_path_linear_system_oracle():
    # dy/dt = i w y has solution e^{iwt}; check 4th-order convergence
    w = 1.7
    t = np.linspace(0.0, 5.0, 26)
    exact = np.exp(1j * w * t)
    err = {}
    for sub in (1, 2):
        path = rk4_path(lambda tt, y: 1j * w * y, np.array(1.0 + 0j), t,
                           substeps=sub)
        err[sub] = np.max(np.abs(path - exact))
    assert err[1] < 5e-3
    # halving the step should shrink the error ~16x
    assert err[2] < err[1] / 12.0


def test_rk4_path_vector_state():
    # harmonic oscillator as a 2-vector; energy conserved to RK4 accuracy
    t = np.linspace(0.0, 10.0, 401)

    def f(tt, y):
        return np.stack([y[1], -y[0]])

    path = rk4_path(f, np.array([1.0, 0.0]), t)
    energy = path[:, 0] ** 2 + path[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-6
