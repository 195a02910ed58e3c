import math
from fractions import Fraction

import mpmath
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


def brute_gamma(u):
    return -math.expm1(-float(u))


def series_reference(coeffs_fn, u, power, terms=60):
    # direct rational-series evaluation of the kernel divided by u^power,
    # summed in exact arithmetic
    from fractions import Fraction
    tot = Fraction(0)
    uu = Fraction(u).limit_denominator(10**12)
    for n, c in coeffs_fn(terms):
        tot += c * uu**(n - power)
    return float(tot)


def gamma_coeffs(terms):
    from fractions import Fraction
    import math as m
    for n in range(1, terms):
        yield n, Fraction((-1) ** (n + 1), m.factorial(n))


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


# each kernel of `numerics` and of the oracle by the numerator it divides:
# the kernel, the power of u it divides by, and its exact value at u = 0
KERNELS = {
    "one_minus_exp": (nu.G, 1, 1.0),
    "f2": (nu.F, 2, 1 / 2),
    "k1": (nu.K, 3, -2 / 3),
    "k2": (rcf.K2, 3, -1 / 3),
    "k3": (rcf.K3, 3, -2 / 3),
}


@pytest.mark.parametrize("name,ref_direct,ref_series", [
    ("one_minus_exp", brute_gamma, gamma_coeffs),
    ("f2", brute_f2, f2_coeffs),
    ("k1", brute_k1, k1_coeffs),
    ("k2", brute_k2, k2_coeffs),
    ("k3", brute_k3, k3_coeffs),
])
def test_kernels_match_series_oracle(name, ref_direct, ref_series):
    fn, power, _ = KERNELS[name]
    # small arguments: compare against the exact rational series
    for u in [1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.5, 0.74]:
        want = series_reference(ref_series, u, power)
        got = float(fn(u))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
    # large arguments: direct formula is accurate there
    for u in [0.76, 1.0, 3.0, 10.0, 50.0]:
        assert float(fn(u)) == pytest.approx(ref_direct(u) / u**power,
                                             rel=1e-12)


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


@pytest.mark.parametrize("name", ["f2", "k1", "k2", "k3", "one_minus_exp"])
def test_scalar_call_equals_array_element_bit_for_bit(name):
    fn = KERNELS[name][0]
    # both sides of the series switch, the switch itself, u = 0 and the
    # smallest subnormal
    u = np.concatenate([[0.0, 5e-324, np.nextafter(0.75, 0.0), 0.75],
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


@pytest.mark.parametrize("name", list(KERNELS))
def test_kernels_take_their_limit_at_zero(name):
    # the alpha = 0 value of every closed form rests on these; at the
    # smallest subnormal u the higher terms vanish below rounding
    fn, _, at_zero = KERNELS[name]
    for u in (0.0, 5e-324):
        assert fn(u) == at_zero
        assert fn(np.array([u, u]))[1] == at_zero


def test_kernels_continuous_at_switch():
    eps = 1e-9
    for fn, _, _ in KERNELS.values():
        lo = float(fn(0.75 - eps))
        hi = float(fn(0.75 + eps))
        assert hi == pytest.approx(lo, rel=1e-7, abs=1e-12)


def test_kernel_asymptotes():
    # u -> inf: f2 ~ u - 1, k1 ~ -(2u - 3), k2 and k3 -> -1, over u^n
    u = 60.0
    assert float(nu.F(u)) == pytest.approx((u - 1.0) / u**2, rel=1e-14)
    assert float(nu.K(u)) == pytest.approx((3.0 - 2.0 * u) / u**3, rel=1e-14)
    assert float(rcf.K2(u)) == pytest.approx(-1.0 / u**3, rel=1e-14)
    assert float(rcf.K3(u)) == pytest.approx(-1.0 / u**3, rel=1e-14)


@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_kernel_signs(u):
    assert float(nu.F(u)) >= 0.0
    assert float(nu.K(u)) <= 0.0
    assert float(rcf.K2(u)) <= 0.0
    assert float(rcf.K3(u)) <= 1e-15
    g = float(nu.G(u))
    assert 0.0 <= g <= 1.0


def test_kernels_vectorized():
    u = np.array([0.0, 1e-6, 0.3, 0.75, 2.0, 40.0])
    for name, brute in [("f2", brute_f2), ("k1", brute_k1),
                        ("k2", brute_k2), ("k3", brute_k3)]:
        fn, power, at_zero = KERNELS[name]
        out = fn(u)
        assert out.shape == u.shape
        # spot check the large entries; small ones covered above
        assert out[4] == pytest.approx(brute(2.0) / 2.0**power, rel=1e-12)
        assert out[5] == pytest.approx(brute(40.0) / 40.0**power, rel=1e-12)
        assert out[0] == at_zero


def test_one_minus_exp_small_argument():
    # G = (1 - e^-u) / u
    u = 1e-14
    assert float(nu.G(u)) == pytest.approx(1.0, rel=1e-10)


# H(w) = tanh(sqrt w) / sqrt w, the width flow's kernel on complex w
def test_tanh_kernel_tables_are_rounded_rationals():
    assert nu._SINHC_COEFFS == [
        float(Fraction(1, math.factorial(2 * n + 1))) for n in range(11)]
    assert nu._COSH_COEFFS == [
        float(Fraction(1, math.factorial(2 * n))) for n in range(11)]


def test_tanh_kernel_is_one_at_zero():
    assert nu.H(np.array([0j, 0j]))[0] == 1.0
    out = nu.H(np.array(0j))
    assert out.shape == () and out == 1.0 and out.imag == 0.0


def test_tanh_kernel_continuous_across_the_unit_circle():
    eps = 1e-9
    for arg in np.linspace(-math.pi, math.pi, 13):
        lo = nu.H(np.array([(1.0 - eps) * np.exp(1j * arg)]))[0]
        hi = nu.H(np.array([(1.0 + eps) * np.exp(1j * arg)]))[0]
        assert abs(hi - lo) <= 1e-8 * abs(lo)


def test_tanh_kernel_matches_mpmath():
    w = np.array([1e-30j, 1e-15 * (1 + 1j), 0.99, 1.01,
                  30.0 * np.exp(1j * math.pi / 4)])
    got = nu.H(w)
    with mpmath.workdps(40):
        for wi, gi in zip(w.tolist(), got.tolist()):
            z = mpmath.sqrt(mpmath.mpc(wi))
            want = complex(mpmath.tanh(z) / z)
            assert abs(gi - want) <= 4e-16 * abs(want)


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
