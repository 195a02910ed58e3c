"""Independent closed-form routes that the tests hold the library to.

The library computes each of these quantities another way; the routes
here are kept only as oracles:

- `simulate_means` is the reduced dynamics of a Gaussian trajectory: an
  Euler-Maruyama recursion for the packet centres along the closed-form
  width flow.  The grid integrator and the master energy law are compared
  with it.
- `phase_constants` and `sigma_q_of_t` are the trig-hyperbolic width
  formula, a second route to the spread that `gaussian.a_closed_form`
  gives through its Moebius form in tanh(mu t) / mu.  They build their
  constants A and B from `derive_constants` (`riccati_constants`).
  phi1 = +inf denotes a start exactly at the fixed point; phi2 only enters
  through sin/cos and is defined mod 2 pi.
- `green_factors` is the pointwise Green pullback of the characteristic
  function, which `master.coeff_flow` must reproduce coefficient by
  coefficient.  Its kernels `K2` and `K3`, which `evolve_characteristic`
  shares, are k2 and k3 divided by u^3 as `numerics` divides its own, on
  its Taylor-series machinery.
- `evolve_characteristic` pushes a coefficient vector through the Green
  identity term by term, an arithmetic route to `master.coeff_flow`'s
  result that the tests compare with it.
- `width_80_digits` is the width law a_closed_form writes, the Moebius map
  in tau = tanh(mu t) / mu, evaluated in `mpmath` at 80 digits on the
  exact values of its float inputs, with the spreads of its result.  At
  laboratory scale Re a_t can sit 20 orders of magnitude below |a_t|, and
  80 digits keep it to far below double precision.
- `constants_80_digits` is the trig route to the stationary constants,
  a_inf = (m omega / 2 sqrt(2) hbar)(sin theta - i (cos theta - kappa)),
  in `mpmath` at 80 digits.  `derive_constants` takes the attracting root
  2 lam / (4 lam alpha + r) of the Riccati fixed point instead, which no
  cancellation touches; in double precision the trig route loses
  cos theta - kappa once lam alpha^2 m / hbar >> 1.
- `wavefunction` is the normalized complex Gaussian psi(x) itself.  The
  grid builds packets normalized on the grid instead, and the `free`
  density route takes |psi|^2 as a normal density.
- `free_evolve` is the collapse-free evolution of a Gaussian state, its
  width law a0 / (1 + i kappa a0) written over D = |1 + i kappa a0|^2 and
  evaluated on 0-d arrays.  `master.position_density` evaluates the width
  on Python floats instead, and must match it bit for bit.
- `normal_density` is that normal density and its trapezoid norm written
  as array expressions.  `master.position_density` evaluates them in place
  in one buffer and folds two exact power-of-two scalings: the -0.5 into
  the division by var, and the trapezoid's halving into one division of
  the sum.  It must still match this form bit for bit.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from dcollapse import numerics
from dcollapse.gaussian import GaussianState, a_closed_form
from dcollapse.master import CharCoefficients
from dcollapse.model import DerivedConstants, ModelParams, derive_constants

_SQRT2 = math.sqrt(2.0)


def simulate_means(a0: complex, x0, k0, t_grid, p: ModelParams, increments):
    """Euler-Maruyama paths of the packet centres for an ensemble.

    increments has shape (len(t_grid) - 1,) + E where E is any ensemble shape,
    each entry a Brownian increment for its interval.  x0, k0 broadcast
    against E.  The width follows the closed-form flow from a0 (common to all
    members).  Returns (xbar, kbar) with shape (len(t_grid),) + E.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    increments = np.asarray(increments, dtype=float)
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    root = math.sqrt(lam)
    shape = increments.shape[1:]
    x = np.broadcast_to(np.asarray(x0, dtype=float), shape).copy()
    k = np.broadcast_to(np.asarray(k0, dtype=float), shape).copy()
    xs = np.empty((len(t_grid),) + shape)
    ks = np.empty_like(xs)
    xs[0], ks[0] = x, k
    for i in range(len(t_grid) - 1):
        dt = t_grid[i + 1] - t_grid[i]
        a = a_closed_form(a0, t_grid[i], p)
        ar, ai = a.real, a.imag
        s = 0.5 / ar - al
        dW = increments[i]
        x = x + (hb / m) * k * dt + root * s * dW
        k = k - 2.0 * lam * al * k * dt - root * (ai / ar) * dW
        xs[i + 1], ks[i + 1] = x, k
    return xs, ks


def width_80_digits(a0: complex, t: float, p: ModelParams):
    """a_t and its spreads (sigma_q, sigma_p, sigma_qp_sq) as mpmath
    numbers at 80 digits."""
    with mpmath.workdps(80):
        lam, al, m, hb = (mpmath.mpf(v) for v in (
            p.collapse_rate, p.momentum_coupling, p.mass, p.hbar))
        g, kp = 2 * lam * al, 2 * hb / m
        mu = mpmath.sqrt(g * g + 1j * kp * lam)
        t = mpmath.mpf(t)
        tau = mpmath.tanh(mu * t) / mu if mu != 0 else t
        a0 = mpmath.mpc(a0)
        a = (a0 + (lam - g * a0) * tau) / (1 + (g + 1j * kp * a0) * tau)
        ar, ai = a.real, a.imag
        return a, (1 / (2 * mpmath.sqrt(ar)), hb * mpmath.sqrt(abs(a) ** 2 / ar),
                   -hb * ai / (2 * ar))


def constants_80_digits(p: ModelParams):
    """The stationary constants of p by the trig route, a DerivedConstants
    of mpmath numbers at 80 digits (lam > 0, k_B = 1): omega and theta from
    the fourth root and half-angle of 16 (lam alpha)^2 + 8 i hbar lam / m,
    kappa = 2 sqrt(2) lam alpha / omega, and
    a_inf = (m omega / 2 sqrt(2) hbar)(sin theta - i (cos theta - kappa)),
    with its spreads.  cos theta - kappa cancels once lam alpha^2 m / hbar
    >> 1, but 80 digits keep it to far below double precision on every
    parameter set the tests use."""
    with mpmath.workdps(80):
        lam, al, m, hb = (mpmath.mpf(v) for v in (
            p.collapse_rate, p.momentum_coupling, p.mass, p.hbar))
        root2 = mpmath.sqrt(2)
        omega = 2 * (4 * (lam * al) ** 4 + lam**2 * hb**2 / m**2) ** 0.25
        theta = mpmath.atan2(hb, 2 * lam * al**2 * m) / 2
        sin_t, cos_t = mpmath.sin(theta), mpmath.cos(theta)
        kappa = 2 * root2 * lam * al / omega
        a = (m * omega / (2 * root2 * hb)) * mpmath.mpc(sin_t, -(cos_t - kappa))
        energy = hb**2 / (8 * m * al) if al > 0 else mpmath.inf
        return DerivedConstants(
            omega=omega, theta=theta, omega1=root2 * omega * cos_t,
            omega2=root2 * omega * sin_t, kappa=kappa, a_inf=a,
            sigma_q_bar=1 / (2 * mpmath.sqrt(a.real)),
            sigma_p_bar=hb * mpmath.sqrt(abs(a) ** 2 / a.real),
            sigma_qp_bar_sq=-hb * a.imag / (2 * a.real),
            energy_inf=energy, temperature=2 * energy)


def wavefunction(g: GaussianState, x):
    """Normalized position wavefunction of the state on the points x."""
    x = np.asarray(x, dtype=float)
    ar = complex(g.a).real
    norm = (2.0 * ar / math.pi) ** 0.25
    dx = x - g.xbar
    return norm * np.exp(-g.a * dx * dx + 1j * g.kbar * dx)


def free_evolve(g: GaussianState, t: float, p: ModelParams) -> GaussianState:
    """Collapse-free (unitary) evolution of a Gaussian state for time t."""
    a0 = np.asarray(g.a, dtype=complex)
    kappa = 2.0 * p.hbar * np.asarray(t, dtype=float) / p.mass
    den = (1.0 - kappa * a0.imag) ** 2 + (kappa * a0.real) ** 2
    a_t = complex(a0.real / den,
                  (a0.imag - kappa * (a0.real ** 2 + a0.imag ** 2)) / den)
    return GaussianState(a=a_t, xbar=g.xbar + p.hbar * g.kbar * t / p.mass,
                         kbar=g.kbar)


def normal_density(x, mean: float, var: float):
    """The normal density on the points x and its np.trapezoid norm."""
    x = np.asarray(x, dtype=float)
    dens = np.exp(-0.5 * (x - mean) ** 2 / var) \
        / math.sqrt(2.0 * math.pi * var)
    norm = float(np.add.reduce(np.diff(x) * (dens[1:] + dens[:-1]) / 2.0))
    return dens, norm


@dataclass(frozen=True)
class PhaseConstants:
    """Constants of the trig-hyperbolic width representation."""

    A: complex
    B: complex
    k: complex
    phi1: float
    phi2: float


def riccati_constants(p: ModelParams):
    """A = -2 i lam alpha m / hbar and B = (m omega / (sqrt(2) hbar)) e^{i theta}
    of the substitution a = -A/2 - (i B / 2) tanh((hbar/m) B t + k), so that
    B^2 = -A^2 + 2 i lam m / hbar."""
    d = derive_constants(p, boltzmann=1.0)
    A = -2j * p.collapse_rate * p.momentum_coupling * p.mass / p.hbar
    B = (p.mass * d.omega / (_SQRT2 * p.hbar)) * np.exp(1j * d.theta)
    return A, B


def phase_constants(a0: complex, p: ModelParams) -> PhaseConstants:
    """Map an initial width to the constants (A, B, k, phi1, phi2) of the
    trig-hyperbolic representation.  a0 at the fixed point gives phi1 = +inf.
    """
    if p.collapse_rate == 0.0:
        raise ValueError("no relaxation constants at zero collapse rate")
    if not complex(a0).real > 0.0:
        raise ValueError("Re a0 must be positive")
    A, B = riccati_constants(p)
    tau0 = 1j * (2.0 * complex(a0) + A) / B
    if abs(tau0 - 1.0) < 1e-14:
        return PhaseConstants(A=complex(A), B=complex(B),
                              k=complex(math.inf, 0.0), phi1=math.inf, phi2=0.0)
    if abs(tau0 + 1.0) < 1e-14:
        raise ValueError("a0 sits on the repelling fixed point")
    k = np.arctanh(tau0 + 0j)
    return PhaseConstants(A=complex(A), B=complex(B), k=complex(k),
                          phi1=2.0 * float(k.real), phi2=2.0 * float(k.imag))


def sigma_q_of_t(t, pc: PhaseConstants, p: ModelParams,
                 d: DerivedConstants | None = None):
    """Position spread along the relaxation, stabilized against overflow.

    Evaluates sigma_q(t) from the trig-hyperbolic representation

        sigma_q^2 = (hbar / (sqrt(2) m omega)) *
                    (cosh(w1 t + phi1) + cos(w2 t + phi2)) /
                    (sin(theta) sinh(w1 t + phi1) + cos(theta) sin(w2 t + phi2))

    with numerator and denominator divided by cosh so that arguments of any
    size (including phi1 = +inf) are safe.
    """
    d = d or derive_constants(p, boltzmann=1.0)
    t = np.asarray(t, dtype=float)
    arg1 = d.omega1 * t + pc.phi1
    arg2 = d.omega2 * t + pc.phi2
    tanh1 = np.tanh(arg1)
    sech1 = np.where(np.abs(arg1) > 700.0, 0.0,
                     1.0 / np.cosh(np.clip(arg1, -700.0, 700.0)))
    sin_t, cos_t = math.sin(d.theta), math.cos(d.theta)
    num = 1.0 + np.cos(arg2) * sech1
    den = sin_t * tanh1 + cos_t * np.sin(arg2) * sech1
    if np.any(den <= 0.0):
        raise ValueError("width parameter outside the physical half plane")
    out = np.sqrt((p.hbar / (_SQRT2 * p.mass * d.omega)) * num / den)
    return float(out) if out.ndim == 0 else out


_K2_COEFFS = numerics._series_coeffs(lambda n: (-1) ** n * (2**n - 2 * n), 3)
_K3_COEFFS = numerics._series_coeffs(
    lambda n: (-1) ** n * (2**n * n + 4 - 3 * 2**n), 3)


def K2(u):
    """(e^-2u + 2u e^-u - 1) / u^3  (= -1/3 + u/3 - ...), negative."""

    def direct(v):
        return (np.exp(-2.0 * v) + 2.0 * v * np.exp(-v) - 1.0) / (v * v * v)

    return numerics._eval_kernel(u, _K2_COEFFS, direct)


def K3(u):
    """(-2u e^-2u - gamma^2 + 2 gamma e^-u) / u^3  (= -2/3 + 5u/6 - ...),
    negative."""

    def direct(v):
        g = -np.expm1(-v)
        d = np.exp(-v)
        return (-2.0 * v * d * d - g * g + 2.0 * g * d) / (v * v * v)

    return numerics._eval_kernel(u, _K3_COEFFS, direct)


@dataclass(frozen=True)
class GreenFactors:
    """Pullback data: rho~_t(k, x) = exp(log_weight) * rho~_0(k0, x0)."""

    k0: float
    x0: float
    log_weight: float


def green_factors(k: float, x: float, t: float, p: ModelParams) -> GreenFactors:
    """Pullback of the characteristic function to its initial data.

    rho~_t(k, x) = exp(log_weight) * rho~_0(k, x0) with

        x0 = x e^{-u} + k t G(u) / m,   u = 2 lam alpha t,

    and a log-weight quadratic in (x0, x) whose kernel coefficients are
    K, K2 and K3 (all negative, so the weight damps).  At alpha = 0 the
    same formula is the pure position-noise kernel
    -(lam t / 6)(x0^2 + x x0 + x^2) with x0 = x + k t / m, and at lam = 0
    the free shear with unit weight.
    """
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    u = 2.0 * lam * al * t
    gu = float(numerics.G(u))
    x0 = x * math.exp(-u) + k * t * gu / m
    quad = lam * t * (
        x0 * x0 * float(numerics.K(u))
        + 2.0 * x * x0 * float(K2(u))
        + x * x * float(K3(u))
    ) / (4.0 * gu * gu)
    log_w = -lam * al * al * k * k * t / (2.0 * hb * hb) + quad
    return GreenFactors(k0=k, x0=x0, log_weight=log_w)


def evolve_characteristic(c: CharCoefficients, t: float, p: ModelParams) -> CharCoefficients:
    """Advance a coefficient vector through the Green identity.

    Composes the free shear with the damped-argument substitution and the
    quadratic weight, term by term.  Algebraically this equals coeff_flow, but
    the arithmetic path is different, which makes the agreement of the two a
    real consistency check.
    """
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    c1s = c.c1 + c.c2 * t / m + c.c3 * t * t / (m * m)
    c2s = c.c2 + 2.0 * c.c3 * t / m
    c3s = c.c3
    c4s = c.c4 + c.c5 * t / m
    c5s = c.c5
    u = 2.0 * lam * al * t
    d = math.exp(-u)
    gu = numerics.G(u)
    gsh = t * gu / m
    ss = -2.0 * lam * al * t * t * numerics.F(u) / m
    q1 = numerics.K(u)
    q2 = K2(u)
    q3 = K3(u)
    return CharCoefficients(
        c1=c1s + c2s * ss + c3s * ss * ss
        + lam * al * al * t / (2.0 * hb * hb)
        - lam * t**3 * q1 / (4.0 * m * m),
        c2=d * (c2s + 2.0 * c3s * ss)
        - lam * t * t * (d * q1 + q2) / (2.0 * m * gu),
        c3=c3s * d * d
        - lam * t * (d * d * q1 + 2.0 * d * q2 + q3) / (4.0 * gu * gu),
        c4=c4s + c5s * ss,
        c5=c5s * d,
        c6=c.c6,
    )
