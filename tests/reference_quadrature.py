"""Double quadrature of the Green identity for the master densities.

This is how the library computed the `exact` and `expansion` routes of
`master.position_density` before they became closed forms: a Simpson
double integral over the momentum argument k and the offset y, with windows
and resolutions chosen from the decay scales and the fastest phases of the
integrand.  It knows nothing of the Gaussian result, so the tests hold the
closed forms to it at a few points.
"""

import math

import numpy as np
from scipy.integrate import simpson

from dcollapse import numerics
from dcollapse.gaussian import GaussianState, spreads
from dcollapse.model import ModelParams

from reference_closed_forms import free_evolve, wavefunction


class QuadratureLimitError(RuntimeError):
    """The quadrature grid needed to resolve the integrand is too large."""


def route_weights(method: str, t: float, p: ModelParams):
    """The (b_weight, shift_coef) pair the `exact` and `expansion` routes
    feed to the quadrature."""
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    if method == "expansion":
        return (lam * t**3 / (6.0 * m * m)
                + lam * al * al * t / (2.0 * hb * hb),
                lam * al * t * t / (2.0 * m))
    if method != "exact":
        raise ValueError(f"no quadrature for route {method}")
    u = 2.0 * lam * al * t
    return (lam * al * al * t / (2.0 * hb * hb)
            - lam * t**3 * float(numerics.K(u)) / (4.0 * m * m),
            lam * al * t * t * float(numerics.F(u)) / m)


def density_quadrature(g0: GaussianState, t: float, p: ModelParams, x,
                       b_weight: float, shift_coef: float,
                       nk: int = 257, ny: int = 513):
    """Shared double quadrature for the exact and short-time densities.

    The density is

        p_t(x) = (1/2 pi hbar) int dk dy e^{-iky/hbar} e^{-b_weight k^2}
                 psi_S(x + y + s k) conj(psi_S(x + y - s k)),   s = shift_coef,

    with psi_S the freely evolved initial state.  Window sizes follow the
    Gaussian decay scales of the integrand; resolution follows the fastest
    phase present.
    """
    m, hb = p.mass, p.hbar
    gs = free_evolve(g0, t, p)
    a_s = complex(gs.a)
    tr = spreads(a_s, p)
    sig = tr.sigma_q
    x = np.asarray(x, dtype=float)

    b_k = sig * sig / (2.0 * hb * hb) + b_weight \
        + 2.0 * a_s.real * shift_coef * shift_coef
    k_max = 8.0 / math.sqrt(b_k)
    # integrate y around the packet centre for each x: y = y0 + v with
    # y0 = xbar_S - x, so the Gaussian support always sits inside the window
    v_half = 7.0 * sig + abs(shift_coef) * k_max
    w_max = v_half + abs(shift_coef) * k_max
    # fastest v-oscillation: outer transform plus the state's own chirp
    v_fast = k_max / hb + abs(gs.kbar) + 2.0 * (abs(a_s.imag) + a_s.real) * w_max
    ny_needed = int(10 * v_half * v_fast / math.pi) + 1
    ny = max(ny, ny_needed)
    ny += (ny + 1) % 2
    # fastest k-oscillation: transform phase over the full |y| range plus the
    # chirp the k-dependent shift drags through the state
    y_abs_max = float(np.max(np.abs(gs.xbar - x))) + v_half
    k_fast = y_abs_max / hb + abs(shift_coef) * (
        2.0 * (abs(a_s.imag) + a_s.real) * w_max + abs(gs.kbar))
    nk_needed = int(10 * k_max * k_fast / math.pi) + 1
    nk = max(nk, nk_needed)
    nk += (nk + 1) % 2
    if nk * ny > 6_000_000:
        raise QuadratureLimitError("density quadrature grid would exceed limits")

    kg = np.linspace(-k_max, k_max, nk)
    vg = np.linspace(-v_half, v_half, ny)
    weight = np.exp(-b_weight * kg * kg)
    out = np.empty(x.shape)
    kv = np.exp(-1j * np.outer(kg, vg) / hb)
    shift = shift_coef * kg[:, None]
    for i, xi in np.ndenumerate(x):
        y0 = gs.xbar - xi
        base = gs.xbar + vg[None, :]
        vals = wavefunction(gs, base + shift) * np.conj(
            wavefunction(gs, base - shift)
        )
        integrand = kv * vals * weight[:, None]
        inner = simpson(integrand, x=vg, axis=1)
        inner *= np.exp(-1j * kg * y0 / hb)
        out[i] = simpson(inner, x=kg).real / (2.0 * math.pi * hb)
    return out
