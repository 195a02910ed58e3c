"""Localization law: the contractive observable and its ensemble drift.

The combination O = p - 2 i hbar a_inf q is an eigenoperator of the
stationary Gaussian family: sigma_O^2, its variance

    sigma_O^2 = sigma_p^2 + (sp~^2/sq~^2) sigma_q^2
                - 2 (sqp~^2/sq~^2) sigma_qp^2 - hbar^2/(2 sq~^2)

(bars denote the stationary spreads), vanishes exactly on the stationary
state and is non-negative for every physical moment triple, because it is
the squared norm of (O - <O>) psi.  Its ensemble mean contracts:

    d E[sigma_O^2] / dt = -4 lam [ sq~^2 sigma_O^2
        + (sqp~^2 sigma_q^2 / sq~^2 - sigma_qp^2)^2
        + (hbar^2 / 4 sq~^4)(sigma_q^2 - sq~^2)^2 ]   (evaluated in mean),

so every trajectory is driven toward the stationary width regardless of the
noise realization.  drift_prediction evaluates the bracket; the w1/w2/w3
weights are the linearized decay rates of the relative deviations
X = sigma_q^2/sq~^2 - 1, Y = sigma_p^2/sp~^2 - 1, Z = sigma_qp^2/sqp~^2 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derive_constants


@dataclass(frozen=True)
class StationarityResiduals:
    """Relative residuals of the three stationary-spread identities:
    the width drift balance, the mixed product rule, and the uncertainty
    product.  All should vanish to rounding."""

    drift: float
    mixed: float
    uncertainty: float


def _bars(p: ModelParams):
    """The squared stationary spreads sq~^2, sp~^2 and sqp~^2 of p."""
    d = derive_constants(p, boltzmann=1.0)
    return d.sigma_q_bar**2, d.sigma_p_bar**2, d.sigma_qp_bar_sq


def sigma_O_sq(sigma_q_sq, sigma_p_sq, sigma_qp_sq, p: ModelParams):
    """Variance of the contractive observable for given second moments.

    Accepts scalars or broadcasting arrays.  Non-negative for any moments
    satisfying the uncertainty inequality; zero exactly at the stationary
    triple.
    """
    sq2, sp2, sqp2 = _bars(p)
    hb = p.hbar
    out = (
        np.asarray(sigma_p_sq, dtype=float)
        + (sp2 / sq2) * np.asarray(sigma_q_sq, dtype=float)
        - 2.0 * (sqp2 / sq2) * np.asarray(sigma_qp_sq, dtype=float)
        - hb * hb / (2.0 * sq2)
    )
    return float(out) if out.ndim == 0 else out


def drift_prediction(sigma_q_sq, sigma_p_sq, sigma_qp_sq, p: ModelParams):
    """Instantaneous drift of E[sigma_O^2] for an ensemble sitting at the
    given second moments.  Never positive on physical moments."""
    sq2, sp2, sqp2 = _bars(p)
    lam, hb = p.collapse_rate, p.hbar
    s_o = sigma_O_sq(sigma_q_sq, sigma_p_sq, sigma_qp_sq, p)
    sigma_q_sq = np.asarray(sigma_q_sq, dtype=float)
    sigma_qp_sq = np.asarray(sigma_qp_sq, dtype=float)
    cross = sqp2 * sigma_q_sq / sq2 - sigma_qp_sq
    width = sigma_q_sq - sq2
    out = -4.0 * lam * (
        sq2 * s_o + cross * cross + (hb * hb / (4.0 * sq2 * sq2)) * width * width
    )
    return float(out) if np.ndim(out) == 0 else out


def relaxation_weights(p: ModelParams):
    """Linearized decay weights (w1, w2, w3) of the relative deviations.

    w1 and w2 coincide (both equal -4 lam sq~^2 sp~^2) and w3 is their
    qp-coupled counterpart; the equalities are consequences of the stationary
    identities and are pinned by tests.
    """
    sq2, sp2, sqp2 = _bars(p)
    lam, al, m = p.collapse_rate, p.momentum_coupling, p.mass
    w1 = -8.0 * lam * (sq2 * sp2 - 0.5 * al * sp2 - sqp2 * sqp2)
    w2 = -2.0 * (2.0 * al * lam * sp2 + (sqp2 / m) * (sp2 / sq2))
    w3 = 2.0 * (sqp2 / m) * (sp2 / sq2)
    return w1, w2, w3


def stationarity_residuals(p: ModelParams) -> StationarityResiduals:
    """Check that the derived stationary spreads satisfy their defining
    identities.  Returns relative residuals (zero up to rounding)."""
    sq2, sp2, sqp2 = _bars(p)
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    quarter = 0.25 * hb * hb
    drift = (sqp2 / m - 2.0 * lam * sq2 * sq2 + 2.0 * al * lam * sq2) / (
        2.0 * lam * sq2 * sq2
    )
    mixed = (sqp2 * sqp2 + al * sp2 - quarter) / quarter
    uncertainty = (sq2 * sp2 - sqp2 * sqp2 - quarter) / quarter
    return StationarityResiduals(drift=drift, mixed=mixed, uncertainty=uncertainty)


def random_moment_triples(n: int, p: ModelParams, rng):
    """Sample n physical moment triples around the stationary point.

    Relative deviations X, Y, Z are drawn uniformly from [-0.9, 3.0]
    and triples violating the uncertainty inequality
    sigma_q^2 sigma_p^2 - sigma_qp^4 >= hbar^2/4 are rejected.  Returns
    (sigma_q_sq, sigma_p_sq, sigma_qp_sq) arrays of length n.
    """
    sq2, sp2, sqp2 = _bars(p)
    quarter = 0.25 * p.hbar**2
    out_q = np.empty(n)
    out_p = np.empty(n)
    out_qp = np.empty(n)
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        x, y, z = rng.uniform(-0.9, 3.0, size=(3, m))
        q2 = sq2 * (1.0 + x)
        p2 = sp2 * (1.0 + y)
        qp2 = sqp2 * (1.0 + z)
        ok = q2 * p2 - qp2 * qp2 >= quarter
        take = min(int(ok.sum()), n - filled)
        sel = np.flatnonzero(ok)[:take]
        out_q[filled:filled + take] = q2[sel]
        out_p[filled:filled + take] = p2[sel]
        out_qp[filled:filled + take] = qp2[sel]
        filled += take
    return out_q, out_p, out_qp


__all__ = [
    "StationarityResiduals", "sigma_O_sq", "drift_prediction",
    "relaxation_weights", "stationarity_residuals", "random_moment_triples",
]
