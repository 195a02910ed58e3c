"""Localization law: the contractive observable and its ensemble drift.

The combination O = p - 2 i hbar a_inf q, defined here and nowhere else
(the grid's sigma_O_sq records call sigma_O_sq too), is an eigenoperator
of the stationary Gaussian family: sigma_O^2, its variance

    sigma_O^2 = sigma_p^2 + (sp~^2/sq~^2) sigma_q^2
                - 2 (sqp~^2/sq~^2) sigma_qp^2 - hbar^2/(2 sq~^2)

(bars denote the stationary spreads), vanishes exactly on the stationary
state and is non-negative for every physical moment triple, because it is
the squared norm of (O - <O>) psi.  Its ensemble mean contracts:

    d E[sigma_O^2] / dt = -4 lam [ sq~^2 sigma_O^2
        + (sqp~^2 sigma_q^2 / sq~^2 - sigma_qp^2)^2
        + (hbar^2 / 4 sq~^4)(sigma_q^2 - sq~^2)^2 ]   (evaluated in mean),

so every trajectory is driven toward the stationary width regardless of the
noise realization.  drift_prediction evaluates the bracket.  The bars are
the spreads of a_inf, where the width law's slope is -r (`model`), and the
first term contracts sigma_O^2 at the rate 4 lam sq~^2 = omega1 = Re r.

On a single Gaussian the law is exact: its spreads are fixed functions of
its width a, so E[sigma_O^2] is sigma_O^2 itself.  `dcollapse verify` holds
the law there, as an identity in a: sigma_O^2 of the spreads' slopes less
sigma_O^2(0, 0, 0), its slope, must be drift_prediction of the spreads.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, derive_constants


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
    out = (
        np.asarray(sigma_p_sq, dtype=float)
        + (sp2 / sq2) * np.asarray(sigma_q_sq, dtype=float)
        - 2.0 * (sqp2 / sq2) * np.asarray(sigma_qp_sq, dtype=float)
        - p.hbar * p.hbar / (2.0 * sq2)
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


__all__ = ["sigma_O_sq", "drift_prediction"]
