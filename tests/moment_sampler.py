"""Random physical moment triples for the sign properties of the
localization law.

`localization.sigma_O_sq` is non-negative and `drift_prediction` is never
positive on every triple of second moments that satisfies the uncertainty
inequality, not only on those of a Gaussian.  The tests sample such triples
here; `dcollapse verify` holds the law itself on the Gaussian width flow.
"""

import numpy as np

from dcollapse.model import ModelParams, derive_constants


def random_moment_triples(n: int, p: ModelParams, rng):
    """Sample n physical moment triples around the stationary point.

    Relative deviations X, Y, Z are drawn uniformly from [-0.9, 3.0]
    and triples violating the uncertainty inequality
    sigma_q^2 sigma_p^2 - sigma_qp^4 >= hbar^2/4 are rejected.  Returns
    (sigma_q_sq, sigma_p_sq, sigma_qp_sq) arrays of length n.
    """
    d = derive_constants(p, boltzmann=1.0)
    sq2, sp2, sqp2 = d.sigma_q_bar**2, d.sigma_p_bar**2, d.sigma_qp_bar_sq
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
