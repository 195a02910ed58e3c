"""Runge-Kutta references for the closed forms.

The library solves its ODEs in closed form and `dcollapse verify` holds
each closed form to its own ODE by a residual; the tests integrate the
same ODEs step by step instead:

- `rk4_path` is the classical fourth-order Runge-Kutta stepper;
- `riccati_rhs` is the width flow that `gaussian.a_closed_form` solves;
- `covariance_rhs` is the centre-covariance flow at a = a_inf that
  `gaussian.stationary_covariance` solves.
"""

import numpy as np

from dcollapse.model import derive_constants


def rk4_path(f, y0, t_grid, substeps=1):
    """Classical Runge-Kutta along t_grid, vectorized over the state shape.

    f(t, y) must accept and return arrays shaped like y0.  Returns an array of
    shape (len(t_grid),) + y0.shape containing the solution at every grid
    point, starting with y0 itself.
    """
    y = np.array(y0, copy=True)
    out = np.empty((len(t_grid),) + y.shape, dtype=y.dtype)
    out[0] = y
    for i in range(len(t_grid) - 1):
        t0, t1 = t_grid[i], t_grid[i + 1]
        h = (t1 - t0) / substeps
        t = t0
        for _ in range(substeps):
            s1 = f(t, y)
            s2 = f(t + 0.5 * h, y + 0.5 * h * s1)
            s3 = f(t + 0.5 * h, y + 0.5 * h * s2)
            s4 = f(t + h, y + h * s3)
            y = y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            t += h
        out[i + 1] = y
    return out


def riccati_rhs(p):
    """da/dt = -(2 i hbar / m) a^2 - 4 lam alpha a + lam."""
    lam, al, m, hb = (p.collapse_rate, p.momentum_coupling, p.mass, p.hbar)

    def f(_t, a):
        return -2j * hb * a * a / m - 4.0 * lam * al * a + lam

    return f


def covariance_rhs(p):
    """The flow of (Cqq, Cqp, Cpp) for a trajectory at a = a_inf, with
    s = 1/(2 Re a) - alpha and c = -Im a / Re a."""
    lam, al, m, hb = p.collapse_rate, p.momentum_coupling, p.mass, p.hbar
    a = complex(derive_constants(p, boltzmann=1.0).a_inf)
    s = 0.5 / a.real - al
    c = -a.imag / a.real

    def f(_t, y):
        qq, qp, pp = y
        return np.array([
            2.0 * qp / m + lam * s * s,
            pp / m - 2.0 * lam * al * qp + lam * hb * c * s,
            -4.0 * lam * al * pp + lam * hb * hb * c * c,
        ])

    return f
