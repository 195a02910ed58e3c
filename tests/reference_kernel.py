"""Reference Strang step with the state kept in position space.

This is the step kernel the library shipped before it carried the
spectrum: half a kinetic step, an Euler-Maruyama interaction update built
from explicit p psi and p^2 psi, another half kinetic step, and a fresh
FFT for every moment record (7 FFTs per step, 3 per record).  The tests
hold `grid.evolve_batch` to it.
"""

import math

import numpy as np

from dcollapse import grid as gr


def _fft(psi):
    return np.fft.fft(psi, axis=-1)


def _ifft(phi):
    return np.fft.ifft(phi, axis=-1)


def _interaction_terms(psi, grid, p):
    """Shared spectral pieces: (p psi, p^2 psi)."""
    fpsi = _fft(psi)
    hbk = p.hbar * grid.k
    ppsi = _ifft(hbk * fpsi)
    p2psi = _ifft(hbk * hbk * fpsi)
    return ppsi, p2psi


def step_batch(psi, grid, p, dxi_col, dt, kin, equation):
    """One Strang step on a (B, n) batch; the nonlinear equation is
    renormalized.  Returns the new batch."""
    lam, al, hb = p.collapse_rate, p.momentum_coupling, p.hbar
    x = grid.x
    psi = _ifft(kin * _fft(psi))
    ppsi, p2psi = _interaction_terms(psi, grid, p)
    anti = 2.0 * x * ppsi - 1j * hb * psi
    root = math.sqrt(lam)
    beta = al / hb
    if equation == "nonlinear":
        prob = np.abs(psi) ** 2
        norm = prob.sum(axis=-1, keepdims=True) * grid.dx
        r = (x * prob).sum(axis=-1, keepdims=True) * grid.dx / norm
        xc = x - r
        a_psi = xc * psi + 1j * beta * ppsi
        ada_psi = xc * xc * psi + beta * beta * p2psi - al * psi
        drift = (
            -0.5j * lam * al / hb * anti
            - 0.5 * lam * ada_psi
            + (1j * lam * al / hb) * r * ppsi
        )
    else:
        a_psi = x * psi + 1j * beta * ppsi
        ada_psi = x * x * psi + beta * beta * p2psi - al * psi
        drift = -0.5j * lam * al / hb * anti - 0.5 * lam * ada_psi
    psi = psi + drift * dt + root * a_psi * dxi_col
    psi = _ifft(kin * _fft(psi))
    if equation == "nonlinear":
        psi = psi / np.sqrt(gr.grid_norm_sq(psi, grid))[..., None]
    return psi


def moments_batch(psi, grid, p, a_inf):
    """Record columns after t (RECORD_FIELDS order) for a (B, n) batch."""
    m, hb = p.mass, p.hbar
    x = grid.x
    prob = np.abs(psi) ** 2
    w = prob.sum(axis=-1) * grid.dx
    qm = (x * prob).sum(axis=-1) * grid.dx / w
    q2 = (x * x * prob).sum(axis=-1) * grid.dx / w
    fpsi = _fft(psi)
    pw = np.abs(fpsi) ** 2
    pwsum = pw.sum(axis=-1)
    hbk = hb * grid.k
    pm = (hbk * pw).sum(axis=-1) / pwsum
    p2 = (hbk * hbk * pw).sum(axis=-1) / pwsum
    ppsi = _ifft(hbk * fpsi)
    qp = (np.conj(psi) * x * ppsi).sum(axis=-1).real * grid.dx / w
    o_psi = ppsi - 2j * hb * a_inf * (x * psi)
    oval = (np.conj(psi) * o_psi).sum(axis=-1) * grid.dx / w
    o2 = (np.abs(o_psi) ** 2).sum(axis=-1) * grid.dx / w
    return np.stack([qm, pm, q2 - qm * qm, p2 - pm * pm, qp - qm * pm,
                     o2 - np.abs(oval) ** 2, p2 / (2.0 * m), w], axis=-1)


def evolve(psi0, grid, p, dt, n_steps, increments, equation, record_every,
           a_inf):
    """(times, records, final_psi) laid out as evolve_batch returns them,
    without its validity checks."""
    psi = np.atleast_2d(np.array(psi0, dtype=complex))
    kin = np.exp(-0.25j * p.hbar * grid.k**2 * dt / p.mass)
    rec_steps = list(range(0, n_steps + 1, record_every))
    if rec_steps[-1] != n_steps:
        rec_steps.append(n_steps)
    records = np.empty((len(rec_steps), psi.shape[0], len(gr.RECORD_FIELDS)))
    slot = 0
    for step in range(n_steps + 1):
        if step > 0:
            psi = step_batch(psi, grid, p, increments[:, step - 1, None], dt,
                             kin, equation)
        if step == rec_steps[slot]:
            records[slot, :, 0] = step * dt
            records[slot, :, 1:] = moments_batch(psi, grid, p, a_inf)
            slot += 1
    return np.asarray(rec_steps, dtype=float) * dt, records, psi
