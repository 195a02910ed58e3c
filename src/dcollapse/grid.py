"""Split-step spectral integrator for the collapse SDE on a periodic grid.

States live on a uniform grid of 2^k points; momentum acts diagonally in the
FFT basis (p = hbar k per mode), position acts by multiplication.  One time
step is a Strang splitting: half a kinetic step, an Euler-Maruyama update of
the interaction part (noise coupling, its drift counterterm, and the
coupling-induced correction to the Hamiltonian), and another half kinetic
step.

Two equations are offered.  The linear form propagates the unnormalized
state whose squared norm is the probability martingale of the unravelling:

    d phi = [-(i/hbar) H - (lam/2) A^dag A] phi dt + sqrt(lam) A phi dxi,

with A = q + i (alpha/hbar) p and H = p^2/2m + (lam alpha / 2)(qp + pq).
The nonlinear (physical) form keeps the state normalized and localizes.  Its
step uses the packet-centred operators: with r = <q>,

    d psi = [-(i/hbar) H - (lam/2) Ac^dag Ac + i (lam alpha r / hbar) p] psi dt
            + sqrt(lam) Ac psi dW,         Ac = (q - r) + i (alpha/hbar) p,

followed by renormalization.  This is the same dynamics as the linear step
driven by the mean-shifted increment (they differ by a state-independent
scalar that renormalization removes), but the operator norms seen by the
Euler update scale with the packet width instead of the packet position,
which is what keeps wandering trajectories inside the trusted step-size
budget.

The alpha terms of the drift cancel, so both interaction updates read

    new = c0(x) psi + c1(x) (p psi) - kappa(k) phi,
    c0 = 1 - (lam dt/2) xc^2 + sqrt(lam) xc dxi,
    c1 = i (alpha/hbar) (sqrt(lam) dxi - lam dt xc),
    kappa = lam alpha^2 dt (hbar k)^2 / (2 hbar^2),

with xc = x - <q> (nonlinear) or xc = x (linear): one code path serves both.
evolve_batch carries the batch as its spectrum phi = fft(psi).  The
trailing kinetic half-step of one step and the leading half-step of the
next merge into one full kinetic factor; a step then takes psi = ifft(phi)
and p psi = ifft(hbar k phi) back to position space and the interaction
update forward again, 3 FFTs in all, and reads the norm off phi by
Parseval's identity.  A record applies the pending half-step and needs 2
FFTs: one for psi and one for p psi; the p-moments and the aliasing
fraction come straight from |phi|^2.  evolve_batch is the only integrator:
a single trajectory is a batch of one, psi0 of shape (n,) and increments
of shape (1, n_steps).

Noise is counter-based: NoiseStream(master_seed, trajectory_index) yields
the increments of that trajectory as a pure function of the pair, so
ensembles can be partitioned across workers without changing any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian import GaussianState
from .model import DerivedConstants, ModelParams, derive_constants

RECORD_FIELDS = (
    "t", "q_mean", "p_mean", "sigma_q_sq", "sigma_p_sq", "sigma_qp_sq",
    "sigma_O_sq", "energy", "norm_sq",
)

_ALIAS_FRACTION = 1e-6
_BOUNDARY_FRACTION = 1e-8
_NORM_FLOOR = 1e-280  # a squared norm below this has underflowed


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with 2^k points (k >= 6)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two, at least 64")
        if not self.x_max > self.x_min:
            raise ValueError("empty grid interval")

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n, endpoint=False)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers of the FFT modes."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based Gaussian increments for one trajectory.

    increment j is a pure function of (master_seed, trajectory_index, j),
    independent of how many trajectories run or on which worker.
    """

    master_seed: int
    trajectory_index: int

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.trajectory_index],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def increments(self, n_steps: int, dt: float) -> np.ndarray:
        """Brownian increments over n_steps intervals of width dt."""
        return self.generator().standard_normal(n_steps) * math.sqrt(dt)


def grid_norm_sq(psi: np.ndarray, grid: Grid):
    return np.sum(np.abs(psi) ** 2, axis=-1) * grid.dx


def build_gaussian(grid: Grid, g: GaussianState) -> np.ndarray:
    """Gaussian packet, normalized in the discrete grid norm."""
    dxv = grid.x - g.xbar
    psi = np.exp(-g.a * dxv * dxv + 1j * g.kbar * dxv)
    return psi / math.sqrt(float(grid_norm_sq(psi, grid)))


def build_superposition(grid: Grid, a: complex, centers, weights,
                        kbars=None) -> np.ndarray:
    """Sum of Gaussian packets with given centres and probability weights,
    normalized on the grid.  kbars optionally gives each packet a mean
    momentum (hbar k units)."""
    centers = np.asarray(centers, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if kbars is None:
        kbars = np.zeros_like(centers)
    kbars = np.asarray(kbars, dtype=float)
    psi = np.zeros(grid.n, dtype=complex)
    for c, w, kb in zip(centers, weights, kbars, strict=True):
        dxv = grid.x - c
        psi += math.sqrt(w) * np.exp(-a * dxv * dxv + 1j * kb * dxv)
    return psi / math.sqrt(float(grid_norm_sq(psi, grid)))


def _fft(psi):
    return np.fft.fft(psi, axis=-1)


def _ifft(phi):
    return np.fft.ifft(phi, axis=-1)


def _abs2(z):
    return np.square(z.real) + np.square(z.imag)


def _alias_fraction(power, grid: Grid):
    cut = (2.0 / 3.0) * float(np.max(np.abs(grid.k)))
    total = power.sum(axis=-1)
    # a row of zero power has no tail: 0, not 0/0
    return (np.vecdot(power, np.abs(grid.k) >= cut)
            / np.where(total > 0.0, total, 1.0))


def suggest_dt(psi: np.ndarray, grid: Grid, p: ModelParams,
               budget: float = 0.05) -> float:
    """Step size keeping lam * max(dx^2, (alpha/hbar)^2 dp^2) * dt below
    budget, where dx/dp are the state's support half-widths measured from
    its centres (the scales the centred interaction operators see)."""
    lam, al, hb = p.collapse_rate, p.momentum_coupling, p.hbar
    if lam == 0.0:
        return math.inf
    prob = np.abs(psi) ** 2
    prob = prob / prob.sum()
    qm = float(np.sum(grid.x * prob))
    live = prob > 1e-12
    x_half = float(np.max(np.abs(grid.x[live] - qm)))
    power = np.abs(_fft(psi)) ** 2
    power = power / power.sum()
    pm = float(np.sum(hb * grid.k * power))
    livek = power > 1e-12
    p_half = float(np.max(np.abs(hb * grid.k[livek] - pm)))
    scale = max(x_half**2, (al / hb) ** 2 * p_half**2)
    return budget / (lam * scale)


def _kinetic(grid: Grid, p: ModelParams, dt: float):
    """Free propagators over half and whole steps, diagonal in the FFT
    basis."""
    phase = -0.25j * p.hbar * grid.k**2 * dt / p.mass
    return np.exp(phase), np.exp(2.0 * phase)


def _moments_batch(psi, phi, prob, power, grid, p, a_inf):
    """Moment dictionary for a (B, n) batch psi with spectrum phi and the
    densities prob = |psi|^2, power = |phi|^2; normalization is divided
    out, and the raw squared norm reported alongside.  A row whose squared
    norm has underflowed gets NaN moments."""
    hb, x = p.hbar, grid.x
    hbk = hb * grid.k
    w = prob.sum(axis=-1) * grid.dx
    live = w > _NORM_FLOOR
    scale = grid.dx / np.where(live, w, np.nan)
    qm = np.vecdot(prob, x) * scale
    q2 = np.vecdot(prob, x * x) * scale
    pwsum = np.where(live, power.sum(axis=-1), np.nan)
    pm = np.vecdot(power, hbk) / pwsum
    p2 = np.vecdot(power, hbk * hbk) / pwsum
    xp = np.vecdot(psi, x * _ifft(hbk * phi)) * scale   # <q p>
    # O = p - c q with c = 2 i hbar a_inf; <p^2> and <p> are spectral
    c = 2j * hb * a_inf
    oval = pm - c * qm
    o2 = p2 + abs(c) ** 2 * q2 - 2.0 * (c * np.conj(xp)).real
    return {
        "q_mean": qm,
        "p_mean": pm,
        "sigma_q_sq": q2 - qm * qm,
        "sigma_p_sq": p2 - pm * pm,
        "sigma_qp_sq": xp.real - qm * pm,
        "sigma_O_sq": o2 - np.abs(oval) ** 2,
        "energy": p2 / (2.0 * p.mass),
        "norm_sq": w,
    }


def _check_batch(prob, power, grid):
    """Aliasing and boundary-leak flags for a (B, n) batch, from its
    position density and its power spectrum."""
    alias = _alias_fraction(power, grid) > _ALIAS_FRACTION
    peak = prob.max(axis=-1)
    edge = np.maximum(prob[..., :2].max(axis=-1), prob[..., -2:].max(axis=-1))
    leak = edge > _BOUNDARY_FRACTION**2 * peak
    return alias, leak


def record_steps(n_steps: int, record_every: int) -> list:
    """Steps at which evolve_batch records: 0, record_every, ... and the
    endpoint n_steps."""
    steps = list(range(0, n_steps + 1, record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def evolve_batch(psi0, grid: Grid, p: ModelParams, dt: float, n_steps: int,
                 increments, equation: str = "nonlinear",
                 record_every: int = 10,
                 d: DerivedConstants | None = None):
    """Evolve a (B, n) batch with per-trajectory increments of shape
    (B, n_steps).

    Returns (times, records, final_psi, aborted) where times are the
    record_steps(n_steps, record_every) times dt and records has shape
    (n_records, B, len(RECORD_FIELDS)).  A trajectory whose norm turns
    non-finite, collapses (nonlinear) or grows a hundredfold in one step
    (linear) is flagged at that step; spectral aliasing, boundary leakage and
    an underflowed norm (NaN moments) are checked at record times.  A
    flagged trajectory's subsequent records are not meaningful.
    """
    if equation not in ("nonlinear", "linear"):
        raise ValueError("equation must be 'nonlinear' or 'linear'")
    d = d or derive_constants(p, boltzmann=1.0)
    psi = np.array(psi0, dtype=complex, copy=True)
    if psi.ndim == 1:
        psi = psi[None, :]
    increments = np.asarray(increments, dtype=float)
    n_batch = psi.shape[0]
    if increments.shape != (n_batch, n_steps):
        raise ValueError(
            "increments must have shape (batch, n_steps) = "
            f"({n_batch}, {n_steps}), got {increments.shape}")
    lam, hb = p.collapse_rate, p.hbar
    beta = p.momentum_coupling / hb
    root, lam_dt = math.sqrt(lam), lam * dt
    x = grid.x
    lam_dt_x, half_lam_dt_x2 = lam_dt * x, 0.5 * lam_dt * x * x
    # i beta p in the FFT basis, and the p^2 part of the interaction
    ibp = 1j * beta * hb * grid.k
    kappa = 0.5 * lam_dt * (beta * hb * grid.k) ** 2
    half, full = _kinetic(grid, p, dt)
    parseval = grid.dx / grid.n
    nonlinear = equation == "nonlinear"

    rec_steps = record_steps(n_steps, record_every)
    records = np.empty((len(rec_steps), n_batch, len(RECORD_FIELDS)))
    aborted = np.zeros(n_batch, dtype=bool)

    def take_record(slot, psi, phi):
        prob, power = _abs2(psi), _abs2(phi)
        mom = _moments_batch(psi, phi, prob, power, grid, p, d.a_inf)
        records[slot, :, 0] = rec_steps[slot] * dt
        for j, name in enumerate(RECORD_FIELDS[1:], start=1):
            records[slot, :, j] = mom[name]
        alias, leak = _check_batch(prob, power, grid)
        underflow = ~(mom["norm_sq"] > _NORM_FLOOR)
        np.logical_or(aborted, alias | leak | underflow, out=aborted)

    # phi carries the state after each step's interaction update, so that
    # the trailing kinetic half-step merges with the next leading one
    phi = _fft(psi)
    prev_norm = grid_norm_sq(psi, grid)
    take_record(0, psi, phi)
    slot = 1
    for step in range(1, n_steps + 1):
        phi *= half if step == 1 else full
        psi = _ifft(phi)
        ibppsi = _ifft(ibp * phi)
        dxi = increments[:, step - 1]
        if nonlinear:
            prob = _abs2(psi)
            total = prob.sum(axis=-1)
            # a zero row keeps r = 0 instead of 0/0; its norm aborts it
            r = np.vecdot(prob, x) / np.where(total > 0.0, total, 1.0)
        else:
            r = 0.0
        # c0 = 1 + xc (root dxi - lam dt xc / 2) and c1 = i beta s with
        # s = root dxi - lam dt xc, spelt out in powers of x (xc = x - r)
        s_r = (root * dxi + lam_dt * r)[:, None]
        c0 = s_r * x
        c0 -= half_lam_dt_x2
        c0 += (1.0 - r * (root * dxi + 0.5 * lam_dt * r))[:, None]
        psi *= c0
        ibppsi *= s_r - lam_dt_x
        psi += ibppsi
        phi *= kappa
        phi = _fft(psi) - phi
        n2 = np.vecdot(phi, phi).real * parseval
        bad = ~np.isfinite(n2)
        if nonlinear:
            bad |= n2 < _NORM_FLOOR
            phi *= (1.0 / np.sqrt(np.where(bad, 1.0, n2)))[:, None]
        else:
            bad |= n2 > 100.0 * prev_norm
            prev_norm = n2
        np.logical_or(aborted, bad, out=aborted)
        if step == rec_steps[slot]:
            phi_r = half * phi
            psi = _ifft(phi_r)
            take_record(slot, psi, phi_r)
            slot += 1
    times = np.asarray(rec_steps, dtype=float) * dt
    return times, records, psi, aborted


__all__ = [
    "RECORD_FIELDS", "Grid", "NoiseStream", "grid_norm_sq", "build_gaussian",
    "build_superposition", "suggest_dt", "record_steps", "evolve_batch",
]
