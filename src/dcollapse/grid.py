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
which is what keeps the step size a wandering trajectory needs from
shrinking as it wanders.

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
Parseval's identity.  The inverse FFTs run unscaled, their 1/n folded
into the kinetic factors.  A record applies the pending half-step and
needs 2 FFTs: one for psi and one for p psi.  It stores 10 raw row
sums only: the products of |phi|^2 with [1, hbar k, (hbar k)^2, alias
mask] and of |psi|^2 with [1, x, x^2], the real part of sum psi* x p psi,
and the peak and edge of |psi|^2.  The moments, the energy and the
aliasing, leak and underflow flags follow from those sums once, after
the loop, for every record at once; sigma_O_sq is
localization.sigma_O_sq of each record's own spreads.  Four (B, n) work
arrays, phi, psi, p psi and c0 and c1 (one real (2, B, n) array), are
allocated once per call.  Every FFT and elementwise update writes into
them through out=, and every FFT whose input is not read again runs in
place: all but a step's psi = ifft(phi), whose phi feeds the kappa term.
c0 and c1's memory first takes the squares of the nonlinear centre and of
a record, and p psi's the record's |psi|^2, so the step loop allocates no
(B, n) array.  Every reduction is a per-row dot product, never a
(B, n) @ (n, k) BLAS product, so a trajectory gets the same bits alone as
inside any batch.  evolve_batch is the only integrator: a single
trajectory is a batch of one, psi0 of shape (n,) and increments of shape
(1, n_steps).

Noise is counter-based: NoiseStream(master_seed, trajectory_index) yields
the increments of that trajectory as a pure function of the pair, so
ensembles can be partitioned across workers without changing any draw.
It draws them from one private Philox, re-keyed to the pair for each
call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .gaussian import GaussianState
from .localization import sigma_O_sq
from .model import ModelParams

RECORD_FIELDS = (
    "t", "q_mean", "p_mean", "sigma_q_sq", "sigma_p_sq", "sigma_qp_sq",
    "sigma_O_sq", "energy", "norm_sq",
)

_ALIAS_FRACTION = 1e-6
_BOUNDARY_FRACTION = 1e-8
_NORM_FLOOR = 1e-280  # a squared norm below this has underflowed
# the columns of evolve_batch's raw record sums
_SUMS = ("q0", "q1", "q2", "xp_re", "p0", "p1", "p2", "p_alias", "peak",
         "edge")


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


_NOISE_LOCK = threading.Lock()


@cache
def _private_philox():
    """NoiseStream's own Philox and a Generator on it, re-keyed for every
    draw: a fresh Philox(key=...) first draws OS entropy that its key then
    overrides.  Built on first use, as numpy.random is a large import."""
    bits = np.random.Philox(0)
    return bits, np.random.Generator(bits)


@dataclass(frozen=True)
class NoiseStream:
    """Counter-based Gaussian increments for one trajectory.

    increment j is a pure function of (master_seed, trajectory_index, j),
    independent of how many trajectories run or on which worker: the draws
    of Generator(Philox(key=[master_seed, trajectory_index])).
    """

    master_seed: int
    trajectory_index: int

    def increments(self, n_steps: int, dt: float) -> np.ndarray:
        """Brownian increments over n_steps intervals of width dt."""
        # the state of a fresh Philox(key=key): counter 0, buffer empty
        key = (self.master_seed, self.trajectory_index)
        state = {"bit_generator": "Philox",
                 "state": {"counter": (0, 0, 0, 0), "key": key},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
                 "uinteger": 0}
        with _NOISE_LOCK:
            bits, gen = _private_philox()
            bits.state = state
            normals = gen.standard_normal(n_steps)
        return normals * math.sqrt(dt)


def grid_norm_sq(psi: np.ndarray, grid: Grid):
    return np.sum(np.abs(psi) ** 2, axis=-1) * grid.dx


def build_gaussian(grid: Grid, g: GaussianState) -> np.ndarray:
    """Gaussian packet, normalized in the discrete grid norm."""
    return build_superposition(grid, g.a, [g.xbar], [1.0], [g.kbar])


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


def _kinetic(grid: Grid, p: ModelParams, dt: float):
    """Free propagators over half and whole steps, diagonal in the FFT
    basis."""
    phase = -0.25j * p.hbar * grid.k**2 * dt / p.mass
    return np.exp(phase), np.exp(2.0 * phase)


def record_steps(n_steps: int, record_every: int) -> list:
    """Steps at which evolve_batch records: 0, record_every, ... and the
    endpoint n_steps."""
    steps = list(range(0, n_steps + 1, record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _squares(z, out):
    """Squared real and imaginary parts of a (B, n) complex array, as the
    (B, 2n) real array out: a row's sum against a basis repeated pairwise
    is its sum against |z|^2."""
    return np.square(z.view(float), out=out.view(float))


def _rowdot(rows, basis, out=None):
    """(B, k) products of each row of a (B, m) array with the k rows of a
    (k, m) basis, one dot product per entry, so that a row gets the same
    bits alone as inside a larger batch (a (B, m) @ (m, k) BLAS product
    does not promise that)."""
    return np.vecdot(rows[:, None, :], basis, out=out)


def _ifft(z, out):
    """Unscaled inverse FFT of the rows of z: n times np.fft.ifft."""
    return np.fft.ifft(z, axis=-1, out=out, norm="forward")


def _finish_records(sums, times, dx, p: ModelParams):
    """Records and per-record validity flags from the raw record sums,
    each a (n_records, B) array computed once for every record.

    sums has the 10 _SUMS columns: the q-sums of |psi|^2 against
    [1, x, x^2], the real part of sum psi* x p psi, the p-sums of |phi|^2
    against [1, hbar k, (hbar k)^2, alias mask], and the peak and edge of
    |psi|^2.  sigma_O_sq is localization.sigma_O_sq of the record's own
    spreads.  A record is flagged for spectral aliasing, boundary leakage
    or an underflowed norm (whose moments are NaN)."""
    q0, q1, q2, xp_re, p0, p1, p2, p_alias, peak, edge = (
        np.moveaxis(sums, -1, 0))
    w = q0 * dx
    live = w > _NORM_FLOOR
    # an underflowed row gets NaN moments instead of a division by ~0
    scale = dx / np.where(live, w, np.nan)
    qm, q2 = q1 * scale, q2 * scale
    pwsum = np.where(live, p0, np.nan)
    pm, p2 = p1 / pwsum, p2 / pwsum
    var_q, var_p, cov_qp = q2 - qm * qm, p2 - pm * pm, xp_re * scale - qm * pm
    records = np.stack([
        np.broadcast_to(times[:, None], w.shape), qm, pm, var_q, var_p,
        cov_qp, sigma_O_sq(var_q, var_p, cov_qp, p), p2 / (2.0 * p.mass), w],
        axis=-1)
    # a row of zero power has no tail: 0, not 0/0
    alias = p_alias / np.where(p0 > 0.0, p0, 1.0) > _ALIAS_FRACTION
    leak = edge > _BOUNDARY_FRACTION**2 * peak
    return records, alias | leak | ~live


def evolve_batch(psi0, grid: Grid, p: ModelParams, dt: float, n_steps: int,
                 increments, equation: str = "nonlinear",
                 record_every: int = 10):
    """Evolve a (B, n) batch with per-trajectory increments of shape
    (B, n_steps).

    Returns (times, records, final_psi, aborted) where times are the
    record_steps(n_steps, record_every) times dt and records has shape
    (n_records, B, len(RECORD_FIELDS)).  A trajectory whose norm turns
    non-finite, collapses (nonlinear) or grows a hundredfold in one step
    (linear) is flagged at that step, and a linear row is zeroed there;
    spectral aliasing, boundary leakage and an underflowed norm (NaN
    moments) are checked on every recorded state, all at once after the
    loop.  A flagged trajectory's subsequent records are not meaningful.

    Four (B, n) work arrays (phi, psi, p psi and c0/c1) are allocated once
    per call; every FFT and elementwise update writes into them, in place
    wherever its input is not read again, so the step loop allocates no
    (B, n) array.  A record stores raw row sums only.  psi0 and increments
    are not modified, and final_psi and records are arrays of this call
    alone.
    """
    if equation not in ("nonlinear", "linear"):
        raise ValueError("equation must be 'nonlinear' or 'linear'")
    psi = np.array(np.atleast_2d(psi0), dtype=complex, order="C")
    increments = np.asarray(increments, dtype=float)
    n_batch = psi.shape[0]
    if increments.shape != (n_batch, n_steps):
        raise ValueError(
            "increments must have shape (batch, n_steps) = "
            f"({n_batch}, {n_steps}), got {increments.shape}")
    lam, hb = p.collapse_rate, p.hbar
    beta = p.momentum_coupling / hb
    lam_dt = lam * dt
    root_lam = math.sqrt(lam)
    x, dx, hbk = grid.x, grid.dx, hb * grid.k
    # i beta p in the FFT basis, and the p^2 part of the interaction.  The
    # inverse FFTs run unscaled: the kinetic factors carry their 1/n, and
    # kappa, which acts after a kinetic factor, an n.  n is a power of two,
    # so both scalings are exact and the states are those of a scaled ifft
    # bit for bit.  Complex copies of the real factors spare each product
    # a cast.
    ibp = 1j * beta * hbk
    kappa = (grid.n * 0.5 * lam_dt * (beta * hbk) ** 2).astype(complex)
    half, full = (f / grid.n for f in _kinetic(grid, p, dt))
    hbk_c, x_c = hbk.astype(complex), x.astype(complex)
    parseval = dx / grid.n
    nonlinear = equation == "nonlinear"
    # record bases, repeated pairwise for _squares (the first two rows of
    # qbasis also give a step's <q>); the alias mask marks the top third
    # of the band
    kabs = np.abs(grid.k)
    qbasis = np.repeat(np.stack([np.ones_like(x), x, x * x]), 2, axis=1)
    pbasis = np.repeat(np.stack([np.ones_like(x), hbk, hbk * hbk,
                                 kabs >= (2.0 / 3.0) * kabs.max()]),
                       2, axis=1)
    edge_cols = [0, 1, grid.n - 2, grid.n - 1]

    # phi carries the state after each step's interaction update, so that
    # the trailing kinetic half-step merges with the next leading one;
    # ppsi holds i beta p psi in a step and x p psi in a record.  c01,
    # viewed as a (B, 2n) real array, takes the _squares before c0 and c1
    # are written, and ppsi takes |psi|^2 once <xp> is taken
    phi = np.fft.fft(psi, axis=-1)
    ppsi = np.empty_like(psi)
    c0, c1 = c01 = np.empty((2, n_batch, grid.n))
    squares = c01.reshape(n_batch, 2 * grid.n)
    prob = ppsi.view(float)[:, :grid.n]
    # per-row coefficients of c0 and c1; the fixed ones are set here
    coeffs = np.zeros((n_batch, 2, 3))
    coeffs[:, 0, 2] = 1.0
    coeffs[:, 1, 1] = -lam_dt
    cbasis = np.stack([np.ones_like(x), x, -0.5 * lam_dt * x * x])

    rec_steps = record_steps(n_steps, record_every)
    sums = np.empty((len(rec_steps), n_batch, len(_SUMS)))
    aborted = np.zeros(n_batch, dtype=bool)

    def take_record(slot, spec):
        """Write the raw sums of the recorded state into slot (columns as
        in _SUMS); spec is its spectrum divided by n, either in ppsi, with
        the state in psi, or in psi, which it turns into the state."""
        out = sums[slot]
        _rowdot(_squares(spec, squares), pbasis, out=out[:, 4:8])
        np.multiply(spec, hbk_c, out=ppsi)
        _ifft(ppsi, ppsi)
        if spec is psi:
            _ifft(psi, psi)
        sq = _squares(psi, squares)
        _rowdot(sq, qbasis, out=out[:, 0:3])
        np.multiply(ppsi, x_c, out=ppsi)
        out[:, 3] = np.vecdot(psi, ppsi).real
        np.add(sq[:, 0::2], sq[:, 1::2], out=prob)
        np.max(prob, axis=-1, out=out[:, 8])
        np.max(prob[:, edge_cols], axis=-1, out=out[:, 9])

    np.multiply(phi, 1.0 / grid.n, out=ppsi)
    take_record(0, ppsi)
    prev_norm = sums[0, :, 0] * dx   # the linear growth check's reference
    slot = 1
    for step in range(1, n_steps + 1):
        np.multiply(phi, half if step == 1 else full, out=phi)
        _ifft(phi, psi)
        np.multiply(phi, ibp, out=ppsi)
        _ifft(ppsi, ppsi)
        kick = root_lam * increments[:, step - 1]
        if nonlinear:
            q01 = _rowdot(_squares(psi, squares), qbasis[:2])
            # a zero row keeps r = 0 instead of 0/0; its norm aborts it
            r = q01[:, 1] / np.where(q01[:, 0] > 0.0, q01[:, 0], 1.0)
        else:
            r = 0.0
        # c0 = 1 + xc (kick - lam dt xc / 2) and c1 = kick - lam dt xc,
        # the real factor of i beta p psi, with kick = sqrt(lam) dxi,
        # spelt out in powers of x (xc = x - r): rows of coeffs against
        # [1, x, -lam dt x^2 / 2]
        s_r = kick + lam_dt * r
        coeffs[:, 0, 0] = 1.0 - r * (kick + 0.5 * lam_dt * r)
        coeffs[:, 0, 1] = s_r
        coeffs[:, 1, 0] = s_r
        np.matmul(coeffs, cbasis, out=c01.transpose(1, 0, 2))
        np.multiply(psi, c0, out=psi)
        np.multiply(ppsi, c1, out=ppsi)
        np.add(psi, ppsi, out=psi)
        np.multiply(phi, kappa, out=phi)
        np.fft.fft(psi, axis=-1, out=psi)
        np.subtract(psi, phi, out=phi)
        n2 = np.vecdot(phi, phi).real * parseval
        bad = ~np.isfinite(n2)
        if nonlinear:
            bad |= n2 < _NORM_FLOOR
            np.multiply(phi, (1.0 / np.sqrt(np.where(bad, 1.0, n2)))[:, None],
                        out=phi)
        else:
            bad |= n2 > 100.0 * prev_norm
            prev_norm = n2
            # a flagged row would grow on until it overflows; zeroed, it
            # records as underflowed and stays finite
            if bad.any():
                phi[bad] = 0.0
        np.logical_or(aborted, bad, out=aborted)
        if step == rec_steps[slot]:
            np.multiply(phi, half, out=psi)
            take_record(slot, psi)
            slot += 1
    times = np.asarray(rec_steps, dtype=float) * dt
    records, invalid = _finish_records(sums, times, dx, p)
    np.logical_or(aborted, invalid.any(axis=0), out=aborted)
    return times, records, psi, aborted


__all__ = [
    "RECORD_FIELDS", "Grid", "NoiseStream", "grid_norm_sq", "build_gaussian",
    "build_superposition", "record_steps", "evolve_batch",
]
