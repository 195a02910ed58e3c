"""Ensemble runner: thousands of trajectories, reproducible to the byte.

Reproducibility contract: every trajectory index owns a counter-based noise
stream keyed by (master_seed, index), trajectories are grouped into batches
of config.batch_size aligned to the index, and batch results are reduced in
index order.  Worker processes only ever receive whole batches, so the
arrays each FFT sees are identical no matter how many workers run; the
summary is therefore bit-identical for any worker count, and changes only
when the master seed (or the physics) changes.

Memory bound: a run holds one record tensor, (n_records, n_trajectories,
len(RECORD_FIELDS)) float64, plus a small overhead.  Each batch is copied
into its slice of the tensor as it arrives and dropped, and the per-record
statistics are taken block by block, at most 256 kB of records at a time,
so the overhead is one batch's working set (serial) or about three
batches' records (process pool), plus one block.

compare_to_master cross-validates the simulated ensemble against the
closed-form master-equation moments: means, second moments, energy, and the
final spatial density.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .gaussian import GaussianState, spreads
from .grid import (RECORD_FIELDS, Grid, NoiseStream, build_gaussian,
                   build_superposition, evolve_batch)
from .master import (coeff_flow, coefficients_from_gaussian,
                     moments_from_coefficients, position_density)
from .model import ModelParams, derive_constants, scale_parameters
from .errors import InstabilityError

_FLOAT_TUPLE_FIELDS = {"centers", "weights", "kbars"}
_BLOCK_BYTES = 1 << 18   # the largest block of records reduced at once
_KIND_NAMES = {"str": "a string", "int": "an integer", "float": "a number",
               "tuple": "a list of numbers"}


def _has_kind(value, kind: str) -> bool:
    """Whether a config value has the type its field declares: a string,
    an integer, a real number or a sequence of real numbers (a bool is
    none of these)."""
    if kind == "str":
        return isinstance(value, str)
    if kind == "tuple":
        return isinstance(value, (tuple, list)) \
            and all(_has_kind(v, "float") for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value,
                      numbers.Integral if kind == "int" else numbers.Real)


def _is_finite(value) -> bool:
    """Whether a real number is finite as a float: an integer too large
    for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one ensemble experiment.

    collapse_rate, momentum_coupling and hbar apply in natural units only,
    where hbar=None resolves to 1; in SI units the couplings and hbar are
    scale_parameters(mass).  a0_real/a0_imag=None start packets at the
    stationary width.
    """

    units: str = "natural"
    mass: float = 1.0
    collapse_rate: float = 0.1
    momentum_coupling: float = 0.5
    hbar: float | None = None
    equation: str = "nonlinear"
    initial: str = "gaussian"
    a0_real: float | None = None
    a0_imag: float | None = None
    xbar0: float = 0.0
    kbar0: float = 0.0
    centers: tuple = (-5.0, 5.0)
    weights: tuple = (0.5, 0.5)
    kbars: tuple = ()
    x_min: float = -16.0
    x_max: float = 16.0
    n_points: int = 256
    dt: float = 0.01
    n_steps: int = 200
    record_every: int = 10
    n_trajectories: int = 100
    master_seed: int = 2025
    batch_size: int = 128
    n_workers: int = 1

    def __post_init__(self):
        for f_ in dataclasses.fields(self):
            value = getattr(self, f_.name)
            kind = f_.type.removesuffix(" | None")
            if value is None and kind != f_.type:
                continue
            if not _has_kind(value, kind):
                raise ValueError(f"{f_.name} must be {_KIND_NAMES[kind]}, "
                                 f"got {value!r}")
            if kind in ("float", "tuple") and not all(
                    map(_is_finite, value if kind == "tuple" else [value])):
                raise ValueError(f"{f_.name} must be finite, got {value!r}")
            if kind == "tuple":
                object.__setattr__(self, f_.name, tuple(map(float, value)))
        for name, allowed in (("units", ("natural", "si")),
                              ("equation", ("nonlinear", "linear")),
                              ("initial", ("gaussian", "superposition"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, "
                                 f"got {getattr(self, name)!r}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name in ("n_steps", "record_every", "n_trajectories",
                     "batch_size", "n_workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if len(self.weights) != len(self.centers):
            raise ValueError("weights and centers differ in length")
        if self.kbars and len(self.kbars) != len(self.centers):
            raise ValueError("kbars and centers differ in length")
        if self.initial == "superposition" and not self.centers:
            raise ValueError("centers must hold at least one packet")
        if self.initial == "superposition" and (
                min(self.weights) < 0.0 or not sum(self.weights) > 0.0):
            raise ValueError("weights must be non-negative with a positive "
                             f"sum, got {self.weights}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be in [0, 2**64), "
                             f"got {self.master_seed}")
        self.params()  # ModelParams checks the mass, couplings and hbar
        if self.a0_real is not None and not self.a0_real > 0.0:
            raise ValueError("a0_real must be positive for a normalizable "
                             f"start, got {self.a0_real}")
        try:
            dx = self.grid().dx  # Grid checks n_points and the interval
        except ValueError as exc:
            raise ValueError(f"n_points = {self.n_points} (x_min = "
                             f"{self.x_min:g}, x_max = {self.x_max:g}): "
                             f"{exc}") from None
        # a start momentum past the grid's band folds back into it, where
        # no alias check can see it
        name, kbars = (("kbar0", [self.kbar0]) if self.initial == "gaussian"
                       else ("kbars", self.kbars))
        for k in kbars:
            if abs(k) >= math.pi / dx:
                raise ValueError(
                    f"{name} = {k:g} is not below the grid's largest "
                    f"wavenumber pi/dx = {math.pi / dx:.4g}; raise n_points "
                    "or narrow the box (x_min, x_max)")

    def params(self) -> ModelParams:
        if self.units == "si":
            return scale_parameters(self.mass)
        return ModelParams(mass=self.mass, collapse_rate=self.collapse_rate,
                           momentum_coupling=self.momentum_coupling,
                           hbar=1.0 if self.hbar is None else self.hbar)

    def grid(self) -> Grid:
        return Grid(x_min=self.x_min, x_max=self.x_max, n=self.n_points)

    def initial_gaussian(self) -> GaussianState:
        p = self.params()
        if self.a0_real is None:
            if p.collapse_rate == 0.0:
                raise ValueError("a0_real must be set: collapse_rate = 0 "
                                 "leaves no stationary width to start at")
            a = derive_constants(p, boltzmann=1.0).a_inf
            if self.a0_imag is not None:
                a = complex(a.real, self.a0_imag)
        else:
            a = complex(self.a0_real, self.a0_imag or 0.0)
        return GaussianState(a=a, xbar=self.xbar0, kbar=self.kbar0)

    def initial_psi(self, grid: Grid) -> np.ndarray:
        g = self.initial_gaussian()
        if self.initial == "gaussian":
            return build_gaussian(grid, g)
        return build_superposition(grid, g.a, self.centers, self.weights,
                                   kbars=self.kbars or None)

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)

    # -- dict, flat-file and JSON forms ------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for k in _FLOAT_TUPLE_FIELDS:
            d[k] = list(d[k])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        names = {f_.name for f_ in dataclasses.fields(cls)}
        for k in d:
            if k not in names:
                raise ValueError(f"unknown key {k!r}")
        return cls(**d)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        kw = cls.read_fields(path)
        try:
            return cls.from_dict(kw)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def read_fields(cls, path: str) -> dict:
        """The values a flat or JSON experiment file sets, by key, before
        they are checked; a key the file leaves out is absent, even where
        its value would be the default."""
        with open(path) as f:
            text = f.read()
        if text.lstrip().startswith("{"):
            try:
                return json.loads(text)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        names = {f_.name for f_ in dataclasses.fields(cls)}
        kw = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in names:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            kw[key] = _parse_value(key, val)
        return kw


def _parse_value(key: str, val: str):
    if key in _FLOAT_TUPLE_FIELDS:
        val = val.strip()
        if not val:
            return ()
        return tuple(float(v) for v in val.split(","))
    if val == "None":
        return None
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    return val


@dataclass(frozen=True)
class EnsembleSummary:
    """Reduced ensemble statistics: per-record mean and standard error of
    every moment column, the final-position histogram, and the mean final
    spatial density over non-aborted trajectories."""

    times: np.ndarray
    mean: np.ndarray
    sem: np.ndarray
    n_trajectories: int
    n_aborted: int
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    density_x: np.ndarray
    density: np.ndarray
    config: ExperimentConfig

    def to_json(self) -> str:
        cfg = self.config.to_dict()
        cfg.pop("n_workers", None)  # scheduling detail, not physics
        payload = {
            "schema": "ensemble-summary-v1",
            "config": cfg,
            "fields": list(RECORD_FIELDS),
            "times": self.times.tolist(),
            "mean": self.mean.tolist(),
            "sem": self.sem.tolist(),
            "n_trajectories": self.n_trajectories,
            "n_aborted": self.n_aborted,
            "hist_edges": self.hist_edges.tolist(),
            "hist_counts": self.hist_counts.tolist(),
            "density_x": self.density_x.tolist(),
            "density": self.density.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def _run_batch(cfg: ExperimentConfig, start: int, count: int):
    p = cfg.params()
    grid = cfg.grid()
    # evolve_batch copies the start into its own buffer, so a broadcast
    # view of one row serves every trajectory
    psi = np.broadcast_to(cfg.initial_psi(grid), (count, grid.n))
    incr = np.empty((count, cfg.n_steps))
    for row, idx in enumerate(range(start, start + count)):
        incr[row] = NoiseStream(cfg.master_seed, idx).increments(
            cfg.n_steps, cfg.dt)
    times, records, final_psi, aborted = evolve_batch(
        psi, grid, p, cfg.dt, cfg.n_steps, incr, equation=cfg.equation,
        record_every=cfg.record_every)
    # aborted rows are dropped before they are normalised: their norm may
    # be 0 or not finite
    prob = np.abs(final_psi[~aborted])
    np.square(prob, out=prob)
    norm = prob.sum(axis=-1, keepdims=True) * grid.dx
    np.divide(prob, norm, out=prob)
    return start, times, records, aborted, prob.sum(axis=0)


def run_ensemble(cfg: ExperimentConfig, return_records: bool = False):
    """Run the configured ensemble and reduce it to an EnsembleSummary.

    With return_records=True also returns the raw per-trajectory record
    tensor of shape (n_records, n_trajectories, len(RECORD_FIELDS)) in
    trajectory-index order (useful for paired statistics; aborted rows are
    flagged, not removed).  Raises InstabilityError when every trajectory
    aborts, since there is nothing left to average.
    """
    starts = range(0, cfg.n_trajectories, cfg.batch_size)
    sizes = [min(cfg.batch_size, cfg.n_trajectories - s) for s in starts]
    # a fork pool starts all its workers at once: no more than there are
    # batches
    workers = min(cfg.n_workers, len(starts))
    if workers > 1:
        # imported here: the pool costs a serial run about 20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor, as_completed
        with ProcessPoolExecutor(max_workers=workers) as ex:
            # taken as they finish, so that no finished batch waits in
            # memory for an earlier one
            finished = as_completed([ex.submit(_run_batch, cfg, s, n)
                                     for s, n in zip(starts, sizes)])
            times, records, aborted, density_sum = _gather(
                cfg, starts, _results(finished))
    else:
        times, records, aborted, density_sum = _gather(
            cfg, starts, map(_run_batch, repeat(cfg), starts, sizes))

    grid = cfg.grid()
    if aborted.all():
        raise InstabilityError(f"all {aborted.size} trajectories "
                               f"aborted{_abort_reason(cfg)}")
    ok = ~aborted
    nv = int(ok.sum())
    density = density_sum / nv
    # a block's mean and std over axis 1 are the whole tensor's bit for
    # bit; only a run with aborted rows copies the kept rows of a block
    rows = slice(None) if nv == ok.size else ok
    mean = np.empty((len(times), records.shape[2]))
    sem = np.zeros_like(mean)
    step = max(1, _BLOCK_BYTES // records[0].nbytes)
    for lo in range(0, len(times), step):
        kept = records[lo:lo + step, rows]
        mean[lo:lo + step] = kept.mean(axis=1)
        if nv > 1:
            sem[lo:lo + step] = kept.std(axis=1, ddof=1) / math.sqrt(nv)
        del kept   # before the next block is taken
    q_final = records[-1, ok, RECORD_FIELDS.index("q_mean")]
    edges = np.linspace(cfg.x_min, cfg.x_max, 65)
    counts, _ = np.histogram(q_final, bins=edges)

    summary = EnsembleSummary(
        times=times, mean=mean, sem=sem,
        n_trajectories=cfg.n_trajectories, n_aborted=int(aborted.sum()),
        hist_edges=edges, hist_counts=counts,
        density_x=grid.x, density=density, config=cfg,
    )
    if return_records:
        return summary, records, aborted
    return summary


def _abort_reason(cfg: ExperimentConfig) -> str:
    """Why a trajectory of cfg aborted, as the tail of a message: a start
    that fails at t = 0 needs a finer grid or a wider box."""
    grid, p = cfg.grid(), cfg.params()
    if not evolve_batch(cfg.initial_psi(grid), grid, p, cfg.dt, 0,
                        np.empty((1, 0)), equation=cfg.equation)[3][0]:
        return (" (norm loss or growth, aliasing, or leakage at the box "
                "edge); try a smaller dt or a wider box (x_min, x_max)")
    sigma_q = spreads(cfg.initial_gaussian().a, p).sigma_q
    if sigma_q < grid.dx:
        return (": the initial state already fails at t = 0, because its "
                f"packet width sigma_q = {sigma_q:.3g} is below the grid "
                f"spacing dx = {grid.dx:.3g}; raise n_points or narrow "
                "the box (x_min, x_max)")
    return (": the initial state already fails the box-edge leak or "
            "aliasing check at t = 0; widen the box (x_min, x_max) or move "
            "the packets inward")


def _results(finished):
    """The result of each future from finished, let go before the next one
    is waited for."""
    for fut in finished:
        yield fut.result()
        del fut


def _gather(cfg: ExperimentConfig, starts, results):
    """The times, the record tensor, the abort flags and the density sum of
    _run_batch results in any order.  Each batch is dropped once copied;
    the densities add up in start order, 0 + d0 + d1 + ..., as sum() did."""
    records = aborted = None
    densities = {}
    for start, times, batch, batch_aborted, density in results:
        if records is None:
            n_rec, _, n_fields = batch.shape
            records = np.empty((n_rec, cfg.n_trajectories, n_fields))
            aborted = np.empty(cfg.n_trajectories, dtype=bool)
        stop = start + batch.shape[1]
        records[:, start:stop] = batch
        aborted[start:stop] = batch_aborted
        densities[start] = density
        del batch, batch_aborted
    return times, records, aborted, sum(densities[s] for s in starts)


def branch_outcomes(cfg: ExperimentConfig, records: np.ndarray,
                    aborted: np.ndarray):
    """The localization curve and the branch outcomes of a superposition
    run, from its run_ensemble records; aborted trajectories are left out.

    Returns two tables.  localization has a row per record: t, the
    fraction of localized trajectories and their mean sigma_q, where a
    record is localized when sigma_q lies within 5 % of sigma_q_bar.
    outcomes has a row per kept trajectory: its index, settled (1 when its
    last record is localized), t_reduce and branch.  A trajectory settles
    at the first record of its final localized stretch (an unsettled one
    at its last record), and its branch is the index of the packet centre
    nearest its <q> there.
    """
    d = derive_constants(cfg.params(), boltzmann=1.0)
    ok = ~aborted
    sig_q = np.sqrt(records[:, ok, RECORD_FIELDS.index("sigma_q_sq")])
    q_mean = records[:, ok, RECORD_FIELDS.index("q_mean")]
    times = records[:, 0, RECORD_FIELDS.index("t")]
    within = np.abs(sig_q - d.sigma_q_bar) <= 0.05 * d.sigma_q_bar
    n_rec, n_ok = within.shape
    # one past the last unlocalized record, or 0 when there is none
    spread = ~within
    settle = np.where(spread.any(axis=0),
                      np.minimum(n_rec - np.argmax(spread[::-1], axis=0),
                                 n_rec - 1), 0)
    q_settle = q_mean[settle, np.arange(n_ok)]
    branch = np.argmin(np.abs(q_settle[:, None] - np.asarray(cfg.centers)),
                       axis=1)
    localization = np.column_stack([times, within.mean(axis=1),
                                    sig_q.mean(axis=1)])
    outcomes = np.column_stack([np.flatnonzero(ok), within[-1],
                                times[settle], branch])
    return localization, outcomes


@dataclass(frozen=True)
class MasterComparison:
    """z-scores of the ensemble means against the closed-form master
    moments, plus the L1 distance of the final density."""

    times: np.ndarray
    z_q_mean: np.ndarray
    z_p_mean: np.ndarray
    z_q_second: np.ndarray
    z_p_second: np.ndarray
    max_abs_z: float
    l1_density: float

    def passed(self, z_threshold: float = 3.0, l1_tol: float = 0.02) -> bool:
        return self.max_abs_z < z_threshold and self.l1_density < l1_tol


def compare_to_master(cfg: ExperimentConfig, summary: EnsembleSummary,
                      records: np.ndarray, aborted: np.ndarray) -> MasterComparison:
    """Cross-validate an ensemble run against the master-equation moments.

    Requires a Gaussian initial state (the closed-form reference).  Second
    moments are compared as <q^2> = var_q + <q>^2 built per trajectory, so
    the Monte Carlo error bars are honest standard errors of the mean.
    """
    if cfg.initial != "gaussian":
        raise ValueError("master comparison needs a Gaussian initial state")
    p = cfg.params()
    hb = p.hbar
    c0 = coefficients_from_gaussian(cfg.initial_gaussian(), p)
    ok = ~aborted

    def col(name):
        # one column's kept rows in one copy; like a masked copy of the
        # whole tensor it is laid out trajectory by trajectory, so the sums
        # over trajectories run in the same order
        return records[:, ok, RECORD_FIELDS.index(name)]

    q_mean, p_mean = col("q_mean"), col("p_mean")
    samples = {
        "q_mean": q_mean, "p_mean": p_mean,
        "q_second": col("sigma_q_sq") + q_mean ** 2,
        "p_second": col("sigma_p_sq") + p_mean ** 2,
    }
    nv = q_mean.shape[1]
    mom = moments_from_coefficients(coeff_flow(c0, summary.times, p), p)
    theory = {"q_mean": mom.q_mean, "p_mean": mom.p_mean,
              "q_second": mom.var_q + mom.q_mean**2,
              "p_second": mom.var_p + mom.p_mean**2}
    z = {}
    for k, sample in samples.items():
        mu = sample.mean(axis=1)
        se = sample.std(axis=1, ddof=1) / math.sqrt(nv)
        diff = mu - theory[k]
        # a degenerate sample (all trajectories identical, e.g. the t=0
        # record) carries no standard error; compare directly instead
        scale = 1.0 + np.abs(theory[k])
        degenerate = se <= 1e-12 * scale
        safe = np.where(degenerate, 1.0, se)
        z[k] = np.where(degenerate,
                        np.where(np.abs(diff) <= 1e-9 * scale, 0.0, np.inf),
                        diff / safe)

    ref = position_density(cfg.initial_gaussian(), float(summary.times[-1]),
                           p, summary.density_x, method="exact").density
    dx = float(summary.density_x[1] - summary.density_x[0])
    l1 = float(np.abs(summary.density - ref).sum() * dx)
    max_z = max(float(np.nanmax(np.abs(v))) for v in z.values())
    return MasterComparison(
        times=summary.times, z_q_mean=z["q_mean"], z_p_mean=z["p_mean"],
        z_q_second=z["q_second"], z_p_second=z["p_second"],
        max_abs_z=max_z, l1_density=l1,
    )


__all__ = [
    "ExperimentConfig", "EnsembleSummary", "MasterComparison",
    "run_ensemble", "branch_outcomes", "compare_to_master",
]
