"""Spans and counters recorded from outside the library.

The library carries no instrumentation of its own, so the traced run swaps
the names that callers look up at call time (module globals, a class
attribute, the module objects `dcollapse.cli` imported as `ge`, `loc` and
`me`) for timing wrappers, and restores them afterwards.  Spans are kept in
memory; self time is derived from them once the run is over.
"""

from __future__ import annotations

import functools
import json
import time
import types
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  Single-threaded: traced ensembles run with
    one worker, so every span opens and closes in this process."""

    def __init__(self, run_id: str):
        self.spans: list[Span] = []
        self.run_id = run_id
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, parent, name, t0, t1, self.run_id)
        traced.span_name = name
        return traced

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its direct children cover."""
        own = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)
            f.write("\n")


class _ModuleProxy:
    """Stands in for a module object: functions come back traced as
    '<layer>.<name>', everything else (including functions already traced
    through another lookup) unchanged."""

    def __init__(self, module, layer: str, tracer: Tracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if isinstance(attr, types.FunctionType) \
                and not hasattr(attr, "span_name"):
            attr = self._tracer.wrap(f"{self._layer}.{name}", attr)
            setattr(self, name, attr)
        return attr


class Patches:
    """Attribute swaps that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install_spans(tracer: Tracer) -> Patches:
    """Wrap every layer entry point as its caller looks it up."""
    from dcollapse import cli, ensemble, grid, master

    patches = Patches()
    targets = [
        # looked up by the ensemble layer
        (ensemble, "evolve_batch", "grid.evolve_batch"),
        (ensemble, "coeff_flow", "master.coeff_flow"),
        (grid.NoiseStream, "increments", "noise.increments"),
        # looked up by the benchmark's workloads
        (ensemble, "run_ensemble", "ensemble.run_ensemble"),
        (ensemble, "compare_to_master", "master.compare_to_master"),
        (master, "position_density", "master.position_density"),
        (master, "coeff_flow", "master.coeff_flow"),
        (cli, "main", "cli.main"),
        # looked up by `dcollapse verify`
        (cli, "run_ensemble", "ensemble.run_ensemble"),
        (cli, "compare_to_master", "master.compare_to_master"),
    ]
    for owner, attr, name in targets:
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    patches.set(cli, "ge", _ModuleProxy(cli.ge, "gaussian", tracer))
    patches.set(cli, "loc", _ModuleProxy(cli.loc, "localization", tracer))
    patches.set(cli, "me", _ModuleProxy(cli.me, "master", tracer))
    return patches


class FFTCounter:
    """Counts calls to the numpy.fft and scipy.fft entry points while
    enabled.  Installed before dcollapse is imported, so a kernel that binds
    an FFT function at import time is counted too."""

    NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

    def __init__(self):
        self.calls = 0
        self.enabled = False

    def install(self) -> None:
        import numpy.fft
        import scipy.fft

        for module in (numpy.fft, scipy.fft):
            for name in self.NAMES:
                fn = getattr(module, name, None)
                if fn is not None:
                    setattr(module, name, self._counting(fn))

    def _counting(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls += 1
            return fn(*args, **kwargs)
        return counted

    def count(self, fn, *args, **kwargs):
        """(result, FFT calls made) of fn(*args, **kwargs)."""
        self.calls = 0
        self.enabled = True
        try:
            return fn(*args, **kwargs), self.calls
        finally:
            self.enabled = False
