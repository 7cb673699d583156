"""Spans and counters recorded from outside the program.

The tracer replaces a module attribute with a wrapper that records a span
around each call, at the place the caller looks the name up: ``harness``
binds ``fullspace_evolve`` and ``gamma_estimate`` by name, so those are
patched on ``harness``, while ``solver`` calls ``kernels.advance`` through
the module and that is patched on ``kernels``.  Spans stay in memory;
counters added while spans are open are credited to every open span, so a
span's counts include those of its children.  A call that raises adds no
counters of its own, so its span is marked failed and left out of the
time that per-unit ratios divide.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, float] = field(default_factory=dict)
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def add(self, key: str, amount: float) -> None:
        for i in self._open:
            counts = self.spans[i].counts
            counts[key] = counts.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``count(result, *args, **kw)``
        returns counters credited to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    for key, amount in count(result, *args, **kwargs).items():
                        self.add(key, amount)
                return result
            except BaseException:
                self.spans[index].failed = True
                raise
            finally:
                self._open.pop()
                self.spans[index].end = time.perf_counter()

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans


@contextmanager
def patched(tracer: Tracer, table) -> Iterator[list[str]]:
    """Install the wrappers of ``table`` for the duration of the block.

    ``table`` rows are ``(module, attribute, span name, counter)``.  Rows
    whose module or attribute does not exist are skipped and their
    ``module.attribute`` names yielded, so a refactor that moves a function
    shows as a missing layer instead of a crash.
    """
    saved = []
    missing = []
    try:
        for module_name, attr, span_name, count in table:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, count))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[j].start, reach, s.start)
            hi = min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


@dataclass
class LayerTotals:
    """Sums over every span of one name.  ``ok_seconds`` covers only the
    spans that returned, whose counters were recorded, so it is the time
    to divide by those counters."""

    seconds: float = 0.0
    ok_seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    counts: dict[str, float] = field(default_factory=dict)


def totals(spans: list[Span]) -> dict[str, LayerTotals]:
    out: dict[str, LayerTotals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, LayerTotals())
        t.seconds += s.duration
        if not s.failed:
            t.ok_seconds += s.duration
        t.self_seconds += own
        t.calls += 1
        for key, amount in s.counts.items():
            t.counts[key] = t.counts.get(key, 0) + amount
    return out


# ---------------------------------------------------------------------------
# the locdamp layer table
# ---------------------------------------------------------------------------

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")
DOUBLE_BYTES = 8


def _kernel_counts(result, v, shifts, damp_half, mask, n_steps, apply_damping, *rest):
    """Cell updates and bytes computed from array sizes: per step the shift
    reads and writes the whole state, and each of the two half-relaxations
    reads and writes the damped cells."""
    n, m = v.shape
    damped = int(np.count_nonzero(mask)) if apply_damping else 0
    steps = int(n_steps)
    return {
        "cell_updates": n * m * steps,
        "bytes": steps * n * DOUBLE_BYTES * (2 * m + 4 * damped),
    }


def _reference_counts(result, sys, x, u0, times, **kw):
    n_times = len(result.times)
    return {"sample_times": n_times, "mode_samples": n_times * len(x)}


def _export_counts(result, *args, **kw):
    return {"bytes": sum(p.stat().st_size for p in result)}


def _fft_counts(result, a, *args, **kw):
    """One-dimensional transforms in one call; locdamp transforms along
    the last axis."""
    return {"ffts": int(np.prod(np.shape(a)[:-1]))}


def layer_table() -> list[tuple]:
    """Patch rows for every layer the benchmark reports, plus numpy's FFT
    entry points for the transform count."""
    rows = [
        ("locdamp.harness", "load_scenario", "harness.load", None),
        ("locdamp.model", "validate_system", "model.validate", None),
        ("locdamp.harness", "validate_system", "model.validate", None),
        ("locdamp.harness", "run_scenario", "harness.run", None),
        ("locdamp.solver", "run", "solver.run", None),
        ("locdamp.solver", "build_grid", "solver.grid", None),
        ("locdamp.solver", "_norm_row", "solver.norms", None),
        ("locdamp.kernels", "advance", "kernels.advance", _kernel_counts),
        ("locdamp.harness", "fullspace_evolve", "spectral.reference", _reference_counts),
        ("locdamp.harness", "gamma_estimate", "spectral.scan", None),
        ("locdamp.harness", "calibrate", "harness.calibrate", None),
        ("locdamp.harness", "verify_envelope", "harness.check", None),
        ("locdamp.harness", "conservation_probe", "harness.check", None),
        ("locdamp.harness", "export", "harness.export", _export_counts),
    ]
    rows += [("numpy.fft", name, "numpy.fft", _fft_counts) for name in FFT_FUNCTIONS]
    return rows
