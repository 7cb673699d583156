"""Norms taken in stacks of samples equal the norms of each sample taken
alone, byte for byte.

``field_norms`` takes every reduction once over a stack, along its
trailing axes, and pocketfft transforms each row of a stack as it
transforms that row alone, so a sample's norms must not depend on the
stack it is normed in: on how many samples share it, on where the block
boundaries fall, or on the scale of its neighbours.  The oracle here is
``field_norms`` called on each single ``(n, m)`` field, its entries joined
as rows, the way a series was built one sample at a time.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from locdamp import harness, norms, solver, spectral
from locdamp.norms import (
    NORM_BLOCK_ENTRIES,
    NORM_COLUMNS,
    SCALE_EXPONENT,
    BandSplit,
    NormSeries,
    field_norms,
    in_blocks,
    low_band_sup,
    samples_per_block,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SERIES_FIELDS = (*NORM_COLUMNS, "times", "comp_l2", "low_modes")
# Sample sizes on both sides of the bound: several samples per stack,
# then a sample that fills a stack exactly and one just over the bound.
SHAPES = [
    (1, 600),
    (3, 1000),
    (2, 2048),
    (2, NORM_BLOCK_ENTRIES // 2),
    (3, NORM_BLOCK_ENTRIES // 3 + 1),
]
# Per-sample scales: sup below 2**-SCALE_EXPONENT, in range, and above
# 2**SCALE_EXPONENT, in turn, so a stack of three or more mixes all three.
EXPONENTS = (-SCALE_EXPONENT - 50, 0, SCALE_EXPONENT + 50)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def drawn_samples(seed: int, count: int, n: int, m: int) -> list[np.ndarray]:
    """``count`` smooth random fields of ``n`` components on ``m`` cells,
    sample ``i`` scaled by ``2**EXPONENTS[i % 3]``."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, m)
    out = []
    for i in range(count):
        w = rng.standard_normal((n, 1)) * np.exp(-((x - rng.uniform(-0.5, 0.5)) / 0.2) ** 2)
        w += 1e-3 * rng.standard_normal((n, m))
        out.append(np.ldexp(w, EXPONENTS[i % len(EXPONENTS)]))
    return out


def one_at_a_time(fields, split, basis, spectra=None) -> NormSeries:
    """The oracle: each field normed alone, a single ``(n, m)`` field per
    call, from its spectrum when one is given."""
    rows = [
        field_norms(w, split, basis, None if spectra is None else spectra[i])
        for i, w in enumerate(fields)
    ]
    columns = {name: np.array([r[name] for r in rows]) for name in NORM_COLUMNS}
    columns["low_modes"] = np.stack([r["low_modes"] for r in rows])
    columns["comp_l2"] = np.column_stack([r["comp_l2"] for r in rows])
    return NormSeries(times=np.arange(float(len(rows))), n_cells=split.n_cells, **columns)


def blocked(fields, split, basis, spectra=None) -> NormSeries:
    """The fields normed the way a run norms them: in stacks from
    ``in_blocks``, from their spectra when given, each stack's grid fields
    then being one inverse transform of the stack."""
    samples = fields if spectra is None else spectra
    entries = fields[0].size
    blocks = []
    for stack in in_blocks(iter(samples), len(samples), entries):
        assert stack.ndim == 3
        assert len(stack) == 1 or len(stack) * entries <= NORM_BLOCK_ENTRIES
        if spectra is None:
            blocks.append(field_norms(stack, split, basis))
        else:
            grid = np.fft.irfft(stack, n=split.n_cells, axis=-1)
            blocks.append(field_norms(grid, split, basis, stack))
    return NormSeries.from_blocks(np.arange(float(len(fields))), blocks, n_cells=split.n_cells)


def assert_same_series(got, want):
    for name in SERIES_FIELDS:
        assert same_bytes(getattr(got, name), getattr(want, name)), name


def _counts(shape) -> list[int]:
    """Sample counts 1, bound - 1, bound and bound + 1 for the bound of
    samples of this shape."""
    bound = samples_per_block(math.prod(shape))
    return sorted({c for c in (1, bound - 1, bound, bound + 1) if c >= 1})


class TestStackedEqualsOneAtATime:
    @pytest.mark.parametrize("side", ["grid", "spectrum"])
    @pytest.mark.parametrize(
        "shape, count", [(shape, c) for shape in SHAPES for c in _counts(shape)]
    )
    def test_columns_byte_for_byte(self, shape, count, side):
        n, m = shape
        split = BandSplit.of(m, 0.05)
        basis = np.linalg.qr(np.random.default_rng(m).standard_normal((n, n)))[0]
        fields = drawn_samples(count * m, count, n, m)
        spectra = None
        if side == "spectrum":
            spectra = [np.fft.rfft(w, axis=1) for w in fields]
            fields = [np.fft.irfft(s, n=m, axis=1) for s in spectra]
        got = blocked(fields, split, basis, spectra)
        want = one_at_a_time(fields, split, basis, spectra)
        assert_same_series(got, want)
        # the low-band sup of the whole series and of one sample at a time
        sups = np.array([low_band_sup(c, m) for c in want.low_modes])
        assert same_bytes(low_band_sup(got.low_modes, m), sups)

    @pytest.mark.parametrize("side", ["grid", "spectrum"])
    def test_one_stack_mixing_scales(self, side):
        # sups below 2**-400, in range and above 2**400 in one call, each
        # rescaled by its own power of two
        n, m = 3, 1000
        split = BandSplit.of(m, 0.05)
        basis = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))[0]
        fields = drawn_samples(7, 6, n, m)
        sups = [float(np.abs(w).max()) for w in fields]
        assert min(sups[0::3]) < 2.0 ** -SCALE_EXPONENT
        assert max(sups[2::3]) > 2.0 ** SCALE_EXPONENT
        stack = np.stack(fields)
        spectra = np.fft.rfft(stack, axis=-1) if side == "spectrum" else None
        columns = field_norms(stack, split, basis, spectra)
        for i, w in enumerate(fields):
            alone = field_norms(w, split, basis, None if spectra is None else spectra[i])
            for name, value in alone.items():
                assert same_bytes(columns[name][i], value), (i, name)
        # the low modes synthesized back, in one stack and one at a time
        sup = low_band_sup(columns["low_modes"], m)
        assert same_bytes(sup, np.array([low_band_sup(c, m) for c in columns["low_modes"]]))

    def test_a_field_scales_exactly_in_any_stack(self):
        n, m = 2, 1500
        split = BandSplit.of(m, 0.05)
        basis = np.linalg.qr(np.random.default_rng(2).standard_normal((n, n)))[0]
        w = drawn_samples(3, 2, n, m)[1]  # sup about 1
        for k in (-600, -450, 450, 600):
            want = norms.scale_columns(field_norms(w, split, basis), k)
            # next to a neighbour at the opposite scale
            columns = field_norms(np.stack([np.ldexp(w, -k), np.ldexp(w, k)]), split, basis)
            for name, value in want.items():
                assert same_bytes(columns[name][1], value), (k, name)


class TestInBlocks:
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [0, 1, 2])
    def test_stacks_hold_the_samples_in_order(self, blocks, extra):
        bound = samples_per_block(600)
        count = max(1, blocks * bound + extra)
        samples = [np.full((1, 600), float(i)) for i in range(count)]
        stacks = [s.copy() for s in in_blocks(iter(samples), count, 600)]
        assert [len(s) for s in stacks[:-1]] == [bound] * (len(stacks) - 1)
        assert 1 <= len(stacks[-1]) <= bound
        assert np.array_equal(np.concatenate(stacks), np.stack(samples))

    def test_a_sample_over_the_bound_is_its_own_stack_uncopied(self):
        shape = (3, NORM_BLOCK_ENTRIES // 3 + 1)
        samples = [np.ones(shape), np.zeros(shape)]
        stacks = list(in_blocks(iter(samples), 2, samples[0].size))
        assert [s.shape for s in stacks] == [(1, *shape)] * 2
        assert all(np.shares_memory(s, x) for s, x in zip(stacks, samples))


def _norm_one_sample_at_a_time(monkeypatch):
    """Make runs norm every sample alone, through ``field_norms`` of the
    single ``(n, m)`` field, as a series was built one sample at a time."""
    one_field = norms.field_norms

    def single(w, split, basis, what=None):
        (field,) = w
        row = one_field(field, split, basis, None if what is None else what[0])
        return {name: np.asarray(value)[None] for name, value in row.items()}

    monkeypatch.setattr(norms, "NORM_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(spectral, "field_norms", single)
    monkeypatch.setattr(solver, "field_norms", single)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_shipped_runs_equal_a_per_sample_replay(name, monkeypatch, tmp_path):
    # solver.run for the probes and envelope runs, fullspace_evolve for
    # the fullspace run
    scenario = harness.load_scenario(SCENARIOS / f"{name}.json")
    runs = [harness.run_scenario(scenario)]
    _norm_one_sample_at_a_time(monkeypatch)
    runs.append(harness.run_scenario(scenario))
    got, want = (r.series for r in runs)
    assert_same_series(got, want)
    if isinstance(got, solver.Trajectory):
        assert same_bytes(got.final_w, want.final_w)
    files = [harness.export(r, tmp_path / label) for r, label in zip(runs, ("blocked", "replay"))]
    for a, b in zip(*files):
        assert a.read_bytes() == b.read_bytes(), a.name
