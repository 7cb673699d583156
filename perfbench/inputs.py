"""Benchmark inputs: shipped scenarios plus seed-chosen generated variants.

Each workload is a list of inputs, each a scenario JSON document that the
program receives exactly as the CLI would.  Generated inputs come from a
fixed pool.  A workload has a list of *slots*; a slot fixes everything that
sets an input's cost (speed family, stripe count, grid size, sampling
stride, number of steps or sample times), and each slot has ``POOL_SIZE``
variants that differ only in geometry, amplitude and damping strength.  The
seed picks one variant per slot.  Every seed therefore runs the same amount
of work on different inputs, and every variant has outputs recorded in
``reference.json.gz`` by ``record.py``.

Variants are drawn with ``random.Random`` seeded by a string, whose streams
are fixed across Python versions, so the same seed always yields
byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("envelope", "reference", "probe_sweep")
POOL_SIZE = 4

# Velocity matrices of the shipped speed families; component 0 of each
# moves right at speed 1 and the others faster, so mass only moves right.
FAMILIES = {
    "scalar": {"a": [[1.0]], "n1": 0, "dd": [[1.0]]},
    "321": {
        "a": [
            [1.6666666666666667, -0.6666666666666666, 0.0],
            [-0.6666666666666666, 2.0, -0.6666666666666666],
            [0.0, -0.6666666666666666, 2.3333333333333335],
        ],
        "n1": 1,
        "dd": [[1.0, 0.0], [0.0, 1.0]],
    },
    "421": {
        "a": [
            [1.7777777777777777, -0.8888888888888888, 0.2222222222222222],
            [-0.8888888888888888, 2.4444444444444446, -1.1111111111111112],
            [0.2222222222222222, -1.1111111111111112, 2.7777777777777777],
        ],
        "n1": 1,
        "dd": [[1.0, 0.0], [0.0, 1.0]],
    },
}
FAMILY_MAX_SPEED = {"scalar": 1, "321": 3, "421": 4}
# Energy dissipation rate of characteristic component 0 on damped cells
# (diagonal entry of the source matrix in the eigenbasis).
FAMILY_DAMPING = {"scalar": 1.0, "321": 5.0 / 9.0, "421": 5.0 / 9.0}

ENVELOPE_SHIPPED = ("three_speed_321", "damped_wave", "stripes_two")
REFERENCE_SHIPPED = ("fullspace_damped_wave",)
PROBE_SHIPPED = ("probe_scalar", "probe_321", "probe_421")

# The long-horizon reference case: 8192 cells on [-512, 512] up to
# t = 450.  The per-sample exponential guard refuses it before t_final;
# it stays in the workload so that fail counts show that limit.
LONG_HORIZON = {
    "name": "long_horizon",
    "kind": "fullspace",
    "system": {"a": [[0.0, 1.0], [1.0, 0.0]], "n1": 1, "dd": [[1.0]]},
    "region": {"stripes": [[-1.0, 1.0]]},
    "domain": {"x_min": -512.0, "x_max": 512.0, "n_cells": 8192},
    "time": {"t_final": 450.0, "stride": 150},
    "initial_data": {
        "basis": "physical",
        "bumps": [
            {"kind": "gaussian", "component": 0, "center": 0.0, "width": 0.5, "amplitude": 1.0}
        ],
    },
}


@dataclass(frozen=True)
class ProbeSlot:
    """Cost-setting parameters of a generated conservation probe."""

    family: str
    stripes: int
    cells: int
    stride: int
    steps: int


@dataclass(frozen=True)
class ReferenceSlot:
    """Cost-setting parameters of a generated fullspace run."""

    cells: int
    dx: float
    t_final: float
    samples: int


# Stride sweep, stripe-count sweep, then grid-size sweep.
PROBE_SLOTS = (
    ProbeSlot("scalar", 1, 600, 1, 120),
    ProbeSlot("321", 1, 600, 1, 100),
    ProbeSlot("421", 2, 800, 2, 120),
    ProbeSlot("321", 1, 1200, 5, 150),
    ProbeSlot("scalar", 4, 1600, 10, 200),
    ProbeSlot("421", 1, 2400, 20, 300),
    ProbeSlot("321", 2, 4000, 50, 400),
    ProbeSlot("321", 4, 3000, 10, 300),
    ProbeSlot("421", 8, 3000, 10, 300),
    ProbeSlot("scalar", 16, 3000, 10, 300),
    ProbeSlot("321", 32, 4000, 10, 300),
    ProbeSlot("421", 32, 4000, 5, 200),
    ProbeSlot("scalar", 32, 2000, 2, 150),
    ProbeSlot("scalar", 1, 16384, 20, 300),
    ProbeSlot("321", 2, 8192, 20, 300),
    ProbeSlot("421", 4, 16384, 25, 250),
    ProbeSlot("scalar", 8, 32768, 40, 240),
    ProbeSlot("scalar", 2, 65536, 50, 200),
)

# Horizon and grid-size variants of the damped wave.  The largest argument
# norm stays below the exponential guard, so none of these fail.
REFERENCE_SLOTS = (
    ReferenceSlot(1024, 0.125, 50.0, 11),
    ReferenceSlot(2048, 0.125, 150.0, 16),
    ReferenceSlot(4096, 0.125, 100.0, 11),
    ReferenceSlot(1024, 0.25, 200.0, 21),
)


def _rng(*key: object) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def variant_name(workload: str, index: int, k: int) -> str:
    return f"{workload}_{index:02d}_{k}"


def probe_variant(index: int, k: int) -> dict:
    """Variant ``k`` of probe slot ``index``.

    All positions are whole cells on a dyadic grid, so stripe edges sit
    exactly on cell edges and the predicted onset falls on a sample time.
    The grid spacing makes the 1% energy drop happen within one stride of
    the predicted onset: a box of ``box`` cells loses about
    ``rate * dx * j**2 / box`` of its energy ``j`` steps after reaching the
    stripe edge.
    """
    slot = PROBE_SLOTS[index]
    rng = _rng("probe_sweep", index, k)
    fam = FAMILIES[slot.family]
    box = max(2, slot.stride // 3)
    rate = FAMILY_DAMPING[slot.family]
    dx = 2.0 ** math.ceil(math.log2(0.06 * box / (rate * slot.stride ** 2)))
    onset_strides = rng.randint(1, max(1, min(3, slot.steps // slot.stride - 2)))
    lead_cells = 6 + rng.randint(0, 6)
    width0 = box + onset_strides * slot.stride + 2 + rng.randint(0, 8)
    x_min = -lead_cells * dx - dx * 4
    edge0 = 4  # stripe 0 starts 4 cells past the guard band
    right0 = edge0 + lead_cells + width0
    stripes = [(edge0 + lead_cells, right0)]
    # Further stripes sit downstream, past a gap that the leaving box
    # crosses only after the onset sample.
    cursor = right0 + slot.stride + 2 * box + 4
    for _ in range(slot.stripes - 1):
        w = rng.randint(3, 8)
        stripes.append((cursor, cursor + w))
        cursor += w + rng.randint(3, 8)
    reach = right0 + slot.steps * FAMILY_MAX_SPEED[slot.family] + 8
    if max(cursor, reach) > slot.cells:
        raise ValueError(f"probe slot {index}: {slot.cells} cells cannot hold the layout")
    box_hi = right0 - onset_strides * slot.stride
    center = x_min + (box_hi - box / 2) * dx
    return {
        "name": variant_name("probe_sweep", index, k),
        "kind": "conservation-probe",
        "system": {"a": fam["a"], "n1": fam["n1"], "dd": fam["dd"]},
        "region": {"stripes": [[x_min + a * dx, x_min + b * dx] for a, b in stripes]},
        "domain": {"x_min": x_min, "x_max": x_min + slot.cells * dx, "n_cells": slot.cells},
        "time": {"t_final": slot.steps * dx, "stride": slot.stride},
        "initial_data": {
            "basis": "characteristic",
            "bumps": [
                {
                    "kind": "box",
                    "component": 0,
                    "center": center,
                    "width": box * dx,
                    "amplitude": round(rng.uniform(0.5, 2.0), 6),
                }
            ],
        },
    }


def reference_variant(index: int, k: int) -> dict:
    """Variant ``k`` of fullspace slot ``index``: a damped wave with
    jittered damping strength and gaussian data resolved by 4-6 cells."""
    slot = REFERENCE_SLOTS[index]
    rng = _rng("reference", index, k)
    half = slot.cells * slot.dx / 2
    n_steps = round(slot.t_final / slot.dx)
    return {
        "name": variant_name("reference", index, k),
        "kind": "fullspace",
        "system": {
            "a": [[0.0, 1.0], [1.0, 0.0]],
            "n1": 1,
            "dd": [[round(rng.uniform(0.8, 1.25), 6)]],
        },
        "region": {"stripes": [[-1.0, 1.0]]},
        "domain": {"x_min": -half, "x_max": half, "n_cells": slot.cells},
        "time": {"t_final": slot.t_final, "stride": n_steps // (slot.samples - 1)},
        "initial_data": {
            "basis": "physical",
            "bumps": [
                {
                    "kind": "gaussian",
                    "component": rng.randint(0, 1),
                    "center": round(rng.uniform(-0.25, 0.25) * half, 6),
                    "width": round(rng.uniform(4.0, 6.0) * slot.dx, 6),
                    "amplitude": round(rng.uniform(0.5, 2.0), 6),
                }
            ],
        },
    }


GENERATORS = {
    "reference": (REFERENCE_SLOTS, reference_variant),
    "probe_sweep": (PROBE_SLOTS, probe_variant),
}
SHIPPED = {
    "envelope": ENVELOPE_SHIPPED,
    "reference": REFERENCE_SHIPPED,
    "probe_sweep": PROBE_SHIPPED,
}
# Non-shipped inputs that every seed runs.
FIXED = {"reference": {"reference/long_horizon": LONG_HORIZON}}


def pool(workload: str) -> dict[str, dict]:
    """Every non-shipped input the workload can ever run, keyed by input id."""
    out = dict(FIXED.get(workload, {}))
    slots, make = GENERATORS.get(workload, ((), None))
    for i in range(len(slots)):
        for k in range(POOL_SIZE):
            out[f"{workload}/{variant_name(workload, i, k)}"] = make(i, k)
    return out


def choose(workload: str, seed: int) -> list[str]:
    """Input ids of the non-shipped inputs the seed selects: the fixed ones
    and one pool variant per slot."""
    slots, _ = GENERATORS.get(workload, ((), None))
    rng = _rng("choose", workload, seed)
    chosen = [variant_name(workload, i, rng.randrange(POOL_SIZE)) for i in range(len(slots))]
    return [*FIXED.get(workload, {}), *(f"{workload}/{name}" for name in chosen)]


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def write_inputs(root: Path, workload: str, seed: int, out_dir: Path) -> list[tuple[str, Path]]:
    """Materialise the workload's inputs; shipped ones are used in place.

    Returns ``(input_id, path)`` pairs in run order.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    inputs = [(f"shipped/{name}", root / "scenarios" / f"{name}.json") for name in SHIPPED[workload]]
    docs = pool(workload)
    out_dir.mkdir(parents=True, exist_ok=True)
    for input_id in choose(workload, seed):
        path = out_dir / (input_id.replace("/", "__") + ".json")
        path.write_bytes(encode(docs[input_id]))
        inputs.append((input_id, path))
    return inputs
