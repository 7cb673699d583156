"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py

Runs every input any seed can select, once, and writes outcome, verdicts,
``norms.csv`` SHA-256 and sampled norms to ``reference.json.gz``.  The
file pins the outputs of the commit that introduced the benchmark; rerun
this only when a change to the outputs has been stated and accepted.
"""

from __future__ import annotations

import shutil
import sys

import gate
import inputs
from run import ROOT, WORK, execute


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from locdamp import harness

    shutil.rmtree(WORK, ignore_errors=True)
    entries: dict[str, dict] = {}
    try:
        for workload in inputs.WORKLOADS:
            todo = [(f"shipped/{n}", ROOT / "scenarios" / f"{n}.json") for n in inputs.SHIPPED[workload]]
            for input_id, doc in inputs.pool(workload).items():
                path = WORK / "inputs" / (input_id.replace("/", "__") + ".json")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(inputs.encode(doc))
                todo.append((input_id, path))
            for input_id, path in todo:
                out_dir = WORK / "out" / input_id.replace("/", "__")
                seconds, error = execute(harness, path, out_dir)
                if error is None:
                    entries[input_id] = gate.record_output(out_dir / "norms.csv", out_dir / "summary.json")
                else:
                    entries[input_id] = gate.record_error(error)
                print(f"{input_id:<44} {seconds:8.3f} s  {entries[input_id]['outcome']} "
                      f"{entries[input_id].get('verdicts', '')}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    gate.save_reference(entries)
    print(f"wrote {len(entries)} entries to {gate.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
