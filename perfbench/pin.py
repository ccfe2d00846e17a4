"""Record the structural outputs the benchmark checks, for every input set.

    PYTHONPATH=src python3 perfbench/pin.py [WORKLOAD ...]

Run from the root of a checkout. For each workload (default: all) and each of
the gen.BANK input sets, this runs every operation once and stores its
structure (sequence lengths, node and edge sets, clique members, best family)
in perfbench/pinned.json. Pin again only when a change is meant to alter
those outputs, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def pin(soundnet, workload: str, index: int) -> dict:
    work = HERE / ".work" / f"pin-{workload}-{index}"
    try:
        run.prepare_inputs(workload, index, work)
        structures = {}
        for op in worker.workload_ops(soundnet, workload, work):
            op.prepare()
            _seconds, result = op.run()
            structures[op.label] = op.outputs(result)[1]
        return structures
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list) -> int:
    soundnet = worker.load_soundnet()
    pinned = json.loads(worker.PINNED.read_text(encoding="utf-8")) if worker.PINNED.exists() else {}
    for workload in argv or run.WORKLOADS:
        pinned[workload] = {str(i): pin(soundnet, workload, i) for i in range(gen.BANK)}
        print(f"pinned {workload}: {gen.BANK} input sets", flush=True)
        worker.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
