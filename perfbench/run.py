"""soundnet benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload corpus_pool --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated from --seed before
anything is timed. --trace 0 reports the end-to-end metrics listed in
BENCHMARK.json, measured with tracing off; --trace 1 reports the per-layer
metrics from a traced run. Every operation's outputs are checked; the last
line of standard output is {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402

WORKLOADS = ("corpus_pool", "full_broadband", "network_dense")
SETUP_REPS = 3           # fresh interpreters timed for setup_s, before and again after the run
CHILD_TIMEOUT_S = 150.0
HOP, TOP_K = 2048, 5     # default STFT hop and peaks per frame: audio time per network component


def prepare_inputs(workload: str, index: int, work: Path) -> dict:
    """Write the workload's inputs; returns {operation label: audio seconds it analyzes}."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gen.write_setup_corpus(work / "setup")
    (work / "inputs.json").write_text(json.dumps({"index": index}), encoding="utf-8")
    if workload == "corpus_pool":
        return {"corpus": gen.write_corpus(work / "corpus", index)}
    if workload == "full_broadband":
        return gen.write_noise(work / "noise", index)
    seqs = gen.network_midis(index)
    np.savez(work / "network.npz", **{f"seq{j}": m for j, m in enumerate(seqs)})
    # a network_dense sequence stands for the audio whose default STFT yields as many components
    return {f"seq{j}": m.size / TOP_K * HOP / gen.RATE for j, m in enumerate(seqs)}


def worker(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_walls(root: Path, work: Path) -> list:
    """Wall times of fresh interpreters that import soundnet and make the first calls."""
    walls = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        worker(root, "setup", str(work))
        walls.append(time.perf_counter() - started)
    return walls


def end_to_end(result: dict, audio_s: dict, setup_walls: list) -> dict:
    ops = [r for r in result["records"] if r["kind"] == "workload" and r["seconds"] is not None]
    return {
        "op_s_p50": statistics.median(r["seconds"] for r in ops),
        "audio_x_rt": statistics.median(audio_s[r["op"].split(":")[1]] / r["seconds"] for r in ops),
        "peak_rss_mb": result["maxrss_kib"] / 1024.0,
        "setup_s": statistics.median(setup_walls),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "soundnet" / "__init__.py").is_file():
        print(f"error: {root} holds no soundnet source tree (src/soundnet)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    try:
        audio_s = prepare_inputs(args.workload, gen.input_set(args.seed), work)
        # set-up is timed on both sides of the run, so its median spans the run's window
        walls = [] if args.trace else setup_walls(root, work)
        proc = worker(root, "run", args.workload, str(work), str(args.seconds), str(args.trace))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.trace:
            values = result["layers"]
        else:
            values = end_to_end(result, audio_s, walls + setup_walls(root, work))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    attempted = len(records)
    failed = [r for r in records if r["error"]]
    for r in failed:
        print(f"FAILED {r['op']}: {r['error']}")
    timed = sum(1 for r in records if r["kind"] == "workload" and not r["traced"] and r["seconds"] is not None)
    print(f"workload {args.workload}, seed {args.seed} (input set {gen.input_set(args.seed)}), "
          f"{result['passes']} passes, {timed} untraced operations timed")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"fail_ratio = {len(failed) / attempted:.6g} ratio ({len(failed)} of {attempted} operations)")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
