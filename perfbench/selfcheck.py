"""Self-check of the benchmark itself.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Run from the root of a checkout. Checks that
  1. a corrupted, missing or structurally wrong artifact, a non-zero exit and
     an exception each count as a failed operation;
  2. every run.py invocation prints each BENCHMARK.json metric, by name with
     its unit, in the text lines and in the final JSON, plus fail_ratio, and
     reports no failed operation (a one-second run of each; a few minutes);
  3. run.py exits non-zero, printing no result, where only BENCHMARK.json and
     the benchmark's files exist.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

ROOT = Path.cwd()
WORK = HERE / ".work" / "selfcheck"


class CorruptingOp(worker.CliOp):
    """Runs the command, then damages its outputs the way `damage` says."""

    def __init__(self, base: worker.CliOp, damage):
        super().__init__(base.soundnet, base.label, base.argv, base.out, base.expected)
        self.damage = damage

    def run(self):
        seconds, rc = super().run()
        self.damage(self.out)
        return seconds, rc


class RaisingOp(worker.CliOp):
    def run(self):
        raise RuntimeError("injected failure")


def flip_byte(out: Path):
    path = out / "corpus.heatmap.svg"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def drop_file(out: Path):
    (out / "corpus.cliques.svg").unlink()


def wrong_clique(out: Path):
    path = next(p for p in sorted(out.glob("setup*.json")))
    report = json.loads(path.read_text(encoding="utf-8"))
    report["network"]["largest_clique"] = report["network"]["largest_clique"][:-1]
    path.write_text(json.dumps(report), encoding="utf-8")


def check_failures() -> list:
    soundnet = worker.load_soundnet()
    shutil.rmtree(WORK, ignore_errors=True)
    gen.write_setup_corpus(WORK / "setup")
    (WORK / "empty").mkdir()
    base = worker.setup_ops(soundnet, WORK)[0]
    base.prepare()
    _seconds, rc = base.run()
    checker = worker.Checker({base.label: base.outputs(rc)[1]})

    problems = []
    seconds, error = worker.execute(base, "clean", checker)
    if error or seconds is None:
        problems.append(f"a clean operation failed: {error}")
    cases = {
        "corrupted artifact": CorruptingOp(base, flip_byte),
        "missing artifact": CorruptingOp(base, drop_file),
        "wrong clique": CorruptingOp(base, wrong_clique),
        "non-zero exit": worker.CliOp(soundnet, base.label, ["corpus", str(WORK / "empty")], base.out, base.expected),
        "exception": RaisingOp(soundnet, base.label, base.argv, base.out, base.expected),
    }
    for name, op in cases.items():
        _seconds, error = worker.execute(op, name, checker)
        print(f"{name}: {'counted as failed' if error else 'NOT counted'} ({error})")
        if not error:
            problems.append(f"{name} was not counted as a failed operation")
    shutil.rmtree(WORK, ignore_errors=True)
    return problems


def check_printed_metrics() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv], cwd=ROOT,
                                  capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in expected}:
                problems.append(f"{label}: metric names {sorted(result['metrics'])}")
            for m in expected:
                got = result["metrics"].get(m["name"], {})
                printed = any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}") for ln in lines)
                if got.get("unit") != m["unit"] or not printed:
                    problems.append(f"{label}: {m['name']} not printed with unit {m['unit']}")
            if not any(ln.startswith("fail_ratio = ") for ln in lines):
                problems.append(f"{label}: fail_ratio not printed")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            print(f"{label}: {len(expected)} metrics printed, {result['failed']}/{result['attempted']} failed")
    return problems


def check_bare_directory() -> list:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    argv = ["--workload", "corpus_pool", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}, {len(proc.stdout)} bytes on stdout")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without a soundnet source tree"]
    return []


def main() -> int:
    problems = check_failures() + check_bare_directory() + check_printed_metrics()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck passed" if not problems else f"selfcheck failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
