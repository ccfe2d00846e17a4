"""One benchmark process: runs one workload against the checkout's soundnet.

    python3 perfbench/worker.py setup WORK
    python3 perfbench/worker.py run WORKLOAD WORK SECONDS TRACE

`setup` makes the set-up calls only; run.py times whole fresh processes of it.
`run` makes the set-up calls untimed, then runs passes over the workload's
operations until SECONDS have gone, checking every operation's outputs. It
prints one JSON line: each operation's wall time and verdict, the process's
peak RSS and, with TRACE=1, the per-layer figures of the traced passes.

Run from the root of a checkout with PYTHONPATH=src; run.py does both.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import tracing  # noqa: E402

PINNED = Path(__file__).resolve().parent / "pinned.json"
CORPUS_FILES = ("corpus.cliques.svg", "corpus.heatmap.svg", "corpus.json", "corpus.matrix.csv", "corpus.summary.csv")
LAYERS = ("audio_io", "spectral", "distfit", "network", "svg_report", "corpus", "cli")
SVG_RENDERERS = (
    "svg_report.render_fit_svg",
    "svg_report.render_network_svg",
    "svg_report.render_heatmap_svg",
    "svg_report.render_clique_bars_svg",
)


def load_soundnet():
    import soundnet
    import soundnet.cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(soundnet.__file__).resolve().parents:
        raise SystemExit(f"soundnet imported from {soundnet.__file__}, not from {src}")
    return soundnet


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- output structure ---------------------------------------------------------

def piece_structure(report: dict) -> dict:
    """The structural outputs of one piece report: nothing a float fix may move."""
    net = report["network"]
    midis = [node["midi"] for node in net["nodes"]]
    edges = sorted(sorted((midis[a], midis[b])) for a, b in net["edges"])
    return {
        "sequence_length": report["sequence_length"],
        "nodes": midis,
        "edges": len(edges),
        "edges_sha256": sha256(json.dumps(edges).encode()),
        "clique": net["largest_clique"],
        "best": report["fit"]["best"],
    }


def clique_is_complete(report: dict) -> bool:
    net = report["network"]
    index = {node["notes"][0]: i for i, node in enumerate(net["nodes"])}
    members = [index[note] for note in net["largest_clique"]]
    edges = {tuple(e) for e in net["edges"]}
    return all((a, b) in edges for i, a in enumerate(members) for b in members[i + 1 :])


def cli_structure(out: Path) -> dict:
    structure = {}
    for path in sorted(out.glob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        if path.name == "corpus.json":
            structure["corpus"] = {"pieces": report["pieces"], "skipped": report["skipped"]}
            continue
        if not clique_is_complete(report):
            raise ValueError(f"{path.name}: largest_clique is not a clique of the reported edges")
        structure[path.stem] = piece_structure(report)
    return structure


def network_structure(net) -> dict:
    edges = sorted(sorted(e) for e in net.edges)
    return {
        "nodes": len(net.nodes),
        "edges": len(edges),
        "edges_sha256": sha256(json.dumps(edges).encode()),
        "clique": [b.midi_lower for b in net.largest_clique],
    }


def expected_graph(midis: np.ndarray):
    """Node and edge sets of a bin sequence, straight from the definition."""
    pairs = {(min(a, b), max(a, b)) for a, b in zip(midis[:-1].tolist(), midis[1:].tolist()) if a != b}
    return sorted(set(midis.tolist())), pairs


# --- operations ---------------------------------------------------------------

class CliOp:
    """One `soundnet corpus|analyze` command writing into a fixed output directory."""

    root = "cli.main"

    def __init__(self, soundnet, label: str, argv: list, out: Path, expected: list):
        self.soundnet, self.label, self.argv, self.out, self.expected = soundnet, label, argv, out, expected

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        started = time.perf_counter()
        rc = self.soundnet.cli.main(self.argv + ["--out", str(self.out)])
        return time.perf_counter() - started, rc

    def outputs(self, rc):
        """(artifact digests, structure) of a finished run; raises on a failed one."""
        if rc != 0:
            raise ValueError(f"exit code {rc}")
        names = sorted(p.name for p in self.out.iterdir())
        if names != self.expected:
            raise ValueError(f"artifacts {names} != expected {self.expected}")
        digests = {name: sha256((self.out / name).read_bytes()) for name in names}
        return digests, cli_structure(self.out)


class NetworkOp:
    """One build_network call on a fixed frequency sequence."""

    root = "bench.call"

    def __init__(self, soundnet, label: str, midis: np.ndarray):
        self.soundnet, self.label, self.midis = soundnet, label, midis
        self.values_hz = gen.bin_centre_hz(midis)
        self.grid = soundnet.network.PitchGrid()

    def prepare(self):
        pass

    def run(self):
        started = time.perf_counter()
        net = self.soundnet.network.build_network(self.values_hz, self.grid)
        return time.perf_counter() - started, net

    def outputs(self, net):
        nodes, edges = expected_graph(self.midis)
        if [b.midi_lower for b in net.nodes] != nodes or set(net.edges) != edges:
            raise ValueError("node or edge set differs from the input sequence's")
        members = [b.midi_lower for b in net.largest_clique]
        if any((a, b) not in edges for i, a in enumerate(members) for b in members[i + 1 :]):
            raise ValueError("largest_clique is not a clique")
        report = json.dumps(self.soundnet.network.network_to_dict(net), sort_keys=True).encode()
        return {"network": sha256(report)}, network_structure(net)


def artifact_names(wavs) -> list:
    return sorted(f"{Path(w).stem}{suffix}" for w in wavs for suffix in (".json", ".fit.svg", ".network.svg"))


def workload_ops(soundnet, workload: str, work: Path) -> list:
    """The operations of one pass over the workload, in a fixed order."""
    out = work / "out"
    if workload == "corpus_pool":
        wavs = sorted((work / "corpus").glob("*.wav"))
        expected = sorted(artifact_names(wavs) + list(CORPUS_FILES))
        return [CliOp(soundnet, "corpus", ["corpus", str(work / "corpus")], out / "corpus", expected)]
    if workload == "full_broadband":
        return [
            CliOp(soundnet, wav.stem, ["analyze", str(wav), "--mode", "full"], out / wav.stem, artifact_names([wav]))
            for wav in sorted((work / "noise").glob("*.wav"))
        ]
    if workload == "network_dense":
        with np.load(work / "network.npz") as data:
            seqs = [data[key] for key in sorted(data.files, key=lambda k: int(k[3:]))]
        return [NetworkOp(soundnet, f"seq{j}", m) for j, m in enumerate(seqs)]
    raise SystemExit(f"unknown workload {workload!r}")


def setup_ops(soundnet, work: Path) -> list:
    """The first calls every fresh process pays: a two-piece corpus and a full-mode analyze."""
    setup = work / "setup"
    wavs = sorted(setup.glob("*.wav"))
    return [
        CliOp(soundnet, "setup-corpus", ["corpus", str(setup)], work / "setup_out" / "corpus",
              sorted(artifact_names(wavs) + list(CORPUS_FILES))),
        CliOp(soundnet, "setup-full", ["analyze", str(wavs[0]), "--mode", "full"], work / "setup_out" / "full",
              artifact_names(wavs[:1])),
    ]


class Checker:
    """Verdict per operation: exit code and artifact set, structure against the
    pinned values for this input set, and byte identity across repetitions."""

    def __init__(self, pinned: dict | None):
        self.pinned = pinned
        self.reference: dict = {}

    def verdict(self, op, result) -> str | None:
        try:
            digests, structure = op.outputs(result)
        except (ValueError, KeyError, OSError) as exc:
            return f"{op.label}: {exc}"
        if self.pinned is not None and structure != self.pinned.get(op.label):
            return f"{op.label}: structural outputs differ from the pinned values"
        if self.reference.setdefault(op.label, digests) != digests:
            return f"{op.label}: artifacts differ from the first repetition"
        return None


def execute(op, op_id: str, checker: Checker, tracer=None) -> tuple:
    """(wall seconds or None, error or None) of one operation, traced when a tracer is given."""
    op.prepare()
    try:
        if tracer is None:
            seconds, result = op.run()
        else:
            with tracer, tracer.operation(op_id, op.root):
                seconds, result = op.run()
    except Exception as exc:  # anything escaping the program is a failed operation
        return None, f"{op.label}: {type(exc).__name__}: {exc}"
    return seconds, checker.verdict(op, result)


# --- per-layer figures --------------------------------------------------------

def layer_figures(spans: list, workload_ops: set, setup_ops: set) -> dict:
    """Per-op figures of the traced workload operations.

    A figure the workload's operations give no span for is taken from the
    traced set-up calls instead, so every figure is a measured number; on
    such a workload it should stay flat.
    """
    selfs = tracing.self_times(spans)
    roots = {s.op: s for s in spans if s.parent is None}

    def pick(keep):
        for ops in (workload_ops, setup_ops):
            chosen = [s for s in spans if s.op in ops and keep(s)]
            if chosen:
                return chosen, len(ops)
        return [], 1

    def named(*names):
        return lambda s: s.name in names

    def per_op(keep, value=lambda s: s.duration):
        chosen, n_ops = pick(keep)
        return sum(value(s) for s in chosen) / n_ops

    def mean(keep, attr):
        chosen, _ = pick(keep)
        return statistics.fmean(s.attrs[attr] for s in chosen) if chosen else 0.0

    stft, dft, full = named("spectral.extract_sequence_stft"), named("spectral.dft"), named("spectral.extract_sequence_full")
    decode, fit, build = named("audio_io.decode_wav"), named("distfit.best_fit"), named("network.build_network")
    fig = {
        "audio_io.decode_s": per_op(decode),
        "audio_io.bytes_in": per_op(decode, lambda s: s.attrs["bytes_in"]),
        "spectral.stft_s": per_op(stft),
        "spectral.dft_s": per_op(dft),
        "spectral.peaks_full_s": per_op(full),
        "spectral.frames": per_op(stft, lambda s: s.attrs["frames"]),
        "spectral.components": per_op(lambda s: stft(s) or full(s), lambda s: s.attrs["components"]),
        "spectral.fft_flops_computed": per_op(lambda s: stft(s) or dft(s), lambda s: s.attrs["flops"]),
        "distfit.best_fit_s": per_op(fit),
        "distfit.samples": per_op(fit, lambda s: s.attrs["samples"]),
        "distfit.unconverged": mean(fit, "unconverged"),
        "network.build_s": per_op(build),
        "svg_report.render_s": per_op(named(*SVG_RENDERERS)),
        "svg_report.bytes_out": per_op(named(*SVG_RENDERERS), lambda s: s.attrs["bytes_out"]),
        "corpus.report_s": per_op(named("corpus.corpus_report")),
        "corpus.pieces": mean(named("corpus.corpus_report"), "pieces"),
    }
    fig["audio_io.decode_mb_per_s"] = fig["audio_io.bytes_in"] / fig["audio_io.decode_s"] / 2**20
    for key in ("nodes", "edges", "density", "clique_size"):
        fig[f"network.{key}"] = mean(build, key)

    reports, n_ops = pick(named("corpus.corpus_report"))
    analyzed = sum(1 for s in spans if s.name == "cli.analyze_file" and s.op in {r.op for r in reports})
    fig["corpus.skipped"] = (analyzed - sum(s.attrs["pieces"] for s in reports)) / n_ops
    files, _ = pick(named("cli.analyze_file"))
    fig["cli.analyze_file_s"] = statistics.median(s.duration for s in files) if files else 0.0
    # pieces analyzed on pool threads: queue wait from submission, and how busy the workers were
    pooled, _ = pick(lambda s: s.name == "cli.analyze_file" and s.thread != roots[s.op].thread)
    pool_ops = {s.op for s in pooled}
    pool_phase = sum(max(s.end for s in pooled if s.op == op) - roots[op].start for op in pool_ops)
    fig["cli.pool_wait_s"] = sum(s.start - roots[s.op].start for s in pooled) / max(1, len(pool_ops))
    fig["cli.pool_busy_ratio"] = sum(s.duration for s in pooled) / ((os.cpu_count() or 1) * pool_phase) if pooled else 0.0

    for layer in LAYERS:
        fig[f"{layer}.self_s"] = per_op(lambda s, layer=layer: s.layer == layer, lambda s: selfs[s.sid])
    # share of the busy time of every thread the workload's operations ran on
    busy = {s.sid: selfs[s.sid] for s in spans if s.op in workload_ops}
    fig["spectral.share"] = sum(busy[s.sid] for s in spans if s.sid in busy and s.layer == "spectral") / sum(busy.values())
    return fig


def breakdowns(soundnet, spans: list, workload_ops: set, setup_ops: set, first_op: str) -> dict:
    """Traced-run-only timings: each family's fit_mle and ks_test on one sequence,
    and largest_clique on the networks one traced operation built."""
    distfit, network, errors = soundnet.distfit, soundnet.network, soundnet.errors
    fits = [s for s in spans if s.name == "distfit.best_fit" and s.op in workload_ops]
    fits = fits or [s for s in spans if s.name == "distfit.best_fit" and s.op in setup_ops]
    # the largest sequence, ties broken by content, so the choice is the same in every run
    values = max((np.asarray(s.attrs["values"]) for s in fits), key=lambda v: (v.size, v.tobytes()))
    fig = {}
    ks_total = 0.0
    for family in distfit.ALL_FAMILIES:
        started = time.perf_counter()
        try:
            fit = distfit.fit_mle(family, values)
        except errors.NonConvergence as exc:
            fit = exc.fit
        except (ValueError, FloatingPointError, OverflowError, ZeroDivisionError):
            fit = None
        fig[f"distfit.fit_s.{family.value}"] = time.perf_counter() - started
        if fit is not None:
            started = time.perf_counter()
            distfit.ks_test(fit, values)
            ks_total += time.perf_counter() - started
    fig["distfit.ks_s"] = ks_total

    nets = [s.attrs["net"] for s in spans if s.name == "network.build_network" and s.op == first_op]
    started = time.perf_counter()
    for net in nets:
        network.largest_clique(net)
    fig["network.clique_s"] = time.perf_counter() - started
    return fig


# --- process entry points -----------------------------------------------------

def cmd_setup(work: Path) -> int:
    soundnet = load_soundnet()
    checker = Checker(None)
    for op in setup_ops(soundnet, work):
        _seconds, error = execute(op, op.label, checker)
        if error:
            print(error, file=sys.stderr)
            return 1
    return 0


def cmd_run(workload: str, work: Path, seconds: float, trace: bool) -> int:
    soundnet = load_soundnet()
    index = json.loads((work / "inputs.json").read_text(encoding="utf-8"))["index"]
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[workload].get(str(index))
    if pinned is None:
        raise SystemExit(f"no pinned outputs for {workload} input set {index}")
    checker, setup_checker = Checker(pinned), Checker(None)
    tracer = tracing.Tracer(soundnet) if trace else None
    records = []

    def record(op, op_id, kind, traced, check=checker):
        secs, error = execute(op, op_id, check, tracer if traced else None)
        records.append({"op": op_id, "kind": kind, "traced": traced, "seconds": secs, "error": error})

    # the set-up calls are untimed here (run.py times them in fresh processes)
    for op in setup_ops(soundnet, work):
        record(op, f"setup:{op.label}", "setup", trace, setup_checker)

    ops = workload_ops(soundnet, workload, work)
    started = time.perf_counter()

    def out_of_time():
        return time.perf_counter() - started >= seconds

    passes = 0
    while not (passes >= (2 if trace else 1) and out_of_time()):
        traced = trace and passes % 2 == 1  # traced runs alternate untraced and traced passes
        for op in ops:
            record(op, f"{passes}:{op.label}", "workload", traced)
            # untraced runs stop at the first operation past the deadline, so the
            # measured window is --seconds long whatever a pass takes
            if passes and not trace and out_of_time():
                break
        if passes == 0:  # the peak of one pass, so it does not grow with how many passes fit
            maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes += 1

    result = {"records": records, "passes": passes, "maxrss_kib": maxrss_kib}
    if trace:
        timed = [r for r in records if r["kind"] == "workload" and r["seconds"] is not None]
        untraced = statistics.median(r["seconds"] for r in timed if not r["traced"])
        traced_p50 = statistics.median(r["seconds"] for r in timed if r["traced"])
        speedup = 0.0  # no pool in this workload
        if workload == "corpus_pool":
            (op,) = ops
            baseline = CliOp(soundnet, op.label, op.argv + ["--jobs", "1"], op.out, op.expected)
            record(baseline, "jobs1:corpus", "baseline", False)
            if records[-1]["seconds"] is not None:
                speedup = records[-1]["seconds"] / untraced
        traced_ids = [r["op"] for r in records if r["traced"] and r["kind"] == "workload"]
        setup_ids = {r["op"] for r in records if r["kind"] == "setup"}
        layers = layer_figures(tracer.spans, set(traced_ids), setup_ids)
        layers.update(breakdowns(soundnet, tracer.spans, set(traced_ids), setup_ids, traced_ids[0]))
        layers["cli.pool_speedup"] = speedup
        layers["trace.overhead_s"] = traced_p50 - untraced
        result["layers"] = layers
    print(json.dumps(result))
    return 0


def main(argv: list) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        return cmd_setup(Path(argv[1]))
    if argv[:1] == ["run"] and len(argv) == 5:
        return cmd_run(argv[1], Path(argv[2]), float(argv[3]), argv[4] == "1")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
