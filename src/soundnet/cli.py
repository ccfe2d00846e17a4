"""Command-line pipeline: analyze single files, sweep corpora, self-test.

Exit codes are stable API: 0 success, 1 selftest failure, 2 usage error (a bad
flag, setting or --config file, or an --out that cannot be a directory),
decode failure or a full-mode transform above spectral.MAX_FULL_FFT, 3 empty
(or too short) frequency sequence, 4 a corpus directory that cannot be listed
or holds no analyzable file.
All reports are pure functions of (input bytes, config): keys are sorted and
nothing time- or host-dependent is written, so re-runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import corpus as corpus_mod
from . import distfit, network, selftest, spectral, svg_report
from .audio_io import decode_wav
from .errors import (
    AllFitsFailed,
    CorruptHeader,
    DegenerateData,
    EmptyAudio,
    NonFiniteSamples,
    SoundnetError,
    TransformTooLarge,
    UnsupportedFormat,
)

ENV_OUT = "SOUNDNET_OUT"

# RunConfig annotation -> accepted value types; a whole number is a valid float
# (RunConfig stores it as one), and the last type parses the field's command-line flag
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}
# RunConfig fields with a closed set of values
_CHOICES = {"mode": ("stft", "full"), "alignment": (corpus_mod.ALIGN_UNION, corpus_mod.ALIGN_INTERSECTION)}


@dataclass(frozen=True)
class RunConfig:
    """The analysis settings, which every report echoes. Each field is checked
    when the config is made: a wrong type, an unknown choice or a value that
    PeakParams or PitchGrid rejects raises ValueError."""

    mode: str = "stft"
    a4_hz: float = network.PitchGrid.a4_hz
    frame_size: int = spectral.PeakParams.frame_size
    hop: int = spectral.PeakParams.hop
    top_k: int = spectral.PeakParams.top_k
    rel_threshold: float = spectral.PeakParams.rel_threshold
    floor_db: float = spectral.PeakParams.floor_db
    alignment: str = corpus_mod.ALIGN_UNION
    out: str = "."

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.name in _CHOICES and value not in _CHOICES[f.name]:
                raise ValueError(f"unknown {f.name} {value!r}")
            # a whole number for a float field, as a JSON config file gives it, is
            # stored as that float so reports echo it as the flag does
            if f.type == "float" and type(value) is int:
                try:
                    object.__setattr__(self, f.name, float(value))
                except OverflowError:
                    raise ValueError(f"{f.name} {value} is out of the float range") from None
        self.peak_params()
        self.grid()

    def peak_params(self) -> spectral.PeakParams:
        return spectral.PeakParams(
            frame_size=self.frame_size,
            hop=self.hop,
            top_k=self.top_k,
            rel_threshold=self.rel_threshold,
            floor_db=self.floor_db,
        )

    def grid(self) -> network.PitchGrid:
        return network.PitchGrid(a4_hz=self.a4_hz)


def _utf8(text: str) -> str:
    """A path-derived string as valid UTF-8: each byte of the name that is not
    UTF-8 (held by Python as a surrogate escape) is written as \\xNN."""
    return os.fsencode(text).decode("utf-8", "backslashreplace")


def _echo(config: RunConfig) -> dict:
    """The config as every report echoes it."""
    return {**asdict(config), "out": _utf8(config.out)}


def _dump_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=1)
    path.write_text(text + "\n", encoding="utf-8")


def analyze_file(path, config: RunConfig):
    """Run the full single-piece pipeline; returns (report_dict, fit_report, net, seq).

    Raises the underlying decode errors, and InsufficientData / EmptyNetwork
    when the extracted sequence is too thin to analyze. A degenerate sequence
    (every component identical, e.g. a pure tone) still yields the network
    report; fit_report is then None and the fit section carries the reason.
    """
    audio = decode_wav(path)
    params = config.peak_params()
    if config.mode == "full":
        spectrum = spectral.dft(audio.samples, audio.sample_rate_hz)
        seq = spectral.extract_sequence_full(spectrum, params)
    else:
        seq = spectral.extract_sequence_stft(audio, params)

    try:
        fit_report = distfit.best_fit(seq.values_hz)  # raises InsufficientData on thin input
        fit_dict = distfit.report_to_dict(fit_report)
    except (DegenerateData, AllFitsFailed) as exc:
        fit_report = None
        fit_dict = {"best": None, "n": len(seq), "families": {}, "error": str(exc)}
    net = network.build_network(seq, config.grid())

    report = {
        "config": _echo(config),
        "source_path": _utf8(str(path)),
        "sample_rate_hz": audio.sample_rate_hz,
        "n_samples": len(audio),
        "duration_s": audio.duration_s,
        "mode": config.mode,
        "sequence_length": len(seq),
        "fit": fit_dict,
        "network": network.network_to_dict(net),
        "clique_octaves": net.clique_octaves,
    }
    return report, fit_report, net, seq


def _write_piece_artifacts(out_dir: Path, piece: str, report, fit_report, net, seq) -> None:
    _dump_json(out_dir / f"{piece}.json", {"piece_id": piece, **report})
    if fit_report is not None:  # the fit figure needs a converged best fit
        (out_dir / f"{piece}.fit.svg").write_bytes(svg_report.render_fit_svg(seq.values_hz, fit_report))
    (out_dir / f"{piece}.network.svg").write_bytes(svg_report.render_network_svg(net))


def _make_out_dir(config: RunConfig) -> Path | None:
    """The output directory, created if missing; None, after an error line, if
    --out names a file or the directory cannot be made. A --config file's out
    can hold what no file name can (a NUL, a surrogate that stands for no
    byte), which raises ValueError."""
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: --out {config.out}: {exc}", file=sys.stderr)
        return None
    return out_dir


def cmd_analyze(path: str, config: RunConfig) -> int:
    out_dir = _make_out_dir(config)
    if out_dir is None:
        return 2
    piece = _utf8(Path(path).stem)
    try:
        report, fit_report, net, seq = analyze_file(path, config)
    except (SoundnetError, OSError) as exc:
        return _analysis_exit(exc, path)
    _write_piece_artifacts(out_dir, piece, report, fit_report, net, seq)
    return 0


def _analysis_exit(exc, path) -> int:
    print(f"error: {path}: {exc}", file=sys.stderr)
    if isinstance(exc, (UnsupportedFormat, CorruptHeader, EmptyAudio, NonFiniteSamples, TransformTooLarge, OSError)):
        return 2
    return 3  # InsufficientData / EmptyNetwork: nothing usable was extracted


# the stem of the corpus's own artifacts, corpus.json and corpus.*; no piece takes it
CORPUS_STEM = "corpus"


def _piece_ids(paths) -> dict:
    """file path -> unique piece id: the stem as _utf8 writes it, or on a
    collision that stem with the least suffix -k (k >= 2) that is neither given
    yet nor another file's stem. CORPUS_STEM counts as given, so a piece
    named so cannot overwrite the corpus's report."""
    stems = {_utf8(path.stem) for path in paths}
    given = {CORPUS_STEM}
    ids = {}
    for path in paths:
        stem = _utf8(path.stem)
        piece, k = stem, 1
        while piece in given or (k > 1 and piece in stems):
            k += 1
            piece = f"{stem}-{k}"
        given.add(piece)
        ids[path] = piece
    return ids


def _corpus_piece(path, piece: str, config: RunConfig, out_dir: Path):
    """Analyze one corpus piece and write its artifacts.

    Returns (fit_report, net), or the reason the piece is skipped: not a
    regular file (a FIFO, whose read would block, a directory, a socket or a
    broken link; never opened), an analysis error, or a degenerate fit (no
    artifacts are written for it).
    """
    if not path.is_file():
        return "not a regular file"
    try:
        report, fit_report, net, seq = analyze_file(path, config)
    except (SoundnetError, OSError) as exc:
        return _utf8(str(exc))  # a decode error may quote the path
    if fit_report is None:
        return report["fit"]["error"]
    _write_piece_artifacts(out_dir, piece, report, fit_report, net, seq)
    return fit_report, net


def cmd_corpus(directory: str, config: RunConfig, jobs: int | None = None) -> int:
    try:
        paths = sorted(p for p in Path(directory).iterdir() if p.suffix.lower() == ".wav")
    except OSError as exc:
        print(f"error: {directory}: {exc}", file=sys.stderr)
        return 4
    if not paths:
        print(f"error: no .wav files in {directory}", file=sys.stderr)
        return 4
    out_dir = _make_out_dir(config)
    if out_dir is None:
        return 2
    ids = _piece_ids(paths)

    analyses = {}
    skipped = {}
    with ThreadPoolExecutor(max_workers=jobs or os.cpu_count() or 1) as pool:
        futures = {piece: pool.submit(_corpus_piece, path, piece, config, out_dir) for path, piece in ids.items()}
        for piece in sorted(futures):
            outcome = futures[piece].result()
            if isinstance(outcome, str):
                skipped[piece] = outcome
                print(f"warning: skipping {piece}: {outcome}", file=sys.stderr)
            else:
                analyses[piece] = outcome

    if not analyses:
        print("error: no file in the corpus could be analyzed", file=sys.stderr)
        return 4

    report = corpus_mod.corpus_report(analyses, alignment=config.alignment)
    (out_dir / f"{CORPUS_STEM}.summary.csv").write_text(corpus_mod.summary_csv(report), encoding="utf-8")
    if report.corr_matrix is not None:
        (out_dir / f"{CORPUS_STEM}.matrix.csv").write_text(corpus_mod.matrix_csv(report), encoding="utf-8")
        (out_dir / f"{CORPUS_STEM}.heatmap.svg").write_bytes(svg_report.render_heatmap_svg(report))
    (out_dir / f"{CORPUS_STEM}.cliques.svg").write_bytes(svg_report.render_clique_bars_svg(report))
    collisions = {_utf8(str(path)): piece for path, piece in ids.items() if piece != _utf8(path.stem)}
    _dump_json(
        out_dir / f"{CORPUS_STEM}.json",
        {
            "config": _echo(config),
            "pieces": list(report.piece_ids),
            "skipped": skipped,
            "piece_id_collisions": collisions,
            "comparison": corpus_mod.comparison_to_dict(report),
        },
    )
    return 0


def cmd_selftest(seed: int) -> int:
    results = selftest.run_selftest(seed)
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        failures += not check.passed
        print(f"{status} {check.name}: {check.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed (seed {seed})")
    return 1 if failures else 0


def _pool_size(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


# RunConfig fields whose flag is not --<field-name> or that have help text: (flag, help)
_FLAGS = {
    "a4_hz": ("--a4", "A4 reference in Hz"),
    "out": ("--out", f"output directory (default ${ENV_OUT} or {RunConfig.out})"),
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="soundnet", description="Analyze WAV recordings as networks of pitch bins.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON file with default flag values (flags override)")
        for f in fields(RunConfig):
            flag, help_text = _FLAGS.get(f.name, ("--" + f.name.replace("_", "-"), None))
            parse = _FIELD_TYPES[f.type][-1]
            default = os.environ.get(ENV_OUT, f.default) if f.name == "out" else f.default
            p.add_argument(flag, dest=f.name, type=parse, choices=_CHOICES.get(f.name), default=default, help=help_text)

    p_analyze = sub.add_parser("analyze", help="analyze one WAV file")
    p_analyze.add_argument("file")
    add_config_flags(p_analyze)

    p_corpus = sub.add_parser("corpus", help="analyze every WAV in a directory")
    p_corpus.add_argument("dir")
    add_config_flags(p_corpus)
    p_corpus.add_argument("--jobs", type=_pool_size, default=None, help="worker pool size (default: logical CPUs)")

    p_selftest = sub.add_parser("selftest", help="run the built-in oracle checks")
    p_selftest.add_argument("--seed", type=int, default=42)
    return parser, {"analyze": p_analyze, "corpus": p_corpus}


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _load_config(parser, path: str) -> dict:
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or UTF-8
        parser.error(f"--config {path}: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"--config {path}: expected a JSON object, got {type(loaded).__name__}")
    unknown = set(loaded) - set(_CONFIG_KEYS)
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    return loaded


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args.seed)
    if args.config is not None:  # file values become defaults, so explicit flags still win
        subparsers[args.command].set_defaults(**_load_config(parser, args.config))
        args = parser.parse_args(argv)
    try:
        config = RunConfig(**{key: getattr(args, key) for key in _CONFIG_KEYS})
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "analyze":
        return cmd_analyze(args.file, config)
    return cmd_corpus(args.dir, config, jobs=args.jobs)


if __name__ == "__main__":
    sys.exit(main())
