"""Span tracing around soundnet's public entry points, from outside the package.

The CLI looks these functions up on their modules at call time, so replacing
the module attribute routes every call through a timing wrapper without
touching the package. Spans are kept in memory; a pool thread with no open
span of its own is parented to the operation that submitted its work.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fft_flops(n: int) -> float:
    """Operation count of one radix-2 transform, 5 N log2 N (computed, not measured)."""
    return 5.0 * n * math.log2(n) if n > 1 else 0.0


def _attrs_decode(args, _kwargs, _result):
    return {"bytes_in": os.path.getsize(args[0])}


def _attrs_stft(args, _kwargs, result):
    size, hop = result.extraction_params.frame_size, result.extraction_params.hop
    frames = 1 + (max(len(args[0]), size) - size) // hop  # short input is padded to one frame
    return {"frames": frames, "components": len(result), "flops": frames * _fft_flops(size)}


def _attrs_dft(_args, _kwargs, result):
    return {"flops": _fft_flops(result.n_fft)}


def _attrs_sequence(_args, _kwargs, result):
    return {"components": len(result)}


def _attrs_best_fit(args, _kwargs, result):
    unconverged = len(result.failed) + sum(not ff.converged for ff in result.per_family.values())
    return {"samples": result.sample_n, "unconverged": unconverged, "values": args[0]}


def _attrs_network(_args, _kwargs, result):
    n = len(result.nodes)
    return {
        "nodes": n,
        "edges": len(result.edges),
        "density": 2.0 * len(result.edges) / (n * (n - 1)) if n > 1 else 0.0,
        "clique_size": len(result.largest_clique),
        "net": result,
    }


def _attrs_svg(_args, _kwargs, result):
    return {"bytes_out": len(result)}


def _attrs_corpus(_args, _kwargs, result):
    return {"pieces": len(result.summary_rows)}


def entry_points(soundnet):
    """(module, attribute, span name, attribute extractor) for every traced call."""
    cli, spectral, distfit = soundnet.cli, soundnet.spectral, soundnet.distfit
    network, svg_report, corpus = soundnet.network, soundnet.svg_report, soundnet.corpus
    return [
        (cli, "analyze_file", "cli.analyze_file", None),
        (cli, "decode_wav", "audio_io.decode_wav", _attrs_decode),
        (spectral, "extract_sequence_stft", "spectral.extract_sequence_stft", _attrs_stft),
        (spectral, "dft", "spectral.dft", _attrs_dft),
        (spectral, "extract_sequence_full", "spectral.extract_sequence_full", _attrs_sequence),
        (distfit, "best_fit", "distfit.best_fit", _attrs_best_fit),
        (network, "build_network", "network.build_network", _attrs_network),
        (svg_report, "render_fit_svg", "svg_report.render_fit_svg", _attrs_svg),
        (svg_report, "render_network_svg", "svg_report.render_network_svg", _attrs_svg),
        (svg_report, "render_heatmap_svg", "svg_report.render_heatmap_svg", _attrs_svg),
        (svg_report, "render_clique_bars_svg", "svg_report.render_clique_bars_svg", _attrs_svg),
        (corpus, "corpus_report", "corpus.corpus_report", _attrs_corpus),
    ]


class Tracer:
    """Records spans for calls made while installed; restores the originals on exit."""

    def __init__(self, soundnet):
        self.spans: list[Span] = []
        self._soundnet = soundnet
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: str | None = None
        self._root: int | None = None
        self._originals = []

    def __enter__(self):
        for module, attr, name, extract in entry_points(self._soundnet):
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extract))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, sid, parent, attrs):
        span = Span(sid, name, start, end, parent, self._op or "", threading.get_ident(), attrs)
        with self._lock:
            self.spans.append(span)

    def _wrap(self, original, name, extract):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self._record(name, start, end, sid, parent, extract(args, kwargs, result) if extract else {})
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def operation(self, op: str, name: str):
        """Root span of one operation; every span opened inside belongs to `op`."""
        self._op, sid = op, next(self._ids)
        self._root = sid
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._record(name, start, end, sid, None, {})
            self._op = self._root = None


def self_times(spans: list) -> dict:
    """span id -> duration minus the part of its interval that child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = s.duration - covered
    return out
