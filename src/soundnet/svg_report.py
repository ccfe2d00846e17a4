"""Standalone SVG renderers for the four report figures.

Emitted documents are plain SVG 1.1 text with a declared viewBox, built with
fixed-precision number formatting so identical inputs give identical bytes.
No plotting library is involved. Every number is written by _f, or for the
fit figure's point lists by one '%.2f' format of them all, and every
label is escaped by the standard library's html.escape, with '"' also written
as &quot; so that a label can sit in an attribute.

In the fit figure the two <path> elements are reserved for the fitted PDF and
CDF curves; histogram bars are rects and the ECDF is a polyline, which keeps
the curve count checkable. In network figures <circle> is used for nodes only
(the legend uses rect swatches).
"""

from __future__ import annotations

import html
import itertools

import numpy as np

from .corpus import CorpusReport
from .distfit import FitReport, _sorted_samples
from .network import OCTAVE_BUCKETS, PITCH_CLASS_NAMES, SoundNetwork

# Node fill per pitch class of the bin's lower note, C anchored at red.
PITCH_CLASS_COLORS = (
    "#e6194b",  # C
    "#f58231",  # C#
    "#ffe119",  # D
    "#bfef45",  # D#
    "#3cb44b",  # E
    "#469990",  # F
    "#42d4f4",  # F#
    "#4363d8",  # G
    "#000075",  # G#
    "#911eb4",  # A
    "#f032e6",  # A#
    "#fabed4",  # B
)

_FONT = 'font-family="Helvetica,Arial,sans-serif"'
_FIT_BINS = 60  # histogram bars in the fit figure

# the network spiral: radius and angle per rank
_SPIRAL_STEP = 6.0
_SPIRAL_TURN = 0.55


def spiral_position(i: int) -> tuple:
    """Spiral placement: index 0 (highest degree centrality) at the center,
    radius growing linearly with rank."""
    r = _SPIRAL_STEP * i
    return (r * np.cos(_SPIRAL_TURN * i), r * np.sin(_SPIRAL_TURN * i))


def _esc(text) -> str:
    # not xml.sax.saxutils.escape, whose import loads urllib.request, ssl and email (23 ms, 7 MiB)
    return html.escape(str(text), quote=False).replace('"', "&quot;")


def _f(v) -> str:
    return f"{v:.2f}"


def _text(x, y, label, size, anchor=None, rotate=None, cls=None) -> str:
    """One <text> element with its label escaped. x and y are numbers, or
    strings written as given; `rotate` turns the text about its own (x, y)."""
    x, y = (v if isinstance(v, str) else _f(v) for v in (x, y))
    attrs = ([f'class="{cls}"'] if cls else []) + [f'x="{x}"', f'y="{y}"']
    if anchor:
        attrs.append(f'text-anchor="{anchor}"')
    attrs += [f'font-size="{size}"', _FONT]
    if rotate is not None:
        attrs.append(f'transform="rotate({rotate} {x} {y})"')
    return f"<text {' '.join(attrs)}>{_esc(label)}</text>"


def _legend(x, title_y, first_y, title, swatches, cls=None) -> list:
    """A titled column of 12 px colour swatches, one per (color, label), 18 px apart."""
    body = [_text(x, title_y, title, 13)]
    for i, (color, label) in enumerate(swatches):
        y = first_y + 18.0 * i
        body.append(f'<rect x="{_f(x)}" y="{_f(y - 10)}" width="12" height="12" fill="{color}"/>')
        body.append(_text(x + 18, y, label, 12, cls=cls))
    return body


def _document(width, height, body: list) -> bytes:
    """The SVG text: header, a white background rect, then the body elements."""
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">'
    )
    background = f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>'
    return ("\n".join([head, background, *body, "</svg>"]) + "\n").encode("utf-8")


# --- figure: histogram + fitted PDF / ECDF + fitted CDF -----------------------

def render_fit_svg(samples, fit_report: FitReport) -> bytes:
    """Two panels: density histogram with the winning family's PDF, and the
    ECDF with the fitted CDF. Exactly two <path> elements (the two curves).
    The sample is checked and sorted as best_fit does; where it is too narrow
    for numpy's _FIT_BINS bins at its magnitude, the histogram spans
    4 * _FIT_BINS float spacings from its minimum."""
    x = _sorted_samples(samples)
    best = fit_report.per_family[fit_report.best]
    dist = best.dist

    width, height = 980.0, 440.0
    panel_w, panel_h = 420.0, 320.0
    top = 70.0
    left1, left2 = 60.0, 550.0
    title = (
        f"best fit: {fit_report.best.value}  "
        f"(d={best.ks.statistic_d:.3e}, p={best.ks.p_value:.3f}, n={fit_report.sample_n})"
    )
    body = [_text(width / 2, "32", title, 18, anchor="middle")]

    lo, hi = float(x[0]), float(x[-1])
    span = hi - lo
    try:
        counts, edges = _histogram(x, lo, span)
    except ValueError:  # too narrow for _FIT_BINS distinct edges at this magnitude
        span = 4 * _FIT_BINS * float(np.spacing(max(abs(lo), abs(hi))))
        counts, edges = _histogram(x, lo, span)
    density = counts / (x.size * (span / _FIT_BINS))
    grid = np.linspace(lo, lo + span, 256)
    pdf = dist.pdf(grid)
    pdf = np.where(np.isfinite(pdf), pdf, 0.0)
    y_max = max(float(density.max()), float(pdf.max()), 1e-12) * 1.05

    # every coordinate below is computed on arrays with the same expressions, in
    # the same order, as for one value, then formatted from Python floats
    def hx(v):
        return left1 + (v - lo) / span * panel_w

    def hy(v):
        return top + panel_h - v / y_max * panel_h

    bars = density > 0
    d = density[bars]
    areas, heights = d * (span / _FIT_BINS), panel_h * d / y_max
    bar_w = _f(panel_w / _FIT_BINS)
    for area, bx, by, bh in zip(areas.tolist(), hx(edges[:-1][bars]).tolist(), hy(d).tolist(), heights.tolist()):
        body.append(
            f'<rect class="hist" data-area="{area!r}" x="{_f(bx)}" y="{_f(by)}" '
            f'width="{bar_w}" height="{_f(bh)}" fill="#9ecae1" stroke="none"/>'
        )
    body.append(_path(hx(grid), hy(pdf), "#d62728"))
    body.extend(_panel_frame(left1, top, panel_w, panel_h, "frequency component (Hz)", "density"))

    # right panel: ECDF steps as a polyline, fitted CDF as the second path
    def cx(v):
        return left2 + (v - lo) / span * panel_w

    def cy(v):
        return top + panel_h - v * panel_h

    idx = np.arange(x.size)
    if x.size > 1200:
        idx = np.unique(np.linspace(0, x.size - 1, 1200).astype(int))
    px = cx(x[idx])
    pts = " ".join(["%.2f,%.2f %.2f,%.2f"] * idx.size) % _interleave(px, cy(idx / x.size), px, cy((idx + 1) / x.size))
    body.append(f'<polyline points="{pts}" fill="none" stroke="#2c7fb8" stroke-width="1.5"/>')
    body.append(_path(cx(grid), cy(np.clip(dist.cdf(grid), 0.0, 1.0)), "#d62728"))
    body.extend(_panel_frame(left2, top, panel_w, panel_h, "frequency component (Hz)", "CDF"))

    return _document(width, height, body)


def _histogram(x, lo, span) -> tuple:
    """np.histogram(x, _FIT_BINS, range=(lo, lo + span)) of the sorted sample x,
    whose first value is lo: the same edges, and counts from one binary search
    of the edges into x. A bin holds [edge, next edge), the last one also its
    upper edge; a value above that edge, where lo + span rounds below x[-1], is
    in no bin."""
    edges = np.histogram_bin_edges(x, _FIT_BINS, range=(lo, lo + span))
    below = np.searchsorted(x, edges)
    below[-1] = np.searchsorted(x, edges[-1], side="right")
    return np.diff(below), edges


def _interleave(*columns) -> tuple:
    """The values of equal-length arrays, row by row, as one tuple of Python
    floats for %-formatting, which writes each as _f does."""
    return tuple(np.column_stack(columns).ravel().tolist())


def _path(px, py, color) -> str:
    """A polyline path through the points (px[i], py[i]), given as arrays."""
    d = " L ".join(["%.2f %.2f"] * px.size) % _interleave(px, py)
    return f'<path d="M {d}" fill="none" stroke="{color}" stroke-width="2"/>'


def _panel_frame(left, top, w, h, x_label, y_label) -> list:
    return [
        f'<line x1="{_f(left)}" y1="{_f(top + h)}" x2="{_f(left + w)}" y2="{_f(top + h)}" stroke="#000000"/>',
        f'<line x1="{_f(left)}" y1="{_f(top)}" x2="{_f(left)}" y2="{_f(top + h)}" stroke="#000000"/>',
        _text(left + w / 2, top + h + 36, x_label, 13, anchor="middle"),
        _text(left - 40, top + h / 2, y_label, 13, anchor="middle", rotate=-90),
    ]


# --- figure: spiral network ----------------------------------------------------

def render_network_svg(net: SoundNetwork) -> bytes:
    """Spiral drawing of the largest clique: its nodes and their mutual edges.
    Node color follows the pitch class of the bin's lower note."""
    drawn = list(net.largest_clique)
    cent = net.degree_centrality
    drawn.sort(key=lambda b: (-cent.get(b.midi_lower, 0.0), b.midi_lower))
    pos = {b.midi_lower: spiral_position(i) for i, b in enumerate(drawn)}

    node_r = 10.0
    margin = 60.0
    xs = [p[0] for p in pos.values()] or [0.0]
    ys = [p[1] for p in pos.values()] or [0.0]
    min_x, max_x = min(xs) - node_r - margin, max(xs) + node_r + margin + 150.0
    min_y, max_y = min(ys) - node_r - margin, max(ys) + node_r + margin

    def tx(p):
        return p[0] - min_x

    def ty(p):
        return p[1] - min_y

    width, height = max_x - min_x, max_y - min_y
    body = []

    for a, b in itertools.combinations(sorted(pos), 2):  # the clique's members are pairwise adjacent
        pa, pb = pos[a], pos[b]
        body.append(
            f'<line x1="{_f(tx(pa))}" y1="{_f(ty(pa))}" x2="{_f(tx(pb))}" y2="{_f(ty(pb))}" '
            f'stroke="#bbbbbb" stroke-width="0.8"/>'
        )
    for b in drawn:
        p = pos[b.midi_lower]
        color = PITCH_CLASS_COLORS[b.midi_lower % 12]
        body.append(
            f'<circle cx="{_f(tx(p))}" cy="{_f(ty(p))}" r="{_f(node_r)}" '
            f'fill="{color}" stroke="#333333" stroke-width="0.6">'
            f"<title>{_esc(b.lower_note)}-{_esc(b.upper_note)}</title></circle>"
        )

    body.extend(_legend(width - 140.0, "24", 40.0, "pitch class", zip(PITCH_CLASS_COLORS, PITCH_CLASS_NAMES)))
    return _document(width, height, body)


# --- figure: correlation heatmap ------------------------------------------------

def _diverging_color(v: float) -> str:
    """White at 0, saturating to blue at -1 and red at +1."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        target = (178, 24, 43)
    else:
        target = (33, 102, 172)
    t = abs(v)
    r, g, b = (round(255 + (c - 255) * t) for c in target)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg(report: CorpusReport) -> bytes:
    """Correlation matrix heatmap; missing cells are gray with an en dash."""
    if report.corr_matrix is None:
        raise ValueError("report holds no correlation matrix")
    ids = report.piece_ids
    n = len(ids)
    cell = 52.0
    left, top = 170.0, 40.0
    width = left + n * cell + 40.0
    height = top + n * cell + 150.0
    body = []

    for i in range(n):
        for j in range(n):
            v = report.corr_matrix[i][j]
            x, y = left + j * cell, top + i * cell
            fill = "#cccccc" if v is None else _diverging_color(v)
            body.append(
                f'<rect class="cell" x="{_f(x)}" y="{_f(y)}" width="{_f(cell)}" height="{_f(cell)}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )
            label = "–" if v is None else _f(v)
            body.append(_text(x + cell / 2, y + cell / 2 + 4, label, 11, anchor="middle"))

    for i, piece in enumerate(ids):
        body.append(_text(left - 8, top + i * cell + cell / 2 + 4, piece, 11, anchor="end", cls="row-label"))
        x = left + i * cell + cell / 2
        body.append(_text(x, top + n * cell + 12, piece, 11, anchor="end", rotate=-60, cls="col-label"))
    return _document(width, height, body)


# --- figure: clique composition bars ---------------------------------------------

_BUCKET_COLORS = (
    "#808080",
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#404040",
)


def render_clique_bars_svg(report: CorpusReport) -> bytes:
    """Grouped bars of largest-clique composition per octave range; bars with
    zero count are not drawn."""
    rows = report.summary_rows
    buckets = OCTAVE_BUCKETS
    bar_w = 9.0
    group_w = bar_w * len(buckets) + 18.0
    plot_h = 260.0
    left, top = 70.0, 50.0
    width = left + group_w * len(rows) + 200.0
    height = top + plot_h + 140.0

    max_count = max((row[bucket] for row in rows for bucket in buckets), default=0)
    unit = plot_h / max(max_count, 1)

    body = [_text(width / 2, "26", "largest-clique composition by octave range", 16, anchor="middle")]
    base = top + plot_h
    body.append(f'<line x1="{_f(left)}" y1="{_f(base)}" x2="{_f(left + group_w * len(rows))}" y2="{_f(base)}" stroke="#000000"/>')

    for gi, row in enumerate(rows):
        piece = row["id"]
        gx = left + gi * group_w
        for bi, bucket in enumerate(buckets):
            count = row[bucket]
            if count <= 0:
                continue
            h = count * unit
            body.append(
                f'<rect class="bar" data-piece="{_esc(piece)}" data-count="{count}" '
                f'x="{_f(gx + bi * bar_w)}" y="{_f(base - h)}" width="{_f(bar_w - 1.0)}" height="{_f(h)}" '
                f'fill="{_BUCKET_COLORS[bi]}"/>'
            )
        body.append(_text(gx + (group_w - 18.0) / 2, base + 14, piece, 11, anchor="end", rotate=-45))

    legend_x = left + group_w * len(rows) + 30.0
    body.extend(_legend(legend_x, top, top + 20.0, "octave range", zip(_BUCKET_COLORS, buckets), cls="bucket-label"))
    return _document(width, height, body)
