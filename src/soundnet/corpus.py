"""Cross-piece analysis: Spearman degree-centrality correlations and
clique-composition summaries, held together in one CorpusReport.

Centrality vectors of different pieces are aligned over the union of their
node sets by default (absent nodes contribute 0.0); pairwise intersection
alignment is available for sensitivity analysis. Degenerate cells (a constant
vector, or fewer than two common nodes in intersection mode) are emitted as
explicit nulls, never as 0. A corpus of one piece has no matrix.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NonFiniteValues
from .network import OCTAVE_BUCKETS, SoundNetwork

ALIGN_UNION = "union"
ALIGN_INTERSECTION = "intersection"

# the per-piece summary row: its keys, in order, and the summary CSV's columns
SUMMARY_COLUMNS = (
    "id",
    "best_family",
    "loc",
    "scale",
    "ks_d",
    "ks_p",
    "n_nodes",
    "n_edges",
    "clique_size",
) + OCTAVE_BUCKETS


@dataclass(frozen=True)
class CorpusReport:
    piece_ids: tuple
    corr_matrix: list | None   # rows of float-or-None; None when < 2 pieces
    clique_histograms: dict    # piece -> {octave bucket: count}
    clique_sizes: dict         # piece -> int
    summary_rows: list         # one dict per piece, fixed column order
    family_share: dict         # best-fit family -> {"count": int, "share": float}
    alignment: str = ALIGN_UNION


def average_ranks(values) -> np.ndarray:
    """Ranks starting at 1; tied values receive the mean of their rank span."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float:
    """Spearman coefficient: Pearson correlation of average-ranked values.

    Raises DegenerateInput when either side is constant (undefined rank
    correlation) or the lengths disagree, and NonFiniteValues when either
    holds NaN or an infinite value.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size or x.size < 2:
        raise DegenerateInput("spearman needs two equally sized vectors of length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValues("spearman input contains NaN or infinite values")
    if x.min() == x.max() or y.min() == y.max():
        raise DegenerateInput("constant vector: rank correlation undefined")
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    return float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))


def _centrality_vector(net: SoundNetwork, universe) -> np.ndarray:
    cent = net.degree_centrality
    return np.array([cent.get(m, 0.0) for m in universe], dtype=np.float64)


def degree_correlation_matrix(networks: dict, alignment: str = ALIGN_UNION) -> list:
    """Pairwise Spearman matrix of per-piece degree centralities, as a list of
    rows in the order of `networks`.

    Union mode indexes every piece over the union of all node sets with 0.0
    for absent nodes; intersection mode correlates each pair over the nodes
    the two pieces share. Degenerate cells become None. Raises ValueError for
    an unknown alignment or fewer than two pieces.
    """
    if alignment not in (ALIGN_UNION, ALIGN_INTERSECTION):
        raise ValueError(f"unknown alignment {alignment!r}")
    if len(networks) < 2:
        raise ValueError("need at least two pieces for a correlation matrix")

    pieces = tuple(networks)
    union = sorted({b.midi_lower for net in networks.values() for b in net.nodes})
    n = len(pieces)
    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 1.0
        for j in range(i + 1, n):
            net_i, net_j = networks[pieces[i]], networks[pieces[j]]
            if alignment == ALIGN_UNION:
                index = union
            else:
                index = sorted(
                    {b.midi_lower for b in net_i.nodes} & {b.midi_lower for b in net_j.nodes}
                )
            try:
                value = spearman(
                    _centrality_vector(net_i, index), _centrality_vector(net_j, index)
                )
            except DegenerateInput:
                value = None
            matrix[i][j] = matrix[j][i] = value
    return matrix


def corpus_report(analyses: dict, alignment: str = ALIGN_UNION) -> CorpusReport:
    """Corpus summary over piece -> (FitReport, SoundNetwork) analyses.

    Holds each piece's largest-clique size and octave histogram, one summary
    row per piece (best family, its (loc, scale), KS (d, p), graph and clique
    sizes, octave histogram), the share of pieces per winning family, and the
    correlation matrix when two or more pieces are present (None otherwise).
    """
    if not analyses:
        raise ValueError("corpus_report needs at least one piece")
    pieces = tuple(analyses)
    networks = {p: analyses[p][1] for p in pieces}
    histograms = {p: net.clique_octaves for p, net in networks.items()}
    sizes = {p: len(net.largest_clique) for p, net in networks.items()}
    matrix = degree_correlation_matrix(networks, alignment=alignment) if len(pieces) >= 2 else None

    rows = []
    counts: dict = {}
    for piece in pieces:
        fit_report, net = analyses[piece]
        best = fit_report.per_family[fit_report.best]
        counts[fit_report.best.value] = counts.get(fit_report.best.value, 0) + 1
        values = (
            piece, fit_report.best.value, best.dist.loc, best.dist.scale, best.ks.statistic_d, best.ks.p_value,
            len(net.nodes), len(net.edges), sizes[piece], *histograms[piece].values(),
        )
        rows.append(dict(zip(SUMMARY_COLUMNS, values, strict=True)))

    share = {
        family: {"count": count, "share": count / len(pieces)}
        for family, count in sorted(counts.items())
    }
    return CorpusReport(
        piece_ids=pieces,
        corr_matrix=matrix,
        clique_histograms=histograms,
        clique_sizes=sizes,
        summary_rows=rows,
        family_share=share,
        alignment=alignment,
    )


def summary_csv(report: CorpusReport) -> str:
    """RFC-4180 CSV of the per-piece summary rows."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=SUMMARY_COLUMNS)
    writer.writeheader()
    for row in report.summary_rows:
        writer.writerow({k: _csv_value(row[k]) for k in SUMMARY_COLUMNS})
    return out.getvalue()


def matrix_csv(report: CorpusReport) -> str:
    """Correlation matrix as CSV with piece ids on both axes; nulls are empty cells."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("piece",) + report.piece_ids)
    for piece, row in zip(report.piece_ids, report.corr_matrix or []):
        writer.writerow([piece] + [_csv_value(v) for v in row])
    return out.getvalue()


def _csv_value(v):
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else v


def comparison_to_dict(report: CorpusReport) -> dict:
    """The "comparison" section of corpus.json."""
    return {
        "alignment": report.alignment,
        "piece_ids": list(report.piece_ids),
        "corr_matrix": report.corr_matrix,
        "clique_histograms": report.clique_histograms,
        "clique_sizes": report.clique_sizes,
        "summary": report.summary_rows,
        "family_share": report.family_share,
    }
