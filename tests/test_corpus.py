import csv
import io

import numpy as np
import pytest
from scipy import stats

from soundnet import corpus, distfit, network
from soundnet.corpus import (
    CorpusReport,
    average_ranks,
    corpus_report,
    degree_correlation_matrix,
    matrix_csv,
    spearman,
    summary_csv,
)
from soundnet.errors import DegenerateInput, NonFiniteValues
from soundnet.network import PitchGrid, SoundNetwork, build_network, grid_bin
from soundnet.selftest import spearman_rank_formula

GRID = PitchGrid()


def manual_network(midis, edges):
    nodes = tuple(grid_bin(m) for m in sorted(midis))
    edge_set = frozenset((min(a, b), max(a, b)) for a, b in edges)
    degree = {m: 0 for m in midis}
    for a, b in edge_set:
        degree[a] += 1
        degree[b] += 1
    n = len(midis)
    cent = {m: degree[m] / (n - 1) for m in midis} if n > 1 else {}
    net = SoundNetwork(grid=GRID, nodes=nodes, edges=edge_set)
    assert net.degree_centrality == cent  # the hand count stays an independent check
    return net


# --- spearman ----------------------------------------------------------------------

def test_spearman_identical():
    assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0


def test_spearman_reversed():
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


def test_spearman_rank_formula_case():
    assert abs(spearman([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-15


def test_spearman_matches_rank_formula_seeded():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.permutation(30).astype(float)
        y = rng.permutation(30).astype(float)
        assert abs(spearman(x, y) - spearman_rank_formula(x, y)) < 1e-12


def test_spearman_tie_handling_hand_cases():
    # average-rank oracles computed by hand and cross-checked against scipy
    cases = [
        ([1, 1, 2], [1, 2, 3], 0.8660254037844386),
        ([1, 2, 2, 3], [3, 2, 2, 1], -1.0),
        ([1, 1, 1, 2], [1, 2, 3, 4], 0.7745966692414834),
        ([1, 2, 3, 4, 4], [2, 1, 4, 4, 3], 0.6578947368421053),
        ([0.5, 0.5, 2.5, 2.5], [1, 2, 3, 4], 0.8944271909999159),
    ]
    for x, y, expected in cases:
        assert abs(spearman(x, y) - expected) < 1e-12
        assert abs(spearman(x, y) - stats.spearmanr(x, y).statistic) < 1e-12


def test_average_ranks_ties(rng):
    assert list(average_ranks([10.0, 10.0, 5.0])) == [2.5, 2.5, 1.0]
    assert list(average_ranks([3.0, 1.0, 2.0])) == [3.0, 1.0, 2.0]
    for _ in range(200):
        v = rng.integers(0, rng.integers(1, 30), size=rng.integers(0, 60)).astype(np.float64)
        assert np.array_equal(average_ranks(v), stats.rankdata(v, method="average"))


def test_spearman_self_correlation_exactly_one(rng):
    for _ in range(25):
        x = rng.standard_normal(17)
        assert spearman(x, x) == 1.0


def test_spearman_monotone_transform_invariance(rng):
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    base = spearman(x, y)
    assert abs(spearman(np.exp(x), y) - base) < 1e-12
    assert abs(spearman(x, 3.0 * y + 7.0) - base) < 1e-12


def test_spearman_degenerate():
    with pytest.raises(DegenerateInput):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spearman_rejects_non_finite_values(bad):
    with pytest.raises(NonFiniteValues):
        spearman([bad, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NonFiniteValues):
        spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 4.0])


# --- correlation matrix ------------------------------------------------------------

def test_identical_networks_full_correlation():
    net = manual_network([60, 64, 67], [(60, 64), (64, 67)])
    matrix = degree_correlation_matrix({"a": net, "b": net})
    assert matrix[0][1] == 1.0
    assert matrix[1][0] == 1.0
    assert matrix[0][0] == 1.0


def test_path_vs_star_hand_value():
    # path X-Y-Z (centralities .5/1/.5) vs star centered at X (1/.5/.5):
    # ranks [1.5, 3, 1.5] vs [3, 1.5, 1.5] -> coefficient -0.5
    x, y, z = 64, 65, 66
    path = manual_network([x, y, z], [(x, y), (y, z)])
    star = manual_network([x, y, z], [(x, y), (x, z)])
    matrix = degree_correlation_matrix({"path": path, "star": star})
    assert abs(matrix[0][1] - (-0.5)) < 1e-12


def test_disjoint_node_sets_union_alignment():
    a = manual_network([60, 62, 64], [(60, 62), (62, 64)])
    b = manual_network([70, 72, 74], [(70, 72), (70, 74)])
    matrix = degree_correlation_matrix({"a": a, "b": b})
    # oracle: align by hand over the 6-node union with zero fill
    va = [0.5, 1.0, 0.5, 0.0, 0.0, 0.0]
    vb = [0.0, 0.0, 0.0, 1.0, 0.5, 0.5]
    expected = stats.spearmanr(va, vb).statistic
    assert abs(matrix[0][1] - expected) < 1e-12


def test_matrix_symmetry_and_diagonal(rng):
    nets = {}
    for i in range(4):
        freqs = np.exp(rng.uniform(np.log(60.0), np.log(2000.0), size=80))
        nets[f"p{i}"] = build_network(freqs, GRID)
    matrix = degree_correlation_matrix(nets)
    n = len(nets)
    for i in range(n):
        assert matrix[i][i] == 1.0
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]
            if matrix[i][j] is not None:
                assert -1.0 <= matrix[i][j] <= 1.0


def test_matrix_permutation_consistency(rng):
    nets = {}
    for i in range(3):
        freqs = np.exp(rng.uniform(np.log(60.0), np.log(2000.0), size=60))
        nets[f"p{i}"] = build_network(freqs, GRID)
    forward = degree_correlation_matrix(dict(sorted(nets.items())))
    backward = degree_correlation_matrix(dict(sorted(nets.items(), reverse=True)))
    k = len(nets) - 1
    for i in range(len(nets)):
        for j in range(len(nets)):
            assert forward[i][j] == backward[k - i][k - j]


def test_union_zero_node_pinning():
    # adding a node absent from both pieces changes the coefficient only
    # through tie ranks; pin the exact effect via the union-aligned oracle
    a = manual_network([60, 62, 64], [(60, 62), (62, 64)])
    b = manual_network([60, 62, 64], [(60, 62), (60, 64)])
    base = degree_correlation_matrix({"a": a, "b": b})[0][1]
    va, vb = [0.5, 1.0, 0.5], [1.0, 0.5, 0.5]
    extended_a, extended_b = va + [0.0], vb + [0.0]
    assert abs(spearman(va, vb) - (-0.5)) < 1e-12
    expected_ext = stats.spearmanr(extended_a, extended_b).statistic
    assert abs(spearman(extended_a, extended_b) - expected_ext) < 1e-12
    assert spearman(extended_a, extended_b) != spearman(va, vb)
    assert base == pytest.approx(-0.5)


def test_intersection_alignment_mode():
    a = manual_network([60, 62, 64, 66], [(60, 62), (62, 64), (64, 66)])
    b = manual_network([62, 64, 66, 68], [(62, 64), (62, 66), (62, 68)])
    matrix = degree_correlation_matrix({"a": a, "b": b}, alignment="intersection")
    shared = [62, 64, 66]
    va = [a.degree_centrality[m] for m in shared]
    vb = [b.degree_centrality[m] for m in shared]
    assert abs(matrix[0][1] - stats.spearmanr(va, vb).statistic) < 1e-12


def test_degenerate_cell_is_null_not_zero():
    # complete graphs have all-1.0 centralities: constant vectors, null cell
    a = manual_network([60, 62], [(60, 62)])
    b = manual_network([60, 62], [(60, 62)])
    matrix = degree_correlation_matrix({"a": a, "b": b})
    assert matrix[0][1] is None
    assert matrix[0][0] == 1.0


# --- corpus report --------------------------------------------------------------------

def analysis_for(seed, size=2_000):
    rng = np.random.default_rng(seed)
    draws = rng.exponential(scale=300.0, size=size) + 40.0
    fit = distfit.best_fit(draws)
    net = build_network(np.clip(draws, 20.0, 8000.0), GRID)
    return fit, net


def test_corpus_single_piece_no_matrix():
    report = corpus_report({"only": analysis_for(1)}, alignment="intersection")
    assert report.corr_matrix is None
    assert report.alignment == "intersection"
    assert report.piece_ids == ("only",)
    assert len(report.summary_rows) == 1
    assert report.summary_rows[0]["id"] == "only"


def test_matrix_and_report_reject_bad_alignment_and_too_few_pieces():
    a = manual_network([60, 62], [(60, 62)])
    with pytest.raises(ValueError, match="unknown alignment"):
        degree_correlation_matrix({"a": a, "b": a}, alignment="outer")
    with pytest.raises(ValueError, match="at least two pieces"):
        degree_correlation_matrix({"a": a})
    with pytest.raises(ValueError, match="at least one piece"):
        corpus_report({})


def test_summary_csv_of_no_rows_is_the_header_alone():
    report = CorpusReport(
        piece_ids=(), corr_matrix=None, clique_histograms={}, clique_sizes={}, summary_rows=[], family_share={}
    )
    assert summary_csv(report) == ",".join(corpus.SUMMARY_COLUMNS) + "\r\n"


def test_corpus_exponential_pieces_family_share():
    analyses = {f"p{i:02d}": analysis_for(100 + i) for i in range(14)}
    report = corpus_report(analyses)
    assert sum(entry["count"] for entry in report.family_share.values()) == 14
    for piece in analyses:
        fit = analyses[piece][0]
        d = {fam: ff.ks.statistic_d for fam, ff in fit.per_family.items()}
        # exponential-or-better: the winner never loses to the exponential fit
        assert d[fit.best] <= d[distfit.DistFamily.EXPONENTIAL]
        assert fit.best in (distfit.DistFamily.EXPONENTIAL, distfit.DistFamily.EXPONENTIATED_WEIBULL)


def test_corpus_gibrat_outlier_detected():
    # 13 exponential-ish pieces plus one lognormal-shaped outlier: the share
    # table mirrors a 13-vs-1 corpus split
    analyses = {f"exp{i:02d}": analysis_for(200 + i) for i in range(13)}
    rng = np.random.default_rng(999)
    draws = 80.0 * rng.lognormal(mean=0.0, sigma=1.0, size=2_000) + 40.0
    fit = distfit.best_fit(draws)
    net = build_network(np.clip(draws, 20.0, 8000.0), GRID)
    analyses["odd_one"] = (fit, net)
    report = corpus_report(analyses)
    d = {fam: ff.ks.statistic_d for fam, ff in fit.per_family.items()}
    assert d[distfit.DistFamily.GIBRAT] < d[distfit.DistFamily.EXPONENTIAL]
    assert fit.best is not distfit.DistFamily.EXPONENTIAL
    shares = report.family_share
    assert sum(e["count"] for e in shares.values()) == 14
    assert shares.get("exponential", {"count": 0})["count"] + shares.get(
        "exponentiated_weibull", {"count": 0}
    )["count"] == 13


def test_summary_csv_parses_and_matches():
    report = corpus_report({f"p{i}": analysis_for(300 + i) for i in range(3)})
    text = summary_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 3
    assert [r["id"] for r in rows] == [row["id"] for row in report.summary_rows]
    for parsed, row in zip(rows, report.summary_rows):
        assert float(parsed["ks_d"]) == row["ks_d"]
        assert int(parsed["clique_size"]) == row["clique_size"]
    assert text.count("\r\n") == 4  # header + 3 rows, RFC-4180 line endings


def test_matrix_csv_null_cells_empty():
    a = manual_network([60, 62], [(60, 62)])
    b = manual_network([60, 62], [(60, 62)])
    report = CorpusReport(
        piece_ids=("a", "b"),
        corr_matrix=degree_correlation_matrix({"a": a, "b": b}),
        clique_histograms={},
        clique_sizes={},
        summary_rows=[],
        family_share={},
    )
    text = matrix_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["piece", "a", "b"]
    assert rows[1][2] == ""  # degenerate cell stays empty, not 0
    assert float(rows[1][1]) == 1.0
