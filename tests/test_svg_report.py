import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from soundnet import distfit, svg_report
from soundnet.corpus import CorpusReport, corpus_report
from soundnet.network import OCTAVE_BUCKETS, PitchGrid, build_network
from soundnet.svg_report import spiral_position

NS = "{http://www.w3.org/2000/svg}"
GRID = PitchGrid()


def parse(data: bytes):
    root = ET.fromstring(data)
    assert root.get("viewBox")
    return root


def find_all(root, tag, cls=None):
    hits = root.findall(f".//{NS}{tag}")
    if cls is None:
        return hits
    return [h for h in hits if cls in (h.get("class") or "").split()]


@pytest.fixture(scope="module")
def exp_fit_figure():
    draws = np.random.default_rng(8).exponential(scale=50.0, size=4_000)
    report = distfit.best_fit(draws)
    return draws, report, svg_report.render_fit_svg(draws, report)


def test_fit_svg_two_paths_for_curves(exp_fit_figure):
    _, _, data = exp_fit_figure
    root = parse(data)
    assert len(find_all(root, "path")) == 2


def test_fit_svg_histogram_areas_sum_to_one(exp_fit_figure):
    _, _, data = exp_fit_figure
    root = parse(data)
    areas = [float(r.get("data-area")) for r in find_all(root, "rect", "hist")]
    assert abs(sum(areas) - 1.0) < 1e-9


def test_fit_svg_title_carries_family_and_ks(exp_fit_figure):
    _, report, data = exp_fit_figure
    text = data.decode("utf-8")
    best = report.per_family[report.best]
    assert report.best.value in text
    assert f"d={best.ks.statistic_d:.3e}" in text
    assert f"p={best.ks.p_value:.3f}" in text


def test_fit_svg_deterministic(exp_fit_figure):
    draws, report, data = exp_fit_figure
    assert svg_report.render_fit_svg(draws, report) == data


def test_fit_svg_of_the_ascending_sample_equals_any_order(exp_fit_figure):
    # an ascending sample is drawn without a sort
    draws, report, data = exp_fit_figure
    assert svg_report.render_fit_svg(np.sort(draws), report) == data
    assert svg_report.render_fit_svg(np.random.default_rng(9).permutation(draws), report) == data


def test_fit_svg_of_a_span_too_narrow_for_numpy_bins():
    # 19e-13 at 1e3 is 17 float spacings: numpy cannot make 60 finite-sized bins there
    x = 1e3 + np.arange(20) * 1e-13
    report = distfit.best_fit(x)
    with pytest.raises(ValueError, match="Too many bins"):
        np.histogram(x, svg_report._FIT_BINS)
    root = parse(svg_report.render_fit_svg(x, report))
    assert len(find_all(root, "path")) == 2
    bars = find_all(root, "rect", "hist")
    assert abs(sum(float(r.get("data-area")) for r in bars) - 1.0) < 1e-9
    assert all(60.0 <= float(r.get("x")) <= 480.0 for r in bars)  # inside the left panel


# lo + (hi - lo) rounds below hi, so the histogram's upper edge lies below the largest value
ROUNDS_BELOW = (-1.8151915633927285, 1.3489335688193516)


def _numpy_histogram(x):
    lo = float(x[0])
    span = float(x[-1]) - lo or 1.0
    return svg_report._histogram(x, lo, span), np.histogram(x, svg_report._FIT_BINS, range=(lo, lo + span))


def _outcome(histogram, x):
    """What histogram(x, _FIT_BINS, range=(x[0], x[0] + span)) gives: its
    counts and edges, or the message of the ValueError it raises for a span
    too narrow to hold _FIT_BINS finite-sized bins."""
    lo = float(x[0])
    span = float(x[-1]) - lo or 1.0
    try:
        return histogram(x, lo, span)
    except ValueError as exc:
        return str(exc)


@st.composite
def fit_samples(draw):
    """Sorted samples, some ending on ROUNDS_BELOW and some holding the
    histogram's own edges and their float neighbours."""
    x = draw(hnp.arrays(np.float64, st.integers(1, 200), elements=st.floats(-1e6, 1e6)))
    if draw(st.booleans()):
        x = np.concatenate([x / 1e6, ROUNDS_BELOW])  # inside (-1.82, 1.35)
    x = np.sort(x)
    if draw(st.booleans()):
        lo, hi = float(x[0]), float(x[-1])
        try:
            edges = np.histogram_bin_edges(x, svg_report._FIT_BINS, range=(lo, lo + (hi - lo or 1.0)))
        except ValueError:  # a span of a few subnormals has no finite-sized bins
            return x
        on = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        picked = draw(st.lists(st.sampled_from(on.tolist()), max_size=40))
        x = np.sort(np.concatenate([x, [v for v in picked if lo <= v <= hi]]))
    return x


@settings(max_examples=300, deadline=None)
@given(fit_samples())
@example(np.array([0.0, 5e-324]))
def test_fit_histogram_equals_numpy(x):
    got = _outcome(svg_report._histogram, x)
    want = _outcome(lambda x, lo, span: np.histogram(x, svg_report._FIT_BINS, range=(lo, lo + span)), x)
    if isinstance(want, str):  # numpy refuses the range, and so must the fit figure's histogram
        assert got == want
        return
    (counts, edges), (want_counts, want_edges) = got, want
    assert np.array_equal(edges, want_edges)
    assert np.array_equal(counts, want_counts) and counts.dtype == want_counts.dtype


def test_fit_histogram_leaves_out_a_value_above_its_upper_edge():
    x = np.array([ROUNDS_BELOW[0], 0.0, ROUNDS_BELOW[1]])
    (counts, edges), (want_counts, _) = _numpy_histogram(x)
    assert edges[-1] < x[-1]
    assert counts.sum() == 2 and np.array_equal(counts, want_counts)


@given(st.floats())
def test_percent_format_writes_numbers_as_f_does(v):
    assert "%.2f" % v == svg_report._f(v)


def test_network_svg_k3():
    walk = [262.0, 330.0, 392.0, 262.0, 392.0, 330.0, 262.0]
    net = build_network(np.asarray(walk), GRID)
    assert len(net.edges) == 3
    root = parse(svg_report.render_network_svg(net))
    assert len(find_all(root, "circle")) == 3
    assert len(find_all(root, "line")) == 3


def test_network_svg_clique_only_drops_pendant():
    walk = [262.0, 330.0, 392.0, 262.0, 392.0, 988.0]  # triangle + pendant
    net = build_network(np.asarray(walk), GRID)
    assert len(net.nodes) == 4
    clique = parse(svg_report.render_network_svg(net))
    assert len(find_all(clique, "circle")) == 3
    assert len(find_all(clique, "circle")) == len(net.largest_clique)
    # pendant's mutual edges only: the triangle has 3, pendant edge dropped
    assert len(find_all(clique, "line")) == 3


def test_network_svg_center_is_highest_centrality():
    # star: center has centrality 1.0 and must sit at spiral index 0 (origin)
    center, leaves = 440.0, [262.0, 294.0, 330.0]
    walk = []
    for leaf in leaves:
        walk += [center, leaf]
    net = build_network(np.asarray(walk), GRID)
    origin = spiral_position(0)
    root = parse(svg_report.render_network_svg(net))
    circles = find_all(root, "circle")
    # the first circle drawn is index 0; its title holds the node name
    titles = [c.find(f"{NS}title").text for c in circles]
    assert titles[0].startswith("A4")
    assert origin == (0.0, 0.0)


def test_spiral_radius_orders_by_centrality():
    radii = [np.hypot(*spiral_position(i)) for i in range(20)]
    assert all(radii[i] < radii[i + 1] for i in range(19))
    # on a real network: strictly higher centrality always means smaller radius
    rng = np.random.default_rng(21)
    freqs = np.exp(rng.uniform(np.log(60.0), np.log(2000.0), size=200))
    net = build_network(freqs, GRID)
    cent = net.degree_centrality
    ordered = sorted(net.nodes, key=lambda b: (-cent.get(b.midi_lower, 0.0), b.midi_lower))
    radius = {b.midi_lower: np.hypot(*spiral_position(i)) for i, b in enumerate(ordered)}
    for u in net.nodes:
        for v in net.nodes:
            if cent[u.midi_lower] > cent[v.midi_lower]:
                assert radius[u.midi_lower] < radius[v.midi_lower]


def random_corpus_report(n_pieces=3, seed=0):
    rng = np.random.default_rng(seed)
    analyses = {}
    for i in range(n_pieces):
        freqs = np.exp(rng.uniform(np.log(60.0), np.log(2000.0), size=120))
        analyses[f"piece{i}"] = (distfit.best_fit(freqs), build_network(freqs, GRID))
    return corpus_report(analyses)


def test_heatmap_cell_count_and_labels():
    report = random_corpus_report(3)
    root = parse(svg_report.render_heatmap_svg(report))
    cells = find_all(root, "rect", "cell")
    assert len(cells) == 9
    rows = [t.text for t in find_all(root, "text", "row-label")]
    cols = [t.text for t in find_all(root, "text", "col-label")]
    assert rows == list(report.piece_ids)
    assert cols == list(report.piece_ids)
    diag_texts = [t.text for t in find_all(root, "text") if t.text == "1.00"]
    assert len(diag_texts) >= 3


def test_heatmap_null_cells_en_dash():
    # the heatmap reads only the rows' ids
    report = CorpusReport(corr_matrix=[[1.0, None], [None, 1.0]], summary_rows=[{"id": "a"}, {"id": "b"}])
    root = parse(svg_report.render_heatmap_svg(report))
    texts = [t.text for t in find_all(root, "text")]
    assert "–" in texts
    gray = [r for r in find_all(root, "rect", "cell") if r.get("fill") == "#cccccc"]
    assert len(gray) == 2


def test_clique_bars_structure():
    report = random_corpus_report(3, seed=4)
    root = parse(svg_report.render_clique_bars_svg(report))
    bars = find_all(root, "rect", "bar")
    nonzero = sum(1 for row in report.summary_rows for b in OCTAVE_BUCKETS if row[b] > 0)
    assert len(bars) == nonzero
    # per-piece data-count attributes must sum to the clique size
    for row in report.summary_rows:
        total = sum(int(b.get("data-count")) for b in bars if b.get("data-piece") == row["id"])
        assert total == row["clique_size"]
    labels = [t.text for t in find_all(root, "text", "bucket-label")]
    assert labels == list(OCTAVE_BUCKETS)


def test_all_renderers_deterministic():
    report = random_corpus_report(2, seed=9)
    assert svg_report.render_heatmap_svg(report) == svg_report.render_heatmap_svg(report)
    assert svg_report.render_clique_bars_svg(report) == svg_report.render_clique_bars_svg(report)
    net = build_network(np.asarray([262.0, 330.0, 392.0, 262.0]), GRID)
    assert svg_report.render_network_svg(net) == svg_report.render_network_svg(net)


ESCAPED_IDS = ("a<b", "c&d", "e>f", 'g"h')


def hand_report(ids, matrix=None):
    """A CorpusReport with set matrix cells and rows of ids and clique
    histograms, the columns the corpus figures read; no fit runs."""
    rows = []
    for i, piece in enumerate(ids):
        hist = {bucket: (i + j) % 3 for j, bucket in enumerate(OCTAVE_BUCKETS)}
        rows.append({"id": piece, "clique_size": sum(hist.values()), **hist})
    return CorpusReport(corr_matrix=matrix, summary_rows=rows)


NULL_MATRIX = [[1.0, None, 0.5], [None, 1.0, -0.25], [0.5, -0.25, 1.0]]
ESCAPED_MATRIX = [[1.0, 0.3, -0.7, None], [0.3, 1.0, 0.05, 0.9], [-0.7, 0.05, 1.0, -1.0], [None, 0.9, -1.0, 1.0]]

# sha256 of renders the golden corpus does not make: a null heatmap cell, piece
# ids that need escaping, a single-node network and a one-piece bar chart
RENDER_PINS = {
    "heatmap-null-cell": (
        lambda: svg_report.render_heatmap_svg(hand_report(("a", "b", "c"), NULL_MATRIX)),
        "f50a3ac4e1acb51080795735d162bae4da976f7ba4999acd6fe8f1f732baa619",
    ),
    "heatmap-escaped-ids": (
        lambda: svg_report.render_heatmap_svg(hand_report(ESCAPED_IDS, ESCAPED_MATRIX)),
        "17b96e3f2e19b93e5b2ee8f7c452d1fb43d64597413e588f69643d10f81fe941",
    ),
    "clique-bars-escaped-ids": (
        lambda: svg_report.render_clique_bars_svg(hand_report(ESCAPED_IDS)),
        "6b975c788c05230e90bb5e161e39a7cdd8f3840761fab1bbc65b5d93cf1fb3c7",
    ),
    "clique-bars-one-piece": (
        lambda: svg_report.render_clique_bars_svg(hand_report(("solo",))),
        "157f15f8fd50d2bf07ac0cdf1dbf406ded3e0f2ac3690ac5c1466aa44efe09b1",
    ),
    "network-single-node": (
        lambda: svg_report.render_network_svg(build_network(np.asarray([440.0, 445.0]), GRID)),
        "a761b570cbb236a0a272a91911428dcbf8b0d5b5fbd63d01245f29ef41b7f0a7",
    ),
}


@pytest.mark.parametrize("name", sorted(RENDER_PINS))
def test_render_matches_pinned_bytes(name):
    render, digest = RENDER_PINS[name]
    assert hashlib.sha256(render()).hexdigest() == digest


def test_escaped_piece_ids_parse_back_as_label_text():
    report = hand_report(ESCAPED_IDS, ESCAPED_MATRIX)
    heat = parse(svg_report.render_heatmap_svg(report))
    assert [t.text for t in find_all(heat, "text", "row-label")] == list(ESCAPED_IDS)
    assert [t.text for t in find_all(heat, "text", "col-label")] == list(ESCAPED_IDS)
    bars = parse(svg_report.render_clique_bars_svg(report))
    assert {b.get("data-piece") for b in find_all(bars, "rect", "bar")} == set(ESCAPED_IDS)
    labels = [t.text for t in find_all(bars, "text") if (t.get("transform") or "").startswith("rotate(-45 ")]
    assert labels == list(ESCAPED_IDS)


def test_escape_writes_the_four_xml_entities_and_leaves_apostrophes():
    assert svg_report._esc("i'j & <k> \"l\" &amp;") == "i'j &amp; &lt;k&gt; &quot;l&quot; &amp;amp;"


def test_heatmap_of_one_piece_raises():
    with pytest.raises(ValueError, match="no correlation matrix"):
        svg_report.render_heatmap_svg(hand_report(("solo",)))
