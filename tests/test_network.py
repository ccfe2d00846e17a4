import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_is_path, sine
from soundnet import corpus, distfit, network, spectral
from soundnet.errors import EmptyNetwork, NonFiniteValues, NonPositiveFrequency
from soundnet.network import (
    OCTAVE_BUCKETS,
    PitchGrid,
    bin_of,
    build_network,
    clique_octave_histogram,
    grid_bin,
    largest_clique,
)
from soundnet.selftest import max_clique_bruteforce, random_network

GRID = PitchGrid()
ROOT = Path(__file__).resolve().parents[1]


def net_from(freqs, grid=GRID):
    return build_network(np.asarray(freqs, dtype=np.float64), grid)


# --- pitch binning -----------------------------------------------------------------

def test_bin_of_340_is_e4_f4():
    b = bin_of(340.0, GRID)
    assert (b.lower_note, b.upper_note) == ("E4", "F4")
    assert round(b.lower_hz, 2) == 329.63
    assert round(b.upper_hz, 2) == 349.23


def test_bin_boundary_is_lower_inclusive():
    b = bin_of(440.0, GRID)
    assert (b.lower_note, b.upper_note) == ("A4", "A♯4")
    assert b.lower_hz == 440.0


def test_bin_of_out_of_range():
    assert bin_of(10.0, GRID) is None          # below C0 (16.35 Hz)
    assert bin_of(9000.0, GRID) is None        # at/above C9 (8372 Hz)
    assert bin_of(float(GRID.note_freq(network.MIDI_HIGH)), GRID) is None  # upper edge exclusive
    assert bin_of(float(GRID.note_freq(network.MIDI_LOW)), GRID).midi_lower == network.MIDI_LOW


def test_bin_of_rejects_nonpositive():
    with pytest.raises(NonPositiveFrequency):
        bin_of(0.0, GRID)
    with pytest.raises(NonPositiveFrequency):
        bin_of(-5.0, GRID)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bin_of_rejects_non_finite(bad):
    with pytest.raises(NonFiniteValues):
        bin_of(bad, GRID)


@pytest.mark.parametrize("a4_hz", [220.0, 440.0, 880.0])
def test_extreme_frequencies_dropped_without_warnings(a4_hz):
    # a subnormal has no finite log-ratio, the largest double overflows the
    # note frequencies of its raw MIDI estimate: both are only off the grid
    grid = PitchGrid(a4_hz)
    tiny, huge = 5e-324, np.finfo(np.float64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = build_network(np.array([tiny, a4_hz, huge, 2.0 * a4_hz, tiny]), grid)
        assert bin_of(tiny, grid) is None
        assert bin_of(huge, grid) is None
    assert [b.midi_lower for b in net.nodes] == [69, 81]
    assert net.edges == frozenset({(69, 81)})
    assert net.dropped_components == 3


def test_note_freq_anchor_exact():
    assert GRID.note_freq(69) == 440.0


@pytest.mark.parametrize("a4_hz", [220.0, 415.0, 440.0, 466.16, 880.0])
def test_a4_in_documented_range_accepted(a4_hz):
    assert PitchGrid(a4_hz).a4_hz == a4_hz


@pytest.mark.parametrize("a4_hz", [219.99, 880.01, 1e-300, 0.0, -440.0, 1e300, float("nan"), float("inf")])
def test_a4_outside_documented_range_rejected(a4_hz):
    with pytest.raises(ValueError, match=r"a4_hz must be in \[220, 880\] Hz"):
        PitchGrid(a4_hz)


@pytest.mark.parametrize("a4_hz", [415.0, 440.0, 442.5, 466.16])
def test_grid_bin_hz_bit_identical_to_note_freq(a4_hz):
    # against a 0-d numpy scalar and against note_freq of the whole array
    grid = PitchGrid(a4_hz)
    table = grid.note_freq(np.arange(network.MIDI_LOW, network.MIDI_HIGH + 1))
    for midi in range(network.MIDI_LOW, network.MIDI_HIGH):
        b = grid_bin(midi, grid)
        for got, m in ((b.lower_hz, midi), (b.upper_hz, midi + 1)):
            want = grid.a4_hz * 2.0 ** ((np.asarray(m) - 69) / 12.0)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (a4_hz, m)
            assert np.float64(got).tobytes() == table[m - network.MIDI_LOW].tobytes(), (a4_hz, m)


PROBE_A4_HZ = (220.0, 415.0, 432.0, 440.0, 443.7, 466.16, 880.0)


def _note_edge_probe(a4_hz):
    """Every note edge of the grid by numpy's array power and by Python's
    `**`, which can differ in the last bits, with the float neighbours of each."""
    midis = np.arange(network.MIDI_LOW - 1, network.MIDI_HIGH + 2)
    array_notes = a4_hz * 2.0 ** ((midis - 69) / 12.0)
    notes = np.concatenate([array_notes, [a4_hz * 2.0 ** ((m - 69) / 12.0) for m in midis.tolist()]])
    return np.concatenate([notes, np.nextafter(notes, 0.0), np.nextafter(notes, np.inf)])


def _placements(probes):
    """bin_of of every probe frequency and the network of each probe, as JSON."""
    out = {}
    for a4_hz, freqs in probes.items():
        grid = PitchGrid(float(a4_hz))
        bins = [bin_of(f, grid) for f in freqs]
        net = build_network(np.asarray(freqs), grid)
        out[a4_hz] = {
            "bins": [None if b is None else [b.midi_lower, b.lower_hz, b.upper_hz] for b in bins],
            "nodes": [[b.midi_lower, b.lower_hz, b.upper_hz] for b in net.nodes],
            "edges": sorted(net.edges),
            "dropped": net.dropped_components,
        }
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("a4_hz", PROBE_A4_HZ)
def test_bin_bounds_contain_every_frequency_placed_in_the_bin(a4_hz):
    grid = PitchGrid(a4_hz)
    for f in _note_edge_probe(a4_hz).tolist():
        b = bin_of(f, grid)
        assert b is None or b.lower_hz <= f < b.upper_hz, (a4_hz, f)


SIMD_PROBE = """
import json, sys
from test_network import _placements
with open(sys.argv[1]) as fh:
    print(json.dumps(_placements(json.load(fh))))
"""


def test_bin_placement_does_not_depend_on_numpy_simd_kernels(tmp_path):
    # the probe is made once, here, so both runs place the same doubles
    probes = {str(a4_hz): _note_edge_probe(a4_hz).tolist() for a4_hz in PROBE_A4_HZ}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probes))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    }
    out = subprocess.run(
        [sys.executable, "-c", SIMD_PROBE, str(path)], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert json.loads(out.stdout) == _placements(probes)


def _midi_of_per_component(freqs, grid):
    """_midi_of with note_freq evaluated over the whole array at each step."""
    with np.errstate(divide="ignore"):
        m = np.floor(69.0 + 12.0 * np.log2(freqs / grid.a4_hz))
    m = np.clip(m, network.MIDI_LOW - 1, network.MIDI_HIGH).astype(np.int64)
    m += freqs >= grid.note_freq(m + 1)
    m -= freqs < grid.note_freq(m)
    return m


@pytest.mark.parametrize("a4_hz", [220.0, 415.0, 440.0, 443.7, 880.0])
def test_midi_of_note_table_matches_note_freq_per_component(a4_hz, rng):
    # every note frequency, its float neighbours, and log-uniform frequencies in
    # and around the grid; a table entry must be the double note_freq gives
    grid = PitchGrid(a4_hz)
    notes = grid.note_freq(np.arange(network.MIDI_LOW - 1, network.MIDI_HIGH + 2))
    freqs = np.concatenate(
        [notes, np.nextafter(notes, 0.0), np.nextafter(notes, np.inf), np.exp(rng.uniform(0.0, 11.0, 50_000))]
    )
    assert np.array_equal(network._midi_of(freqs, grid), _midi_of_per_component(freqs, grid))


@settings(max_examples=60, deadline=None)
@given(st.floats(network.A4_MIN_HZ, network.A4_MAX_HZ), st.integers(0, 2**32 - 1))
def test_midi_of_ascending_matches_the_log_ratio(a4_hz, seed):
    # every note frequency and its float neighbours, log-uniform frequencies in
    # and around the grid, and frequencies far below it (subnormal) and above it
    grid = PitchGrid(a4_hz)
    notes = grid.note_freq(np.arange(network.MIDI_LOW - 1, network.MIDI_HIGH + 2))
    rng = np.random.default_rng(seed)
    freqs = np.unique(
        np.concatenate(
            [
                notes,
                np.nextafter(notes, 0.0),
                np.nextafter(notes, np.inf),
                np.exp(rng.uniform(-2.0, 11.0, 2_000)),
                [5e-324, 1e-300, 1e300],
            ]
        )
    )
    want = network._midi_of_log(freqs, notes, a4_hz)
    assert want.min() == network.MIDI_LOW - 2 and want.max() == network.MIDI_HIGH + 1
    assert np.array_equal(network._midi_of_ascending(freqs, notes), want)
    # the dispatch: the ascending order takes the binary search, its reverse the log-ratio
    assert np.array_equal(network._midi_of(freqs, grid), want)
    assert np.array_equal(network._midi_of(freqs[::-1], grid), want[::-1])


def test_bin_partition_covers_grid(rng):
    low, high = float(GRID.note_freq(network.MIDI_LOW)), float(GRID.note_freq(network.MIDI_HIGH))
    freqs = np.exp(rng.uniform(np.log(low), np.log(high * 0.999), size=2_000))
    for f in freqs:
        b = bin_of(float(f), GRID)
        assert b is not None
        assert b.lower_hz <= f < b.upper_hz


def test_bin_of_exact_note_frequencies():
    for midi in range(network.MIDI_LOW, network.MIDI_HIGH):
        b = bin_of(float(GRID.note_freq(midi)), GRID)
        assert b.midi_lower == midi


# --- network construction ------------------------------------------------------------

def test_single_bin_sequence_no_edges():
    net = net_from([330.0, 340.0, 345.0])
    assert len(net.nodes) == 1
    assert len(net.edges) == 0
    assert net.single_node
    assert len(net.largest_clique) == 1


def test_duplicate_edges_collapse():
    net = net_from([330.0, 466.0, 330.0])
    assert [(n.lower_note, n.upper_note) for n in net.nodes] == [("E4", "F4"), ("A4", "A♯4")]
    assert len(net.edges) == 1


def test_three_bins_path():
    net = net_from([330.0, 470.0, 988.5])
    assert len(net.nodes) == 3
    assert len(net.edges) == 2
    midis = [n.midi_lower for n in net.nodes]
    assert sorted(net.edges) == [(midis[0], midis[1]), (midis[1], midis[2])]


def test_out_of_range_components_stitched():
    # the 10 Hz component is dropped, so its neighbors become adjacent
    net = net_from([330.0, 10.0, 466.0])
    assert net.dropped_components == 1
    assert len(net.edges) == 1


def test_empty_network_error():
    with pytest.raises(EmptyNetwork):
        net_from([10.0, 11.0])
    with pytest.raises(EmptyNetwork):
        net_from([])


def test_degree_sum_is_twice_edges(rng):
    freqs = np.exp(rng.uniform(np.log(30.0), np.log(4000.0), size=400))
    net = net_from(freqs)
    n = len(net.nodes)
    assert sum(round(c * (n - 1)) for c in net.degree_centrality.values()) == 2 * len(net.edges)


# --- degree centrality ----------------------------------------------------------------

def test_path_centrality():
    net = net_from([330.0, 470.0, 990.0])  # path a-b-c
    cent = net.degree_centrality
    values = [cent[n.midi_lower] for n in net.nodes]
    assert sorted(values) == [0.5, 0.5, 1.0]


def test_complete_graph_centrality():
    # walk every pair of 4 bins to build K4
    f = [262.0, 330.0, 392.0, 466.0]
    walk = [f[0], f[1], f[2], f[3], f[0], f[2], f[1], f[3]]
    net = net_from(walk)
    assert len(net.edges) == 6
    cent = net.degree_centrality
    assert all(v == 1.0 for v in cent.values())


def test_star_centrality():
    center = 440.0
    leaves = [262.0, 294.0, 330.0, 350.0, 392.0]
    walk = []
    for leaf in leaves:
        walk += [center, leaf]
    net = net_from(walk)
    cent = net.degree_centrality
    assert cent[bin_of(center, GRID).midi_lower] == 1.0
    for leaf in leaves:
        assert cent[bin_of(leaf, GRID).midi_lower] == 0.2


def test_single_node_centrality_is_empty():
    net = net_from([330.0, 335.0])
    assert net.single_node
    assert net.degree_centrality == {}


def test_centrality_in_unit_interval(rng):
    freqs = np.exp(rng.uniform(np.log(30.0), np.log(4000.0), size=300))
    cent = net_from(freqs).degree_centrality
    assert all(0.0 <= v <= 1.0 for v in cent.values())


# --- cliques ----------------------------------------------------------------------------

def test_triangle_plus_pendant():
    a, b, c, d = 262.0, 330.0, 392.0, 988.0
    walk = [a, b, c, a, c, d]  # triangle a-b-c plus pendant d on c
    net = net_from(walk)
    clique = largest_clique(net)
    names = {x.lower_note for x in clique}
    assert len(clique) == 3
    assert bin_of(d, GRID).lower_note not in names


def test_edgeless_graph_lowest_midi_tiebreak():
    net = net_from([330.0, 331.0, 466.0, 467.0, 988.0])
    # two nodes, one edge here; build a true edgeless case manually
    nodes = tuple(grid_bin(m) for m in (50, 44, 60, 71, 55))
    edgeless = network.SoundNetwork(grid=GRID, nodes=nodes, edges=frozenset())
    clique = largest_clique(edgeless)
    assert len(clique) == 1
    assert clique[0].midi_lower == 44


def test_clique_matches_bruteforce_on_seeded_graphs():
    rng = np.random.default_rng(77)
    for _ in range(30):
        net = random_network(12, 0.5, rng)
        index = {b.midi_lower: i for i, b in enumerate(net.nodes)}
        edges = [(index[a], index[b]) for a, b in net.edges]
        assert len(largest_clique(net)) == len(max_clique_bruteforce(12, edges))


def test_clique_deterministic_tiebreak():
    # two disjoint triangles: {60,61,62} and {64,65,66}; lexicographically
    # smallest sorted MIDI tuple must win
    nodes = tuple(grid_bin(m) for m in (60, 61, 62, 64, 65, 66))
    edges = frozenset({(60, 61), (60, 62), (61, 62), (64, 65), (64, 66), (65, 66)})
    net = network.SoundNetwork(grid=GRID, nodes=nodes, edges=edges)
    assert tuple(b.midi_lower for b in largest_clique(net)) == (60, 61, 62)


def test_clique_members_pairwise_adjacent(rng):
    freqs = np.exp(rng.uniform(np.log(30.0), np.log(4000.0), size=600))
    net = net_from(freqs)
    clique = largest_clique(net)
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            assert (a.midi_lower, b.midi_lower) in net.edges


# --- octave histogram ----------------------------------------------------------------------

def test_histogram_boundary_bin():
    clique = (grid_bin(21),)  # (A0, A#0)
    counts = clique_octave_histogram(clique)
    assert counts["[A0-A1)"] == 1
    assert sum(counts.values()) == 1


def test_histogram_e4_and_asharp4():
    clique = (bin_of(330.0, GRID), bin_of(470.0, GRID))  # (E4,F4) and (A#4,B4)
    counts = clique_octave_histogram(clique)
    assert counts["[A3-A4)"] == 1  # E4 = 329.63 Hz lies in [220, 440)
    assert counts["[A4-A5)"] == 1  # A#4 = 466.16 Hz lies in [440, 880)
    assert sum(counts.values()) == 2


def test_histogram_empty_clique():
    counts = clique_octave_histogram(())
    assert sum(counts.values()) == 0
    assert list(counts) == list(OCTAVE_BUCKETS)


def test_histogram_overflow_buckets():
    clique = (grid_bin(15), grid_bin(100))
    counts = clique_octave_histogram(clique)
    assert counts["<A0"] == 1
    assert counts[">=A6"] == 1


@pytest.mark.parametrize(
    "midi, bucket",
    [(20, "<A0"), (21, "[A0-A1)"), (32, "[A0-A1)"), (33, "[A1-A2)"), (92, "[A5-A6)"), (93, ">=A6")],
)
def test_histogram_bucket_edges(midi, bucket):
    counts = clique_octave_histogram((grid_bin(midi),))
    assert counts[bucket] == 1
    assert sum(counts.values()) == 1


def test_histogram_counts_sum_to_clique_size(rng):
    freqs = np.exp(rng.uniform(np.log(30.0), np.log(4000.0), size=500))
    net = net_from(freqs)
    counts = clique_octave_histogram(net.largest_clique)
    assert sum(counts.values()) == len(net.largest_clique)
    assert net.clique_octaves == counts


# --- structural invariants ---------------------------------------------------------------------

def test_retuning_invariance():
    freqs = np.array([262.0, 330.0, 392.0, 466.0, 330.0, 990.0])
    base = build_network(freqs, PitchGrid())
    factor = 415.0 / 440.0
    scaled = build_network(freqs * factor, PitchGrid(a4_hz=415.0))
    assert [n.midi_lower for n in base.nodes] == [n.midi_lower for n in scaled.nodes]
    assert sorted(base.edges) == sorted(scaled.edges)


def test_network_to_dict_round_trip_fields():
    net = net_from([330.0, 470.0, 330.0, 990.0])
    payload = network.network_to_dict(net)
    assert payload["clique_size"] == len(net.largest_clique)
    assert len(payload["nodes"]) == len(net.nodes)
    assert len(payload["edges"]) == len(net.edges)
    assert payload["dropped_components"] == 0
    for i, j in payload["edges"]:
        assert 0 <= i < len(net.nodes)
        assert 0 <= j < len(net.nodes)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["noise", "tones", "tones+noise"]),
    st.integers(256, 8192),
    st.sampled_from([8000, 22050, 44100]),
    st.integers(0, 2**32 - 1),
)
def test_full_mode_network_is_a_path(kind, n, rate, seed):
    # the full mode's peaks ascend, so build_network joins only neighbouring bins
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    if "tones" in kind:
        for f in rng.uniform(30.0, 3000.0, size=rng.integers(1, 6)):
            x += sine(f, n / rate, rate, rng.uniform(0.1, 1.0))[:n]
    if "noise" in kind:
        x += 0.1 * rng.standard_normal(n)
    seq = spectral.extract_sequence_full(spectral.dft(x, rate))
    assume(len(seq) > 0)  # a slow tone alone can leave no peak
    assert_is_path(build_network(seq, GRID))


# --- direct construction -------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_direct_network_equals_built_network(seed):
    rng = np.random.default_rng(seed)
    walk = rng.choice(np.arange(40, 70), size=200)
    # the geometric middle of each bin, well clear of both bounds
    built = net_from(GRID.note_freq(walk) * 2.0 ** (1.0 / 24.0))
    edges = frozenset((min(a, b), max(a, b)) for a, b in zip(walk[:-1].tolist(), walk[1:].tolist()) if a != b)
    midis = rng.permutation(np.unique(walk)).tolist()
    direct = network.SoundNetwork(grid=GRID, nodes=tuple(grid_bin(m) for m in midis), edges=edges)
    assert [b.midi_lower for b in direct.nodes] == sorted(midis)
    assert direct.nodes == built.nodes
    assert direct.degree_centrality == built.degree_centrality
    assert len(direct.degree_centrality) == len(midis)
    assert direct.largest_clique == built.largest_clique == largest_clique(direct)
    assert network.network_to_dict(direct) == network.network_to_dict(built)
    assert direct == built


BAD_EDGES = pytest.mark.parametrize(
    "edge",
    [(60, 99), (99, 60), (13, 60), (64, 60), (60, 60), (-60, 64), (60, 62.5), (60, np.nan)],
    ids=[
        "hi-not-a-node", "lo-not-a-node", "below-the-nodes", "lo-above-hi", "self-loop",
        "negative", "non-integer", "nan",
    ],
)


@BAD_EDGES
def test_direct_network_rejects_bad_edge(edge):
    nodes = tuple(grid_bin(m) for m in (64, 60, 67))
    with pytest.raises(ValueError):
        network.SoundNetwork(grid=GRID, nodes=nodes, edges=frozenset({(60, 64), edge}))


@BAD_EDGES
def test_direct_network_rejects_bad_edge_in_array(edge):
    nodes = tuple(grid_bin(m) for m in (64, 60, 67))
    with pytest.raises(ValueError, match="is not"):
        network.SoundNetwork(grid=GRID, nodes=nodes, edges=np.array([(60, 64), edge]))


@pytest.mark.parametrize(
    "edges",
    [np.array([[60, 64, 67]]), np.array([60, 64]), np.array([["60", "64"]]), [(60, 64), (64, 67, 60)]],
    ids=["three-columns", "one-dimensional", "strings", "ragged"],
)
def test_direct_network_rejects_edges_not_pairs(edges):
    nodes = tuple(grid_bin(m) for m in (64, 60, 67))
    with pytest.raises(ValueError):
        network.SoundNetwork(grid=GRID, nodes=nodes, edges=edges)


def loop_masks(midis, edges) -> tuple:
    """Reference adjacency bitmasks by one loop over the edges, ranks by ascending MIDI."""
    rank = {m: i for i, m in enumerate(sorted(midis))}
    masks = [0] * len(rank)
    for a, b in edges:
        masks[rank[a]] |= 1 << rank[b]
        masks[rank[b]] |= 1 << rank[a]
    return tuple(masks)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(40, 69), min_size=1, max_size=120), st.integers(0, 2**32 - 1))
def test_edge_set_array_and_built_network_agree(walk, seed):
    rng = np.random.default_rng(seed)
    pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(walk[:-1], walk[1:]) if a != b})
    rows = rng.permutation(np.array(pairs + pairs[::2], dtype=np.int64).reshape(-1, 2))  # shuffled, some repeated
    nodes = tuple(grid_bin(m) for m in rng.permutation(sorted(set(walk))).tolist())
    from_set = network.SoundNetwork(grid=GRID, nodes=nodes, edges=frozenset(pairs))
    from_array = network.SoundNetwork(grid=GRID, nodes=nodes, edges=rows)
    built = net_from(GRID.note_freq(np.array(walk)) * 2.0 ** (1.0 / 24.0))
    for net in (from_set, from_array, built):
        assert net.edges == frozenset(pairs)
        assert net._masks == loop_masks(set(walk), pairs)
        assert net.degree_centrality == built.degree_centrality
        assert net.largest_clique == built.largest_clique
        assert network.network_to_dict(net) == network.network_to_dict(built)
        assert net == built


def test_empty_edge_array_and_empty_set_agree():
    nodes = tuple(grid_bin(m) for m in (64, 60, 67))
    from_array = network.SoundNetwork(grid=GRID, nodes=nodes, edges=np.empty((0, 2), dtype=np.int64))
    from_set = network.SoundNetwork(grid=GRID, nodes=nodes, edges=frozenset())
    assert from_array == from_set
    assert from_array.edges == frozenset()
    assert from_array.degree_centrality == {60: 0.0, 64: 0.0, 67: 0.0}
    assert network.network_to_dict(from_array)["edges"] == []
    empty = network.SoundNetwork(grid=GRID, nodes=(), edges=frozenset())
    assert (empty.nodes, empty.edges, empty.largest_clique, empty.degree_centrality) == ((), frozenset(), (), {})
    assert empty.adjacency.shape == (0, 0)


def test_hot_path_builds_no_edge_set():
    # the JSON report, the corpus summary and the clique read the matrix, never the tuple set
    draws = np.random.default_rng(11).exponential(scale=300.0, size=2_000) + 40.0
    net = build_network(draws, GRID)
    network.network_to_dict(net)
    corpus.summary_csv(corpus.corpus_report({"piece": (distfit.best_fit(draws), net)}))
    assert "edges" not in vars(net)
    assert net.adjacency.dtype == bool and net.adjacency.shape == (len(net.nodes),) * 2
    with pytest.raises(ValueError):
        net.adjacency[0, 1] = not net.adjacency[0, 1]


def test_direct_network_rejects_duplicate_node():
    nodes = tuple(grid_bin(m) for m in (60, 60, 61))
    with pytest.raises(ValueError):
        network.SoundNetwork(grid=GRID, nodes=nodes, edges=frozenset({(60, 61)}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frequency_rejected(bad):
    # not counted as a component outside the grid
    with pytest.raises(NonFiniteValues):
        build_network([bad, 440.0])
    with pytest.raises(NonFiniteValues):
        build_network([261.6, 440.0, bad, 523.3])
