"""Maximum-clique search against member-level oracles: brute force on small
graphs, the MIDI-order MCQ search up to 108 nodes, and members pinned from it
on dense graphs where it takes seconds."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soundnet.network import (
    MIDI_HIGH,
    MIDI_LOW,
    PitchGrid,
    SoundNetwork,
    build_network,
    grid_bin,
    largest_clique,
)
from soundnet.selftest import max_clique_bruteforce, max_clique_mcq, random_network

GRID = PitchGrid()


def oracle_midis(net) -> tuple:
    """The oracle's clique as MIDI numbers, vertices ranked by ascending MIDI."""
    midis = sorted(b.midi_lower for b in net.nodes)
    rank = {m: i for i, m in enumerate(midis)}
    members = max_clique_bruteforce(len(midis), [(rank[a], rank[b]) for a, b in net.edges])
    return tuple(midis[i] for i in members)


def clique_midis(net) -> tuple:
    return tuple(b.midi_lower for b in largest_clique(net))


@st.composite
def labelled_graphs(draw):
    """Up to 14 distinct grid MIDI labels in any order, and any subset of their pairs."""
    midis = draw(st.lists(st.integers(MIDI_LOW, MIDI_HIGH - 1), min_size=1, max_size=14, unique=True))
    pairs = list(itertools.combinations(sorted(midis), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return midis, frozenset(p for p, k in zip(pairs, keep) if k)


def labelled_network(graph) -> SoundNetwork:
    midis, edges = graph
    return SoundNetwork(grid=GRID, nodes=tuple(grid_bin(m) for m in midis), edges=edges)


@settings(max_examples=300, deadline=None)
@given(labelled_graphs())
@example(([50, 44, 60, 71, 55], frozenset()))  # edgeless, unsorted labels
@example((list(range(40, 54)), frozenset(itertools.combinations(range(40, 54), 2))))  # K14
@example(([90, 13, 77, 119, 12], frozenset(itertools.combinations([12, 13, 77, 90, 119], 2))))
def test_clique_members_match_oracle_on_small_graphs(graph):
    net = labelled_network(graph)
    assert clique_midis(net) == oracle_midis(net)


def test_oracle_edgeless_and_complete():
    assert max_clique_bruteforce(0, []) == ()
    assert max_clique_bruteforce(4, []) == (0,)
    assert max_clique_bruteforce(4, list(itertools.combinations(range(4), 2))) == (0, 1, 2, 3)
    # two triangles: the lexicographically smaller one wins
    assert max_clique_bruteforce(6, [(3, 4), (3, 5), (4, 5), (0, 2), (0, 5), (2, 5)]) == (0, 2, 5)


@pytest.mark.parametrize("edge_prob", [0.3, 0.5, 0.7])
def test_clique_members_match_oracle_on_seeded_graphs(edge_prob):
    rng = np.random.default_rng(2003)
    for n in range(20, 25):
        net = random_network(n, edge_prob, rng)
        assert clique_midis(net) == oracle_midis(net)



def test_built_network_clique_matches_oracle():
    # build_network searches the masks it builds from the sequence; largest_clique
    # rebuilds them from the edge set
    rng = np.random.default_rng(5)
    for size in (30, 60, 120, 400):
        midis = rng.integers(48, 68, size=size)
        net = build_network(440.0 * 2.0 ** ((midis + 0.5 - 69.0) / 12.0), GRID)
        assert clique_midis(net) == oracle_midis(net)
        assert net.largest_clique == largest_clique(net)

# members found by the earlier set-based Bron-Kerbosch search
PINNED = {
    (108, 0.7): (63, 64, 69, 73, 79, 80, 83, 89, 104, 108, 109, 111, 113, 115, 141),
    (80, 0.8): (66, 72, 75, 82, 87, 90, 92, 94, 96, 104, 112, 122, 124, 127, 131, 133, 136, 137, 139),
    (60, 0.9): (60, 65, 68, 71, 72, 76, 77, 80, 82, 83, 84, 85, 86, 90, 93, 94, 95, 102, 107, 108, 110, 115, 116),
}


@pytest.mark.parametrize("n, edge_prob", list(PINNED))
def test_dense_clique_members_pinned(n, edge_prob):
    net = random_network(n, edge_prob, np.random.default_rng(0))
    assert clique_midis(net) == PINNED[n, edge_prob]


@pytest.mark.slow
def test_dense_108_node_clique_is_fast():
    net = random_network(108, 0.7, np.random.default_rng(0))
    started = time.perf_counter()
    largest_clique(net)
    assert time.perf_counter() - started < 5.0


@st.composite
def large_graphs(draw):
    """Up to 108 nodes at edge probability up to 0.7, from a drawn seed."""
    n = draw(st.integers(1, 108))
    p = draw(st.floats(0.0, 0.7))
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n * (n - 1) // 2) < p
    pairs = itertools.combinations(range(MIDI_LOW, MIDI_LOW + n), 2)
    return list(range(MIDI_LOW, MIDI_LOW + n)), frozenset(pair for pair, k in zip(pairs, keep) if k)


@settings(max_examples=60, deadline=None)
@given(large_graphs())
def test_clique_members_match_mcq_beyond_bruteforce(graph):
    net = labelled_network(graph)
    members = max_clique_mcq(net._masks)
    assert clique_midis(net) == tuple(b.midi_lower for i, b in enumerate(net.nodes) if members >> i & 1)


def gnp_108(pct: int, seed: int) -> tuple:
    """G(108, pct / 100) over the grid's MIDI numbers: pair (a, b) is kept where
    default_rng([seed, pct]).random(5778) < pct / 100, pairs in combinations order."""
    pairs = list(itertools.combinations(range(MIDI_LOW, MIDI_HIGH), 2))
    keep = np.random.default_rng([seed, pct]).random(len(pairs)) < pct / 100
    return tuple(grid_bin(m) for m in range(MIDI_LOW, MIDI_HIGH)), frozenset(p for p, k in zip(pairs, keep) if k)


def long_sequence_hz(n: int, seed: int) -> np.ndarray:
    """n bin-centre frequencies of uniform random bins: edge density about 0.87 at 12,000, 0.93 at 16,000."""
    midis = np.random.default_rng([seed, n]).integers(MIDI_LOW, MIDI_HIGH, n)
    return 440.0 * 2.0 ** ((midis + 0.5 - 69.0) / 12.0)


# members found by the MIDI-order MCQ search (selftest.max_clique_mcq), which
# takes up to 12 s on these graphs
DENSE_108 = {
    (80, 0): (
        12, 13, 17, 18, 27, 30, 32, 35, 39, 51, 56, 67, 71, 80, 82, 84, 95, 103, 118
    ),
    (80, 1): (
        16, 17, 19, 42, 44, 45, 51, 53, 56, 60, 62, 67, 70, 76, 78, 80, 81, 88, 114, 117
    ),
    (80, 2): (
        14, 16, 19, 21, 31, 46, 48, 49, 58, 60, 62, 68, 72, 86, 95, 96, 97, 99, 103, 115, 118
    ),
    (85, 0): (
        12, 13, 14, 22, 31, 35, 37, 38, 41, 44, 46, 57, 58, 60, 66, 68, 72, 82, 87, 91, 92, 96,
        98, 99, 100
    ),
    (85, 1): (
        12, 15, 21, 27, 28, 30, 40, 41, 47, 52, 57, 73, 74, 76, 77, 79, 93, 95, 97, 100, 102,
        108, 112, 113, 114
    ),
    (85, 2): (
        12, 13, 15, 16, 17, 20, 22, 31, 35, 54, 57, 58, 62, 65, 68, 71, 73, 83, 85, 87, 99, 101,
        103, 111, 114, 115
    ),
    (90, 0): (
        12, 20, 21, 23, 25, 30, 32, 33, 34, 36, 39, 46, 48, 51, 52, 53, 56, 58, 62, 65, 66, 69,
        72, 73, 74, 77, 83, 85, 87, 92, 97, 101, 105, 113
    ),
    (90, 1): (
        17, 18, 19, 21, 23, 25, 28, 29, 31, 33, 41, 43, 45, 54, 57, 66, 67, 68, 72, 77, 78, 82,
        88, 94, 96, 97, 100, 103, 108, 111, 113, 117, 119
    ),
    (90, 2): (
        12, 13, 14, 15, 16, 17, 18, 19, 21, 28, 29, 32, 38, 45, 46, 48, 57, 62, 63, 71, 72, 73,
        83, 92, 97, 104, 105, 107, 108, 112, 116, 117
    ),
    (95, 0): (
        15, 19, 20, 23, 25, 26, 29, 30, 34, 36, 37, 40, 41, 42, 50, 51, 54, 56, 57, 62, 67, 69,
        70, 71, 74, 75, 76, 80, 81, 82, 89, 90, 91, 94, 95, 96, 97, 98, 101, 102, 105, 106, 110,
        112, 116, 119
    ),
    (95, 1): (
        12, 14, 19, 20, 21, 23, 24, 29, 33, 34, 35, 38, 43, 44, 45, 46, 48, 49, 50, 51, 53, 54,
        55, 56, 61, 62, 69, 70, 74, 75, 76, 87, 89, 90, 95, 101, 104, 107, 110, 112, 113, 114,
        115, 118, 119
    ),
    (95, 2): (
        12, 13, 14, 16, 26, 27, 30, 32, 39, 41, 43, 44, 46, 48, 54, 55, 56, 58, 61, 67, 70, 73,
        79, 80, 82, 89, 90, 91, 92, 94, 96, 98, 101, 103, 104, 105, 106, 107, 108, 111, 113,
        114, 115, 116
    ),
    (98, 0): (
        12, 13, 14, 15, 16, 17, 18, 20, 22, 24, 26, 28, 29, 30, 32, 34, 35, 36, 37, 38, 40, 41,
        42, 46, 47, 48, 54, 55, 56, 59, 60, 63, 64, 66, 69, 70, 71, 72, 74, 75, 77, 78, 80, 81,
        84, 85, 88, 93, 94, 95, 97, 99, 102, 104, 105, 108, 109, 111, 113, 114, 115, 117, 119
    ),
    (98, 1): (
        12, 14, 17, 18, 19, 21, 22, 23, 24, 25, 27, 29, 30, 31, 32, 33, 34, 35, 36, 37, 39, 40,
        41, 43, 44, 45, 47, 48, 50, 51, 52, 54, 55, 56, 57, 58, 59, 60, 61, 62, 66, 67, 72, 73,
        74, 76, 77, 78, 80, 82, 84, 87, 89, 91, 92, 93, 96, 98, 99, 102, 104, 107, 110, 111,
        112, 116, 118
    ),
    (98, 2): (
        12, 13, 14, 15, 16, 17, 19, 20, 22, 23, 25, 26, 27, 28, 30, 32, 36, 37, 38, 39, 43, 46,
        47, 48, 52, 54, 55, 56, 57, 58, 60, 61, 64, 66, 67, 69, 71, 73, 74, 78, 80, 81, 82, 83,
        84, 85, 88, 91, 92, 96, 97, 98, 99, 103, 105, 107, 114, 115, 116, 118
    ),
}

LONG_SEQUENCES = {
    (12000, 0): (
        14, 15, 19, 22, 24, 27, 36, 45, 48, 49, 56, 57, 58, 59, 60, 67, 69, 72, 75, 80, 82, 89,
        91, 92, 96, 97, 103, 111, 113, 117
    ),
    (12000, 1): (
        15, 16, 20, 22, 27, 30, 31, 32, 37, 46, 47, 48, 52, 59, 60, 61, 62, 68, 69, 72, 80, 85,
        97, 106, 109, 119
    ),
    (12000, 2): (
        12, 13, 14, 30, 32, 33, 37, 40, 49, 50, 52, 53, 55, 58, 59, 65, 66, 67, 68, 78, 83, 86,
        88, 95, 103, 106, 107, 110, 118
    ),
    (16000, 0): (
        15, 20, 22, 23, 24, 27, 29, 31, 35, 36, 47, 50, 52, 54, 55, 59, 61, 64, 66, 68, 71, 75,
        77, 80, 81, 83, 85, 86, 87, 90, 93, 97, 100, 102, 103, 108, 110, 112, 115, 117, 118
    ),
    (16000, 1): (
        13, 14, 15, 20, 21, 23, 24, 26, 29, 30, 31, 32, 33, 38, 40, 42, 46, 47, 49, 52, 54, 57,
        60, 68, 71, 76, 81, 85, 86, 87, 88, 91, 96, 98, 102, 107, 110, 112, 114, 115, 116
    ),
    (16000, 2): (
        13, 14, 17, 18, 19, 22, 23, 26, 28, 32, 39, 41, 42, 44, 45, 46, 49, 50, 52, 55, 57, 58,
        62, 64, 68, 70, 77, 78, 85, 89, 90, 91, 92, 95, 100, 106, 111, 112, 114, 115, 116
    ),
}


@pytest.mark.parametrize("pct, seed", list(DENSE_108))
def test_dense_108_node_members_pinned(pct, seed):
    nodes, edges = gnp_108(pct, seed)
    assert clique_midis(SoundNetwork(grid=GRID, nodes=nodes, edges=edges)) == DENSE_108[pct, seed]


@pytest.mark.parametrize("n, seed", list(LONG_SEQUENCES))
def test_long_sequence_members_pinned(n, seed):
    assert clique_midis(build_network(long_sequence_hz(n, seed), GRID)) == LONG_SEQUENCES[n, seed]


@pytest.mark.slow
@pytest.mark.parametrize("pct, seed", list(DENSE_108))
def test_dense_108_node_network_within_1s(pct, seed):
    nodes, edges = gnp_108(pct, seed)
    started = time.perf_counter()
    SoundNetwork(grid=GRID, nodes=nodes, edges=edges)
    assert time.perf_counter() - started < 1.0


@pytest.mark.slow
@pytest.mark.parametrize("n, seed", list(LONG_SEQUENCES))
def test_long_sequence_build_within_1s(n, seed):
    hz = long_sequence_hz(n, seed)
    started = time.perf_counter()
    build_network(hz, GRID)
    assert time.perf_counter() - started < 1.0
