"""Maximum-clique search against the member-level brute-force oracle."""

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
from soundnet.selftest import max_clique_bruteforce, random_network

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
