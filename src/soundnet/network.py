"""Network of sounds: pitch-bin nodes, consecutive-component edges, degree
centrality, and maximum-clique detection.

Nodes are half-open semitone intervals [note m, note m+1) of the 12-tone
equal-tempered grid; an undirected simple edge joins the bins of each pair of
consecutive in-range frequency components. Same-bin pairs (self-loops) are
dropped and repeated edges collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyNetwork, NonFiniteValues, NonPositiveFrequency, SingleNode

PITCH_CLASS_NAMES = ("C", "C♯", "D", "D♯", "E", "F", "F♯", "G", "G♯", "A", "A♯", "B")

MIDI_LOW = 12   # C0
MIDI_HIGH = 120  # C9 (exclusive upper edge of the grid)

# accepted A4 anchors: an octave either side of 440 Hz covers every historical
# and modern concert pitch, and keeps the grid within audible frequencies
A4_MIN_HZ = 220.0
A4_MAX_HZ = 880.0


def note_name(midi: int) -> str:
    return f"{PITCH_CLASS_NAMES[midi % 12]}{midi // 12 - 1}"


@dataclass(frozen=True)
class PitchGrid:
    """Equal-tempered reference grid, tunable via the A4 anchor in [A4_MIN_HZ, A4_MAX_HZ]."""

    a4_hz: float = 440.0

    def __post_init__(self):
        if not A4_MIN_HZ <= self.a4_hz <= A4_MAX_HZ:  # also rejects NaN
            raise ValueError(f"a4_hz must be in [{A4_MIN_HZ:g}, {A4_MAX_HZ:g}] Hz, got {self.a4_hz!r}")

    def note_freq(self, midi) -> float:
        return self.a4_hz * 2.0 ** ((np.asarray(midi) - 69) / 12.0)

    @property
    def low_hz(self) -> float:
        return float(self.note_freq(MIDI_LOW))

    @property
    def high_hz(self) -> float:
        return float(self.note_freq(MIDI_HIGH))


@dataclass(frozen=True)
class PitchBin:
    """Half-open frequency interval between two adjacent notes; f belongs to
    the bin iff lower_hz <= f < upper_hz."""

    midi_lower: int
    lower_note: str
    upper_note: str
    lower_hz: float
    upper_hz: float


def grid_bin(midi: int, grid: PitchGrid | None = None) -> PitchBin:
    """The pitch bin whose lower note is the given MIDI number."""
    grid = grid or PitchGrid()
    # PitchGrid.note_freq's expression in Python floats: numpy scalar arithmetic
    # costs microseconds per call, and the result is the same double
    return PitchBin(
        midi_lower=midi,
        lower_note=note_name(midi),
        upper_note=note_name(midi + 1),
        lower_hz=grid.a4_hz * 2.0 ** ((midi - 69) / 12.0),
        upper_hz=grid.a4_hz * 2.0 ** ((midi + 1 - 69) / 12.0),
    )


def _midi_of(freqs: np.ndarray, grid: PitchGrid) -> np.ndarray:
    """Lower-note MIDI number of the bin containing each frequency.

    The floor of the log-ratio is nudged so the decision is anchored on the
    note frequencies themselves, keeping lower-inclusive bounds exact. It is
    first clipped to [MIDI_LOW - 1, MIDI_HIGH], which changes no in-grid
    result: a frequency too low for a finite log-ratio (a subnormal) or far
    outside the grid then lands just outside it, with no int64 wraparound.
    The note frequencies come from one note_freq table over
    MIDI_LOW - 1 ... MIDI_HIGH + 1, the same doubles as note_freq of each m.
    """
    with np.errstate(divide="ignore"):  # log2(0) = -inf where freqs / a4 underflows
        m = np.floor(69.0 + 12.0 * np.log2(freqs / grid.a4_hz))
    m = np.clip(m, MIDI_LOW - 1, MIDI_HIGH).astype(np.int64)
    notes = grid.note_freq(np.arange(MIDI_LOW - 1, MIDI_HIGH + 2))
    m += freqs >= notes[m - (MIDI_LOW - 2)]
    m -= freqs < notes[m - (MIDI_LOW - 1)]
    return m


def bin_of(freq_hz: float, grid: PitchGrid | None = None) -> PitchBin | None:
    """The unique pitch bin containing freq_hz, or None when outside the grid.

    Raises NonFiniteValues for NaN or an infinite freq_hz, and
    NonPositiveFrequency for freq_hz <= 0.
    """
    grid = grid or PitchGrid()
    if not np.isfinite(freq_hz):
        raise NonFiniteValues(f"frequency must be finite, got {freq_hz}")
    if freq_hz <= 0.0:
        raise NonPositiveFrequency(f"frequency must be > 0 Hz, got {freq_hz}")
    midi = int(_midi_of(np.asarray([freq_hz], dtype=np.float64), grid)[0])
    if midi < MIDI_LOW or midi >= MIDI_HIGH:
        return None
    return grid_bin(midi, grid)


@dataclass(frozen=True)
class SoundNetwork:
    """Undirected simple graph over pitch bins, with its derived state.

    Construction is the one place that state is made, however the network
    was built. `nodes` is stored in ascending MIDI order, which gives each
    node its rank. Adjacency is one Python-int bitmask per node, built from
    `edges`: bit j of the mask at rank i is set iff the bins of rank i and j
    are joined. Degree centrality and the largest clique come from the masks,
    and the clique's octave histogram from the clique.
    Raises ValueError for two nodes with one MIDI number, and for an edge that
    is not (lo, hi) with lo < hi over the nodes' MIDI numbers.
    """

    grid: PitchGrid
    nodes: tuple          # PitchBin, stored in ascending MIDI order
    edges: frozenset      # frozenset of (midi_a, midi_b) with midi_a < midi_b
    dropped_components: int = 0
    degree_centrality: dict = field(init=False)  # midi -> deg/(N-1); empty when N == 1
    largest_clique: tuple = field(init=False)
    clique_octaves: dict = field(init=False)  # see clique_octave_histogram

    def __post_init__(self):
        nodes = tuple(sorted(self.nodes, key=lambda b: b.midi_lower))
        rank = {b.midi_lower: i for i, b in enumerate(nodes)}
        n = len(nodes)
        if len(rank) < n:
            raise ValueError("two nodes share a MIDI number")
        masks = [0] * n
        for a, b in self.edges:
            i, j = rank.get(a, -1), rank.get(b, -1)
            if i < 0 or i >= j:  # an end that is not a node has rank -1
                raise ValueError(f"edge {(a, b)} is not (lo, hi) with lo < hi over the node MIDI numbers")
            masks[i] |= 1 << j
            masks[j] |= 1 << i

        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_masks", tuple(masks))
        centrality = {b.midi_lower: mask.bit_count() / (n - 1) for b, mask in zip(nodes, masks)} if n >= 2 else {}
        object.__setattr__(self, "degree_centrality", centrality)
        clique = largest_clique(self)
        object.__setattr__(self, "largest_clique", clique)
        object.__setattr__(self, "clique_octaves", clique_octave_histogram(clique))

    @property
    def single_node(self) -> bool:
        return len(self.nodes) == 1

    def node_by_midi(self, midi: int) -> PitchBin:
        return self.nodes[self._rank[midi]]

    def adjacency(self) -> dict:
        adj = {b.midi_lower: set() for b in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def build_network(seq, grid: PitchGrid | None = None) -> SoundNetwork:
    """Build the network of sounds from a frequency sequence.

    Out-of-range components are removed (and counted) before pairing, so the
    neighbors of a dropped component become adjacent in the sequence.
    Raises NonFiniteValues on a NaN or infinite component, NonPositiveFrequency
    on one at or below 0 Hz, and EmptyNetwork when nothing maps onto the grid.
    """
    grid = grid or PitchGrid()
    values = np.asarray(getattr(seq, "values_hz", seq), dtype=np.float64)
    if not np.isfinite(values).all():
        raise NonFiniteValues("sequence contains NaN or infinite frequencies")
    if values.size and values.min() <= 0.0:
        raise NonPositiveFrequency("sequence contains non-positive frequencies")

    if values.size:
        midis = _midi_of(values, grid)
        in_range = (midis >= MIDI_LOW) & (midis < MIDI_HIGH)
        dropped = int(values.size - in_range.sum())
        midis = midis[in_range]
    else:
        midis = np.empty(0, dtype=np.int64)
        dropped = 0
    if midis.size == 0:
        raise EmptyNetwork("no in-range frequency components")

    # each undirected edge encoded once as lo * MIDI_HIGH + hi, lo < hi
    a, b = midis[:-1], midis[1:]
    keep = a != b
    codes = np.flatnonzero(np.bincount(np.minimum(a[keep], b[keep]) * MIDI_HIGH + np.maximum(a[keep], b[keep])))
    lo, hi = np.divmod(codes, MIDI_HIGH)
    return SoundNetwork(
        grid=grid,
        nodes=tuple(grid_bin(m, grid) for m in np.flatnonzero(np.bincount(midis)).tolist()),
        edges=frozenset(zip(lo.tolist(), hi.tolist())),
        dropped_components=dropped,
    )


def degree_centrality(net: SoundNetwork) -> dict:
    """deg(v) / (N - 1) per node, keyed by lower-note MIDI number.

    Raises SingleNode for N == 1, where the ratio is undefined.
    """
    if len(net.nodes) < 2:
        raise SingleNode("degree centrality is undefined on a single-node network")
    return dict(net.degree_centrality)


def largest_clique(net: SoundNetwork) -> tuple:
    """Maximum clique as a tuple of PitchBins (ascending MIDI).

    Among maximum cliques of equal size the lexicographically smallest sorted
    MIDI tuple wins. The result is re-verified as a clique before returning.
    """
    members = _max_clique(net._masks)
    clique = tuple(b for i, b in enumerate(net.nodes) if members >> i & 1)
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            if (a.midi_lower, b.midi_lower) not in net.edges:
                raise RuntimeError("internal error: clique verification failed")
    return clique


def _max_clique(masks) -> int:
    """Bitmask of the maximum clique whose sorted index tuple is smallest.

    Greedy-colouring branch and bound after Tomita & Seki (MCQ, 2003). The
    depth-first search extends the current clique by each candidate in
    ascending index order, the child's candidates being the later ones that
    are adjacent to it. Cliques are therefore met in lexicographic order,
    and since only a strictly larger clique replaces the best, the first
    maximum clique met is the one kept.

    The bound: at each search node the candidates are split greedily into
    independent sets, each grown from the highest uncoloured index. A clique
    holds at most one member of each set, so a clique among the candidates
    from index v up is no larger than the number of sets whose top index is
    >= v. Once that count cannot beat the best clique, neither can any
    later branch, and the node is done.
    """
    excl = [~(mask | 1 << v) for v, mask in enumerate(masks)]
    best_size = best = 0

    def expand(size: int, members: int, cand: int):
        nonlocal best_size, best
        if size > best_size:
            best_size, best = size, members
        tops = []  # top index of each colour class, descending
        rest = cand
        while rest:
            tops.append(rest.bit_length() - 1)
            free = rest
            while free:
                v = free.bit_length() - 1
                rest ^= 1 << v
                free &= excl[v]
        need = best_size - size  # a branch must add more than this many members
        while cand and need < len(tops):
            low = cand & -cand
            v = low.bit_length() - 1
            if v > tops[need]:
                return
            expand(size + 1, members | low, cand & masks[v])
            cand ^= low
            need = best_size - size

    expand(0, 0, (1 << len(masks)) - 1)
    return best


# Octave buckets follow the A-note ladder: [A0-A1) starts at MIDI 21.
OCTAVE_BUCKETS = (
    "<A0",
    "[A0-A1)",
    "[A1-A2)",
    "[A2-A3)",
    "[A3-A4)",
    "[A4-A5)",
    "[A5-A6)",
    ">=A6",
)


def clique_octave_histogram(clique) -> dict:
    """Count clique members per A-to-A octave range of their lower note."""
    counts = {bucket: 0 for bucket in OCTAVE_BUCKETS}
    for node in clique:
        counts[OCTAVE_BUCKETS[min(max(1 + (node.midi_lower - 21) // 12, 0), len(OCTAVE_BUCKETS) - 1)]] += 1
    return counts


def network_to_dict(net: SoundNetwork) -> dict:
    """JSON-ready view: nodes with note names and Hz bounds, index edges,
    centrality keyed by lower-note name, clique member names."""
    return {
        "a4_hz": net.grid.a4_hz,
        "nodes": [
            {
                "midi": b.midi_lower,
                "notes": [b.lower_note, b.upper_note],
                "hz": [b.lower_hz, b.upper_hz],
            }
            for b in net.nodes
        ],
        "edges": sorted([net._rank[a], net._rank[b]] for a, b in net.edges),
        "degree_centrality": {
            net.node_by_midi(m).lower_note: v for m, v in sorted(net.degree_centrality.items())
        },
        "single_node": net.single_node,
        "largest_clique": [b.lower_note for b in net.largest_clique],
        "clique_size": len(net.largest_clique),
        "dropped_components": net.dropped_components,
    }
