"""Network of sounds: pitch-bin nodes, consecutive-component edges, degree
centrality, and maximum-clique detection.

Nodes are half-open semitone intervals [note m, note m+1) of the 12-tone
equal-tempered grid; an undirected simple edge joins the bins of each pair of
consecutive in-range frequency components. Same-bin pairs (self-loops) are
dropped and repeated edges collapse.

Note m sits at a4_hz * 2^((m - 69)/12), written once, in _note_hz. Every bin
decision and every reported bin bound reads its doubles, so a bin's
[lower_hz, upper_hz) contains every frequency placed in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyNetwork, NonFiniteValues, NonPositiveFrequency

PITCH_CLASS_NAMES = ("C", "C♯", "D", "D♯", "E", "F", "F♯", "G", "G♯", "A", "A♯", "B")

MIDI_LOW = 12   # C0
MIDI_HIGH = 120  # C9 (exclusive upper edge of the grid)

# accepted A4 anchors: an octave either side of 440 Hz covers every historical
# and modern concert pitch, and keeps the grid within audible frequencies
A4_MIN_HZ = 220.0
A4_MAX_HZ = 880.0


def note_name(midi: int) -> str:
    return f"{PITCH_CLASS_NAMES[midi % 12]}{midi // 12 - 1}"


def _note_hz(a4_hz: float, midi) -> float:
    """Equal-tempered frequency of note `midi`, in Python floats (C pow)."""
    return a4_hz * 2.0 ** ((midi - 69) / 12.0)


@dataclass(frozen=True)
class PitchGrid:
    """Equal-tempered reference grid, tunable via the A4 anchor in [A4_MIN_HZ, A4_MAX_HZ]."""

    a4_hz: float = 440.0

    def __post_init__(self):
        if not A4_MIN_HZ <= self.a4_hz <= A4_MAX_HZ:  # also rejects NaN
            raise ValueError(f"a4_hz must be in [{A4_MIN_HZ:g}, {A4_MAX_HZ:g}] Hz, got {self.a4_hz!r}")

    def note_freq(self, midi) -> float:
        midi = np.asarray(midi)
        return np.array([_note_hz(self.a4_hz, m) for m in midi.ravel().tolist()]).reshape(midi.shape)[()]


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
    return PitchBin(
        midi_lower=midi,
        lower_note=note_name(midi),
        upper_note=note_name(midi + 1),
        lower_hz=_note_hz(grid.a4_hz, midi),
        upper_hz=_note_hz(grid.a4_hz, midi + 1),
    )


def _midi_of(freqs: np.ndarray, grid: PitchGrid) -> np.ndarray:
    """Lower-note MIDI number of the bin containing each frequency.

    Every decision is anchored on the note frequencies themselves, keeping
    lower-inclusive bounds exact. The numbers run from MIDI_LOW - 2 (below
    the note table) to MIDI_HIGH + 1, so a frequency outside the grid lands
    outside it, with no int64 wraparound. They are read from one note_freq
    table over MIDI_LOW - 1 ... MIDI_HIGH + 1: by binary search of the table
    into a strictly increasing sequence (_midi_of_ascending), such as the
    full mode's, and otherwise by the log-ratio (_midi_of_log). Both give the
    same numbers.
    """
    notes = grid.note_freq(np.arange(MIDI_LOW - 1, MIDI_HIGH + 2))
    if (freqs[1:] > freqs[:-1]).all():
        return _midi_of_ascending(freqs, notes)
    return _midi_of_log(freqs, notes, grid.a4_hz)


def _midi_of_ascending(freqs: np.ndarray, notes: np.ndarray) -> np.ndarray:
    """_midi_of for ascending freqs: each note's count of lower frequencies
    splits the sequence into runs of one bin each."""
    runs = np.diff(np.searchsorted(freqs, notes), prepend=0, append=freqs.size)
    return np.repeat(np.arange(MIDI_LOW - 2, MIDI_HIGH + 2), runs)


def _midi_of_log(freqs: np.ndarray, notes: np.ndarray, a4_hz: float) -> np.ndarray:
    """_midi_of for any freqs: the floor of the log-ratio, first clipped to
    [MIDI_LOW - 1, MIDI_HIGH] (a subnormal has no finite log-ratio), then
    nudged by one note either way against the table."""
    with np.errstate(divide="ignore"):  # log2(0) = -inf where freqs / a4 underflows
        m = np.floor(69.0 + 12.0 * np.log2(freqs / a4_hz))
    m = np.clip(m, MIDI_LOW - 1, MIDI_HIGH).astype(np.int64)
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


@dataclass(frozen=True, init=False)
class SoundNetwork:
    """Undirected simple graph over pitch bins, with its derived state.

    SoundNetwork(grid, nodes, edges, dropped_components=0). Construction is
    the one place that state is made, however the network was built. `nodes`
    is stored in ascending MIDI order, which gives each node its rank.
    `edges` is any collection of (lo, hi) MIDI pairs or an (E, 2) integer
    array of them; repeated pairs collapse. Adjacency is one read-only n x n
    boolean matrix over the ranks, `adjacency`: entry (i, j) is True iff the
    bins of rank i and j are joined. Degree centrality and the largest clique
    come from it, and the clique's octave histogram from the clique.
    `edges` reads back as a frozenset of (lo, hi) MIDI pairs, made from the
    matrix on first read. Two networks are equal when their derived state is.
    Raises ValueError for two nodes with one MIDI number, and for an edge that
    is not (lo, hi) with lo < hi over the nodes' MIDI numbers.
    """

    grid: PitchGrid
    nodes: tuple          # PitchBin, stored in ascending MIDI order
    dropped_components: int
    degree_centrality: dict  # midi -> deg/(N-1); empty when N == 1
    largest_clique: tuple
    clique_octaves: dict  # see clique_octave_histogram
    adjacency: np.ndarray = field(compare=False, repr=False)  # read-only (N, N) bool, by rank
    _masks: tuple = field(repr=False)  # row i of adjacency as a Python int, bit j for rank j

    def __init__(self, grid: PitchGrid, nodes, edges, dropped_components: int = 0):
        nodes = tuple(sorted(nodes, key=lambda b: b.midi_lower))
        n = len(nodes)
        if len({b.midi_lower for b in nodes}) < n:
            raise ValueError("two nodes share a MIDI number")
        ranks = _edge_ranks(nodes, edges)
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[ranks[:, 0], ranks[:, 1]] = True
        adjacency[ranks[:, 1], ranks[:, 0]] = True
        adjacency.flags.writeable = False

        set_field = object.__setattr__
        set_field(self, "grid", grid)
        set_field(self, "nodes", nodes)
        set_field(self, "dropped_components", dropped_components)
        set_field(self, "adjacency", adjacency)
        set_field(self, "_masks", tuple(_row_masks(adjacency)))
        shares = (adjacency.sum(axis=1) / (n - 1)).tolist() if n >= 2 else []
        set_field(self, "degree_centrality", dict(zip((b.midi_lower for b in nodes), shares)))
        clique = largest_clique(self)
        set_field(self, "largest_clique", clique)
        set_field(self, "clique_octaves", clique_octave_histogram(clique))

    @cached_property
    def edges(self) -> frozenset:
        """frozenset of (midi_a, midi_b) with midi_a < midi_b."""
        midis = [b.midi_lower for b in self.nodes]
        return frozenset((midis[i], midis[j]) for i, j in np.argwhere(np.triu(self.adjacency)).tolist())

    @property
    def single_node(self) -> bool:
        return len(self.nodes) == 1


def _edge_ranks(nodes: tuple, edges) -> np.ndarray:
    """The (E, 2) node ranks of each edge's ends, nodes in ascending MIDI order.

    Each end is ranked through a table over the nodes' MIDI range, -1 for a
    number that is no node. Raises ValueError, naming the first bad pair, for
    a pair that is not two integers (lo, hi) with lo < hi over the nodes.
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if pairs.shape == (0,):  # an empty collection
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iuf":
        raise ValueError(f"edges must be (lo, hi) pairs of MIDI numbers, got {pairs.dtype} of shape {pairs.shape}")
    with np.errstate(invalid="ignore"):  # a NaN or infinite end fails the round trip below
        ends = pairs.astype(np.int64)
    midis = np.array([b.midi_lower for b in nodes], dtype=np.int64)
    base = int(midis[0]) if midis.size else 0
    span = int(midis[-1]) - base + 1 if midis.size else 0
    table = np.full(span + 1, -1)  # the last entry, table[-1], ranks every number off the nodes' range
    table[midis - base] = np.arange(midis.size)
    ranks = table[np.clip(ends, base - 1, base + span) - base]
    bad = (ends != pairs).any(axis=1) | (ranks[:, 0] < 0) | (ranks[:, 0] >= ranks[:, 1])
    if bad.any():
        edge = tuple(pairs[bad.argmax()].tolist())
        raise ValueError(f"edge {edge} is not (lo, hi) with lo < hi over the node MIDI numbers")
    return ranks


def _row_masks(matrix: np.ndarray) -> list:
    """Row i of a square boolean matrix as a Python int: bit j is matrix[i, j]."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(matrix, axis=1, bitorder="little")]


def build_network(seq, grid: PitchGrid | None = None) -> SoundNetwork:
    """Build the network of sounds from a frequency sequence.

    Out-of-range components are removed (and counted) before pairing, so the
    neighbors of a dropped component become adjacent in the sequence. An
    ascending sequence, such as extract_sequence_full returns, gives a path:
    N - 1 edges, no degree above 2, and the two lowest bins as the clique.
    Raises NonFiniteValues on a NaN or infinite component, NonPositiveFrequency
    on one at or below 0 Hz, and EmptyNetwork when nothing maps onto the grid.
    """
    grid = grid or PitchGrid()
    values = np.asarray(getattr(seq, "values_hz", seq), dtype=np.float64)
    if not np.isfinite(values).all():
        raise NonFiniteValues("sequence contains NaN or infinite frequencies")
    if (values <= 0.0).any():
        raise NonPositiveFrequency("sequence contains non-positive frequencies")

    midis = _midi_of(values, grid)
    in_range = (midis >= MIDI_LOW) & (midis < MIDI_HIGH)
    dropped = int(values.size - in_range.sum())
    midis = midis[in_range]
    if midis.size == 0:
        raise EmptyNetwork("no in-range frequency components")

    # each undirected edge encoded once as lo * MIDI_HIGH + hi, lo < hi
    a, b = midis[:-1], midis[1:]
    keep = a != b
    codes = np.flatnonzero(np.bincount(np.minimum(a[keep], b[keep]) * MIDI_HIGH + np.maximum(a[keep], b[keep])))
    return SoundNetwork(
        grid=grid,
        nodes=tuple(grid_bin(m, grid) for m in np.flatnonzero(np.bincount(midis)).tolist()),
        edges=np.stack(np.divmod(codes, MIDI_HIGH), axis=1),
        dropped_components=dropped,
    )


def largest_clique(net: SoundNetwork) -> tuple:
    """Maximum clique as a tuple of PitchBins (ascending MIDI).

    Among maximum cliques of equal size the lexicographically smallest sorted
    MIDI tuple wins. The result is re-verified as a clique before returning.
    """
    members = _max_clique(net.adjacency)
    ranks = [i for i in range(len(net.nodes)) if members >> i & 1]
    if np.count_nonzero(net.adjacency[np.ix_(ranks, ranks)]) != len(ranks) * (len(ranks) - 1):
        raise RuntimeError("internal error: clique verification failed")
    return tuple(net.nodes[i] for i in ranks)


def _max_clique(matrix) -> int:
    """Bitmask of the maximum clique whose sorted index tuple is smallest.

    Two steps over the adjacency relabelled by _degree_order, both answered by
    _clique_search:
    1. A plain search finds a maximum clique, and with it omega, the clique
       number.
    2. A lexicographic construction scans the vertices in ascending index
       order, keeping v iff v's later common neighbours within the current
       candidates hold a clique of the size still missing. Each earlier
       vertex has been kept or ruled out, so the kept set is the smallest
       sorted tuple among the maximum cliques. The test is a decision query,
       which stops at the first clique of the missing size. A witness, a
       clique of that size among the candidates, answers it without a search
       whenever v is one of its members; each successful query gives the
       next witness. So there are at most N + 1 searches.
    """
    adj, bit_of = _degree_order(matrix)
    bits = [1 << v for v in range(len(adj))]
    excl = [~(mask | bit) for mask, bit in zip(adj, bits)]
    cand = (1 << len(adj)) - 1
    witness = _clique_search(adj, excl, bits, cand, 0, len(adj))
    need = witness.bit_count()
    clique = 0
    for i, v in enumerate(bit_of):
        if not need:
            break
        if not cand & bits[v]:
            continue
        cand ^= bits[v]
        later = cand & adj[v]
        if witness & bits[v]:
            witness ^= bits[v]
        elif need > 1:
            witness = _clique_search(adj, excl, bits, later, need - 2, need - 1)
            if not witness:
                continue
        clique |= 1 << i
        cand = later
        need -= 1
    return clique


def _degree_order(matrix) -> tuple:
    """The adjacency as bitmasks relabelled in descending degree order, ties
    by ascending index.

    The node of highest degree takes the top bit and the node of lowest
    degree bit 0. Returns the relabelled masks and each node's new bit. The
    order sets only the search's speed, never its result.
    """
    n = len(matrix)
    node_at = np.lexsort((-np.arange(n), matrix.sum(axis=1)))  # bit b holds node node_at[b]
    return _row_masks(matrix[np.ix_(node_at, node_at)]), np.argsort(node_at).tolist()


def _clique_search(adj, excl, bits, cand, floor: int, goal: int) -> int:
    """Bitmask of a clique within `cand` of more than `floor` members, or 0.

    The largest such clique, unless one of `goal` members is met first: the
    search then stops there, which makes it a decision query. `excl[v]` is
    the complement of v's closed neighbourhood and `bits[v]` is 1 << v, both
    made once per graph.

    Bitset branch and bound after San Segundo, Rodriguez-Losada & Jimenez
    (BBMC, 2011). At each search node the candidates are split greedily into
    colour classes (independent sets), each grown in vertex order from the
    highest uncoloured bit. A clique holds at most one member of each class,
    so a vertex of colour k cannot extend the current clique by more than k.
    Only the classes whose colour can beat the best clique are kept. The
    search branches on their vertices from the highest colour down, lowest
    bit first within a class, and drops each vertex from the candidates once
    its branch is done. With the degree order, the classes are grown from
    the high-degree vertices and the search branches on the low-degree ones
    first.
    """
    best_size, best = floor, 0

    def expand(size: int, members: int, cand: int) -> bool:
        nonlocal best_size, best
        if size > best_size:
            best_size, best = size, members
            if size >= goal:
                return True
        need = best_size - size  # a branch must add more than this many members
        classes = []  # the colour classes need + 1, need + 2, ... as bitmasks
        rest, colour = cand, 0
        while rest:
            colour += 1
            free = start = rest
            while free:
                v = free.bit_length() - 1
                rest ^= bits[v]
                free &= excl[v]
            if colour > need:
                classes.append(start ^ rest)
        for colour in range(need + len(classes), need, -1):
            todo = classes[colour - need - 1]
            while todo:
                if size + colour <= best_size:
                    return False
                low = todo & -todo
                todo ^= low
                if expand(size + 1, members | low, cand & adj[low.bit_length() - 1]):
                    return True
                cand ^= low
        return False

    expand(0, 0, cand)
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
        "edges": np.argwhere(np.triu(net.adjacency)).tolist(),
        "degree_centrality": {note_name(m): v for m, v in sorted(net.degree_centrality.items())},
        "single_node": net.single_node,
        "largest_clique": [b.lower_note for b in net.largest_clique],
        "clique_size": len(net.largest_clique),
        "dropped_components": net.dropped_components,
    }
