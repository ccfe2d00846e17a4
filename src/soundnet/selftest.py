"""Independent reference implementations and the runtime self-check suite.

The oracles here deliberately avoid the production code paths: the transform
check sums the defining series directly, the clique checks try vertex subsets
from the largest size down or run the earlier MIDI-order colouring search
(max_clique_mcq, for graphs beyond exhaustive enumeration), and the
rank-correlation check uses the closed d^2 formula. The test suite reuses
them, and `soundnet selftest` runs them at install time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import distfit, spectral
from .corpus import spearman
from .network import PitchGrid, SoundNetwork, grid_bin, largest_clique


def naive_dft(samples) -> np.ndarray:
    """Direct O(N^2) evaluation of y[k] = sum_n exp(-2*pi*i*k*n/N) * x[n]."""
    x = np.asarray(samples, dtype=np.complex128)
    n = x.size
    k = np.arange(n).reshape(-1, 1)
    j = np.arange(n).reshape(1, -1)
    return np.exp(-2j * np.pi * k * j / n) @ x


def max_clique_bruteforce(n_vertices: int, edges) -> tuple:
    """Lexicographically smallest maximum clique, as sorted vertex indices.

    Tries the vertex subsets of each size with itertools.combinations, from
    the largest size down. A subset is written as its smallest vertex v plus
    some of v's later neighbours, which every clique whose smallest vertex is
    v must be. Subsets of one size come in lexicographic order, so the first
    clique found is the answer.
    """
    closed = [1 << v for v in range(n_vertices)]  # each vertex with its neighbors
    for a, b in edges:
        closed[a] |= 1 << b
        closed[b] |= 1 << a
    later = [[u for u in range(v + 1, n_vertices) if closed[v] >> u & 1] for v in range(n_vertices)]
    for size in range(max(map(len, later), default=-1) + 1, 0, -1):
        for v in range(n_vertices):
            for rest in itertools.combinations(later[v], size - 1):
                members = (v, *rest)
                mask = sum(1 << u for u in members)
                if all(mask & ~closed[u] == 0 for u in members):
                    return members
    return ()


def max_clique_mcq(masks) -> int:
    """Bitmask of the maximum clique whose sorted index tuple is smallest.

    Greedy-colouring branch and bound after Tomita & Seki (MCQ, 2003), over
    the vertices in index order, with no relabelling. The depth-first search
    extends the current clique by each candidate in ascending index order,
    the child's candidates being the later ones that are adjacent to it.
    Cliques are therefore met in lexicographic order, and since only a
    strictly larger clique replaces the best, the first maximum clique met is
    the one kept.

    The bound: at each search node the candidates are split greedily into
    independent sets, each grown from the highest uncoloured index. A clique
    holds at most one member of each set, so a clique among the candidates
    from index v up is no larger than the number of sets whose top index is
    >= v. Once that count cannot beat the best clique, neither can any later
    branch, and the node is done. It takes seconds on dense 108-node graphs
    (p >= 0.9), so it checks the production search where it is fast.
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


def spearman_rank_formula(x, y) -> float:
    """1 - 6*sum(d^2)/(n*(n^2-1)); valid for tie-free vectors only."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    rx = np.empty(n)
    ry = np.empty(n)
    rx[np.argsort(x)] = np.arange(1, n + 1)
    ry[np.argsort(y)] = np.arange(1, n + 1)
    d = rx - ry
    return float(1.0 - 6.0 * np.sum(d * d) / (n * (n * n - 1.0)))


def random_network(n_vertices: int, edge_prob: float, rng: np.random.Generator) -> SoundNetwork:
    """Erdos-Renyi graph dressed up as a SoundNetwork (for clique checks)."""
    grid = PitchGrid()
    midis = list(range(60, 60 + n_vertices))
    edges = set()
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            if rng.random() < edge_prob:
                edges.add((midis[i], midis[j]))
    return SoundNetwork(
        grid=grid,
        nodes=tuple(grid_bin(m, grid) for m in midis),
        edges=frozenset(edges),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_selftest(seed: int = 42) -> list:
    """Run the oracle suite; every check must pass on a healthy build."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for n in (64, 256, 1024):
        for _ in range(4):
            x = rng.standard_normal(n)
            # for real input the bins above n/2 are the conjugate mirror
            got = spectral.dft(x).half
            want = naive_dft(x)[: n // 2 + 1]
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    results.append(CheckResult("fft-vs-naive-dft", worst < 1e-9, f"max rel err {worst:.3e}"))

    mismatches = 0
    for _ in range(25):
        net = random_network(12, 0.5, rng)
        index = {b.midi_lower: i for i, b in enumerate(net.nodes)}
        got = tuple(index[b.midi_lower] for b in largest_clique(net))
        mismatches += got != max_clique_bruteforce(12, [(index[a], index[b]) for a, b in net.edges])
    results.append(CheckResult("clique-vs-bruteforce", mismatches == 0, f"{mismatches} mismatches in 25 graphs"))

    # beyond enumeration: one 108-node graph, about 15 ms for the oracle
    net = random_network(108, 0.6, np.random.default_rng([seed, 108]))
    got = sum(1 << net.nodes.index(b) for b in largest_clique(net))
    want = max_clique_mcq(net._masks)
    detail = f"{got.bit_count()} members, {'equal to' if got == want else 'not'} the oracle's"
    results.append(CheckResult("clique-vs-mcq", got == want, detail))

    worst = 0.0
    for _ in range(25):
        x = rng.permutation(40).astype(float)
        y = rng.permutation(40).astype(float)
        worst = max(worst, abs(spearman(x, y) - spearman_rank_formula(x, y)))
    results.append(CheckResult("spearman-vs-rank-formula", worst < 1e-12, f"max abs diff {worst:.3e}"))

    draws = rng.exponential(scale=50.0, size=20_000)
    fit = distfit.fit_mle(distfit.DistFamily.EXPONENTIAL, draws)
    err_exp = abs(fit.scale - 50.0) / 50.0
    draws = rng.normal(loc=3.0, scale=7.0, size=20_000)
    fit = distfit.fit_mle(distfit.DistFamily.NORMAL, draws)
    err_norm = abs(fit.scale - 7.0) / 7.0
    ok = err_exp < 0.02 and err_norm < 0.02
    results.append(CheckResult("mle-parameter-recovery", ok, f"exp scale err {err_exp:.4f}, normal scale err {err_norm:.4f}"))

    return results
