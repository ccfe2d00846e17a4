"""Property tests of `build_network`, `best_fit` and `fit_mle` on their own.

Random frequency sequences go straight into these functions, without audio:
empty, constant, tied, heavy-tailed and out-of-grid sequences, sequences of
magnitudes near the float64 overflow or in the subnormals, with an occasional
non-positive, NaN or infinite value. Each call must either return a result
that holds its invariants or raise a typed `SoundnetError`; a sequence
holding NaN or an infinite value must always raise. Any other exception is a
bug.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soundnet.corpus import spearman
from soundnet.distfit import ALL_FAMILIES, DistFamily, best_fit, fit_mle, ks_test
from soundnet.errors import NonConvergence, SoundnetError
from soundnet.network import MIDI_HIGH, MIDI_LOW, PitchGrid, build_network

GRID = PitchGrid()


@st.composite
def sequences(draw):
    """A frequency sequence of one of the shapes above, now and then with one bad value."""
    kind = draw(st.sampled_from(["empty", "constant", "tied", "heavy", "out_of_grid", "extreme"]))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        values = np.empty(0)
    elif kind == "constant":
        values = np.full(n, draw(st.floats(1e-3, 1e5)))
    elif kind == "tied":
        levels = rng.uniform(10.0, 10_000.0, size=draw(st.integers(1, 4)))
        values = rng.choice(levels, size=n)
    elif kind == "heavy":
        tail = draw(st.floats(0.2, 3.0))
        values = draw(st.floats(1.0, 1e4)) * (1.0 + rng.pareto(tail, size=n))
    elif kind == "extreme":  # near the float64 overflow or in the subnormals, of one or both signs
        values = draw(st.sampled_from([1e307, 1e-310])) * rng.uniform(1.0, 17.0, n)
        if draw(st.booleans()):
            values *= rng.choice([-1.0, 1.0], n)
    else:  # a mix of bins below C0, inside the grid and at or above C9
        low, high = float(GRID.note_freq(MIDI_LOW)), float(GRID.note_freq(MIDI_HIGH))
        pools = [rng.uniform(1e-3, low, n), rng.uniform(low, high, n), rng.uniform(high, 1e6, n)]
        values = np.choose(rng.integers(0, 3, n), pools)
    if values.size and draw(st.booleans()) and draw(st.booleans()):
        values[rng.integers(values.size)] = draw(st.sampled_from([0.0, -1.0, -440.0, np.nan, np.inf, -np.inf]))
    return values


@settings(max_examples=300, deadline=None)
@given(sequences())
def test_build_network_returns_a_network_or_a_typed_error(values):
    try:
        net = build_network(values, GRID)
    except SoundnetError:
        return
    assert np.isfinite(values).all()
    midis = {b.midi_lower for b in net.nodes}
    assert midis and all(MIDI_LOW <= m < MIDI_HIGH for m in midis)
    assert all(a < b and a in midis and b in midis for a, b in net.edges)
    clique = [b.midi_lower for b in net.largest_clique]
    assert clique and set(clique) <= midis
    assert all((a, b) in net.edges for i, a in enumerate(clique) for b in clique[i + 1 :])
    assert 0 <= net.dropped_components < values.size


@settings(max_examples=150, deadline=None)
@given(sequences())
def test_best_fit_returns_a_report_or_a_typed_error(values):
    try:
        report = best_fit(values)
    except SoundnetError:
        return
    assert np.isfinite(values).all()
    assert report.sample_n == values.size
    assert report.per_family[report.best].converged
    for ff in report.per_family.values():
        assert np.isfinite(ff.dist.params_list()).all() and ff.dist.scale > 0.0
        assert 0.0 <= ff.ks.statistic_d <= 1.0
    assert set(report.per_family).isdisjoint(report.failed)


@settings(max_examples=150, deadline=None)
@given(sequences())
@example(np.linspace(1e-310, 2e-310, 30))  # distinct subnormals whose standard deviation underflows to 0
def test_fit_mle_returns_a_fit_or_a_typed_error_for_every_family(values):
    for family in ALL_FAMILIES:
        try:
            fit = fit_mle(family, values)
        except NonConvergence as exc:
            fit = exc.fit
        except SoundnetError:
            continue
        assert np.isfinite(values).all()
        assert fit.family is family
        assert np.isfinite(fit.params_list()).all() and fit.scale > 0.0


def _fit_mle_outcomes(values):
    outcomes = []
    for family in ALL_FAMILIES:
        try:
            outcomes.append(fit_mle(family, values))
        except SoundnetError as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.parametrize(
    "call",
    [
        best_fit,
        _fit_mle_outcomes,
        lambda v: ks_test(fit_mle(DistFamily.NORMAL, np.ravel(v)), v),
        lambda v: spearman(v, np.random.default_rng(1).uniform(size=80)),
    ],
    ids=["best_fit", "fit_mle", "ks_test", "spearman"],
)
def test_2d_input_is_one_flat_sequence(call):
    x = np.random.default_rng(0).uniform(100.0, 1000.0, (40, 2))
    assert repr(call(x)) == repr(call(x.ravel()))
