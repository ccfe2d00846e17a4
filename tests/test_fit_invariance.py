"""Fit reports depend only on the sample's values.

best_fit and fit_mle sort the sample once and sum its products in numpy's own
fixed order, so neither the order of the components nor OpenBLAS's thread
count reaches a fit float: a permuted sample gives the same report, and a
subprocess with one OpenBLAS thread gives the same bytes as this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundnet import spectral
from soundnet.distfit import best_fit, fit_mle, report_to_dict

STFT_BIN_HZ = 44100 / 4096


def _sample(kind, n, seed):
    """A melody-like (60 Hz + Exp(350 Hz)) or uniform noise-like sample; the
    `_bins` kinds sit on STFT bin centres and hold ties, as an STFT sequence does."""
    rng = np.random.default_rng([seed, n])
    x = 60.0 + rng.exponential(350.0, n) if kind.startswith("melody") else rng.uniform(30.0, 11025.0, n)
    return np.round(x / STFT_BIN_HZ) * STFT_BIN_HZ if kind.endswith("_bins") else x


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["melody", "melody_bins", "noise", "noise_bins"]),
    st.integers(100, 5000),
    st.integers(0, 2**32 - 1),
)
def test_report_does_not_depend_on_the_order_of_the_sample(kind, n, seed):
    x = _sample(kind, n, seed)
    shuffled = np.random.default_rng(seed).permutation(x)
    report = best_fit(x)
    assert report_to_dict(best_fit(shuffled)) == report_to_dict(report)
    for family, ff in report.per_family.items():
        if ff.converged:
            assert fit_mle(family, shuffled) == ff.dist, family


def _fit_hex(report):
    """float.hex() of every family's params, KS D and KS p."""
    return {
        family.value: [v.hex() for v in (*ff.dist.params_list(), ff.ks.statistic_d, ff.ks.p_value)]
        for family, ff in report.per_family.items()
    }


ONE_THREAD_FIT = (
    "import json, sys; import numpy as np; from soundnet.distfit import best_fit; "
    "from test_fit_invariance import _fit_hex; print(json.dumps(_fit_hex(best_fit(np.load(sys.argv[1])))))"
)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU, so there is no other thread count to compare"
)
def test_fit_floats_do_not_follow_the_openblas_thread_count(tmp_path):
    # the full-mode sequence of full_broadband input set 3's noise1, 16-bit as
    # decoded; its Gibrat loc moved with one thread while the fits summed with np.dot
    noise = 0.2 * np.random.default_rng([3, 1 << 20, 1]).standard_normal(441_000)
    samples = np.round(np.clip(noise, -1.0, 1.0) * 32767.0) / 32768.0
    x = spectral.extract_sequence_full(spectral.dft(samples, 44_100)).values_hz
    np.save(tmp_path / "x.npy", x)
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    one_thread = subprocess.run(
        [sys.executable, "-c", ONE_THREAD_FIT, str(tmp_path / "x.npy")],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    assert json.loads(one_thread.stdout) == _fit_hex(best_fit(x))
