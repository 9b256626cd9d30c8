"""Property tests of the modular calculus: every subspace that
random_standard_subspace returns is one that tomita_operators factors at
the same floor, the test the draw was accepted by."""

import numpy as np
import pytest

import confmod.modular as md

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.sampled_from((1e-6, 0.2)))
def test_random_standard_subspace_factors_at_its_floor(seed, m, angle_floor):
    K = md.random_standard_subspace(m, np.random.default_rng(seed), angle_floor)
    assert K.real_dim == m
    dat = md.tomita_operators(K, angle_floor)
    assert dat.frame.shape == (2 * m, 2 * m) and np.all(dat.sines > md._DEGENERATE_SINE)
