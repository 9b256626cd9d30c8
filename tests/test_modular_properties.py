"""Property tests of the modular calculus: every subspace that
random_standard_subspace returns is one that tomita_operators factors at
the same floor, the test the draw was accepted by, and tomita_operators
rejects a subspace exactly when its standardness report fails."""

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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(0.0, 2 * np.pi),
       st.sampled_from((0.0, 1e-12, 1e-6, 1e-3)), st.floats(1e-6, 0.1), st.sampled_from((-1, 1)))
def test_rejected_subspaces_report_not_standard(seed, m, phi, angle_floor, offset, side):
    # One plane at angle theta, a relative offset above or below the floor
    # tomita_operators applies, max(angle_floor, _DEGENERATE_SINE), the
    # rest a random span, all turned by a random unitary.
    # Offsets stay well outside the rounding of the two angle computations,
    # so the rule and the report agree: a subspace is rejected exactly when
    # its report at that floor is not standard, and the error carries it.
    rng = np.random.default_rng(seed)
    floor = max(angle_floor, md._DEGENERATE_SINE)
    theta = floor * (1.0 + side * offset)
    gens = np.zeros((m, m), dtype=complex)
    gens[:2, :2] = np.exp(1j * phi) * np.array([[1.0, 0.0], [1j * np.cos(theta), np.sin(theta)]])
    gens[2:, 2:] = rng.normal(size=(m - 2, m - 2)) + 1j * rng.normal(size=(m - 2, m - 2))
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    K = md.StandardSubspace(m, gens @ u)
    try:
        md.tomita_operators(K, angle_floor)
    except md.StandardnessError as err:
        assert not err.report.standard
        assert err.report.angle_floor == floor
        return
    assert K.standardness(floor).standard
