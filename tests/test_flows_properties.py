"""Property tests of the flows' point forms: closed_form(t, x) is row i of
rows(t, X) bit for bit, or None exactly where that row is irregular, at
any time a caller may pass and in any order of times, and the factors each
flow keeps for its last time stay one entry however many times it sees."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import confmod.confgroup as cg
import confmod.flows as fl

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DIMS = (2, 3, 4)
# Signed zeros, infinities, NaN, times whose factors overflow (cosh and exp
# of 2 pi 1e3), ints, a numpy scalar and 0-d arrays.
SPECIAL_TIMES = (0.0, -0.0, -0.0, 0.0, math.inf, -math.inf, math.nan, 1e3, -1e3, 3, -2,
                 np.float64(0.25), np.float64(-0.0), np.array(-0.5), np.array(0.0),
                 np.array(-0.0), 0.25)
SPECIAL_COORDS = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e200, -1e-300)


def _flows(d):
    g = cg.translation(d, [0.3, -0.2, 0.1, 0.25][:d]) @ cg.ray_inversion(d)
    return (fl.wedge_flow(d), fl.doublecone_flow(d), fl.cone_flow(d),
            fl.conjugate_flow(g, fl.doublecone_flow(d)))


def _assert_point_calls_match_rows(flow, times, X):
    """closed_form at each time on each row, the times interleaved row by
    row, against rows(t, X) at each time."""
    expected = []
    for t in times:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected.append(flow.rows(t, X))
    for i, x in enumerate(X):
        for t, (Y, regular) in zip(times, expected):
            with np.errstate(all="ignore"):
                y = flow.closed_form(t, x)
            if y is None:
                assert not regular[i] and np.isnan(Y[i]).all()
            else:
                # bit for bit, but for the sign of a NaN, which scalar and
                # array arithmetic may set differently
                nan = np.isnan(y)
                assert regular[i] and np.array_equal(np.isnan(Y[i]), nan)
                assert Y[i][~nan].tobytes() == y[~nan].tobytes()


def _pole_row(d, t, rho):
    """A row whose x0 + |vec x| is the pole of the double-cone map at time t."""
    e = float(np.exp(-2 * np.pi * t))
    return np.r_[(1.0 + e) / (e - 1.0) - rho, rho, np.zeros(d - 2)]


@pytest.mark.parametrize("d", DIMS)
def test_point_forms_match_rows_at_special_times(d):
    rng = np.random.default_rng(41)
    X = np.vstack([rng.normal(size=(6, d)), rng.choice(SPECIAL_COORDS, size=(30, d)),
                   _pole_row(d, -0.5, 0.2)])
    for flow in _flows(d):
        _assert_point_calls_match_rows(flow, SPECIAL_TIMES, X)
        _assert_point_calls_match_rows(flow, SPECIAL_TIMES[::-1], X)


coords = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL_COORDS))
times = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from(SPECIAL_TIMES), st.integers(-4, 4),
                  st.floats(-3.0, 3.0).map(np.float64), st.floats(-3.0, 3.0).map(np.array))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DIMS), st.integers(0, 3), st.data(),
       st.lists(times, min_size=1, max_size=5), st.floats(-2.0, -0.05), st.floats(0.05, 0.5))
def test_point_forms_match_rows(d, k, data, ts, t_pole, rho):
    # The double-cone map's pole at t_pole: one row is singular at that
    # time only, and the conjugated flow moves it elsewhere.
    rows = data.draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=6))
    X = np.vstack([np.array(rows, dtype=float), _pole_row(d, t_pole, rho)])
    _assert_point_calls_match_rows(_flows(d)[k], ts + [t_pole], X)


def test_point_forms_keep_one_time():
    # 10,000 distinct times leave no more than a few entries' worth of
    # memory behind: one entry per time would hold about a megabyte.
    x = np.array([0.1, 0.5, -0.2])
    for flow in _flows(3):
        flow.closed_form(0.5, x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(10_000):
                flow.closed_form(k / 10_000, x)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 4096
