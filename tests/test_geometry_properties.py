"""Property tests of region membership under Poincare maps: a point lies in
a region exactly when its image lies in the image region, whether the image
is re-tagged (transform_region) or wrapped (TransformedRegion), for every
point outside a rounding band at the region's boundary."""

import numpy as np
import pytest

from confmod.geometry import (FutureCone, PoincareMap, TransformedRegion, Wedge,
                              spacelike_complement, standard_wedge, timelike_complement,
                              transform_region, unit_double_cone)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DIMS = (2, 3, 4)


def _regions(d):
    cone = unit_double_cone(d)
    return {"double-cone": cone, "wedge": standard_wedge(d),
            "boosted-wedge": Wedge(d, PoincareMap.from_boost(d, 1, 0.7)),
            "future-cone": FutureCone(np.zeros(d)),
            "spacelike-complement": spacelike_complement(cone),
            "timelike-complement": timelike_complement(cone)}


REGIONS = {d: _regions(d) for d in DIMS}


def _random_map(d, data):
    """A Poincare map drawn from data: a boost, a rotation for d > 2, the
    time reflection or not, the reflection of x1 or not, then a
    translation."""
    p = PoincareMap.from_boost(d, 1, data.draw(st.floats(-2.0, 2.0)))
    if d > 2:
        p = PoincareMap.from_rotation(d, 1, d - 1, data.draw(st.floats(-np.pi, np.pi))).compose(p)
    for axis in (0, 1):
        if data.draw(st.booleans()):
            flip = np.ones(d)
            flip[axis] = -1.0
            p = PoincareMap(np.diag(flip), np.zeros(d)).compose(p)
    shift = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
    return PoincareMap.from_translation(shift).compose(p)


def _points(d, seed):
    """Points in the box |x_i| <= 3, and as many within 1e-5 of the light
    cones of 0 and of the unit double cone's tips +-e0."""
    rng = np.random.default_rng(seed)
    box = rng.uniform(-3.0, 3.0, size=(64, d))
    n = rng.normal(size=(64, d - 1))
    ray = np.column_stack([np.ones(64), n / np.linalg.norm(n, axis=1, keepdims=True)])
    tips = np.zeros((64, d))
    tips[:, 0] = rng.integers(-1, 2, size=64)
    near = tips + rng.uniform(-2.0, 2.0, size=(64, 1)) * ray + 1e-5 * rng.normal(size=(64, d))
    return np.vstack([box, near])


def _off_the_boundary(region, X):
    """Rows whose membership is the same at X and at X +- h e_i for every
    axis i, h = 1e-7 (1 + max |x_i|): each lies farther than the rounding
    of a Poincare image from the boundary, whose normal has a component of
    at least 1/sqrt(d) along some axis."""
    inside = region.contains_many(X)
    h = 1e-7 * (1.0 + np.abs(X).max(axis=1))
    stable = np.ones(len(X), dtype=bool)
    for i in range(X.shape[1]):
        for sign in (1.0, -1.0):
            moved = X.copy()
            moved[:, i] += sign * h
            stable &= region.contains_many(moved) == inside
    return stable


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DIMS), st.sampled_from(sorted(REGIONS[2])), st.data(),
       st.integers(0, 2 ** 32 - 1))
def test_membership_invariant_under_poincare_maps(d, name, data, seed):
    region, p = REGIONS[d][name], _random_map(d, data)
    X = _points(d, seed)
    stable = _off_the_boundary(region, X)
    inside = region.contains_many(X)[stable]
    Y = (X @ p.lorentz.T + p.translation)[stable]
    assert np.array_equal(transform_region(p, region).contains_many(Y), inside)
    assert np.array_equal(TransformedRegion(p, region).contains_many(Y), inside)
