"""Property tests of the closed-form exponential: the one-parameter group
law exp(sX) exp(tX) = exp((s + t)X) for every generator family confmod
builds, and U(a) U(b) = U(a + b) for the axis-inversion subgroup, as
matrices."""

import numpy as np
import pytest

import confmod.confgroup as cg
import confmod.flows as fl

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DIMS = (2, 3, 4)


def _families(d):
    moved = cg.translation(d, [0.3, -0.2, 0.1, 0.25][:d]) @ cg.ray_inversion(d)
    return {"boost": cg.boost_generator(d, 1, 1.3), "dilation": cg.dilation_generator(d),
            "translation": cg.translation_generator(d, [1.0, 0.5, -0.3, 0.2][:d]),
            "conformal-energy": cg.conformal_energy(d),
            "wedge": fl.wedge_flow(d).generator, "double-cone": fl.doublecone_flow(d).generator,
            "cone": fl.cone_flow(d).generator,
            "conjugated-double-cone": fl.conjugate_flow(moved, fl.doublecone_flow(d)).generator}


FAMILIES = {d: _families(d) for d in DIMS}
times = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DIMS), st.sampled_from(sorted(FAMILIES[2])), times, times)
def test_exponential_group_law(d, family, s, t):
    # relative to |exp(sX)| |exp(tX)|, the size that rounding in the
    # product scales with
    gen = FAMILIES[d][family]
    a, b = gen.exp(s).matrix, gen.exp(t).matrix
    scale = np.abs(a).max() * np.abs(b).max()
    assert np.abs(a @ b - gen.exp(s + t).matrix).max() <= 1e-13 * scale


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DIMS), st.data(), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_axis_inversion_subgroup_law_as_matrices(d, data, a, b):
    axis = data.draw(st.integers(1, d - 1))
    lhs = (cg.axis_inversion_subgroup(d, a, axis) @ cg.axis_inversion_subgroup(d, b, axis)).matrix
    assert np.abs(lhs - cg.axis_inversion_subgroup(d, a + b, axis).matrix).max() <= 1e-13
