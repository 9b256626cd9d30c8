"""Property tests of the conformal group: the one-parameter group law
exp(sX) exp(tX) = exp((s + t)X) for every generator family confmod builds,
U(a) U(b) = U(a + b) for the axis-inversion subgroup, as matrices, the form
test on stacked products and closed-form inverses of random elements, and
act_array of an element's inverse undoing its action."""

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


def _random_element(d, data):
    """A conformal element drawn from data: a translation, a boost, a
    dilation and a special conformal map, then the ray inversion or not,
    and a rotation for d > 2."""
    def vector(r):
        return np.array(data.draw(st.lists(st.floats(-r, r), min_size=d, max_size=d)))
    g = (cg.translation(d, vector(3.0)) @ cg.boost(d, 1, data.draw(st.floats(-2.0, 2.0)))
         @ cg.dilation(d, data.draw(st.floats(0.25, 4.0))) @ cg.special(d, vector(0.5)))
    if data.draw(st.booleans()):
        g = g @ cg.ray_inversion(d)
    if d > 2:
        g = g @ cg.rotation(d, 1, d - 1, data.draw(st.floats(-np.pi, np.pi)))
    return g


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DIMS), st.data())
def test_stacked_products_and_inverses_pass_the_form_test(d, data):
    # inverse() is a closed form that skips the form test, and a stacked
    # product tests it once per matrix (_product, which raises): both pass
    # on random elements, and g^{-1} g is the identity to rounding
    g, h = _random_element(d, data), _random_element(d, data)
    n = data.draw(st.integers(1, 4))
    shifts = data.draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
                                min_size=n, max_size=n))
    scales = data.draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n))
    angles = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    stack = cg._product(g.matrix, cg._translations(d, shifts), cg._dilations(d, scales),
                        cg._axis_inversion_subgroups(d, angles), h.inverse().matrix)
    assert stack.shape == (n, d + 2, d + 2)
    for k in (g, h):
        inv = k.inverse().matrix
        cg._check_form(*cg._finite_stack(inv[None]))
        amax = np.abs(k.matrix).max()
        assert np.abs(inv @ k.matrix - np.eye(d + 2)).max() <= 1e-13 * amax ** 2


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DIMS), st.data())
def test_act_array_of_the_inverse_undoes_the_action(d, data):
    # on rows regular both ways, x -> y = g x -> g^{-1} y returns x within
    # 64 eps |g|^2 (1 + |x|^2)(1 + |y|^2): the rounding of a ray g v scales
    # with |g| |v|, |v| ~ 1 + |x|^2, and the image's denominator brings the
    # factor of the other end.  Over 192,000 random rows the largest ratio
    # to eps |g|^2 (1 + |x|^2)(1 + |y|^2) was 4.4
    g = _random_element(d, data)
    X = np.array(data.draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d),
                                    min_size=1, max_size=32)))
    Y, regular = cg.act_array(g, X)
    Y = np.where(regular[:, None], Y, 0.0)
    back, regular_back = cg.act_array(g.inverse(), Y)
    ok = regular & regular_back
    size = (1.0 + np.sum(X ** 2, axis=1)) * (1.0 + np.sum(Y ** 2, axis=1))
    tol = 64 * np.finfo(float).eps * np.abs(g.matrix).max() ** 2 * size
    assert np.all(np.abs(back - X).max(axis=1)[ok] <= tol[ok])
