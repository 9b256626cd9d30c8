"""Property tests of the lattice's exact symmetries.  The phases of the site
coordinates are read from one table of the 2L-th roots of unity, which is
exact under multiplication by i and -1.  So an arc turned by r whole sites
has the arc's parity blocks times (-1)^{k eps}, exactly, where
eps = (c + 2r - c') / L for the two arcs' mirror reflections c and c'; a
turn with even eps gives the arc's modular data; and a complement of the
arc's size is the turn by L/2, with eps = 1."""

import numpy as np
import pytest

import confmod.chiral as ch

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SIZES = (16, 32, 64, 128, 256)


def _arc(model, first, n, on_sites):
    """The arc of the n sites first, first + 1, ... (mod L), its endpoints
    on the sites next to them or half a site away."""
    w, off = 2 * np.pi / model.L, 1.0 if on_sites else 0.5
    return ch.CircleInterval((first - off) * w, (first + n - 1 + off) * w)


def _turn_sign(model, c, c_out, r):
    """(-1)^{k eps}, k = 1..m, as a column, eps = (c + 2r - c_out) / L."""
    assert (c + 2 * r - c_out) % model.L == 0
    eps = (c + 2 * r - c_out) // model.L
    return ((-1.0) ** (np.arange(1, model.m + 1) * eps))[:, None]


@given(st.sampled_from(SIZES))
def test_roots_of_unity_exact_under_i_and_minus_one(L):
    t = ch._roots_of_unity(L)
    assert np.all(np.roll(t, -L) == -t)
    assert np.all(np.roll(t, -(L // 2)) == 1j * t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SIZES), st.data())
def test_turned_arc_has_the_arcs_parity_blocks_up_to_sign(L, data):
    model = ch.build_model(L)
    n = data.draw(st.integers(1, L - 2), label="sites")
    first = data.draw(st.integers(0, L - 1), label="first")
    r = data.draw(st.integers(1, L - 1), label="turn")
    on_sites = data.draw(st.booleans(), label="on_sites")
    c, re, im = ch._parity_blocks(model, _arc(model, first, n, on_sites))
    c_out, re_out, im_out = ch._parity_blocks(model, _arc(model, first + r, n, on_sites))
    sign = _turn_sign(model, c, c_out, r)
    assert np.array_equal(re_out, sign * re) and np.array_equal(im_out, sign * im)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SIZES[2:]), st.data())
def test_turn_with_even_eps_keeps_the_modular_data(L, data):
    # an arc of m sites and its turn by r sites with eps even: the same
    # parity blocks, so the same interval_tomita sines and duality angle,
    # bit for bit.  The bw and pct values also read the arcs' endpoints and
    # test bumps, whose angles are rounded apart: they agree to 1e-12
    model = ch.build_model(L)
    first = data.draw(st.integers(0, L - 1), label="first")
    on_sites = data.draw(st.booleans(), label="on_sites")
    n = model.m if on_sites else model.m + 1
    arc = _arc(model, first, n, on_sites)
    c = ch._parity_blocks(model, arc)[0]
    r = data.draw(st.sampled_from([r for r in range(1, L) if (c + 2 * r) // L % 2 == 0]),
                  label="turn")
    turned = _arc(model, first + r, n, on_sites)
    assert (ch._parity_blocks(model, turned)[0] - c - 2 * r) % L == 0
    assert ch.duality_defect(model, turned) == ch.duality_defect(model, arc)
    if not on_sites:
        return
    assert np.array_equal(ch.interval_tomita(model, turned).sines,
                          ch.interval_tomita(model, arc).sines)
    bw, bw_turned = (ch.bw_defect(model, a, [0.1, 0.25]) for a in (arc, turned))
    np.testing.assert_allclose(bw_turned.defects, bw.defects, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bw_turned.z_residuals, bw.z_residuals, rtol=0, atol=1e-12)
    probe, probe_turned = (ch.CircleInterval(a.a + np.pi + 0.7, a.a + np.pi + 1.5)
                           for a in (arc, turned))
    assert (ch.pct_geometry_defect(model, turned, probe_turned)
            == pytest.approx(ch.pct_geometry_defect(model, arc, probe), rel=0, abs=1e-12))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIZES), st.data())
def test_complement_of_the_arcs_size_has_its_blocks_times_minus_one_to_the_k(L, data):
    # both endpoints on sites (m sites each side) or both off them (L/2
    # each side): the complement is the arc turned by r = L/2, with the
    # same reflection, so eps = 1
    model = ch.build_model(L)
    first = data.draw(st.integers(0, L - 1), label="first")
    on_sites = data.draw(st.booleans(), label="on_sites")
    arc = _arc(model, first, model.m if on_sites else L // 2, on_sites)
    c, re, im = ch._parity_blocks(model, arc)
    c_out, re_out, im_out = ch._parity_blocks(model, arc.complement())
    sign = _turn_sign(model, c, c_out, L // 2)
    assert c_out == c and np.all(sign[:, 0] == (-1.0) ** np.arange(1, model.m + 1))
    assert np.array_equal(re_out, sign * re) and np.array_equal(im_out, sign * im)
