import warnings

import numpy as np
import pytest

import confmod.confgroup as cg
import confmod.flows as fl
from confmod.geometry import sample_region, spacelike_complement, standard_wedge, unit_double_cone

DIMS = (2, 3, 4)


def test_wedge_flow_matrix_example():
    flow = fl.wedge_flow(4)
    y = flow.closed_form(1.0, [0, 1, 0, 0])
    np.testing.assert_allclose(
        y, [-np.sinh(2 * np.pi), np.cosh(2 * np.pi), 0, 0], rtol=1e-12)


def test_flows_identity_at_zero():
    rng = np.random.default_rng(0)
    for d in DIMS:
        for flow in (fl.wedge_flow(d), fl.doublecone_flow(d), fl.cone_flow(d)):
            x = rng.normal(size=d)
            np.testing.assert_allclose(flow.closed_form(0.0, x), x, atol=1e-12)


def test_cone_flow_is_dilation():
    flow = fl.cone_flow(4)
    y = flow.closed_form(np.log(2.0), [1, 0, 0, 0])
    np.testing.assert_allclose(y, [2, 0, 0, 0], atol=1e-12)


def test_doublecone_flow_fixed_points():
    for d in DIMS:
        flow = fl.doublecone_flow(d)
        future = np.zeros(d)
        future[0] = 1.0
        spatial = np.zeros(d)
        spatial[1] = 1.0
        for t in (-1.5, -0.3, 0.4, 2.0):
            np.testing.assert_allclose(flow.closed_form(t, future), future, atol=1e-12)
            np.testing.assert_allclose(flow.closed_form(t, -future), -future, atol=1e-12)
            np.testing.assert_allclose(flow.closed_form(t, spatial), spatial, atol=1e-9)


@pytest.mark.parametrize("d", DIMS)
def test_flow_group_law(d):
    rng = np.random.default_rng(1)
    for flow in (fl.wedge_flow(d), fl.doublecone_flow(d), fl.cone_flow(d)):
        pts = sample_region(flow.region, 30, seed=2)
        for _ in range(100):
            s, t = rng.uniform(-1, 1, size=2)
            p = pts[rng.integers(len(pts))]
            a = flow.closed_form(s, flow.closed_form(t, p))
            b = flow.closed_form(s + t, p)
            assert a is not None and b is not None
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("d", DIMS)
def test_region_preservation(d):
    for flow in (fl.wedge_flow(d), fl.doublecone_flow(d), fl.cone_flow(d)):
        pts = sample_region(flow.region, 1000, seed=3)
        for t in (-2.0, -1.0, -0.1, 0.1, 1.0, 2.0):
            for p in pts:
                y = flow.closed_form(t, p)
                assert y is not None and flow.region.contains(y)


# At this time the double-cone flow has a pole inside the sampled rows.
T_POLE = -0.3


def row_form_inputs(d, a):
    """Random rows, rows in the unit double cone and on its time axis, rows on
    the double-cone flow's poles at T_POLE, rows on the light cone of a, and
    rows with infinite, NaN and huge coordinates."""
    rng = np.random.default_rng(17)
    e = float(np.exp(-2 * np.pi * T_POLE))
    pole = (1.0 + e) / (e - 1.0)   # the value of x0 +- |vec x| sent to infinity
    u = rng.normal(size=(4, d - 1))
    u /= np.linalg.norm(u, axis=1)[:, None]
    rho = rng.uniform(0.1, 0.5, size=(4, 1))
    null = np.r_[1.0, u[0]]
    special = [np.nan, np.inf, -np.inf, 0.0, 1.0, 1e200]
    return np.vstack([rng.normal(size=(200, d)),
                      sample_region(unit_double_cone(d), 50, seed=18),
                      rng.normal(size=(5, 1)) * np.eye(d)[0],
                      np.c_[pole - rho, rho * u], np.c_[pole + rho, rho * u],
                      a + np.array([[-2.0], [-0.5], [0.0], [1.5]]) * null,
                      rng.choice(special, size=(40, d))])


def _flows_for_rows(d, a):
    g = cg.translation(d, a) @ cg.ray_inversion(d)
    return (fl.wedge_flow(d), fl.doublecone_flow(d), fl.cone_flow(d),
            fl.conjugate_flow(g, fl.doublecone_flow(d)))


@pytest.mark.parametrize("d", DIMS)
def test_rows_match_closed_form_bitwise(d):
    a = 0.3 * np.random.default_rng(19).normal(size=d)
    X = row_form_inputs(d, a)
    # one time per row: the pole's time on half the rows, so that the
    # poles constructed in X stay singular there
    rng = np.random.default_rng(23)
    per_row = np.where(rng.random(len(X)) < 0.5, T_POLE, rng.uniform(-2.0, 2.0, len(X)))
    for k, flow in enumerate(_flows_for_rows(d, a)):
        singular = 0
        for t in (T_POLE, -1.2, 0.0, 0.45, 1.7, per_row):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                Y, regular = flow.rows(t, X)
            times = t if np.ndim(t) else [t] * len(X)
            with np.errstate(all="ignore"):
                expected = [flow.closed_form(ti, x) for ti, x in zip(times, X)]
            assert Y.shape == X.shape and regular.shape == (len(X),)
            for y, ok, e in zip(Y, regular, expected):
                if e is None:
                    assert not ok and np.isnan(y).all()
                    singular += 1
                else:
                    # bit for bit, but for the sign of a NaN, which scalar
                    # and array arithmetic may set differently
                    nan = np.isnan(e)
                    assert ok and np.array_equal(np.isnan(y), nan)
                    assert y[~nan].tobytes() == e[~nan].tobytes()
        assert (singular > 0) == (k in (1, 3))


@pytest.mark.parametrize("d", DIMS)
def test_point_forms_reject_misshapen_points(d):
    # A point form reads its point as confgroup.act does: a point of
    # another dimension, or a row of an array, raises instead of passing
    # through or coming back with its shape.
    a = 0.3 * np.random.default_rng(19).normal(size=d)
    for flow in _flows_for_rows(d, a):
        for shape in ((d - 1,), (d + 1,), (1, d)):
            with pytest.raises(ValueError, match=f"expected a point of dimension {d}"):
                flow.closed_form(0.1, np.full(shape, 0.1))


@pytest.mark.parametrize("d", DIMS)
def test_rows_reject_misshapen_times(d):
    a = 0.3 * np.random.default_rng(19).normal(size=d)
    X = np.random.default_rng(5).normal(size=(10, d))
    for flow in _flows_for_rows(d, a):
        for t in (np.zeros(9), np.zeros(11), np.zeros((10, 1)), np.zeros((1, 10))):
            with pytest.raises(ValueError):
                flow.rows(t, X)


@pytest.mark.parametrize("d", DIMS)
def test_closed_form_matches_generator(d):
    # canonical-flow invariant: exp(t A) agrees with the closed form pointwise
    for flow in (fl.wedge_flow(d), fl.doublecone_flow(d), fl.cone_flow(d)):
        pts = sample_region(flow.region, 100, seed=4)
        for t in np.linspace(-2, 2, 9):
            mat = flow.matrix(t)
            for p in pts[:40]:
                y1 = flow.closed_form(t, p)
                y2 = cg.act(mat, p)
                assert y2 is not None
                np.testing.assert_allclose(
                    y1, y2, rtol=1e-8, atol=1e-8 * max(1.0, np.linalg.norm(y1)))


@pytest.mark.parametrize("d", DIMS)
def test_wedge_cone_conjugacy(d):
    """The double-cone flow is the transported wedge flow under an explicit
    conformal element built from translations, one dilation, the axis
    inversion, and a time reflection."""
    g = fl.wedge_to_doublecone(d)
    wf, df = fl.wedge_flow(d), fl.doublecone_flow(d)
    for t in np.linspace(-2, 2, 17):
        assert cg.distance_mod_sign(df.matrix(t),
                                    g @ wf.matrix(t) @ g.inverse()) < 1e-8


@pytest.mark.parametrize("d", DIMS)
def test_wedge_to_doublecone_maps_regions(d):
    g = fl.wedge_to_doublecone(d)
    w1, o1 = standard_wedge(d), unit_double_cone(d)
    img, ok = cg.act_array(g, sample_region(w1, 2000, seed=5))
    assert ok.all() and all(o1.contains(p) for p in img)
    img, ok = cg.act_array(g.inverse(), sample_region(o1, 2000, seed=6))
    assert ok.all() and all(w1.contains(p) for p in img)


def test_time_reflection_needed_for_orientation():
    # without the time reflection the transported flow runs backwards
    d = 3
    g_no_t = fl.wedge_to_doublecone(d) @ fl.time_reflection(d)
    wf, df = fl.wedge_flow(d), fl.doublecone_flow(d)
    t = 0.7
    conj = g_no_t @ wf.matrix(t) @ g_no_t.inverse()
    assert cg.distance_mod_sign(conj, df.matrix(t)) > 1.0
    assert cg.distance_mod_sign(conj, df.matrix(-t)) < 1e-9


def test_conjugate_flow_identity():
    d = 3
    f = fl.cone_flow(d)
    g = cg.GroupElement(np.eye(d + 2))
    moved = fl.conjugate_flow(g, f)
    x = np.array([2.0, 0.3, 0.1])
    for t in (-1.0, 0.5):
        np.testing.assert_allclose(moved.closed_form(t, x), f.closed_form(t, x),
                                   atol=1e-12)


def test_conjugate_flow_translation_moves_apex():
    d = 4
    a = np.array([0.5, 0.2, -0.1, 0.3])
    g = cg.translation(d, a)
    moved = fl.conjugate_flow(g, fl.cone_flow(d))
    # the translated apex is fixed by the transported flow
    np.testing.assert_allclose(moved.closed_form(1.3, a), a, atol=1e-10)
    pts = sample_region(fl.cone_flow(d).region, 300, seed=7)
    for t in (-1.0, 0.4, 1.5):
        for p in pts:
            y = moved.closed_form(t, p + a)
            assert moved.region.contains(y)


def test_conjugate_flow_reproduces_doublecone():
    d = 3
    g = fl.wedge_to_doublecone(d)
    moved = fl.conjugate_flow(g, fl.wedge_flow(d))
    df = fl.doublecone_flow(d)
    pts = sample_region(unit_double_cone(d), 100, seed=8)
    for t in (-1.2, 0.3, 0.9):
        for p in pts[:40]:
            np.testing.assert_allclose(moved.closed_form(t, p),
                                       df.closed_form(t, p), rtol=1e-7, atol=1e-9)
    assert cg.distance_mod_sign(moved.generator.exp(0.5), df.matrix(0.5)) < 1e-9


def test_conjugation_transports_generators_associatively():
    d = 3
    rng = np.random.default_rng(9)
    g = cg.translation(d, rng.normal(size=d)) @ cg.dilation(d, 1.7)
    h = cg.boost(d, 1, 0.4)
    f = fl.wedge_flow(d)
    once = fl.conjugate_flow(g @ h, f)
    twice = fl.conjugate_flow(g, fl.conjugate_flow(h, f))
    assert np.max(np.abs(once.generator.matrix - twice.generator.matrix)) < 1e-9


# --- PCT ingredients -------------------------------------------------------------

@pytest.mark.parametrize("d", DIMS)
def test_pct_factorization(d):
    beta, r1, sw1 = fl.pct_ingredients(d)
    assert np.max(np.abs((r1 @ sw1).matrix - beta.matrix)) == 0.0
    # beta is an involution acting as x -> -x
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.normal(size=d)
        np.testing.assert_allclose(cg.act(beta, x), -x, atol=1e-12)
        np.testing.assert_allclose(cg.act(beta, -x), x, atol=1e-12)


def test_r1_maps_wedge_to_complement():
    for d in DIMS:
        _, r1, _ = fl.pct_ingredients(d)
        w1 = standard_wedge(d)
        comp = spacelike_complement(w1)
        pts = sample_region(w1, 1000, seed=11)
        img, ok = cg.act_array(r1, pts)
        assert ok.all() and all(comp.contains(p) for p in img)


def test_sw1_preserves_wedge():
    for d in (3, 4):
        _, _, sw1 = fl.pct_ingredients(d)
        w1 = standard_wedge(d)
        pts = sample_region(w1, 1000, seed=12)
        img, ok = cg.act_array(sw1, pts)
        assert ok.all() and all(w1.contains(p) for p in img)


def test_flows_require_two_dimensions():
    with pytest.raises(ValueError):
        fl.wedge_flow(1)
    with pytest.raises(ValueError):
        fl.doublecone_flow(1)
    with pytest.raises(ValueError):
        fl.pct_ingredients(1)
