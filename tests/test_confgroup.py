import re
import warnings

import numpy as np
import pytest

import confmod.confgroup as cg
import confmod.flows as fl
from confmod.flows import doublecone_flow
from confmod.geometry import DoubleCone, PoincareMap, _boost_matrix, minkowski_norm, sample_region, spacelike_complement, standard_wedge, unit_double_cone

DIMS = (2, 3, 4)


def random_point(rng, d, nonnull=False):
    while True:
        x = rng.normal(size=d)
        if not nonnull or abs(minkowski_norm(x)) > 0.05:
            return x


# --- embedding and projection -------------------------------------------------

def test_embed_origin():
    # the origin embeds on the ray of (0, 0, 0, 0, 1/2, 1/2)
    r = cg.embed(np.zeros(4))
    expected = np.array([0, 0, 0, 0, 0.5, 0.5])
    expected /= np.linalg.norm(expected)
    assert min(np.linalg.norm(r.xi - expected),
               np.linalg.norm(r.xi + expected)) < 1e-14


def test_embed_lightlike_has_equal_tail():
    x = np.array([3.0, 1.0, 2.0, 2.0])
    r = cg.embed(x)
    assert r.xi[-2] == pytest.approx(r.xi[-1])


@pytest.mark.parametrize("d", DIMS + (1,))
def test_embed_project_round_trip(d):
    rng = np.random.default_rng(0)
    for _ in range(1000 // d):
        x = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
        y = cg.project(cg.embed(x))
        np.testing.assert_allclose(y, x, rtol=1e-10, atol=1e-12)


def test_embed_lands_on_null_cone():
    rng = np.random.default_rng(1)
    for d in DIMS:
        q = np.diag(cg.quadratic_form(d))
        for _ in range(100):
            xi = cg.embed(rng.normal(size=d) * 3).xi
            assert abs(np.sum(q * xi * xi)) < 1e-12


def test_point_at_infinity():
    ray = cg.Ray(np.array([0, 0, 0, 0, 1.0, -1.0]))
    assert ray.at_infinity()
    assert cg.project(ray) is None
    # brute force: no bounded point embeds onto this ray; every embedded ray
    # has xi_d + xi_{d+1} = 1 before normalization, the target has 0
    rng = np.random.default_rng(2)
    target = ray.xi
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=4)
        xi = cg.embed(x).xi
        assert min(np.linalg.norm(xi - target), np.linalg.norm(xi + target)) > 0.01
        assert abs(xi[-2] + xi[-1]) > 0.02
    # but unbounded spacelike points approach it: the embedding is dense in
    # the ray manifold and this ray lies in the closure
    far = cg.embed([0, 0, 0, 1e6]).xi
    assert min(np.linalg.norm(far - target), np.linalg.norm(far + target)) < 1e-5


def test_project_examples():
    np.testing.assert_allclose(
        cg.project(cg.Ray(np.array([0, 0, 0, 0, 0.5, 0.5]))), np.zeros(4),
        atol=1e-14)
    np.testing.assert_allclose(
        cg.project(cg.embed([1.0, 2.0, 0.0, 0.0])), [1, 2, 0, 0], atol=1e-12)


def test_ray_invariant_rejects_non_isotropic():
    with pytest.raises(ValueError):
        cg.Ray(np.array([1.0, 0, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        cg.Ray(np.zeros(6))


# --- element constructors -------------------------------------------------------

def random_double_cone(rng, d):
    c = rng.normal(size=d)
    v = rng.normal(size=d) * 0.3
    v[0] = abs(v[0]) + 1.0 + np.linalg.norm(v[1:])
    return DoubleCone(c, c + v)


@pytest.mark.parametrize("d", DIMS)
def test_constructors_preserve_form(d):
    # The closed-form constructors skip the form test and the composites run
    # it once, on their product: every matrix, and its inverse, must still
    # preserve Q to 1e-10 and pass the full test of GroupElement(matrix).
    rng = np.random.default_rng(3)
    q = cg.quadratic_form(d)
    els = [cg.translation(d, rng.normal(size=d)),
           cg.dilation(d, 2.3),
           cg.special(d, rng.normal(size=d)),
           cg.ray_inversion(d),
           cg.boost(d, 1, 0.8),
           cg.axis_inversion(d, 1),
           cg.space_reflection(d, 1)]
    if d >= 3:
        els.append(cg.rotation(d, 1, 2, 0.7))
    for _ in range(10):
        a = rng.normal(size=d)
        axis = int(rng.integers(1, d))
        p = PoincareMap.from_translation(rng.normal(size=d)).compose(
            PoincareMap.from_boost(d, axis, rng.normal()))
        els += [cg.translation(d, a),
                cg.dilation(d, float(np.exp(rng.normal()))),
                cg.special(d, a),
                cg.boost(d, axis, 2.0 * rng.normal()),
                cg.axis_inversion(d, axis),
                cg.space_reflection(d, axis),
                cg.axis_inversion_subgroup(d, rng.uniform(0.15, np.pi - 0.15), axis),
                cg.poincare_to_conformal(p),
                cg.double_cone_transport(random_double_cone(rng, d),
                                         random_double_cone(rng, d))]
        if d >= 3:
            els.append(cg.rotation(d, 1, 2, rng.uniform(-np.pi, np.pi)))
    els += [fl.wedge_to_doublecone(d), fl.time_reflection(d), *fl.pct_ingredients(d)]
    els += [g.inverse() for g in els]
    for g in els:
        m = g.matrix
        assert np.max(np.abs(m.T @ q @ m - q)) < 1e-10
        assert np.array_equal(cg.GroupElement(m).matrix, m)


def e0(d):
    return np.eye(d)[0]


def _raw_boost(d, rapidity):
    """The boost's matrix, built with no finiteness or form test."""
    m = np.eye(d + 2)
    m[:d, :d] = _boost_matrix(d, 1, rapidity)
    return m


# the public constructor and its one-row stack, on the parameter p
SCALAR = {"translation": cg.translation, "special": cg.special, "dilation": cg.dilation,
          "boost": lambda d, r: cg.boost(d, 1, r)}
ONE_ROW = {"translation": lambda d, p: cg._translations(d, [p]),
           "special": lambda d, p: cg._product(cg.ray_inversion(d).matrix,
                                               cg._translations(d, [p]),
                                               cg.ray_inversion(d).matrix),
           "dilation": lambda d, p: cg._dilations(d, [p]),
           "boost": lambda d, r: cg._product(_raw_boost(d, r))}

# id: (constructor, its parameter at d, whether it raises)
EXACT_CASES = {
    "shift-nan": ("translation", lambda d: np.full(d, np.nan), True),
    "shift-inf": ("translation", lambda d: np.full(d, np.inf), True),
    "shift-1e100": ("translation", lambda d: np.full(d, 1e100), False),
    "time-shift-1e100": ("translation", lambda d: 1e100 * e0(d), False),
    "time-shift-1e160": ("translation", lambda d: 1e160 * e0(d), True),
    "shift-1e160": ("translation", lambda d: np.full(d, 1e160), True),
    "special-1e100": ("special", lambda d: 1e100 * e0(d), False),
    "special-1e160": ("special", lambda d: 1e160 * e0(d), True),
    "dilation-0": ("dilation", lambda d: 0.0, True),
    "dilation-minus-1": ("dilation", lambda d: -1.0, True),
    "dilation-nan": ("dilation", lambda d: np.nan, True),
    "dilation-1e-300": ("dilation", lambda d: 1e-300, False),
    "rapidity-nan": ("boost", lambda d: np.nan, True),
    "rapidity-inf": ("boost", lambda d: np.inf, True),
    "rapidity-800": ("boost", lambda d: 800.0, True),
    "rapidity-700": ("boost", lambda d: 700.0, False),
}


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind, param, raises", EXACT_CASES.values(), ids=EXACT_CASES.keys())
def test_exact_constructors_raise_where_the_form_test_does(d, kind, param, raises):
    # A closed-form constructor tests only that its entries are finite.  The
    # flags are where it raised when it ran the full form test as well; the
    # full test accepts every matrix it returns, including those whose
    # squared entries overflow.
    with np.errstate(all="ignore"):
        if raises:
            with pytest.raises(ValueError):
                SCALAR[kind](d, param(d))
        else:
            g = SCALAR[kind](d, param(d))
            for m in (g.matrix, g.inverse().matrix):
                assert np.array_equal(cg.GroupElement(m).matrix, m)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind, param, raises", EXACT_CASES.values(), ids=EXACT_CASES.keys())
def test_one_row_stacks_raise_where_the_constructors_do(d, kind, param, raises):
    # The stacked finiteness and form tests, on a one-row stack of the same
    # parameter, raise the constructor's ValueError or return its matrix,
    # and every matrix the constructor returns passes them.
    p = param(d)
    with np.errstate(all="ignore"):
        if raises:
            with pytest.raises(ValueError) as scalar:
                SCALAR[kind](d, p)
            with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
                ONE_ROW[kind](d, p)
        else:
            g = SCALAR[kind](d, p)
            stack = ONE_ROW[kind](d, p)
            assert stack.shape == (1, d + 2, d + 2)
            assert stack.tobytes() == g.matrix.tobytes()
            for m in (g.matrix, g.inverse().matrix):
                assert cg._product(m).tobytes() == m.tobytes()


def test_stacked_form_test_raises_on_one_bad_slice():
    # 2 I misses Q by 3, far past the 1e-10 test: one such slice makes the
    # whole stack raise, with the one-matrix test's error.
    good = cg._axis_inversion_subgroups(2, np.linspace(0.3, np.pi - 0.3, 9))
    assert cg._product(good).tobytes() == good.tobytes()
    with pytest.raises(ValueError) as scalar:
        cg.GroupElement(2.0 * np.eye(4))
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        cg._product(np.insert(good, 4, 2.0 * np.eye(4), axis=0))


@pytest.mark.parametrize("d", DIMS)
def test_boost_at_large_rapidity(d):
    # cosh^2 - sinh^2 rounds to about eps cosh^2, past the fixed 1e-9 form
    # tolerance of PoincareMap from rapidity ~8.5 on; the group element
    # scales its tolerance with the entries and must still accept the boost.
    c, s = np.cosh(12.0), np.sinh(12.0)
    expected = np.eye(d + 2)
    expected[0, 0] = expected[1, 1] = c
    expected[0, 1] = expected[1, 0] = -s
    assert np.array_equal(cg.boost(d, 1, 12.0).matrix, expected)
    with pytest.raises(ValueError):
        cg.boost(d, d, 1.0)


def test_dilation_scales_and_rejects_negative_factor():
    g = cg.dilation(4, 2.0)
    np.testing.assert_allclose(cg.act(g, [1, 1, 0, 0]), [2, 2, 0, 0], atol=1e-12)
    with pytest.raises(ValueError):
        cg.dilation(4, -1.0)


def test_translation_acts_globally():
    rng = np.random.default_rng(4)
    for d in DIMS:
        a = rng.normal(size=d)
        g = cg.translation(d, a)
        for _ in range(50):
            x = rng.normal(size=d) * 5
            np.testing.assert_allclose(cg.act(g, x), x + a, atol=1e-9)


def test_ray_inversion_is_involution_off_cone():
    rng = np.random.default_rng(5)
    for d in DIMS:
        rho = cg.ray_inversion(d)
        for _ in range(100):
            x = random_point(rng, d, nonnull=True)
            y = cg.act(rho, x)
            np.testing.assert_allclose(y, -x / minkowski_norm(x), rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(cg.act(rho, y), x, rtol=1e-8, atol=1e-10)


def test_special_matches_pointwise_composition():
    # oracle: evaluate rho tau_a rho by composing the three pointwise maps
    rng = np.random.default_rng(6)
    for d in DIMS:
        a = rng.normal(size=d) * 0.3
        g = cg.special(d, a)

        def pointwise(x):
            x1 = -x / minkowski_norm(x)
            x2 = x1 + a
            return -x2 / minkowski_norm(x2)

        for _ in range(100):
            x = random_point(rng, d, nonnull=True)
            x1 = -x / minkowski_norm(x)
            if abs(minkowski_norm(x1 + a)) < 0.05:
                continue
            np.testing.assert_allclose(cg.act(g, x), pointwise(x), rtol=1e-7, atol=1e-9)


def test_act_singular_on_lightlike_for_inversion():
    # one symbolic case: x = (1, 1, 0, 0) has x^2 = 0 and the image ray of
    # the inversion satisfies xi_d + xi_{d+1} = x^2 = 0
    rho = cg.ray_inversion(4)
    assert cg.act(rho, [1, 1, 0, 0]) is None
    # oracle over 10^3 random lightlike points
    rng = np.random.default_rng(7)
    for _ in range(1000):
        v = rng.normal(size=3)
        x = np.concatenate([[np.linalg.norm(v)], v])
        if np.linalg.norm(v) < 1e-3:
            continue
        assert cg.act(rho, x) is None


@pytest.mark.parametrize("d", DIMS)
def test_act_singular_exactly_where_act_array_is(d):
    # per-point act returns None on exactly the rows act_array marks
    # singular: the light cone through the pole a / a^2 of special(d, a)
    # goes to infinity, and infinite or NaN coordinates have no image.
    # Elsewhere act(g, x) is row i of act_array(g, X), bit for bit.
    rng = np.random.default_rng(11)
    a = rng.normal(size=d)
    pole = a / minkowski_norm(a)
    u = rng.normal(size=(20, d - 1))
    null = np.hstack([np.ones((20, 1)), u / np.linalg.norm(u, axis=1, keepdims=True)])
    X = np.vstack([rng.normal(size=(200, d)) * 3, pole[None],
                   pole + rng.normal(size=(20, 1)) * null,
                   np.diag(np.full(d, np.inf)), np.diag(np.full(d, -np.inf)),
                   np.diag(np.full(d, np.nan))])
    for g in (cg.special(d, a), cg.boost(d, 1, 0.7) @ cg.dilation(d, 1.3) @ cg.special(d, a)):
        img, ok = cg.act_array(g, X)
        points = [cg.act(g, x) for x in X]
        assert np.array_equal([y is None for y in points], ~ok)
        assert ok[:200].all() and not ok[200:].any()
        assert np.isnan(img[~ok]).all()
        assert all(np.array_equal(y.view(np.int64), row.view(np.int64))
                   for y, row in zip(points, img) if y is not None)
    # A Poincare map acts on a point as on a column of coordinates.
    p = PoincareMap.from_boost(d, 1, 0.7).compose(PoincareMap.from_translation(a))
    if d >= 3:
        p = p.compose(PoincareMap.from_rotation(d, 1, 2, 0.4))
    rows, regular = p._act_coords(X[:221].T)
    assert regular is True
    assert all(np.array_equal(p.act(x).view(np.int64), row.view(np.int64))
               for x, row in zip(X[:221], np.stack(rows, axis=1)))


@pytest.mark.parametrize("d", DIMS)
def test_non_finite_points_decided_without_warnings(d):
    # Infinite and NaN coordinates give their usual verdict, no image and
    # no membership, on points and on rows, with warnings raised as errors.
    from confmod.geometry import TransformedRegion
    g = cg.special(d, np.r_[0.1, 0.2, -0.3, 0.15][:d])
    region = TransformedRegion(g, unit_double_cone(d))
    X = np.vstack([np.diag(np.full(d, v)) for v in (np.inf, -np.inf, np.nan)]
                  + [np.full((1, d), v) for v in (np.inf, -np.inf, np.nan)]
                  + [np.r_[np.inf, np.full(d - 1, -np.inf)], np.zeros(d)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        img, ok = cg.act_array(g, X)
        points = [cg.act(g, x) for x in X]
        mask = region.contains_many(X)
        member = [region.contains(x) for x in X]
    assert ok[-1] and not ok[:-1].any() and np.isnan(img[:-1]).all()
    assert [y is None for y in points] == list(~ok)
    assert mask[-1] and not mask[:-1].any()
    assert member == list(mask)


def test_translations_never_singular():
    rng = np.random.default_rng(8)
    g = cg.translation(4, rng.normal(size=4))
    X = rng.normal(size=(500, 4)) * 10
    _, ok = cg.act_array(g, X)
    assert ok.all()


def test_axis_inversion_maps_wedge_to_complement():
    for d in DIMS:
        w1 = standard_wedge(d)
        comp = spacelike_complement(w1)
        pts = sample_region(w1, 2000, seed=9)
        img, ok = cg.act_array(cg.axis_inversion(d, 1), pts)
        assert ok.all()
        assert all(comp.contains(p) for p in img)


def test_action_is_homomorphism_where_defined():
    rng = np.random.default_rng(10)
    for d in DIMS:
        for _ in range(20):
            g = cg.translation(d, rng.normal(size=d)) @ cg.boost(d, 1, rng.normal() * 0.5)
            h = cg.special(d, rng.normal(size=d) * 0.2) @ cg.dilation(d, np.exp(rng.normal() * 0.3))
            x = rng.normal(size=d)
            lhs = cg.act(g @ h, x)
            inner = cg.act(h, x)
            if inner is None or lhs is None:
                continue
            rhs = cg.act(g, inner)
            if rhs is None:
                continue
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-11)


# --- identity component ---------------------------------------------------------

def test_identity_component_classification():
    for d in DIMS:
        assert cg.in_identity_component(cg.GroupElement(np.eye(d + 2)))
        assert cg.in_identity_component(cg.axis_inversion(d, 1))
    assert cg.in_identity_component(cg.space_reflection(3, 1))
    assert not cg.in_identity_component(cg.space_reflection(4, 1))
    assert not cg.in_identity_component(cg.space_reflection(2, 1))


# --- one-parameter subgroup through the axis inversion ---------------------------

@pytest.mark.parametrize("d", DIMS)
def test_axis_inversion_subgroup_endpoints(d):
    ident = cg.GroupElement(np.eye(d + 2))
    assert cg.distance_mod_sign(cg.axis_inversion_subgroup(d, 0.0), ident) < 1e-12
    assert cg.distance_mod_sign(cg.axis_inversion_subgroup(d, np.pi), ident) < 1e-12
    u = cg.axis_inversion_subgroup(d, np.pi / 2)
    assert cg.distance_mod_sign(u, cg.axis_inversion(d, 1)) < 1e-9


@pytest.mark.parametrize("d", DIMS)
def test_axis_inversion_subgroup_law(d):
    rng = np.random.default_rng(11)
    for a, b in rng.uniform(0.15, np.pi - 0.15, size=(100, 2)):
        lhs = cg.axis_inversion_subgroup(d, a) @ cg.axis_inversion_subgroup(d, b)
        s = cg.axis_inversion_subgroup(d, (a + b) % np.pi)
        assert cg.distance_mod_sign(lhs, s) < 1e-8


@pytest.mark.parametrize("d", DIMS)
def test_axis_inversion_subgroup_passes_form_test(d):
    # The product form missed Q past 1e-10 for every alpha in [1e-8, 0.05];
    # the rotation preserves it to rounding on all of (0, pi), on a grid
    # dense on a log scale near both ends.
    ends = np.geomspace(1e-8, 0.1, 60)
    alpha = np.r_[ends, np.linspace(0.1, np.pi - 0.1, 61)[1:-1], np.pi - ends]
    q = cg.quadratic_form(d)
    for axis in range(1, d):
        U = cg._axis_inversion_subgroups(d, alpha, axis)
        for m in U:
            assert np.max(np.abs(m.T @ q @ m - q)) < 1e-15
            assert np.array_equal(cg.GroupElement(m).matrix, m)


def test_axis_inversion_generator_checked_once(monkeypatch):
    # the axis-inversion stacks share one form-checked generator per
    # (d, axis): over two group-suite runs each is checked once, its matrix
    # is read-only, and the two runs give the same records
    from confmod import cli

    checked = []
    post_init = cg.LieGenerator.__post_init__

    def counted(self):
        checked.append(self.matrix.copy())
        post_init(self)

    cg._axis_inversion_generator.cache_clear()
    monkeypatch.setattr(cg.LieGenerator, "__post_init__", counted)
    runs = [cli.run_group_suite(cli.SuiteConfig(suite="group")) for _ in range(2)]
    assert runs[0] == runs[1]
    for d in DIMS:
        y = np.zeros((d + 2, d + 2))
        y[1, d], y[d, 1] = 2.0, -2.0
        assert sum(m.shape == y.shape and np.array_equal(m, y) for m in checked) == 1
        gen = cg._axis_inversion_generator(d, 1)
        assert np.array_equal(gen.matrix, y) and not gen.matrix.flags.writeable


def test_axis_inversion_order_two_mod_sign():
    # R_i squares to the identity as a ray action; the order-4 behavior of
    # its liftings is not visible at the matrix level.
    for d in DIMS:
        r = cg.axis_inversion(d, 1)
        assert cg.distance_mod_sign(r @ r, cg.GroupElement(np.eye(d + 2))) == 0.0


def _loop_translation(d, a):
    """The translation by one vector, in the arithmetic of one matrix: a^2
    from np.dot and exp(A) = I + A + A^2/2."""
    eta_a = np.r_[1.0, -np.ones(d - 1)] * a
    gen = np.zeros((d + 2, d + 2))
    gen[:d, d] = gen[:d, d + 1] = a
    gen[d, :d], gen[d + 1, :d] = eta_a, -eta_a
    m = np.eye(d + 2) + gen
    a2 = float(np.dot(eta_a, a))
    m[d, d:] += a2 / 2.0
    m[d + 1, d:] -= a2 / 2.0
    return m


def _loop_dilation(d, lam):
    m = np.eye(d + 2)
    m[d, d] = m[d + 1, d + 1] = (1.0 / lam + lam) / 2.0
    m[d, d + 1] = m[d + 1, d] = (1.0 / lam - lam) / 2.0
    return m


def _product_form_subgroup(d, alpha, axis):
    """U(alpha) modulo sign as the product tau(-cot a) D(sin(a)^-2) R_axis
    tau(-cot a), the identity where |sin alpha| < 1e-12."""
    s = np.sin(np.float64(alpha))
    if abs(s) < 1e-12:
        return np.eye(d + 2)
    a = np.zeros(d)
    a[axis] = -np.cos(alpha) / s
    tau = _loop_translation(d, a)
    return tau @ _loop_dilation(d, s ** -2) @ cg.axis_inversion(d, axis).matrix @ tau


def _loop_defect(d, a, axis):
    ea, einv = np.zeros(d), np.zeros(d)
    ea[axis], einv[axis] = a, 1.0 / a
    r = cg.axis_inversion(d, axis).matrix
    tau = _loop_translation(d, ea)
    lhs = tau @ r @ _loop_translation(d, einv) @ r @ tau @ r
    rhs = _loop_dilation(d, a * a)
    return min(np.max(np.abs(lhs - rhs)), np.max(np.abs(lhs + rhs)))


@pytest.mark.parametrize("d", DIMS)
def test_stacked_builders_match_one_row_calls(d):
    # Row i of each stacked builder is, as bytes, the public one-row call on
    # parameter i and the same closed form evaluated on that parameter alone
    # (the _loop_* references): the arithmetic does not depend on the stack.
    # The subgroup's rows equal its product form modulo sign to 1e-11.
    rng = np.random.default_rng(29 + d)
    n = 50
    A = rng.normal(size=(n, d)) * rng.choice([0.01, 1.0, 100.0], size=(n, 1))
    lam = np.exp(3.0 * rng.normal(size=n))
    # alpha over four periods, the fixed points 0, pi/2, pi, 2 pi, -pi, and
    # alpha within 1e-12 of k pi
    alpha = rng.uniform(0.15, np.pi - 0.15, size=n) + np.pi * rng.integers(-2, 2, size=n)
    alpha[rng.choice(n, 9, replace=False)] = (0.0, np.pi / 2, np.pi, 2 * np.pi, -np.pi,
                                               1e-13, -3e-13, np.pi + 2e-13, -np.pi / 2)
    a = rng.uniform(0.2, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    T, D = cg._translations(d, A), cg._dilations(d, lam)
    for i in range(n):
        assert T[i].tobytes() == cg.translation(d, A[i]).matrix.tobytes()
        assert T[i].tobytes() == _loop_translation(d, A[i]).tobytes()
        assert D[i].tobytes() == cg.dilation(d, lam[i]).matrix.tobytes()
        assert D[i].tobytes() == _loop_dilation(d, lam[i]).tobytes()
    TD = cg._product(T, D)
    for i in range(n):
        g = cg.translation(d, A[i]) @ cg.dilation(d, lam[i])
        assert TD[i].tobytes() == g.matrix.tobytes()
    for axis in range(1, d):
        U = cg._axis_inversion_subgroups(d, alpha, axis)
        defects = cg._identity_defects(d, a, axis)
        dist = cg._distances_mod_sign(U, T)
        for i in range(n):
            u = cg.axis_inversion_subgroup(d, alpha[i], axis)
            assert U[i].tobytes() == u.matrix.tobytes()
            ref = _product_form_subgroup(d, alpha[i], axis)
            assert min(np.abs(U[i] - ref).max(), np.abs(U[i] + ref).max()) <= 1e-11
            defect = np.float64(cg.dilation_identity_defect(d, a[i], axis))
            assert defects[i].tobytes() == defect.tobytes()
            assert defect.tobytes() == np.float64(_loop_defect(d, a[i], axis)).tobytes()
            assert dist[i].tobytes() == np.float64(
                cg.distance_mod_sign(u, cg.translation(d, A[i]))).tobytes()
        assert (U[alpha == 0.0] == np.eye(d + 2)).all()


# --- dilation generation identity -------------------------------------------------

@pytest.mark.parametrize("d", DIMS)
def test_dilation_identity(d):
    assert cg.dilation_identity_defect(d, 1.0) < 1e-9
    assert cg.dilation_identity_defect(d, -2.0) < 1e-9


def test_dilation_identity_spec_point():
    assert cg.dilation_identity_defect(4, 3.7) < 1e-9


def test_dilation_identity_rejects_zero():
    with pytest.raises(ValueError):
        cg.dilation_identity_defect(3, 0.0)


# --- conformal energy ---------------------------------------------------------------

@pytest.mark.parametrize("d", DIMS + (1,))
def test_conformal_energy_period(d):
    k = cg.conformal_energy(d)
    ident = cg.GroupElement(np.eye(d + 2))
    assert cg.distance_mod_sign(k.exp(2 * np.pi), ident) < 1e-8
    assert cg.distance_mod_sign(k.exp(0.0), ident) < 1e-14


def _generators(d):
    moved = cg.translation(d, [0.3, -0.2, 0.1, 0.25][:d]) @ cg.ray_inversion(d)
    return {"boost": cg.boost_generator(d, 1), "double-cone": doublecone_flow(d).generator,
            "dilation": cg.dilation_generator(d),
            "translation": cg.translation_generator(d, [1.0, 0.5, -0.3, 0.2][:d]),
            "conformal-energy": cg.conformal_energy(d),
            "conjugated-double-cone": fl.conjugate_flow(moved, doublecone_flow(d)).generator}


@pytest.mark.parametrize("d", DIMS)
def test_lie_exponential_against_mpmath(d):
    # the exponential against mpmath's at 40 digits, relative to the largest
    # entry; scipy.linalg.expm is itself 1.2e-12 off on the double-cone
    # generator at t = 1.3, so it cannot serve as the reference
    mp = pytest.importorskip("mpmath").mp
    for name, gen in _generators(d).items():
        for t in np.linspace(-2.0 * np.pi, 2.0 * np.pi, 13):
            with mp.workdps(40):
                ref = np.array(mp.expm(mp.matrix((t * gen.matrix).tolist())).tolist(), dtype=float)
            err = np.max(np.abs(gen.exp(t).matrix - ref)) / np.max(np.abs(ref))
            assert err < 1e-14, (name, t, err)


@pytest.mark.parametrize("d", DIMS)
def test_lie_generator_needs_a_three_term_exponential(d):
    # rate-2 boost plus dilation: X^3 - c X vanishes on the boost block for
    # c = 4 and on the dilation block for c = 1, so for no single c
    m = cg.boost_generator(d, 1, 2.0).matrix + cg.dilation_generator(d).matrix
    with pytest.raises(ValueError, match="three-term exponential"):
        cg.LieGenerator(m)


# an exponential whose entries overflow raises ValueError, not OverflowError
@pytest.mark.parametrize("build", (
    lambda: cg.GroupElement(np.full((4, 4), np.nan)),
    lambda: cg.GroupElement(np.diag([np.inf, 1.0, 1.0, 1.0])),
    lambda: cg.LieGenerator(np.full((4, 4), np.nan)),
    lambda: cg.LieGenerator(np.diag([0.0, 0.0, 0.0, -np.inf])),
    lambda: cg.translation(2, [np.nan, 0.0]),
    lambda: cg.dilation_generator(2).exp(np.nan),
    lambda: cg.dilation_generator(2).exp(1e3),
    lambda: cg.boost_generator(2, 1).exp(1e308),
    lambda: cg.dilation_generator(2).exp(np.inf),
    lambda: PoincareMap(np.full((2, 2), np.nan), np.zeros(2)),
    lambda: PoincareMap(np.diag([np.inf, 1.0]), np.zeros(2)),
    lambda: PoincareMap(np.eye(2), [np.nan, 0.0]),
    lambda: PoincareMap(np.eye(2), [0.0, -np.inf]),
    lambda: cg.Ray(np.full(6, np.nan)),
    lambda: cg.Ray([np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]),
    lambda: cg.embed([np.nan, 0.0]),
), ids=("group-nan", "group-inf", "lie-nan", "lie-inf", "translation-nan", "exp-nan",
        "exp-1e3", "exp-1e308", "exp-inf",
        "lorentz-nan", "lorentz-inf", "shift-nan", "shift-inf", "ray-nan", "ray-inf",
        "embed-nan"))
def test_non_finite_matrices_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_conformal_energy_block_structure():
    # the generator lives in the (xi_0, xi_{d+1}) plane and vanishes elsewhere
    for d in DIMS:
        k = cg.conformal_energy(d).matrix
        mask = np.zeros((d + 2, d + 2), dtype=bool)
        mask[0, d + 1] = mask[d + 1, 0] = True
        assert np.max(np.abs(k[~mask])) < 1e-14
        assert abs(k[0, d + 1]) > 1.0


# --- perfectness witnesses ------------------------------------------------------------

def commutator(a, b):
    return a @ b @ a.inverse() @ b.inverse()


@pytest.mark.parametrize("d", DIMS)
def test_generators_are_commutators(d):
    """Each generator kind is reproduced by an explicit commutator of
    identity-component elements (witness list)."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=d)
    lam = float(np.exp(rng.normal() * 0.4)) + 0.5
    s = float(rng.normal())
    r1 = cg.axis_inversion(d, 1)

    wit = commutator(cg.dilation(d, 2.0), cg.translation(d, a))
    assert cg.distance_mod_sign(wit, cg.translation(d, a)) < 1e-8

    wit = commutator(cg.dilation(d, np.sqrt(lam)), r1)
    assert cg.distance_mod_sign(wit, cg.dilation(d, lam)) < 1e-8

    wit = commutator(cg.boost(d, 1, s / 2), r1)
    assert cg.distance_mod_sign(wit, cg.boost(d, 1, s)) < 1e-8

    wit = commutator(cg.dilation(d, 0.5), cg.special(d, a))
    assert cg.distance_mod_sign(wit, cg.special(d, a)) < 1e-8

    if d >= 3:
        th = float(rng.uniform(0.1, 2.0))
        wit = commutator(cg.rotation(d, 1, 2, th / 2), cg.axis_inversion(d, 1))
        assert cg.distance_mod_sign(wit, cg.rotation(d, 1, 2, th)) < 1e-8


# --- transitivity on double cones --------------------------------------------------------

@pytest.mark.parametrize("d", DIMS)
def test_double_cone_transport(d):
    rng = np.random.default_rng(13)
    for _ in range(5):
        src, dst = random_double_cone(rng, d), random_double_cone(rng, d)
        g = cg.double_cone_transport(src, dst)
        pts = sample_region(src, 200, seed=14)
        img, ok = cg.act_array(g, pts)
        assert ok.all()
        assert all(dst.contains(p) for p in img)
        back, ok = cg.act_array(g.inverse(), sample_region(dst, 200, seed=15))
        assert ok.all()
        assert all(src.contains(p) for p in back)


def test_transport_standard_wedge_cone_roundtrip():
    # the wedge-to-cone element is exercised in the flows tests; here check
    # the double-cone transport fixes the unit cone when src = dst
    d = 4
    o1 = unit_double_cone(d)
    g = cg.double_cone_transport(o1, o1)
    assert cg.distance_mod_sign(g, cg.GroupElement(np.eye(d + 2))) < 1e-10
