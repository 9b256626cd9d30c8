import hashlib
import math
import warnings

import numpy as np
import pytest

import confmod.confgroup as cg
from confmod.geometry import (SAMPLING_BOX, CausalRelation, DoubleCone, FutureCone,
                              PoincareMap, Region, TransformedRegion, Wedge,
                              causal_relation, minkowski_norm, sample_region,
                              spacelike_complement, standard_wedge,
                              timelike_complement, transform_region,
                              unit_double_cone, _dot)

DIMS = (2, 3, 4)


def test_minkowski_norm_examples():
    assert minkowski_norm([1, 0, 0, 0]) == 1
    assert minkowski_norm([0, 1, 0, 0]) == -1
    assert minkowski_norm([3, 1, 2, 2]) == 0   # 9 - 1 - 4 - 4


def test_coordinate_sums_fold_left_to_right():
    # Arrays add left to right, so the floats of a point must too: a
    # compensated sum (Python's sum from 3.12 on) gives 1.0 and -(1e16 + 2)
    # below, and the sign of zero follows sum's start at 0.
    a = [1e16, 1.0, -1e16]
    assert _dot(a, [1.0, 1.0, 1.0]) == 0.0
    np.testing.assert_array_equal(_dot([np.array([v]) for v in a], [1.0] * 3), [0.0])
    assert str(_dot([-0.0], [1.0])) == str(sum([-0.0])) == "0.0"
    x = np.array([0.0, 1e8, 1.0, 1.0])   # 1e16 + 1 + 1 rounds to 1e16 twice
    assert minkowski_norm(x) == minkowski_norm(x[None])[0] == -1e16


def test_causal_relation_examples():
    z = np.zeros(4)
    assert causal_relation(z, [1, 0, 0, 0]) is CausalRelation.TIMELIKE_FUTURE
    assert causal_relation(z, [0, 1, 0, 0]) is CausalRelation.SPACELIKE
    assert causal_relation(z, z) is CausalRelation.EQUAL
    assert causal_relation(z, [-1, 0, 0, 0]) is CausalRelation.TIMELIKE_PAST
    assert causal_relation(z, [1, 1, 0, 0]) is CausalRelation.LIGHTLIKE


def test_causal_relation_sign_consistency():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = rng.normal(size=4), rng.normal(size=4)
        rel = causal_relation(x, y)
        spacelike = minkowski_norm(y - x) < 0
        assert (rel is CausalRelation.SPACELIKE) == spacelike


def test_region_membership_examples():
    w1 = standard_wedge(4)
    assert w1.contains([0, 1, 0, 0])
    assert not w1.contains([0, -1, 0, 0])
    assert not w1.contains([2, 1, 0, 0])
    o1 = unit_double_cone(4)
    assert o1.contains(np.zeros(4))
    assert not o1.contains([0, 1.5, 0, 0])
    vplus = FutureCone(np.zeros(4))
    assert not vplus.contains([-1, 0, 0, 0])
    assert vplus.contains([1, 0.2, 0, 0])


def test_unit_double_cone_is_l1_ball():
    # |x0| + |vec x| < 1 should match the two-tip characterization
    rng = np.random.default_rng(0)
    o1 = unit_double_cone(4)
    pts = rng.uniform(-1.5, 1.5, size=(5000, 4))
    direct = np.abs(pts[:, 0]) + np.linalg.norm(pts[:, 1:], axis=1) < 1.0
    via_tips = np.array([o1.contains(p) for p in pts])
    assert np.array_equal(direct, via_tips)


@pytest.mark.parametrize("d", DIMS)
def test_wedge_complement_formula(d):
    # sampling oracle: the complement predicate must match x1 < -|x0|
    rng = np.random.default_rng(5)
    comp = spacelike_complement(standard_wedge(d))
    pts = rng.uniform(-10, 10, size=(10_000, d))
    formula = pts[:, 1] < -np.abs(pts[:, 0])
    assert all(comp.contains(p) == f for p, f in zip(pts, formula))


def test_wedge_complement_against_spacelike_definition():
    # stronger oracle: membership implies spacelike separation from wedge samples
    d = 4
    w1 = standard_wedge(d)
    comp = spacelike_complement(w1)
    wpts = sample_region(w1, 500, seed=3)
    cpts = sample_region(comp, 200, seed=4)
    diff = cpts[:, None, :] - wpts[None, :, :]
    norms = diff[..., 0] ** 2 - np.sum(diff[..., 1:] ** 2, axis=-1)
    assert np.all(norms < 0)


@pytest.mark.parametrize("d", DIMS)
def test_double_cone_complement_formula(d):
    # sampling oracle: for the unit cone the complement is |vec x| > |x0| + 1
    rng = np.random.default_rng(6)
    comp = spacelike_complement(unit_double_cone(d))
    pts = rng.uniform(-4, 4, size=(10_000, d))
    formula = np.linalg.norm(pts[:, 1:], axis=1) > np.abs(pts[:, 0]) + 1.0
    assert all(comp.contains(p) == f for p, f in zip(pts, formula))


@pytest.mark.parametrize("d", DIMS)
def test_double_complement_identity(d):
    rng = np.random.default_rng(7)
    for region in (standard_wedge(d), unit_double_cone(d)):
        twice = spacelike_complement(spacelike_complement(region))
        pts = rng.uniform(-5, 5, size=(10_000, d))
        assert all(region.contains(p) == twice.contains(p) for p in pts)


def test_wedge_double_complement_is_involution():
    w1 = standard_wedge(4)
    back = spacelike_complement(spacelike_complement(w1))
    rng = np.random.default_rng(8)
    pts = rng.uniform(-10, 10, size=(2000, 4))
    assert all(w1.contains(p) == back.contains(p) for p in pts)


def test_timelike_complement_examples():
    o1 = unit_double_cone(4)
    tc = timelike_complement(o1)
    assert tc.contains([2, 0, 0, 0])
    assert not tc.contains([0, 2, 0, 0])
    # point checked against 10^4 sampled cone points
    x = np.array([1.5, 0.6, 0, 0])
    opts = sample_region(o1, 10_000, seed=9)
    diff = x[None, :] - opts
    norms = diff[:, 0] ** 2 - np.sum(diff[:, 1:] ** 2, axis=1)
    timelike_to_all = bool(np.all(norms > 0))
    assert tc.contains(x) == timelike_to_all
    assert not tc.contains(x)


def test_complements_are_disjoint():
    o1 = unit_double_cone(3)
    sc, tc = spacelike_complement(o1), timelike_complement(o1)
    rng = np.random.default_rng(10)
    for p in rng.uniform(-5, 5, size=(5000, 3)):
        assert not (sc.contains(p) and tc.contains(p))


def test_unsupported_complements_raise():
    with pytest.raises(ValueError):
        spacelike_complement(FutureCone(np.zeros(3)))
    with pytest.raises(ValueError):
        timelike_complement(standard_wedge(3))


def test_sample_region_postconditions():
    o1 = unit_double_cone(4)
    pts = sample_region(o1, 3, seed=42)
    assert pts.shape == (3, 4)
    assert all(o1.contains(p) for p in pts)
    again = sample_region(o1, 3, seed=42)
    np.testing.assert_array_equal(pts, again)
    wpts = sample_region(standard_wedge(4), 10_000, seed=7)
    assert np.all(wpts[:, 1] > np.abs(wpts[:, 0]))
    with pytest.raises(ValueError):
        sample_region(o1, 0, seed=1)


def test_sample_region_reports_exhaustion():
    # region pushed outside the sampling box: rejection must give up loudly
    from confmod.geometry import TransformedRegion
    far = TransformedRegion(PoincareMap.from_translation([0.0, 100.0, 0.0]),
                            unit_double_cone(3))
    with pytest.raises(RuntimeError):
        sample_region(far, 5, seed=1, max_tries=50_000)


def test_sample_region_spends_exactly_max_tries(monkeypatch):
    # A cap below one chunk still draws: the first accepted of 100 draws
    # from the double cone's box [-1, 1]^2.
    o = unit_double_cone(2)
    draws = np.random.default_rng(0).uniform([-1.0, -1.0], [1.0, 1.0], size=(100, 2))
    np.testing.assert_array_equal(sample_region(o, 1, seed=0, max_tries=100),
                                  draws[o.contains_many(draws)][:1])
    # The last chunk is cut to the draws left under the cap: 600 draws of
    # this cone (acceptance 0.45 in the box) give fewer than 300 points,
    # the 100 after them fill the request.
    cone = FutureCone(np.array([-4.0, 0.0]))
    rng = np.random.default_rng(5)
    first, last = rng.uniform(-10.0, 10.0, size=(600, 2)), rng.uniform(-10.0, 10.0, size=(100, 2))
    kept = np.vstack([first[cone.contains_many(first)], last[cone.contains_many(last)]])
    assert len(kept) - cone.contains_many(last).sum() < 300 <= len(kept)
    np.testing.assert_array_equal(sample_region(cone, 300, seed=5, max_tries=700), kept[:300])
    # It gives up after exactly max_tries draws and reports them.
    rows = []
    contains_many = FutureCone.contains_many

    def counted(self, X):
        rows.append(len(X))
        return contains_many(self, X)

    monkeypatch.setattr(FutureCone, "contains_many", counted)
    with pytest.raises(RuntimeError, match=rf"exhausted 700 draws \({len(kept)}/400 accepted\)"):
        sample_region(cone, 400, seed=5, max_tries=700)
    assert sum(rows) == 700


@pytest.mark.parametrize("d", DIMS)
def test_poincare_covariance_of_membership(d):
    rng = np.random.default_rng(12)
    g = PoincareMap.from_boost(d, 1, 0.6).compose(
        PoincareMap.from_translation(rng.normal(size=d)))
    if d >= 3:
        g = g.compose(PoincareMap.from_rotation(d, 1, 2, 0.8))
    for region in (unit_double_cone(d), standard_wedge(d), FutureCone(np.zeros(d))):
        moved = transform_region(g, region)
        pts = sample_region(region, 300, seed=13)
        outside = rng.uniform(-3, 3, size=(300, d))
        for p in np.vstack([pts, outside]):
            assert moved.contains(g.act(p)) == region.contains(p)


def test_transformed_region_by_group_element():
    from confmod.confgroup import dilation
    o1 = unit_double_cone(4)
    doubled = transform_region(PoincareMap.identity(4), o1)
    assert isinstance(doubled, DoubleCone)
    from confmod.geometry import TransformedRegion
    g = dilation(4, 2.0)
    big = TransformedRegion(g, o1)
    assert big.contains([0, 1.5, 0, 0])
    assert not big.contains([0, 2.5, 0, 0])


def test_one_dimensional_space():
    # d = 1: double cones are intervals, future cones half-lines, and every
    # pair of distinct points is timelike separated
    o = DoubleCone(np.array([-1.0]), np.array([1.0]))
    assert o.contains([0.0]) and not o.contains([1.5])
    tc = timelike_complement(o)
    assert tc.contains([2.0]) and tc.contains([-3.0]) and not tc.contains([0.5])
    sc = spacelike_complement(o)
    assert not sc.contains([5.0])
    pts = sample_region(o, 50, seed=1)
    assert all(o.contains(p) for p in pts)
    assert causal_relation([0.0], [3.0]) is CausalRelation.TIMELIKE_FUTURE


def test_wedge_needs_two_dimensions():
    with pytest.raises(ValueError):
        Wedge(1)


def test_double_cone_tip_validation():
    with pytest.raises(ValueError):
        DoubleCone(np.zeros(3), np.array([0.0, 1.0, 0.0]))   # spacelike tips
    with pytest.raises(ValueError):
        DoubleCone(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))  # past-directed


@pytest.mark.parametrize("apex", ([np.nan, 0.0], [0.0, -np.inf], np.zeros((2, 2)), 0.0),
                         ids=("nan", "inf", "matrix", "scalar"))
def test_future_cone_apex_validation(apex):
    with pytest.raises(ValueError):
        FutureCone(apex)


# --- batched membership against closed forms ------------------------------------

def _spatial(X):
    return np.linalg.norm(X[:, 1:], axis=1)


def _boundary_rows(d):
    """Rows exact in binary: the origin, the tips +-e0, points on the light
    cones through them (spatial part (0.75, 1) has norm 1.25 exactly), on the
    edges x1 = +-x0 of the standard wedge, and a NaN row."""
    w = np.array([0.75, 1.0, 0.0][:d - 1])
    light = np.r_[np.linalg.norm(w), w]
    rows = []
    for apex in (0.0, 1.0, -1.0):
        p = np.zeros(d)
        p[0] = apex
        rows.append(p)
        for k in (0.5, -0.5, 1.0, -2.0):
            rows += [p + k * light, p + k * light * np.r_[1.0, -np.ones(d - 1)]]
        if d >= 2:
            for k in (0.5, -1.0):
                edge = p.copy()
                edge[:2] += [k, abs(k)]
                rows.append(edge)
    rows.append(np.full(d, np.nan))
    return np.array(rows)


RAPIDITY = 0.7
SHIFT = np.array([0.25, -0.5, 0.75, 0.125])
CENTER, RADIUS = np.array([0.5, 0.25, -0.5, 1.0]), 2.0


def _unboost(X, d):
    """Coordinates of X pulled back by x -> boost(RAPIDITY) x + SHIFT."""
    U = X - SHIFT[:d]
    c, s = np.cosh(RAPIDITY), np.sinh(RAPIDITY)
    return np.column_stack([c * U[:, 0] + s * U[:, 1], s * U[:, 0] + c * U[:, 1], U[:, 2:]])


def _boost_map(d):
    return PoincareMap.from_translation(SHIFT[:d]).compose(
        PoincareMap.from_boost(d, 1, RAPIDITY))


def _centered(d):
    c = CENTER[:d]
    return DoubleCone(c - RADIUS * np.eye(d)[0], c + RADIUS * np.eye(d)[0])


def _boosted_wedge_margin(X, d):
    """Light-cone coordinates of X pulled back by the boost map, the smaller
    of x1 - x0 and x1 + x0 of the preimage: positive exactly in the image of
    the standard wedge."""
    U = X - SHIFT[:d]
    return np.minimum(np.exp(-RAPIDITY) * U @ np.r_[-1.0, 1.0, np.zeros(d - 2)],
                      np.exp(RAPIDITY) * U @ np.r_[1.0, 1.0, np.zeros(d - 2)])


# kind: (minimum d, region(d), margin(X, d) > 0 exactly on members, whether
# exact-boundary rows stay exact through the region's own arithmetic)
REGION_CASES = {
    "double_cone": (1, unit_double_cone,
                    lambda X, d: 1.0 - np.abs(X[:, 0]) - _spatial(X), True),
    "centered_double_cone": (1, _centered, lambda X, d: RADIUS - np.abs(X[:, 0] - CENTER[0])
                             - _spatial(X - CENTER[:d]), True),
    "wedge": (2, standard_wedge, lambda X, d: X[:, 1] - np.abs(X[:, 0]), True),
    "boosted_wedge": (2, lambda d: Wedge(d, _boost_map(d)), _boosted_wedge_margin, False),
    "poincare_wedge": (2, lambda d: TransformedRegion(_boost_map(d), standard_wedge(d)),
                       _boosted_wedge_margin, False),
    "future_cone": (1, lambda d: FutureCone(CENTER[:d]),
                    lambda X, d: X[:, 0] - CENTER[0] - _spatial(X - CENTER[:d]), True),
    "spacelike_complement": (1, lambda d: spacelike_complement(unit_double_cone(d)),
                             lambda X, d: _spatial(X) - np.abs(X[:, 0]) - 1.0, True),
    "timelike_complement": (1, lambda d: timelike_complement(unit_double_cone(d)),
                            lambda X, d: np.abs(X[:, 0]) - _spatial(X) - 1.0, True),
    "poincare_image": (2, lambda d: TransformedRegion(_boost_map(d), unit_double_cone(d)),
                       lambda X, d: 1.0 - np.abs(_unboost(X, d)[:, 0])
                       - _spatial(_unboost(X, d)), False),
    # x -> -x/x^2 maps the past cone onto the future cone and the light cone
    # of the origin to infinity.
    "conformal_image": (2, lambda d: TransformedRegion(cg.ray_inversion(d),
                                                       FutureCone(np.zeros(d))),
                        lambda X, d: -X[:, 0] - _spatial(X), True),
}
REGION_PARAMS = [(kind, d) for kind, case in REGION_CASES.items() for d in (1, 2, 3, 4)
                 if d >= case[0]]


@pytest.mark.parametrize("kind,d", REGION_PARAMS)
def test_contains_many_matches_closed_form_margins(kind, d):
    _, make, margin, exact = REGION_CASES[kind]
    region = make(d)
    rng = np.random.default_rng(17)
    X = np.vstack([rng.uniform(-3.0, 3.0, size=(400, d)), _boundary_rows(d),
                   CENTER[:d] + RADIUS * _boundary_rows(d)])
    m = margin(X, d)
    mask = region.contains_many(X)
    assert mask.dtype == bool and mask.shape == (len(X),)
    # Through a floating-point map a boundary row can land on either side.
    decisive = np.ones(len(X), dtype=bool) if exact else ~(np.abs(m) < 1e-9)
    assert np.array_equal(mask[decisive], m[decisive] > 0)
    assert decisive.sum() > 400 and not mask.all()
    # In d = 1 every pair of distinct points is timelike: nothing is spacelike.
    assert mask.any() != (kind == "spacelike_complement" and d == 1)
    assert [region.contains(x) for x in X] == list(mask)


@pytest.mark.parametrize("d", DIMS)
def test_poincare_image_of_wedge_matches_wedge(d):
    # A wedge stores its Poincare map's inverse and pulls points back with
    # the same action as the image of the standard wedge under that map.
    rng = np.random.default_rng(19)
    X = np.vstack([rng.uniform(-3.0, 3.0, size=(2000, d)), _boundary_rows(d),
                   _boost_map(d).act(np.zeros(d)) + RADIUS * _boundary_rows(d)])
    image = REGION_CASES["poincare_wedge"][1](d)
    wedge = REGION_CASES["boosted_wedge"][1](d)
    mask = image.contains_many(X)
    assert np.array_equal(mask, wedge.contains_many(X))
    assert mask.any() and not mask.all()
    assert [image.contains(x) for x in X] == list(mask)


def test_rows_mapped_to_infinity_are_not_members():
    d = 3
    region = REGION_CASES["conformal_image"][1](d)
    B = _boundary_rows(d)
    on_cone = B[B[:, 0] ** 2 - np.sum(B[:, 1:] ** 2, axis=1) == 0.0]
    assert len(on_cone) > 4
    _, regular = cg.act_array(cg.ray_inversion(d), on_cone)
    assert not regular.any()
    assert not region.contains_many(on_cone).any()


def test_contains_many_rejects_wrong_shapes():
    o1 = unit_double_cone(3)
    with pytest.raises(ValueError):
        o1.contains_many(np.zeros((5, 4)))
    with pytest.raises(ValueError):
        o1.contains(np.zeros((2, 3)))


# --- rejection sampling semantics ---------------------------------------------------

def _per_draw_sample(region, n, seed, lo, hi, max_tries):
    """Rejection sampling one region.contains call per draw: the same
    generator, in chunks of min(max(256, 2 * missing), draws left) uniform
    draws from [lo, hi] (the sampler's own chunks differ, its stream does
    not), stopping at the n-th member."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, region.dim))
    got = tried = 0
    while got < n:
        if tried >= max_tries:
            raise RuntimeError(f"rejection sampling exhausted {tried} draws "
                               f"({got}/{n} accepted)")
        chunk = min(max(256, 2 * (n - got)), max_tries - tried)
        pts = rng.uniform(lo, hi, size=(chunk, region.dim))
        tried += chunk
        for p in pts:
            if region.contains(p):
                out[got] = p
                got += 1
                if got == n:
                    break
    return out


def _outcome(sampler, *args):
    """The sampled bytes, or the exhaustion report up to its hint."""
    try:
        return sampler(*args).tobytes()
    except RuntimeError as err:
        return str(err).split(";")[0]


# box None: a double cone's own box, 10.0: the cube |x_i| <= 10.
SAMPLER_PARAMS = [(kind, None if kind.endswith("double_cone") else SAMPLING_BOX, d)
                  for kind, d in REGION_PARAMS]


@pytest.mark.parametrize("kind,box,d", SAMPLER_PARAMS)
def test_sample_region_matches_reference_rejection(kind, box, d):
    # sample_region keeps the points, in draw order, that the per-draw loop
    # keeps, and gives up after the same draws: at 25,000 if the region is
    # too thin to fill n (the Poincare image of the unit double cone fills
    # 1 point, not 300), and at 700 = 600 + 100, where the cap cuts the
    # second chunk of a 300-point request.
    _, make, margin, exact = REGION_CASES[kind]
    region = make(d)
    # A double cone's box is its extent, its radius about its centre on
    # every axis: [-1, 1]^d for the unit double cone.
    if kind == "double_cone":
        lo, hi = -np.ones(d), np.ones(d)
    elif box is None:
        lo, hi = CENTER[:d] - RADIUS, CENTER[:d] + RADIUS
    else:
        lo, hi = -box * np.ones(d), box * np.ones(d)
    filled = 0
    for n, seed, max_tries in ((1, 3, 25_000), (300, 4, 25_000), (300, 5, 700)):
        expected = _outcome(_per_draw_sample, region, n, seed, lo, hi, max_tries)
        assert _outcome(sample_region, region, n, seed, max_tries) == expected
        if isinstance(expected, bytes):
            filled += 1
            assert np.all(margin(np.frombuffer(expected).reshape(n, d), d) > 0)
    # In d = 1 every pair of distinct points is timelike: nothing is spacelike.
    assert (filled == 0) == (kind == "spacelike_complement" and d == 1)
    if not exact or filled == 0:
        return
    # Independently of the region's predicate: the closed-form margin decides
    # each draw of the same chunks, and the first n members in draw order are
    # the samples.
    for n, seed in ((1, 3), (300, 4), (1000, 5)):
        rng = np.random.default_rng(seed)
        kept = []
        while len(kept) < n:
            pts = rng.uniform(lo, hi, size=(max(256, 2 * (n - len(kept))), d))
            kept.extend(pts[margin(pts, d) > 0])
        np.testing.assert_array_equal(sample_region(region, n, seed), np.array(kept[:n]))


# sha256 of sample_region(region, 100, seed=10).tobytes() per region kind and
# dimension, recorded with the array-valued predicates that preceded the
# coordinate-sequence ones: a predicate that decides one draw differently, or
# a sampler that draws in another order, changes a digest.  The double cones'
# were recorded again when they were drawn from their exact box.
SAMPLE_DIGESTS = {
    ("double_cone", 2): "37d3b12e4190a103de192d6d5d0022f7b38bf50b6281e97914ca57a181edc378",
    ("double_cone", 3): "e3709485ed1ad5dbba7367dfa4acd895f6c49f7d363a5e0db63d4672dc945b20",
    ("double_cone", 4): "2c95457a2d6e475680eb6f18e12cda6cc2144e7067c293361ec1bd670a07bfc1",
    ("wedge", 2): "996a6010a4bfe9d75773f6439e3797bfe2eeb4c0912746e298e6637bd84a7e06",
    ("wedge", 3): "fbc009483c42ca942d232f8ac688537789a6c25c7e2240952b53711ad1eb47dd",
    ("wedge", 4): "90d363e4c8147497d0894377b6962043d4ed65eca0666c197e6892cde5147bea",
    ("boosted_wedge", 2): "a734df4be413ac79532693ade14ac406368763c13f6e4360760b45e3882dd92b",
    ("boosted_wedge", 3): "62b352cf4c0a807e5f469405de43b15a9f9bf3fe7be86b58608c54b61e74a01a",
    ("boosted_wedge", 4): "76ee5a64ba2f567c8f6e613a4f466d78fc388f65a8dfd02119dc595a447c64cb",
    ("future_cone", 2): "88f718b73d99549d8b140db16619df23f647c7f21db7262812f1a84cc1be5397",
    ("future_cone", 3): "d34a66f6edef13cb6b4b5132c7753a27a4305dff3b4487a5c9616f7fe0f482d5",
    ("future_cone", 4): "caa301b5b56daefe3e3f008a4595eeb20b4d57ba28e78900c2a0a982d70341db",
    ("spacelike_complement", 2): "46f71b4c1be73fc4d12ea0dc45f18256ebfdec28706706a89c6a6f8211e0fd01",
    ("spacelike_complement", 3): "69bdddb45fcb97b18a6df9965a9b7b1fffdd1d373b746661ef2082c2e6746b50",
    ("spacelike_complement", 4): "cb5bf23cd8a979fc526481be284bd375928376e795ed0169d6b4f85c30e246bd",
    ("timelike_complement", 2): "c17218d4e660d6e9fb4ba264d824486d977baf21f743b5573420b21e45ee93f1",
    ("timelike_complement", 3): "7c421514525d212c71d5c4429426ce4a6343c2d001c901a4c1fae98b5e55f247",
    ("timelike_complement", 4): "46ce0c70175f5f8e818c39b5ebaac18b9ac30346a28f104f1ab87176924a1405",
    ("conformal_image", 2): "a31201d765f73e74b3f15335ac41c3e6a6524e7824bfc02a8ba3f079d606f93e",
    ("conformal_image", 3): "bbe319654320cce1082e8f236556d3c7664c8166f5215b568319e84703b16f04",
    ("conformal_image", 4): "9f6b52927afc27f0be2651185e1b97cbc17f124590d41340bb3761c396932d61",
}


def test_sample_region_digests():
    digests = {(kind, d): hashlib.sha256(
        sample_region(REGION_CASES[kind][1](d), 100, seed=10).tobytes()).hexdigest()
        for kind, d in SAMPLE_DIGESTS}
    assert digests == SAMPLE_DIGESTS


def _chunks_to_fill(region, n, seed, lo, hi):
    """The chunks the sampler draws to fill n points, until n members are
    found: 2n uniform draws first; then 1.1 times the draws that the
    acceptance so far predicts for the missing points, or twice the draws
    so far while none was accepted; each chunk 256 to max(4096, 2n) draws."""
    rng = np.random.default_rng(seed)
    chunks, got, tried = [], 0, 0
    while got < n:
        if not tried:
            rows = 2 * n
        elif got:
            rows = math.ceil(1.1 * (n - got) * tried / got)
        else:
            rows = 2 * tried
        rows = min(max(256, rows), max(4096, 2 * n))
        chunks.append(rng.uniform(lo, hi, size=(rows, region.dim)))
        tried += rows
        got += int(region.contains_many(chunks[-1]).sum())
    return chunks


def _sampled_kinds(d):
    """The region kinds that the region-sampling benchmark draws from, with
    the points asked of each; the conformal image of the double cone, at
    0.56%, 0.034% and 0.0018% acceptance for d = 2, 3, 4, is asked fewer."""
    cone = unit_double_cone(d)
    moved = PoincareMap.from_translation(np.r_[0.3, -0.5, 0.2, 0.1][:d]).compose(
        PoincareMap.from_boost(d, 1 if d == 2 else 2, 0.5))
    return [(cone, 2000), (standard_wedge(d), 2000), (Wedge(d, moved), 2000),
            (spacelike_complement(cone), 2000), (timelike_complement(cone), 2000),
            (FutureCone(np.zeros(d)), 2000),
            (TransformedRegion(cg.special(d, np.r_[0.1, 0.2, 0.0, 0.0][:d]), cone),
             10 ** (4 - d))]


@pytest.mark.parametrize("d", DIMS)
def test_samples_are_the_first_members_of_one_stream(d):
    # However the sampler cuts its draws into chunks, its points are the
    # first n members, in draw order, of one uniform draw of N rows, for any
    # N that holds n members: the stream of a generator does not depend on
    # how the rows are asked of it.
    box = np.full(d, SAMPLING_BOX)
    for k, (region, n) in enumerate(_sampled_kinds(d)):
        seed = 100 + 10 * d + k
        lo, hi = (-np.ones(d), np.ones(d)) if k == 0 else (-box, box)
        N = 2 * n
        while True:
            X = np.random.default_rng(seed).uniform(lo, hi, (N, d))
            members = X[region.contains_many(X)]
            if len(members) >= n:
                break
            N *= 2
        np.testing.assert_array_equal(sample_region(region, n, seed), members[:n])


def test_sample_region_calls_contains_many_once_per_chunk(monkeypatch):
    d = 3
    box = np.full(d, SAMPLING_BOX)
    cases = [(unit_double_cone(d), -np.ones(d), np.ones(d)), (standard_wedge(d), -box, box),
             (timelike_complement(unit_double_cone(d)), -box, box),
             (FutureCone(np.r_[4.0, 0.0, 0.0]), -box, box)]
    expected = [_chunks_to_fill(region, 700, 6, lo, hi) for region, lo, hi in cases]
    calls, points = [], []
    contains, contains_many = Region.contains, Region.contains_many

    def counted(self, X):
        calls.append(np.array(X))
        return contains_many(self, X)

    def counted_point(self, x):
        points.append(x)
        return contains(self, x)

    monkeypatch.setattr(Region, "contains_many", counted)
    monkeypatch.setattr(Region, "contains", counted_point)
    for (region, _, _), chunks in zip(cases, expected):
        calls.clear()
        sample_region(region, 700, seed=6)
        assert len(calls) == len(chunks) > 1
        for X, chunk in zip(calls, chunks):
            np.testing.assert_array_equal(X, chunk)
        assert max(len(X) for X in calls) <= max(4096, 2 * 700)
    # The double cone, at 26% acceptance in its box, fills the request with
    # the chunk its first chunk's acceptance predicts; the shifted cone, at
    # 1.6% in the cube, reaches the cap on its second chunk and ends on
    # the floor of 256 draws.
    assert [len(X) for X in expected[0]] == [1400, 1275]
    assert [len(X) for X in expected[3]] == [1400] + [4096] * 5 + [3826, 256]
    # A region that accepts nothing draws 256 and then as many again as
    # it has drawn, up to the cap; the last chunk is cut to the draws left
    # under max_tries.
    far = TransformedRegion(PoincareMap.from_translation([0.0, 100.0, 0.0]),
                            unit_double_cone(3))
    calls.clear()
    with pytest.raises(RuntimeError, match="exhausted 50000 draws"):
        sample_region(far, 5, seed=1, max_tries=50_000)
    assert [len(X) for X in calls] == [256, 512, 1536] + [4096] * 11 + [2640]
    assert not points
    monkeypatch.undo()
    # A point is tested the same way as a list, a tuple or a 1-D array, and
    # as a row of contains_many, with NaN and infinite coordinates included
    # and no warning on either.
    special = [np.nan, np.inf, -np.inf, 0.0, 0.5, -2.0]
    rng = np.random.default_rng(21)
    X = np.vstack([rng.choice(special, size=(200, d)), rng.uniform(-3.0, 3.0, size=(50, d))])
    for case in REGION_CASES.values():
        region = case[1](d)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mask = region.contains_many(X)
            for x, m in zip(X, mask):
                assert (region.contains(list(x)) == region.contains(tuple(x))
                        == region.contains(x) == m)
