"""Minkowski space with signature (+,-,...,-) and the causal region calculus.

Points are plain numpy arrays of length d (x[0] is time).  Regions are
immutable predicate objects: double cones, wedges (Poincare images of the
standard wedge x1 > |x0|), future cones, causal complements thereof, and
images of any region under an invertible point map.  All regions are open:
membership uses strict inequalities throughout.  Each region has one
membership predicate that takes a point or the rows of an (n, d) array:
contains_many(X) tests the rows at once, contains(x) one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add, mul, sub

import numpy as np

__all__ = [
    "CausalRelation",
    "minkowski_norm",
    "causal_relation",
    "PoincareMap",
    "Region",
    "DoubleCone",
    "Wedge",
    "FutureCone",
    "TransformedRegion",
    "SpacelikeComplementOfDoubleCone",
    "TimelikeComplementOfDoubleCone",
    "unit_double_cone",
    "standard_wedge",
    "spacelike_complement",
    "timelike_complement",
    "SAMPLING_BOX",
    "sample_region",
]


def minkowski_norm(x):
    """x0^2 - x1^2 - ... - x_{d-1}^2 of a point (a float), or of each row of
    an (n, d) array, summed in coordinate order (_minkowski)."""
    x = np.asarray(x, dtype=float)
    return _minkowski(x.T if x.ndim > 1 else x.tolist())


def _minkowski(c):
    """c[0]^2 - c[1]^2 - ... - c[d-1]^2 on a sequence of coordinates, time
    first: the floats of one point or the columns of an (n, d) array."""
    v = c[1:]
    return c[0] * c[0] - _dot(v, v)


def _dot(a, b):
    """a[0] b[0] + a[1] b[1] + ..., added left to right from 0.0: the floats
    of a point and the columns of an array round alike.  (sum() compensates
    float rounding from Python 3.12 on, which arrays do not.)"""
    return reduce(add, map(mul, a, b), 0.0)


def _future_timelike(c):
    """Whether the coordinates c lie in the open forward light cone."""
    return (_minkowski(c) > 0.0) & (c[0] > 0.0)


def _minus(c, a):
    """Coordinates of c - a, each a sequence of coordinates."""
    return list(map(sub, c, a))


def _point(x, d: int) -> list:
    """The coordinates of a point of dimension d as Python floats."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"expected a point of dimension {d}")
    return x.tolist()


def _on_columns(f, X, d: int):
    """f on the columns of an (n, d) array of points, with no warning on inf or NaN."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"expected an (n, {d}) array of points")
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return f(X.T)


def _row_images(f, X, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(images, regular) of the rows of an (n, d) array under a map f of
    coordinate columns to (image columns, regular mask): the images as an
    (n, d) array whose irregular rows carry NaNs, and the mask."""
    y, regular = _on_columns(f, X, d)
    out = np.stack(y, axis=1)
    out[~regular] = np.nan
    return out, regular


class CausalRelation(Enum):
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"
    TIMELIKE_FUTURE = "timelike_future"
    TIMELIKE_PAST = "timelike_past"
    EQUAL = "equal"


def causal_relation(x, y) -> CausalRelation:
    """Classify y - x by the sign of its Minkowski norm and time component."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("points must have the same dimension")
    v = y - x
    if not v.any():
        return CausalRelation.EQUAL
    n = minkowski_norm(v)
    if n > 0.0:
        return CausalRelation.TIMELIKE_FUTURE if v[0] > 0 else CausalRelation.TIMELIKE_PAST
    if n < 0.0:
        return CausalRelation.SPACELIKE
    return CausalRelation.LIGHTLIKE


def _signs(n: int, minus) -> np.ndarray:
    """n ones with -1 at the indices minus: the diagonal of the Minkowski
    metric, of the (d,2) form of confgroup and of every coordinate reflection."""
    s = np.ones(n)
    s[minus] = -1.0
    return s


def _metric_signs(d: int) -> np.ndarray:
    """Minkowski metric signs (+1, -1, ..., -1) on the first d coordinates."""
    return _signs(d, slice(1, None))


def _boost_matrix(d: int, axis: int, rapidity: float) -> np.ndarray:
    """Lorentz matrix of the hyperbolic rotation of the (x0, x_axis) plane,
    acting as x0 -> cosh(s) x0 - sinh(s) x_axis."""
    if not 1 <= axis <= d - 1:
        raise ValueError("boost axis out of range")
    L = np.eye(d)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    L[0, 0] = L[axis, axis] = c
    L[0, axis] = L[axis, 0] = -s
    return L


def _rotation_matrix(d: int, i: int, j: int, angle: float) -> np.ndarray:
    """Lorentz matrix of the rotation of the spatial (x_i, x_j) plane."""
    if not (1 <= i <= d - 1 and 1 <= j <= d - 1 and i != j):
        raise ValueError("rotation axes out of range")
    L = np.eye(d)
    c, s = np.cos(angle), np.sin(angle)
    L[i, i] = L[j, j] = c
    L[i, j], L[j, i] = -s, s
    return L


@dataclass(frozen=True)
class PoincareMap:
    """Affine map x -> L x + a with L in the full Lorentz group O(1, d-1)."""

    lorentz: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.lorentz, dtype=float)
        a = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "lorentz", L)
        object.__setattr__(self, "translation", a)
        d = a.shape[0]
        if L.shape != (d, d):
            raise ValueError("Lorentz block and translation dimension mismatch")
        if not (np.isfinite(L).all() and np.isfinite(a).all()):
            raise ValueError("Lorentz block and translation entries must be finite")
        eta = _metric_signs(d)
        if np.abs((L.T * eta) @ L - np.diag(eta)).max() > 1e-9:
            raise ValueError("matrix does not preserve the Minkowski form")
        object.__setattr__(self, "_rows", list(zip(L.tolist(), a.tolist())))

    @staticmethod
    def identity(d: int) -> "PoincareMap":
        return PoincareMap(np.eye(d), np.zeros(d))

    @staticmethod
    def from_translation(a) -> "PoincareMap":
        a = np.asarray(a, dtype=float)
        return PoincareMap(np.eye(a.shape[0]), a)

    @staticmethod
    def from_boost(d: int, axis: int, rapidity: float) -> "PoincareMap":
        """Hyperbolic rotation of the (x0, x_axis) plane, acting as
        x0 -> cosh(s) x0 - sinh(s) x_axis."""
        return PoincareMap(_boost_matrix(d, axis, rapidity), np.zeros(d))

    @staticmethod
    def from_rotation(d: int, i: int, j: int, angle: float) -> "PoincareMap":
        return PoincareMap(_rotation_matrix(d, i, j, angle), np.zeros(d))

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def _act_coords(self, c):
        """(L c + a, True: regular everywhere) on a sequence of coordinates,
        as Region._member takes them; rows sum in coordinate order."""
        return [_dot(row, c) + a for row, a in self._rows], True

    def act(self, x):
        return np.array(self._act_coords(_point(x, self.dim))[0])

    def inverse(self) -> "PoincareMap":
        # eta L^T eta, C-ordered like a matrix product: the matvec below
        # rounds differently on an F-ordered Linv
        eta = _metric_signs(self.dim)
        Linv = np.outer(eta, eta) * self.lorentz.T
        return PoincareMap(Linv, -Linv @ self.translation)

    def compose(self, other: "PoincareMap") -> "PoincareMap":
        """self after other: x -> self(other(x))."""
        return PoincareMap(self.lorentz @ other.lorentz,
                           self.lorentz @ other.translation + self.translation)

    def is_orthochronous(self) -> bool:
        return self.lorentz[0, 0] > 0


class Region:
    """Open subregion of d-dimensional Minkowski space with decidable membership.

    Each region defines one predicate, _member(c), on a sequence of
    coordinates: contains passes the floats of one point (x.tolist()),
    contains_many the columns of an (n, d) array (X.T), after checking the
    shape.  The same arithmetic then runs on floats for a point, a few
    microseconds per test, and on arrays for rows; neither warns on inf or NaN.
    """

    dim: int

    def _member(self, c):
        raise NotImplementedError

    def contains_many(self, X) -> np.ndarray:
        """Boolean membership mask over the rows of an (n, d) array."""
        return _on_columns(self._member, X, self.dim)

    def contains(self, x) -> bool:
        return bool(self._member(_point(x, self.dim)))


@dataclass(frozen=True)
class DoubleCone(Region):
    """Intersection of the open future cone of tip_past with the open past
    cone of tip_future; the tips must be timelike separated."""

    tip_past: np.ndarray
    tip_future: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.tip_past, dtype=float)
        b = np.asarray(self.tip_future, dtype=float)
        object.__setattr__(self, "tip_past", a)
        object.__setattr__(self, "tip_future", b)
        if causal_relation(a, b) is not CausalRelation.TIMELIKE_FUTURE:
            raise ValueError("tip_future must be timelike future of tip_past")
        object.__setattr__(self, "_tips", (a.tolist(), b.tolist()))

    @property
    def dim(self) -> int:
        return self.tip_past.shape[0]

    def _member(self, c):
        past, future = self._tips
        return _future_timelike(_minus(c, past)) & _future_timelike(_minus(future, c))


@dataclass(frozen=True)
class Wedge(Region):
    """Poincare image of the standard wedge W1 = {x : x1 > |x0|}."""

    d: int
    poincare: PoincareMap | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("wedges need at least one space dimension beyond x1")
        if self.poincare is not None and self.poincare.dim != self.d:
            raise ValueError("Poincare map dimension mismatch")
        object.__setattr__(self, "_inverse",
                           None if self.poincare is None else self.poincare.inverse())

    @property
    def dim(self) -> int:
        return self.d

    def _member(self, c):
        if self._inverse is not None:
            c, _ = self._inverse._act_coords(c)
        return c[1] > abs(c[0])


@dataclass(frozen=True)
class FutureCone(Region):
    """Open forward light cone with the given apex."""

    apex: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.apex, dtype=float)
        if a.ndim != 1 or not np.isfinite(a).all():
            raise ValueError("the apex must be a finite point")
        object.__setattr__(self, "apex", a)
        object.__setattr__(self, "_apex", a.tolist())

    @property
    def dim(self) -> int:
        return self.apex.shape[0]

    def _member(self, c):
        return _future_timelike(_minus(c, self._apex))


@dataclass(frozen=True)
class TransformedRegion(Region):
    """Image of a base region under an invertible point map.

    The map object must provide inverse(), whose result provides
    _act_coords(c) -> (image coordinates, regular) on a sequence of
    coordinates, as _member takes them; both PoincareMap and the conformal
    group elements qualify.  The inverse is formed once, here; points where
    it is singular are non-members.
    """

    map: object
    base: Region

    def __post_init__(self):
        object.__setattr__(self, "_inverse", self.map.inverse())

    @property
    def dim(self) -> int:
        return self.base.dim

    def _member(self, c):
        y, regular = self._inverse._act_coords(c)
        return regular & self.base._member(y)


@dataclass(frozen=True)
class SpacelikeComplementOfDoubleCone(Region):
    """Points spacelike to every point of the base double cone: exactly the
    points spacelike to both tips."""

    base: DoubleCone

    @property
    def dim(self) -> int:
        return self.base.dim

    def _member(self, c):
        past, future = self.base._tips
        return (_minkowski(_minus(c, past)) < 0.0) & (_minkowski(_minus(c, future)) < 0.0)


@dataclass(frozen=True)
class TimelikeComplementOfDoubleCone(Region):
    """Points timelike to every point of the base double cone: the open
    future cone of tip_future together with the open past cone of tip_past."""

    base: DoubleCone

    @property
    def dim(self) -> int:
        return self.base.dim

    def _member(self, c):
        past, future = self.base._tips
        return _future_timelike(_minus(c, future)) | _future_timelike(_minus(past, c))


def unit_double_cone(d: int) -> DoubleCone:
    """The double cone |x0| + |vec x| < 1, tips at -e0 and +e0."""
    past, future = np.zeros(d), np.zeros(d)
    past[0], future[0] = -1.0, 1.0
    return DoubleCone(past, future)


def standard_wedge(d: int) -> Wedge:
    return Wedge(d)


def _opposite_wedge_map(d: int) -> PoincareMap:
    # Sign flip of (x0, x1) maps W1 onto the opposite wedge {x1 < -|x0|}.
    return PoincareMap(np.diag(_signs(d, [0, 1])), np.zeros(d))


def spacelike_complement(region: Region) -> Region:
    """Region of points spacelike to every point of the argument.

    Supported: wedges (opposite wedge), double cones (tip predicate), and
    the complements themselves (returning the base region back).
    """
    if isinstance(region, Wedge):
        flip = _opposite_wedge_map(region.d)
        new_map = flip if region.poincare is None else region.poincare.compose(flip)
        return Wedge(region.d, new_map)
    if isinstance(region, DoubleCone):
        return SpacelikeComplementOfDoubleCone(region)
    if isinstance(region, SpacelikeComplementOfDoubleCone):
        return region.base
    raise ValueError(f"spacelike complement not supported for {type(region).__name__}")


def timelike_complement(region: Region) -> Region:
    """Region of points timelike to every point of the argument (double cones
    only): two disjoint solid cones."""
    if isinstance(region, DoubleCone):
        return TimelikeComplementOfDoubleCone(region)
    raise ValueError(f"timelike complement not supported for {type(region).__name__}")


def transform_region(g: PoincareMap, region: Region) -> Region:
    """Image of a region under a Poincare map, re-expressed in the natural tag
    where the tag survives the map."""
    if isinstance(region, DoubleCone):
        a, b = g.act(region.tip_past), g.act(region.tip_future)
        if causal_relation(a, b) is CausalRelation.TIMELIKE_FUTURE:
            return DoubleCone(a, b)
        return DoubleCone(b, a)
    if isinstance(region, Wedge):
        new_map = g if region.poincare is None else g.compose(region.poincare)
        return Wedge(region.d, new_map)
    if isinstance(region, FutureCone) and g.is_orthochronous():
        return FutureCone(g.act(region.apex))
    return TransformedRegion(g, region)


# sample_region clips every region but a double cone to |x_i| <= SAMPLING_BOX.
SAMPLING_BOX = 10.0


def _bounding_box(region: Region) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(region, DoubleCone):
        v0 = region.tip_future[0] - region.tip_past[0]
        lo = region.tip_past + np.concatenate([[0.0], -v0 * np.ones(region.dim - 1)])
        hi = region.tip_past + v0 * np.ones(region.dim)
        return lo, hi
    return np.full(region.dim, -SAMPLING_BOX), np.full(region.dim, SAMPLING_BOX)


def sample_region(region: Region, n: int, seed: int,
                  max_tries: int = 10_000_000) -> np.ndarray:
    """n points drawn uniformly from the region by rejection sampling,
    deterministic for a fixed seed.

    A double cone uses its own enclosing box; every other region is clipped
    to the cube |x_i| <= SAMPLING_BOX.  Each chunk of draws is decided by
    one contains_many call, and the accepted points are kept in draw order:
    the first n members of one uniform stream, whatever the chunks.  The
    first chunk is 2n draws; each later one is what the acceptance seen so
    far predicts for the points missing, with a tenth more, or twice the
    draws so far while none was accepted.  A chunk holds 256 to
    max(4096, 2n) draws, fewer where max_tries cuts it: the cap bounds the
    memory a thin region's chunks take.
    Raises if the acceptance rate is too low to fill the request within
    max_tries draws.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = _bounding_box(region)
    out = np.empty((n, region.dim))
    got = 0
    tried = 0
    while got < n:
        if tried >= max_tries:
            raise RuntimeError(
                f"rejection sampling exhausted {tried} draws "
                f"({got}/{n} accepted); region may not meet the sampling box")
        if not tried:
            chunk = 2 * n
        elif got:
            chunk = math.ceil(1.1 * (n - got) * tried / got)
        else:
            chunk = 2 * tried
        chunk = min(max(256, chunk), max(4096, 2 * n), max_tries - tried)
        pts = rng.uniform(lo, hi, size=(chunk, region.dim))
        tried += chunk
        kept = pts[region.contains_many(pts)][:n - got]
        out[got:got + len(kept)] = kept
        got += len(kept)
    return out
