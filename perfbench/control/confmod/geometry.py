"""Minkowski space with signature (+,-,...,-) and the causal region calculus.

Points are plain numpy arrays of length d (x[0] is time).  Regions are
immutable predicate objects: double cones, wedges (Poincare images of the
standard wedge x1 > |x0|), future cones, causal complements thereof, and
images of any region under an invertible point map.  All regions are open:
membership uses strict inequalities throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    "region_contains",
    "spacelike_complement",
    "timelike_complement",
    "sample_region",
]


def minkowski_norm(x) -> float:
    """x0^2 - x1^2 - ... - x_{d-1}^2."""
    x = np.asarray(x, dtype=float)
    return float(x[0] ** 2 - np.dot(x[1:], x[1:]))


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


def _minkowski_metric(d: int) -> np.ndarray:
    eta = -np.eye(d)
    eta[0, 0] = 1.0
    return eta


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
        eta = _minkowski_metric(d)
        if np.max(np.abs(L.T @ eta @ L - eta)) > 1e-9:
            raise ValueError("matrix does not preserve the Minkowski form")

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
        if not 1 <= axis <= d - 1:
            raise ValueError("boost axis out of range")
        L = np.eye(d)
        c, s = np.cosh(rapidity), np.sinh(rapidity)
        L[0, 0] = c
        L[0, axis] = -s
        L[axis, 0] = -s
        L[axis, axis] = c
        return PoincareMap(L, np.zeros(d))

    @staticmethod
    def from_rotation(d: int, i: int, j: int, angle: float) -> "PoincareMap":
        if not (1 <= i <= d - 1 and 1 <= j <= d - 1 and i != j):
            raise ValueError("rotation axes out of range")
        L = np.eye(d)
        c, s = np.cos(angle), np.sin(angle)
        L[i, i] = c
        L[i, j] = -s
        L[j, i] = s
        L[j, j] = c
        return PoincareMap(L, np.zeros(d))

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def act(self, x):
        return self.lorentz @ np.asarray(x, dtype=float) + self.translation

    def inverse(self) -> "PoincareMap":
        Linv = _minkowski_metric(self.dim) @ self.lorentz.T @ _minkowski_metric(self.dim)
        return PoincareMap(Linv, -Linv @ self.translation)

    def compose(self, other: "PoincareMap") -> "PoincareMap":
        """self after other: x -> self(other(x))."""
        return PoincareMap(self.lorentz @ other.lorentz,
                           self.lorentz @ other.translation + self.translation)

    def is_orthochronous(self) -> bool:
        return self.lorentz[0, 0] > 0


class Region:
    """Open subregion of d-dimensional Minkowski space with decidable membership."""

    dim: int

    def contains(self, x) -> bool:
        raise NotImplementedError

    def is_bounded(self) -> bool:
        return False


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

    @property
    def dim(self) -> int:
        return self.tip_past.shape[0]

    def contains(self, x) -> bool:
        return (causal_relation(self.tip_past, x) is CausalRelation.TIMELIKE_FUTURE
                and causal_relation(x, self.tip_future) is CausalRelation.TIMELIKE_FUTURE)

    def is_bounded(self) -> bool:
        return True


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

    @property
    def dim(self) -> int:
        return self.d

    def contains(self, x) -> bool:
        y = np.asarray(x, dtype=float)
        if self.poincare is not None:
            y = self.poincare.inverse().act(y)
        return y[1] > abs(y[0])


@dataclass(frozen=True)
class FutureCone(Region):
    """Open forward light cone with the given apex."""

    apex: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "apex", np.asarray(self.apex, dtype=float))

    @property
    def dim(self) -> int:
        return self.apex.shape[0]

    def contains(self, x) -> bool:
        return causal_relation(self.apex, x) is CausalRelation.TIMELIKE_FUTURE


@dataclass(frozen=True)
class TransformedRegion(Region):
    """Image of a base region under an invertible point map.

    The map object must provide act(x) -> point or None and inverse();
    both PoincareMap and the conformal group elements qualify.  Points where
    the inverse map is singular are reported as non-members.
    """

    map: object
    base: Region

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains(self, x) -> bool:
        y = self.map.inverse().act(np.asarray(x, dtype=float))
        if y is None:
            return False
        return self.base.contains(y)


@dataclass(frozen=True)
class SpacelikeComplementOfDoubleCone(Region):
    """Points spacelike to every point of the base double cone: exactly the
    points spacelike to both tips."""

    base: DoubleCone

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains(self, x) -> bool:
        return (causal_relation(self.base.tip_past, x) is CausalRelation.SPACELIKE
                and causal_relation(self.base.tip_future, x) is CausalRelation.SPACELIKE)


@dataclass(frozen=True)
class TimelikeComplementOfDoubleCone(Region):
    """Points timelike to every point of the base double cone: the open
    future cone of tip_future together with the open past cone of tip_past."""

    base: DoubleCone

    @property
    def dim(self) -> int:
        return self.base.dim

    def contains(self, x) -> bool:
        return (causal_relation(self.base.tip_future, x) is CausalRelation.TIMELIKE_FUTURE
                or causal_relation(x, self.base.tip_past) is CausalRelation.TIMELIKE_FUTURE)


def unit_double_cone(d: int) -> DoubleCone:
    """The double cone |x0| + |vec x| < 1, tips at -e0 and +e0."""
    a = np.zeros(d)
    a[0] = -1.0
    b = np.zeros(d)
    b[0] = 1.0
    return DoubleCone(a, b)


def standard_wedge(d: int) -> Wedge:
    return Wedge(d)


def region_contains(region: Region, x) -> bool:
    return region.contains(x)


def _opposite_wedge_map(d: int) -> PoincareMap:
    # Sign flip of (x0, x1) maps W1 onto the opposite wedge {x1 < -|x0|}.
    L = np.eye(d)
    L[0, 0] = -1.0
    L[1, 1] = -1.0
    return PoincareMap(L, np.zeros(d))


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


def _bounding_box(region: Region, box: float) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(region, DoubleCone):
        v0 = region.tip_future[0] - region.tip_past[0]
        lo = region.tip_past + np.concatenate([[0.0], -v0 * np.ones(region.dim - 1)])
        hi = region.tip_past + v0 * np.ones(region.dim)
        return lo, hi
    d = region.dim
    return -box * np.ones(d), box * np.ones(d)


def sample_region(region: Region, n: int, seed: int, box: float = 10.0,
                  max_tries: int = 10_000_000) -> np.ndarray:
    """n points drawn uniformly from the region by rejection sampling,
    deterministic for a fixed seed.

    Bounded regions use their own enclosing box; unbounded ones are clipped
    to |x_i| <= box.  Raises if the acceptance rate is too low to fill the
    request within max_tries draws.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = _bounding_box(region, box)
    out = np.empty((n, region.dim))
    got = 0
    tried = 0
    while got < n:
        chunk = max(256, 2 * (n - got))
        if tried + chunk > max_tries:
            raise RuntimeError(
                f"rejection sampling exhausted {max_tries} draws "
                f"({got}/{n} accepted); region may not meet the sampling box")
        pts = rng.uniform(lo, hi, size=(chunk, region.dim))
        tried += chunk
        for p in pts:
            if region.contains(p):
                out[got] = p
                got += 1
                if got == n:
                    break
    return out
