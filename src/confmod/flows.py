"""Canonical one-parameter conformal groups attached to regions.

Three closed-form flows are provided: the boost flow of the standard wedge
x1 > |x0| (rapidity 2 pi t, acting as x0' = cosh(2 pi t) x0 - sinh(2 pi t) x1),
the fractional-linear flow of the unit double cone acting on the light-cone
combinations x0 +- |vec x| with fixed points +-1, and the dilation flow of
the future cone.  Each flow carries its region, its Lie-algebra generator,
and the closed-form map, on a point and on the rows of an array;
conjugation transports all of them coherently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import confgroup as cg
from .geometry import (FutureCone, Region, TransformedRegion, _row_images, standard_wedge,
                       unit_double_cone)

__all__ = [
    "CanonicalFlow",
    "wedge_flow",
    "doublecone_flow",
    "cone_flow",
    "conjugate_flow",
    "pct_ingredients",
    "wedge_to_doublecone",
    "time_reflection",
]


@dataclass(frozen=True)
class CanonicalFlow:
    """A region together with the one-parameter group preserving it.

    closed_form(t, x) is the image of a point, None where the map is singular.
    The private _columns(t, c) is the same arithmetic on the columns c of an
    (n, d) array, (image columns, regular mask), with t a scalar or an array
    of one time per row; rows(t, X) adapts it to the rows.  matrix(t) is the
    generator's three-term closed-form exponential.

    closed_form and _columns are two bodies of one map on purpose.  A point
    adapter over _columns is bitwise equal, but slower: on numpy
    one-element columns the 36,000 point calls of a region-sampling pass
    take 0.95-1.3 s of CPU (1.5-1.9 s through rows).  The point bodies take
    numpy's cosh, sinh and exp once per time, as _columns does, and do a
    point's arithmetic on Python floats.  The pass calls each flow at two
    times, and its 36,000 calls take 0.056 s, against 0.069 s when each
    call took its own factors and the wedge's its arithmetic on numpy
    scalars (Intel Xeon, one core, one BLAS thread, process_time, min of
    25).  The fork stays until the point callers move to rows.
    """

    region: Region
    generator: cg.LieGenerator
    closed_form: Callable[[float, np.ndarray], np.ndarray | None]
    _columns: Callable[[float | np.ndarray, list], tuple[list, np.ndarray]]

    def matrix(self, t: float) -> cg.GroupElement:
        return self.generator.exp(t)

    def rows(self, t, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(images, regular) on the rows of an (n, d) array, shaped like
        confgroup.act_array, at a time t or at one time t[i] per row: row i
        is closed_form(t[i], X[i]) bit for bit, and irregular, with NaNs,
        exactly where that is None.  No row warns."""
        t = np.asarray(t, dtype=float)
        if t.shape not in ((), np.shape(X)[:1]):
            raise ValueError("t must be a scalar or one time per row")
        return _row_images(lambda c: self._columns(t, c), X, self.region.dim)


def _once_per_time(factors: Callable[[float], object]) -> Callable[[float], object]:
    """factors(t), kept for the last time it was called at: a point caller
    moves many points at one time, and the factors' transcendentals cost
    more than a point's arithmetic.  t is taken as float(t); the same float
    object, or an equal one of the same sign (sinh(-0.0) is -0.0), reuses
    the factors.  The time and its factors are one tuple, replaced whole,
    so that no caller reads one time with another's factors."""
    memo = (None, None)

    def at(t):
        nonlocal memo
        t = float(t)
        last, value = memo
        if t is not last and (t != last or math.copysign(1.0, t) != math.copysign(1.0, last)):
            value = factors(t)
            memo = t, value
        return value
    return at


def _everywhere(c) -> np.ndarray:
    """The regular mask of a flow without singular points."""
    return np.full(len(c[0]), True)


def wedge_flow(d: int) -> CanonicalFlow:
    """Boost flow of the standard wedge, rapidity 2 pi t."""
    if d < 2:
        raise ValueError("the wedge flow needs d >= 2")

    boost = _once_per_time(
        lambda t: (float(np.cosh(2 * np.pi * t)), float(np.sinh(2 * np.pi * t))))

    def closed_form(t, x):
        c, s = boost(t)
        y = np.asarray(x, dtype=float).tolist()
        x0, x1 = y[0], y[1]
        y[0] = c * x0 - s * x1
        y[1] = -s * x0 + c * x1
        return np.array(y)

    def columns(t, c):
        ch, sh = np.cosh(2 * np.pi * t), np.sinh(2 * np.pi * t)
        return [ch * c[0] - sh * c[1], -sh * c[0] + ch * c[1], *c[2:]], _everywhere(c)

    return CanonicalFlow(standard_wedge(d), cg.boost_generator(d, 1, 2 * np.pi),
                         closed_form, columns)


def _mobius_pm(e: float, v: float):
    """((1+v) - e (1-v)) / ((1+v) + e (1-v)) with e = e^{-2 pi t}; None at the
    pole."""
    den = (1.0 + v) + e * (1.0 - v)
    if abs(den) < cg.INFINITY_TOL * max(1.0, abs(v)):
        return None
    return ((1.0 + v) - e * (1.0 - v)) / den


def _mobius_pm_columns(e, v: np.ndarray):
    """(_mobius_pm(e, v) on each entry, mask of the entries off the pole),
    with e a scalar or one value per entry."""
    den = (1.0 + v) + e * (1.0 - v)
    regular = ~(np.abs(den) < cg.INFINITY_TOL * np.fmax(1.0, np.abs(v)))
    return ((1.0 + v) - e * (1.0 - v)) / den, regular


def doublecone_flow(d: int) -> CanonicalFlow:
    """Flow of the unit double cone |x0| + |vec x| < 1.

    Acts on x_pm = x0 +- |vec x| at fixed spatial direction by the
    fractional-linear map fixing +-1; commutes with spatial rotations.
    The generator is pi (h - rho h rho) with h the time-translation
    generator, whose vector field is the same map differentiated at t = 0.
    """
    if d < 2:
        raise ValueError("the double-cone flow needs d >= 2")

    contraction = _once_per_time(lambda t: float(np.exp(-2 * np.pi * t)))

    def closed_form(t, x):
        # Python floats throughout; the norm is np.linalg.norm's sqrt(v . v)
        # and e numpy's exp, which keep the images bitwise: the map amplifies
        # an ulp of either to ~4e-14.  np.exp gives inf where math.exp raises.
        e = contraction(t)
        x = np.asarray(x, dtype=float)
        v = x[1:]
        r = math.sqrt(v.dot(v))
        x0, *vs = x.tolist()
        a = _mobius_pm(e, x0 + r)
        b = _mobius_pm(e, x0 - r)
        if a is None or b is None:
            return None
        if not r > 0:
            return np.array([(a + b) / 2.0] + [0.0] * len(vs))
        k = (a - b) / (2.0 * r)
        return np.array([(a + b) / 2.0] + [k * vi for vi in vs])

    def columns(t, c):
        # v . v of each row through dot's kernel, as v.dot(v) above; a sum
        # of elementwise products rounds differently on some rows
        v = np.stack(c[1:], axis=1)
        r = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        e = np.exp(-2 * np.pi * t)
        a, regular_a = _mobius_pm_columns(e, c[0] + r)
        b, regular_b = _mobius_pm_columns(e, c[0] - r)
        k = (a - b) / (2.0 * r)
        return ([(a + b) / 2.0, *(np.where(r > 0, k * ci, 0.0) for ci in c[1:])],
                regular_a & regular_b)

    h = cg.translation_generator(d, np.eye(d)[0]).matrix
    rho = cg.ray_inversion(d).matrix
    gen = cg.LieGenerator(np.pi * (h - rho @ h @ rho))
    return CanonicalFlow(unit_double_cone(d), gen, closed_form, columns)


def cone_flow(d: int) -> CanonicalFlow:
    """Dilation flow x -> e^t x of the future cone."""

    dilation = _once_per_time(lambda t: float(np.exp(t)))

    def closed_form(t, x):
        return dilation(t) * np.asarray(x, dtype=float)

    def columns(t, c):
        return [np.exp(t) * ci for ci in c], _everywhere(c)

    return CanonicalFlow(FutureCone(np.zeros(d)), cg.dilation_generator(d),
                         closed_form, columns)


def conjugate_flow(g: cg.GroupElement, flow: CanonicalFlow) -> CanonicalFlow:
    """Transport a flow to the image region: generator g A g^{-1}, closed form
    g . flow_t . g^{-1}, region the image of the original region under g."""
    ginv = g.inverse()

    def closed_form(t, x):
        y = ginv.act(x)
        if y is None:
            return None
        z = flow.closed_form(t, y)
        if z is None:
            return None
        return g.act(z)

    def columns(t, c):
        y, regular_in = ginv._act_coords(c)
        z, regular_flow = flow._columns(t, y)
        w, regular_out = g._act_coords(z)
        return w, regular_in & regular_flow & regular_out

    gen = cg.LieGenerator(g.matrix @ flow.generator.matrix @ ginv.matrix)
    return CanonicalFlow(TransformedRegion(g, flow.region), gen, closed_form, columns)


def time_reflection(d: int) -> cg.GroupElement:
    """Sign flip of the time coordinate, as a ray-action matrix."""
    return cg._reflection(d, 0)


def wedge_to_doublecone(d: int) -> cg.GroupElement:
    """Explicit element g with g(W1) = unit double cone and
    g wedge_flow(t) g^{-1} = doublecone_flow(t) as matrices.

    The light-cone factor maps are Cayley transforms built from translations
    along x1, one dilation, and the axis inversion R1.  A time reflection is
    composed in first: the wedge flow above drifts its points toward the past
    horizon while the double-cone flow drifts toward the future tip, so the
    intertwiner must reverse time orientation.
    """
    if d < 2:
        raise ValueError("needs d >= 2")
    tau = cg.translation(d, np.eye(d)[1])
    return cg._compose(tau, cg.dilation(d, 2.0), cg.axis_inversion(d, 1), tau,
                       time_reflection(d))


def pct_ingredients(d: int) -> tuple[cg.GroupElement, cg.GroupElement, cg.GroupElement]:
    """(beta, r1, S_W1): total inversion x -> -x, the reflection flipping
    (x0, x1), and the sign flip of the transverse coordinates x2 .. x_{d-1}.
    All three are ray-action matrices with beta = r1 . S_W1; whether they lie
    in the identity component depends on the parity of d."""
    if d < 2:
        raise ValueError("needs d >= 2")
    return (cg._reflection(d, slice(0, d)), cg._reflection(d, [0, 1]),
            cg._reflection(d, slice(2, d)))
