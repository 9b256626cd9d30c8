"""The conformal group of d-dimensional Minkowski space as matrices.

The compactified space is the manifold of isotropic rays of the quadratic
form Q = diag(+1, -1, ..., -1, +1) on R^{d+2} (negative on indices 1..d).
A finite point x embeds as the ray

    xi_i = x_i (i < d),   xi_d = (1 + x^2)/2,   xi_{d+1} = (1 - x^2)/2,

which satisfies Q(xi) = 0 identically; the ray is recovered from a point by
xi_d + xi_{d+1} = 1, and rays with xi_d + xi_{d+1} = 0 are the points at
infinity.  Matrices preserving Q act on rays; restricted to finite points
this is the conformal action, with singularities exactly where the image
ray lands at infinity.  Group elements are compared modulo overall sign
since only the ray action matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import matmul

import numpy as np

from .geometry import (PoincareMap, _boost_matrix, _dot, _metric_signs, _minkowski,
                       _point, _rotation_matrix, _row_images, _signs, minkowski_norm)

__all__ = [
    "quadratic_form",
    "Ray",
    "GroupElement",
    "LieGenerator",
    "embed",
    "project",
    "act",
    "translation",
    "boost",
    "rotation",
    "dilation",
    "special",
    "ray_inversion",
    "axis_inversion",
    "space_reflection",
    "in_identity_component",
    "axis_inversion_subgroup",
    "dilation_identity_defect",
    "conformal_energy",
    "translation_generator",
    "boost_generator",
    "dilation_generator",
    "poincare_to_conformal",
    "double_cone_transport",
    "distance_mod_sign",
]

INFINITY_TOL = 1e-10
FORM_TOL = 1e-10


@cache
def _form(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, Q), read-only: the diagonal of Q = diag(eta, -1, +1), +1 at indices
    0 and d+1 and -1 at 1..d, and Q itself."""
    q = _signs(d + 2, slice(1, d + 1))
    Q = np.diag(q)
    q.flags.writeable = Q.flags.writeable = False
    return q, Q


def quadratic_form(d: int) -> np.ndarray:
    """Diagonal matrix of Q on R^{d+2}."""
    return _form(d)[1].copy()


@dataclass(frozen=True)
class Ray:
    """Isotropic ray of Q, stored as a unit Euclidean vector (mod sign)."""

    xi: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.xi, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError("ray vector entries must be finite")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("ray vector must be nonzero")
        v = v / norm
        if abs(np.dot(_form(v.shape[0] - 2)[0] * v, v)) > 1e-12:
            raise ValueError("vector is not isotropic for the (d,2) form")
        object.__setattr__(self, "xi", v)

    @property
    def dim(self) -> int:
        return self.xi.shape[0] - 2

    def at_infinity(self) -> bool:
        return abs(self.xi[-2] + self.xi[-1]) < INFINITY_TOL


@dataclass(frozen=True)
class GroupElement:
    """(d+2)x(d+2) real matrix g with g^T Q g = Q, acting on rays.

    GroupElement(m) tests the form on m.  The closed-form constructors, whose
    matrices preserve Q in exact arithmetic, test only that the entries are
    finite (_exact); a composite tests the form once, on its product."""

    matrix: np.ndarray

    def __post_init__(self):
        m, amax = _finite_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        q, Q = _form(self.dim)
        # Rounding in g^T Q g scales with the squared entry magnitude, so the
        # acceptance threshold must scale the same way for large parameters.
        tol = FORM_TOL * max(1.0, amax ** 2)
        if np.abs((m.T * q) @ m - Q).max() > tol:
            raise ValueError("matrix does not preserve the (d,2) form")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 2

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix)

    def inverse(self) -> "GroupElement":
        q = _form(self.dim)[0]
        return _exact(np.outer(q, q) * self.matrix.T)

    def act(self, x):
        """Conformal action on a point; None where the action is singular."""
        return act(self, x)

    @cached_property
    def _rows(self):
        # on first use: products are built by the thousand, few of them act
        return self.matrix.tolist()

    def _act_coords(self, c):
        """(image coordinates, regular) on a sequence of coordinates, as
        Region._member takes them.  The image ray of c, rows summed in
        coordinate order, is normalised; c is regular where its xi_d +
        xi_{d+1} is at least INFINITY_TOL in size, and has no image if not."""
        v = _ray_coords(c)
        w = [_dot(row, v) for row in self._rows]
        n2 = _dot(w, w)
        # Both square roots round correctly; math.sqrt keeps a point on floats.
        norm = math.sqrt(n2) if isinstance(n2, float) else np.sqrt(n2)
        w = [wi / norm for wi in w]
        denom = w[-2] + w[-1]
        regular = abs(denom) >= INFINITY_TOL
        # A singular denominator moves off zero, where a float would raise.
        denom = denom + (abs(denom) < INFINITY_TOL)
        return [wi / denom for wi in w[:-2]], regular


def _finite_matrix(m) -> tuple[np.ndarray, float]:
    """(m as a float array, its largest entry size); raises unless m is a
    finite square matrix of size d+2 with d >= 1."""
    m = np.asarray(m, dtype=float)
    d = m.shape[0] - 2
    if m.shape != (d + 2, d + 2) or d < 1:
        raise ValueError("matrix must be square of size d+2 with d >= 1")
    amax = np.abs(m).max()
    if not amax < np.inf:
        raise ValueError("matrix entries must be finite")
    return m, amax


def _exact(m) -> GroupElement:
    """The element of a closed-form matrix, one that preserves Q in exact
    arithmetic: only the finiteness test runs."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "matrix", _finite_matrix(m)[0])
    return g


def _product(*factors: GroupElement) -> GroupElement:
    """The product of the factors, multiplied left to right as a chain of @,
    with the form tested once, on the result."""
    return GroupElement(reduce(matmul, [g.matrix for g in factors]))


@dataclass(frozen=True)
class LieGenerator:
    """(d+2)x(d+2) real matrix A with A^T Q + Q A = 0."""

    matrix: np.ndarray

    def __post_init__(self):
        m, amax = _finite_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        q = _form(self.dim)[0]
        tol = FORM_TOL * max(1.0, amax)
        if np.abs(m.T * q + q[:, None] * m).max() > tol:
            raise ValueError("matrix is not in the (d,2) Lie algebra")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 2

    def exp(self, t: float = 1.0) -> GroupElement:
        return GroupElement(_expm(t * self.matrix))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring: 18 Taylor terms on a / 2^s, whose
    row-sum norm is at most 1/2 (remainder below 1e-22), then s squarings."""
    s = max(0, int(np.frexp(np.linalg.norm(a, np.inf))[1]) + 1)
    x = a / 2.0 ** s
    e = eye = np.eye(a.shape[0])
    for k in range(18, 0, -1):
        e = eye + (x @ e) / k
    for _ in range(s):
        e = e @ e
    return e


def _ray_coords(c):
    """Unnormalised ray (c, (1 + c^2)/2, (1 - c^2)/2) of a sequence of coordinates."""
    s = _minkowski(c)
    return [*c, (1.0 + s) / 2.0, (1.0 - s) / 2.0]


def embed(x) -> Ray:
    """Ray of a finite point."""
    return Ray(np.array(_ray_coords(np.asarray(x, dtype=float).tolist())))


def project(ray: Ray):
    """Finite point of a ray, or None when the ray is at infinity."""
    if ray.at_infinity():
        return None
    v = ray.xi
    return v[:-2] / (v[-2] + v[-1])


def act(g: GroupElement, x):
    """The image of a point, or None where it is singular: row i of
    act_array(g, X) for x = X[i], bit for bit."""
    y, regular = g._act_coords(_point(x, g.dim))
    return np.array(y) if regular else None


def act_array(g: GroupElement, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized action on an (n, d) array: (images, regular-point mask).

    Rows whose image is at infinity or not finite carry NaNs and a False
    mask entry; no row warns.
    """
    return _row_images(g._act_coords, X, g.dim)


# --- element constructors ---------------------------------------------------

def translation(d: int, a) -> GroupElement:
    a = np.asarray(a, dtype=float)
    if a.shape != (d,):
        raise ValueError("translation vector must have length d")
    # exp(A) = I + A + A^2/2 for the nilpotent generator A; A^2/2 is
    # (a^2/2) [[1, 1], [-1, -1]] on the (xi_d, xi_{d+1}) block
    gen, a2 = _translation_generator(d, a)
    m = np.eye(d + 2) + gen
    m[d, d:] += a2 / 2.0
    m[d + 1, d:] -= a2 / 2.0
    return _exact(m)


def _lorentz_element(lorentz: np.ndarray) -> GroupElement:
    """A Lorentz matrix acting on the first d ray coordinates."""
    d = lorentz.shape[0]
    m = np.eye(d + 2)
    m[:d, :d] = lorentz
    return _exact(m)


def boost(d: int, axis: int, rapidity: float) -> GroupElement:
    """Hyperbolic rotation of (x0, x_axis) acting as x0' = cosh(s) x0 - sinh(s) x_axis."""
    return _lorentz_element(_boost_matrix(d, axis, rapidity))


def rotation(d: int, i: int, j: int, angle: float) -> GroupElement:
    return _lorentz_element(_rotation_matrix(d, i, j, angle))


def dilation(d: int, lam: float) -> GroupElement:
    """x -> lam x for lam > 0; hyperbolic in the (xi_d, xi_{d+1}) plane."""
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    m = np.eye(d + 2)
    inv, lm = 1.0 / lam, lam
    m[d, d] = m[d + 1, d + 1] = (inv + lm) / 2.0
    m[d, d + 1] = m[d + 1, d] = (inv - lm) / 2.0
    return _exact(m)


def _reflection(d: int, minus) -> GroupElement:
    """The sign flip of the ray coordinates at the indices minus."""
    return _exact(np.diag(_signs(d + 2, minus)))


def ray_inversion(d: int) -> GroupElement:
    """x -> -x / x^2: sign flip of the Minkowski block and of xi_{d+1}."""
    return _reflection(d, [*range(d), d + 1])


def special(d: int, a) -> GroupElement:
    """Special conformal transformation: ray inversion, translation, inversion."""
    rho = ray_inversion(d)
    return _product(rho, translation(d, a), rho)


def axis_inversion(d: int, axis: int) -> GroupElement:
    """x -> -(1/x^2)(x0, ..., -x_axis, ..., x_{d-1}): inversion with one
    space axis spared."""
    if not 1 <= axis <= d - 1:
        raise ValueError("axis out of range")
    return _reflection(d, [i for i in range(d) if i != axis] + [d + 1])


def space_reflection(d: int, axis: int) -> GroupElement:
    """Sign flip of one space coordinate."""
    if not 1 <= axis <= d - 1:
        raise ValueError("axis out of range")
    return _reflection(d, axis)


# --- generators --------------------------------------------------------------

def _translation_generator(d: int, a: np.ndarray) -> tuple[np.ndarray, float]:
    """(A, a^2): xi_mu' = a_mu (xi_d + xi_{d+1}), xi_d' = -xi_{d+1}' = <a, xi>."""
    eta_a = _metric_signs(d) * a
    m = np.zeros((d + 2, d + 2))
    m[:d, d] = a
    m[:d, d + 1] = a
    m[d, :d] = eta_a
    m[d + 1, :d] = -eta_a
    return m, float(np.dot(eta_a, a))


def translation_generator(d: int, a) -> LieGenerator:
    return LieGenerator(_translation_generator(d, np.asarray(a, dtype=float))[0])


def boost_generator(d: int, axis: int, rate: float = 1.0) -> LieGenerator:
    """Derivative of boost(d, axis, rate * t) at t = 0."""
    if not 1 <= axis <= d - 1:
        raise ValueError("boost axis out of range")
    m = np.zeros((d + 2, d + 2))
    m[0, axis] = -rate
    m[axis, 0] = -rate
    return LieGenerator(m)


def dilation_generator(d: int) -> LieGenerator:
    """Derivative of dilation(d, e^t) at t = 0."""
    m = np.zeros((d + 2, d + 2))
    m[d, d + 1] = -1.0
    m[d + 1, d] = -1.0
    return LieGenerator(m)


def conformal_energy(d: int) -> LieGenerator:
    """Generator h + rho h rho with h the time-translation generator.

    The sum rotates the (xi_0, xi_{d+1}) plane and vanishes on its orthogonal
    complement, so its one-parameter group is periodic.
    """
    h = translation_generator(d, np.eye(d)[0]).matrix
    rho = ray_inversion(d).matrix
    return LieGenerator(h + rho @ h @ rho)


# --- group structure ---------------------------------------------------------

def in_identity_component(g: GroupElement) -> bool:
    """Whether +g or -g lies in the identity component of O(d,2).

    Components of an indefinite orthogonal group are classified by the signs
    of the determinants of the blocks on the positive-definite plane
    (xi_0, xi_{d+1}) and the negative-definite block (xi_1 .. xi_d).  The
    2x2 positive block determinant is even under g -> -g; the d x d block
    determinant flips sign when d is odd.
    """
    d = g.dim
    q = _form(d)[0]
    pos, neg = np.flatnonzero(q > 0), np.flatnonzero(q < 0)
    det_pos = np.linalg.det(g.matrix[np.ix_(pos, pos)])
    det_neg = np.linalg.det(g.matrix[np.ix_(neg, neg)])
    return det_pos > 0 and (det_neg > 0 or d % 2 == 1)


def axis_inversion_subgroup(d: int, alpha: float, axis: int = 1) -> GroupElement:
    """One-parameter elliptic subgroup through the axis inversion:

        U(alpha) = tau(-cot a) D(sin(a)^-2) R_axis tau(-cot a)

    with tau the translation along the axis.  U(0) = U(pi) = identity,
    U(pi/2) = R_axis; as matrices the group law holds modulo sign.
    """
    s = np.sin(alpha)
    if abs(s) < 1e-12:
        return _exact(np.eye(d + 2))
    a = np.zeros(d)
    a[axis] = -np.cos(alpha) / s
    tau = translation(d, a)
    return _product(tau, dilation(d, s ** -2), axis_inversion(d, axis), tau)


def dilation_identity_defect(d: int, a: float, axis: int = 1) -> float:
    """Max-norm distance (mod sign) between
    tau(a) R tau(1/a) R tau(a) R and the dilation by a^2."""
    if a == 0:
        raise ValueError("parameter must be nonzero")
    ea, einv = np.zeros(d), np.zeros(d)
    ea[axis], einv[axis] = a, 1.0 / a
    r = axis_inversion(d, axis)
    lhs = _product(translation(d, ea), r, translation(d, einv), r, translation(d, ea), r)
    rhs = dilation(d, a * a)
    return distance_mod_sign(lhs, rhs)


def distance_mod_sign(g: GroupElement, h: GroupElement) -> float:
    """min over sign of the max-norm distance between +-g and h."""
    diff = np.max(np.abs(g.matrix - h.matrix))
    summ = np.max(np.abs(g.matrix + h.matrix))
    return min(diff, summ)


# --- Poincare embedding and double-cone transport ----------------------------

def poincare_to_conformal(p: PoincareMap) -> GroupElement:
    return _product(translation(p.dim, p.translation), _lorentz_element(p.lorentz))


def _boost_to_unit_timelike(u: np.ndarray) -> PoincareMap:
    """Pure Lorentz boost mapping e0 to the unit timelike future vector u."""
    d = u.shape[0]
    gamma = u[0]
    L = np.eye(d)
    if d > 1:
        beta = u[1:] / gamma
        b2 = float(np.dot(beta, beta))
        L[0, 0] = gamma
        if b2 > 0:
            L[0, 1:] = L[1:, 0] = gamma * beta
            L[1:, 1:] = np.eye(d - 1) + (gamma - 1.0) * np.outer(beta, beta) / b2
    return PoincareMap(L, np.zeros(d))


def double_cone_transport(src, dst) -> GroupElement:
    """Conformal element (translation . boost . dilation . boost . translation)
    mapping the source double cone onto the destination one."""
    d = src.dim

    def parts(cone):
        center = (cone.tip_past + cone.tip_future) / 2.0
        v = cone.tip_future - cone.tip_past
        radius = np.sqrt(minkowski_norm(v)) / 2.0
        return center, v / (2.0 * radius), radius

    c1, u1, r1 = parts(src)
    c2, u2, r2 = parts(dst)
    b1 = poincare_to_conformal(_boost_to_unit_timelike(u1))
    b2 = poincare_to_conformal(_boost_to_unit_timelike(u2))
    return _product(translation(d, c2), b2, dilation(d, r2 / r1), b1.inverse(),
                    translation(d, -c1))
