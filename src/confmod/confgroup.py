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
    finite; a composite tests the form once, on its product (_product), and
    an exponential on each of its matrices (_exps).
    Each public constructor is a one-row call of a builder that does the
    same for a stack of parameters, matrix by matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m, amax = _finite_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        _check_form(m[None], amax)

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


def _finite_stack(m) -> tuple[np.ndarray, np.ndarray]:
    """(m as a float array, the largest entry size of each of its matrices);
    raises unless m is an (n, d+2, d+2) stack of finite matrices, d >= 1."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 3:
        raise ValueError("matrix must be square of size d+2 with d >= 1")
    amax = np.abs(m).max(axis=(1, 2), initial=0.0)
    if not (amax < np.inf).all():
        raise ValueError("matrix entries must be finite")
    return m, amax


def _finite_matrix(m) -> tuple[np.ndarray, float]:
    """_finite_stack on one matrix: (m as a float array, its largest entry size)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("matrix must be square of size d+2 with d >= 1")
    return m, _finite_stack(m[None])[1][0]


def _check_form(m: np.ndarray, amax) -> np.ndarray:
    """m, an (n, d+2, d+2) stack whose matrices have the largest entry sizes
    amax; raises unless every matrix g of it preserves Q, to within
    |g^T Q g - Q| <= FORM_TOL max(1, amax^2) entrywise."""
    q, Q = _form(m.shape[-1] - 2)
    # Rounding in g^T Q g scales with the squared entry magnitude, so the
    # acceptance threshold must scale the same way for large parameters.
    tol = FORM_TOL * np.fmax(1.0, amax ** 2)
    residual = np.abs((m.transpose(0, 2, 1) * q) @ m - Q).max(axis=(1, 2), initial=0.0)
    if (residual > tol).any():
        raise ValueError("matrix does not preserve the (d,2) form")
    return m


def _element(m: np.ndarray) -> GroupElement:
    """The element of a float matrix whose tests have run."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "matrix", m)
    return g


def _exact(m) -> GroupElement:
    """The element of a closed-form matrix, one that preserves Q in exact
    arithmetic: only the finiteness test runs."""
    return _element(_finite_matrix(m)[0])


def _product(*factors: np.ndarray) -> np.ndarray:
    """The product of the factors, matrices and (n, d+2, d+2) stacks of them,
    multiplied left to right as a chain of @: an (n, d+2, d+2) stack, n = 1
    for matrices alone, each matrix of which passed the finiteness test and
    the form test."""
    m = reduce(matmul, factors)
    return _check_form(*_finite_stack(m.reshape(-1, *m.shape[-2:])))


def _compose(*factors: GroupElement) -> GroupElement:
    """The element of _product on the matrices of the factors."""
    return _element(_product(*(g.matrix for g in factors))[0])


@dataclass(frozen=True)
class LieGenerator:
    """(d+2)x(d+2) real matrix X with X^T Q + Q X = 0 and X^3 = c X, each
    to within FORM_TOL scaled by the entries' size, so that exp is the
    three-term closed form of _exps.  c = tr(X^4) / tr(X^2), or 0 (X
    nilpotent) when tr(X^2) is at rounding level against |X|^2."""

    matrix: np.ndarray

    def __post_init__(self):
        m, amax = _finite_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        q = _form(self.dim)[0]
        tol = FORM_TOL * max(1.0, amax)
        if np.abs(m.T * q + q[:, None] * m).max() > tol:
            raise ValueError("matrix is not in the (d,2) Lie algebra")
        m2, tr2 = m @ m, np.sum(m * m.T)
        nilpotent = abs(tr2) <= m.size * np.finfo(float).eps * np.sum(m * m)
        c = 0.0 if nilpotent else float(np.sum(m2 * m2.T) / tr2)
        if np.abs(m @ m2 - c * m).max() > tol * max(1.0, amax) ** 2:
            raise ValueError("matrix has no three-term exponential: X^3 != c X")
        object.__setattr__(self, "_c", c)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0] - 2

    def exp(self, t: float = 1.0) -> GroupElement:
        return _element(_exps(self, [t])[0])


def _exps(gen: LieGenerator, t) -> np.ndarray:
    """exp(t X) = I + s X + k X^2 for each entry of a 1-D array of times,
    an (n, d+2, d+2) stack that passed the finiteness and form tests.  For
    c = -w^2, s = sin(wt)/w and k = (1 - cos wt)/w^2 = 2 sin(wt/2)^2/w^2,
    with no cancellation at small wt; for c = w^2 the same with sinh; for
    c = 0, s = t, k = t^2/2.  Overflow raises ValueError, with no warning."""
    t = np.asarray(t, dtype=float)
    c = gen._c
    with np.errstate(over="ignore", invalid="ignore"):
        if c == 0.0:
            s, k = t, t * t / 2.0
        else:
            sin, w = np.sin if c < 0 else np.sinh, math.sqrt(abs(c))
            s, k = sin(w * t) / w, 2.0 * sin(w * t / 2.0) ** 2 / abs(c)
        x = gen.matrix
        m = np.eye(len(x)) + s[:, None, None] * x + k[:, None, None] * (x @ x)
    return _check_form(*_finite_stack(m))


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
    return _element(_translations(d, [a])[0])


def _translations(d: int, A) -> np.ndarray:
    """The translations by the rows of an (n, d) array, an (n, d+2, d+2) stack."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != d:
        raise ValueError("translation vector must have length d")
    # exp(A) = I + A + A^2/2 for the nilpotent generator A; A^2/2 is
    # (a^2/2) [[1, 1], [-1, -1]] on the (xi_d, xi_{d+1}) block
    gen, a2 = _translation_generators(d, A)
    m = np.eye(d + 2) + gen
    half = (a2 / 2.0)[:, None]
    m[:, d, d:] += half
    m[:, d + 1, d:] -= half
    return _finite_stack(m)[0]


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
    return _element(_dilations(d, [lam])[0])


def _dilations(d: int, lam) -> np.ndarray:
    """The dilations by the entries of a 1-D array, an (n, d+2, d+2) stack."""
    lam = np.asarray(lam, dtype=float)
    if (lam <= 0).any():
        raise ValueError("dilation parameter must be positive")
    m = np.repeat(np.eye(d + 2)[None], len(lam), axis=0)
    inv = 1.0 / lam
    m[:, d, d] = m[:, d + 1, d + 1] = (inv + lam) / 2.0
    m[:, d, d + 1] = m[:, d + 1, d] = (inv - lam) / 2.0
    return _finite_stack(m)[0]


def _reflection(d: int, minus) -> GroupElement:
    """The sign flip of the ray coordinates at the indices minus."""
    return _exact(np.diag(_signs(d + 2, minus)))


def ray_inversion(d: int) -> GroupElement:
    """x -> -x / x^2: sign flip of the Minkowski block and of xi_{d+1}."""
    return _reflection(d, [*range(d), d + 1])


def special(d: int, a) -> GroupElement:
    """Special conformal transformation: ray inversion, translation, inversion."""
    rho = ray_inversion(d)
    return _compose(rho, translation(d, a), rho)


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

def _translation_generators(d: int, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, a^2) for each row a of an (n, d) array, as an (n, d+2, d+2) stack
    and an (n,) array: xi_mu' = a_mu (xi_d + xi_{d+1}), xi_d' = -xi_{d+1}' =
    <a, xi>."""
    E = _metric_signs(d) * A
    m = np.zeros((len(A), d + 2, d + 2))
    m[:, :d, d] = A
    m[:, :d, d + 1] = A
    m[:, d, :d] = E
    m[:, d + 1, :d] = -E
    # each a^2 through dot's kernel, which rounds as np.dot on one row
    return m, (E[:, None, :] @ A[:, :, None])[:, 0, 0]


def translation_generator(d: int, a) -> LieGenerator:
    return LieGenerator(_translation_generators(d, np.asarray([a], dtype=float))[0][0])


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

        U(alpha) = exp(alpha Y),   Y[axis, d] = 2 = -Y[d, axis],

    the rotation by 2 alpha in the (xi_axis, xi_d) plane.  U(0) = U(pi) =
    identity, U(pi/2) = R_axis modulo sign, and U(a) U(b) = U(a + b) as
    matrices, with period pi.  Modulo sign U(alpha) is also the product
    tau(-cot a) D(sin(a)^-2) R_axis tau(-cot a), tau the translation along
    the axis, whose factors grow as cot(a)^2 near 0 and pi.
    """
    return _element(_axis_inversion_subgroups(d, [alpha], axis)[0])


def _axis_inversion_subgroups(d: int, alpha, axis: int = 1) -> np.ndarray:
    """U(alpha) for each entry of a 1-D array, an (n, d+2, d+2) stack."""
    if not 1 <= axis <= d - 1:
        raise ValueError("axis out of range")
    return _exps(_axis_inversion_generator(d, axis), alpha)


@cache
def _axis_inversion_generator(d: int, axis: int) -> LieGenerator:
    """Y[axis, d] = 2 = -Y[d, axis], built and form-checked once per
    (d, axis); its matrix is read-only."""
    y = np.zeros((d + 2, d + 2))
    y[axis, d], y[d, axis] = 2.0, -2.0
    gen = LieGenerator(y)
    gen.matrix.flags.writeable = False
    return gen


def dilation_identity_defect(d: int, a: float, axis: int = 1) -> float:
    """Max-norm distance (mod sign) between
    tau(a) R tau(1/a) R tau(a) R and the dilation by a^2."""
    return _identity_defects(d, [a], axis)[0]


def _identity_defects(d: int, a, axis: int = 1) -> np.ndarray:
    """dilation_identity_defect for each entry of a 1-D array."""
    a = np.asarray(a, dtype=float)
    if (a == 0).any():
        raise ValueError("parameter must be nonzero")
    ea, einv = np.zeros((len(a), d)), np.zeros((len(a), d))
    ea[:, axis], einv[:, axis] = a, 1.0 / a
    r = axis_inversion(d, axis).matrix
    tau = _translations(d, ea)
    lhs = _product(tau, r, _translations(d, einv), r, tau, r)
    return _distances_mod_sign(lhs, _dilations(d, a * a))


def distance_mod_sign(g: GroupElement, h: GroupElement) -> float:
    """min over sign of the max-norm distance between +-g and h."""
    return _distances_mod_sign(g.matrix[None], h.matrix[None])[0]


def _distances_mod_sign(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """distance_mod_sign between the matrices of two (n, d+2, d+2) stacks, slice by slice."""
    diff = np.abs(G - H).max(axis=(1, 2))
    summ = np.abs(G + H).max(axis=(1, 2))
    return np.minimum(diff, summ)


# --- Poincare embedding and double-cone transport ----------------------------

def poincare_to_conformal(p: PoincareMap) -> GroupElement:
    return _compose(translation(p.dim, p.translation), _lorentz_element(p.lorentz))


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
    return _compose(translation(d, c2), b2, dilation(d, r2 / r1), b1.inverse(),
                    translation(d, -c1))
