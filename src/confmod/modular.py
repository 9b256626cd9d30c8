"""Tomita calculus on standard real subspaces of C^m.

A real-linear subspace K of C^m is standard when K and iK meet only at 0 and
span C^m over the reals; equivalently dim_R K = m and the smallest principal
angle between K and iK is positive.  The closed antilinear involution fixing
K pointwise and negating iK factors as S = J Delta^{1/2}; this module builds
S, Delta and J and the unitary flow Delta^{it}.

Construction.  Everything is computed in the real encoding v = [Re v; Im v]
of C^m, where multiplication by i is the orthogonal matrix J_STD and the
Euclidean inner product is Re<.,.>.  Principal vectors of the pair (K, iK)
split R^{2m} into m mutually orthogonal S-invariant planes; on the plane
with principal angle theta (sigma = cos theta, s = sin theta, in the
orthonormal frame (b, perp) with the iK principal vector at sigma b + s perp)

    S     = [[1, -2 sigma/s], [0, -1]]
    Delta = S^T S,  with eigenvalues ((1+sigma)/s)^{+-2}
    J     = [[s, -sigma], [-sigma, -s]]

and Delta^{it} has the real encoding cos(t log lambda) I + i sin(t log
lambda) G with G = [[-sigma, -s], [-s, sigma]].  All flow and conjugation
blocks are exactly orthogonal, so the construction stays stable even when
some angles approach zero; only S and Delta themselves grow like 1/theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import svd

__all__ = [
    "StandardnessError",
    "StandardnessReport",
    "StandardSubspace",
    "ModularData",
    "tomita_operators",
    "symplectic_complement",
    "symplectic_complement_angle",
    "subspace_angle",
    "subspace_angles",
    "random_standard_subspace",
    "DEFAULT_ANGLE_FLOOR",
]

DEFAULT_ANGLE_FLOOR = 1e-6
RANK_TOL = 1e-10


@dataclass(frozen=True)
class StandardnessReport:
    """Diagnostics from the standardness test."""

    ambient_dim: int
    real_dim: int
    angles: np.ndarray          # principal angles between K and iK, descending
    angle_floor: float

    @property
    def min_angle(self) -> float:
        return float(self.angles[-1]) if self.angles.size else np.inf

    @property
    def dimension_ok(self) -> bool:
        return self.real_dim == self.ambient_dim

    @property
    def standard(self) -> bool:
        return self.dimension_ok and self.min_angle > self.angle_floor


class StandardnessError(ValueError):
    def __init__(self, message: str, report: StandardnessReport):
        super().__init__(f"{message}: real dim {report.real_dim} of {report.ambient_dim}, "
                         f"min principal angle {report.min_angle:.3e} "
                         f"(floor {report.angle_floor:.1e})")
        self.report = report


def _std_i(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def _times_i(cols: np.ndarray) -> np.ndarray:
    """Multiplication by i in the real encoding, _std_i(m) @ cols as a
    block swap [-Im; Re].  The result is C-ordered, the layout of the
    matrix product, so later products with it round identically."""
    m = cols.shape[0] // 2
    out = np.empty(cols.shape)
    out[:m] = -cols[m:]
    out[m:] = cols[:m]
    return out


def _realify(vectors: np.ndarray) -> np.ndarray:
    """Complex (m, k) column stack -> real (2m, k)."""
    v = np.atleast_2d(np.asarray(vectors, dtype=complex))
    return np.vstack([v.real, v.imag])


def _complexify_vectors(cols: np.ndarray) -> np.ndarray:
    m = cols.shape[0] // 2
    return cols[:m] + 1j * cols[m:]


def _complexify_operator(a: np.ndarray) -> np.ndarray:
    """Real 2m x 2m matrix commuting with J_STD -> complex m x m matrix."""
    m = a.shape[0] // 2
    return a[:m, :m] + 1j * a[m:, :m]


def _orthonormal_columns(cols: np.ndarray) -> np.ndarray:
    u, s, _ = svd(cols, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 0.0)))
    return u[:, :rank]


def _principal_planes(b: np.ndarray):
    """(cosines ascending, K principal vectors, residuals of the iK principal
    vectors orthogonal to K, whose norms are the sines) for a basis b of K."""
    c = _times_i(b)
    u, sig, vt = svd(b.T @ c)
    sig = np.clip(sig, 0.0, 1.0)
    # Singular values descend, so angles ascend; process planes healthiest
    # first so that rounding in nearly degenerate planes cannot leak into
    # well-separated ones.
    order = np.argsort(sig)
    sig = sig[order]
    bu = (b @ u)[:, order]
    return sig, bu, (c @ vt.T)[:, order] - bu * sig[None, :]


class StandardSubspace:
    """Real-linear span of complex generator vectors in C^m."""

    def __init__(self, ambient_dim: int, generators):
        # generators are rows of a (k, m) complex array
        gens = np.atleast_2d(np.asarray(generators, dtype=complex))
        if gens.shape[1] != ambient_dim:
            raise ValueError("generator length must equal the ambient dimension")
        if gens.shape[0] == 0:
            raise ValueError("need at least one generator")
        if not np.isfinite(gens).all():
            raise ValueError("generator entries must be finite")
        norms = np.linalg.norm(gens, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("zero vector among generators")
        self.ambient_dim = int(ambient_dim)
        self.generators = gens
        self.basis = _orthonormal_columns(_realify(gens.T))

    @property
    def real_dim(self) -> int:
        return self.basis.shape[1]

    def standardness(self, angle_floor: float = DEFAULT_ANGLE_FLOOR) -> StandardnessReport:
        """Test K cap iK = 0 and K + iK = C^m (the report's .standard), with
        the principal-angle spectrum between K and iK as the condition."""
        return StandardnessReport(self.ambient_dim, self.real_dim, subspace_angles(
            self.basis, _times_i(self.basis)), angle_floor)


@dataclass(frozen=True)
class ModularData:
    """Tomita operators of a standard subspace.

    frame: orthogonal 2m x 2m matrix whose column pairs (2k, 2k+1) span the
    S-invariant principal planes; sigmas/sines hold cos/sin of the principal
    angle of each plane.  These four fields are the whole record: nothing
    is cached, and every dense operator is assembled again on each access,
    so a caller that needs one twice binds it once.

    To act on a few vectors, apply_flow_real, apply_j_real, apply_s and the
    other complex forms use the plane blocks directly, frame (blocks
    (frame^T cols)), in O(m^2 k) for k columns; s_real, delta_real, j_real
    and flow_real(t) assemble the same blocks into the dense 2m x 2m
    operator at O(m^3).
    """

    ambient_dim: int
    frame: np.ndarray
    sigmas: np.ndarray
    sines: np.ndarray

    def _assemble(self, blocks: np.ndarray) -> np.ndarray:
        """frame @ blockdiag(blocks) @ frame^T."""
        m = self.ambient_dim
        # Apply each 2x2 block to its column pair in one batched product.
        paired = self.frame.reshape(2 * m, m, 2)
        mixed = np.einsum("nkj,kji->nki", paired, blocks)
        return mixed.reshape(2 * m, 2 * m) @ self.frame.T

    def _plane_blocks(self, kind: str, t: float | None = None) -> np.ndarray:
        c, s = self.sigmas, self.sines
        n = c.shape[0]
        blocks = np.empty((n, 2, 2))
        if kind == "S":
            blocks[:, 0, 0] = 1.0
            blocks[:, 0, 1] = -2.0 * c / s
            blocks[:, 1, 0] = 0.0
            blocks[:, 1, 1] = -1.0
        elif kind == "delta":
            blocks[:, 0, 0] = 1.0
            blocks[:, 0, 1] = blocks[:, 1, 0] = -2.0 * c / s
            blocks[:, 1, 1] = (4.0 * c ** 2 + s ** 2) / s ** 2
        elif kind == "delta_sqrt":
            blocks[:, 0, 0] = s
            blocks[:, 0, 1] = blocks[:, 1, 0] = -c
            blocks[:, 1, 1] = (2.0 * c ** 2 + s ** 2) / s
        elif kind == "J":
            blocks[:, 0, 0] = s
            blocks[:, 0, 1] = blocks[:, 1, 0] = -c
            blocks[:, 1, 1] = -s
        elif kind == "flow_cos":
            w = np.cos(t * self.log_eigenvalues())
            blocks[:, 0, 0] = blocks[:, 1, 1] = w
            blocks[:, 0, 1] = blocks[:, 1, 0] = 0.0
        elif kind == "flow_sin":
            w = np.sin(t * self.log_eigenvalues())
            blocks[:, 0, 0] = -c * w
            blocks[:, 0, 1] = blocks[:, 1, 0] = -s * w
            blocks[:, 1, 1] = c * w
        else:
            raise ValueError(kind)
        return blocks

    def log_eigenvalues(self) -> np.ndarray:
        """log lambda_k = 2 log((1+cos)/sin) per principal plane."""
        return 2.0 * np.log((1.0 + self.sigmas) / self.sines)

    # -- real-encoded operators (act on [Re v; Im v]) --

    @property
    def s_real(self) -> np.ndarray:
        return self._assemble(self._plane_blocks("S"))

    @property
    def delta_real(self) -> np.ndarray:
        return self._assemble(self._plane_blocks("delta"))

    @property
    def j_real(self) -> np.ndarray:
        return self._assemble(self._plane_blocks("J"))

    def flow_real(self, t: float) -> np.ndarray:
        """Real encoding of Delta^{it}."""
        re = self._assemble(self._plane_blocks("flow_cos", t))
        im = self._assemble(self._plane_blocks("flow_sin", t))
        return re + _times_i(im)

    def _apply_planes(self, kinds, t: float | None, cols: np.ndarray) -> np.ndarray:
        """frame (blocks (frame^T cols)) for each kind of plane block, side
        by side: O(m^2 k) for k columns, no 2m x 2m operator formed."""
        m = self.ambient_dim
        y = (self.frame.T @ cols.reshape(2 * m, -1)).reshape(m, 2, -1)
        parts = [np.einsum("kij,kjn->kin", self._plane_blocks(kind, t), y)
                 .reshape(2 * m, -1) for kind in kinds]
        return self.frame @ np.hstack(parts)

    def apply_flow_real(self, t: float, cols: np.ndarray) -> np.ndarray:
        """flow_real(t) @ cols without forming the operator.

        The columns are taken into frame coordinates y = frame^T cols, each
        principal plane gets cos(t log lambda) y and sin(t log lambda) G y,
        and both parts are mapped back as frame (cos part) + i frame (sin
        part)."""
        cols = np.asarray(cols, dtype=float)
        re, im = np.hsplit(self._apply_planes(("flow_cos", "flow_sin"), t, cols), 2)
        return (re + _times_i(im)).reshape(cols.shape)

    def apply_j_real(self, cols: np.ndarray) -> np.ndarray:
        """j_real @ cols without forming the operator, plane by plane as in
        apply_flow_real."""
        cols = np.asarray(cols, dtype=float)
        return self._apply_planes(("J",), None, cols).reshape(cols.shape)

    # -- complex forms --
    # For antilinear S and J, M with S v = M conj(v) encodes as
    # s_real @ diag(1, -1); its first m columns, the only ones
    # _complexify_operator reads, are those of s_real.

    @property
    def s_matrix(self) -> np.ndarray:
        """Complex matrix M with S v = M conj(v)."""
        return _complexify_operator(self.s_real)

    @property
    def delta(self) -> np.ndarray:
        return _complexify_operator(self.delta_real)

    @property
    def j_matrix(self) -> np.ndarray:
        """Unitary U with J v = U conj(v)."""
        return _complexify_operator(self.j_real)

    def flow(self, t: float) -> np.ndarray:
        """Delta^{it} as a complex unitary matrix."""
        return _complexify_operator(self.flow_real(t))

    # -- vector application --

    def _apply(self, real_map, v: np.ndarray) -> np.ndarray:
        """Complex vectors through a map of real-encoded columns."""
        v = np.asarray(v, dtype=complex)
        out = _complexify_vectors(real_map(_realify(np.atleast_2d(v).T)))
        return out.ravel() if v.ndim == 1 else out

    def apply_s(self, v: np.ndarray) -> np.ndarray:
        return self._apply(lambda cols: self._apply_planes(("S",), None, cols), v)

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.apply_j_real, v)

    def apply_flow(self, t: float, v: np.ndarray) -> np.ndarray:
        return self._apply(lambda cols: self.apply_flow_real(t, cols), v)


def tomita_operators(subspace: StandardSubspace,
                     angle_floor: float = DEFAULT_ANGLE_FLOOR,
                     clip_angle: float | None = None) -> ModularData:
    """Build the Tomita operators of a standard subspace.

    Raises StandardnessError when the subspace fails the dimension test or
    its smallest principal angle is at or below angle_floor.  When
    clip_angle is given, angles are accepted down to numerical degeneracy
    and any angle below clip_angle is clamped to it in the operator
    formulas; this biases only the corresponding nearly-degenerate planes
    and keeps every flow block exactly orthogonal (used by the lattice
    field, whose extreme modular modes are far below double precision).
    """
    m = subspace.ambient_dim
    if subspace.real_dim != m:
        raise StandardnessError("subspace is not standard", subspace.standardness(angle_floor))

    sig, bu, resid = _principal_planes(subspace.basis)
    resid_norm = np.linalg.norm(resid, axis=0)
    # Standardness from the same SVD: the residual of plane k has norm
    # sin(theta_k), accurate for small angles where the cosine rounds to 1.
    # The SVD mixes planes whose cosines round alike (angles below ~1e-7),
    # which can only raise the smallest residual norm, so the test is exact
    # for floors above that regime.  A failure reports standardness().
    if clip_angle is None and np.min(np.arctan2(resid_norm, sig)) <= angle_floor:
        raise StandardnessError("subspace is not standard", subspace.standardness(angle_floor))
    healthy = resid_norm > 1e-7
    good, deg = np.flatnonzero(healthy), np.flatnonzero(~healthy)
    # One complete QR orthonormalizes the healthy (b, perp) pairs in plane
    # order, then the b's of angle-degenerate planes; as QR works left to
    # right, rounding in the degenerate tail cannot leak into the healthy
    # planes.  The trailing columns of Q complete the frame and become the
    # degenerate partners (any orthonormal completion will do).
    n_good = 2 * good.size
    x = np.empty((2 * m, n_good + deg.size))
    x[:, 0:n_good:2] = bu[:, good]
    x[:, 1:n_good:2] = resid[:, good] / resid_norm[good]
    x[:, n_good:] = bu[:, deg]
    q, r = np.linalg.qr(x, mode="complete")
    q[:, :x.shape[1]] *= np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    frame = np.empty((2 * m, 2 * m))
    frame[:, 2 * good] = q[:, 0:n_good:2]
    frame[:, 2 * good + 1] = q[:, 1:n_good:2]
    frame[:, 2 * deg] = q[:, n_good:x.shape[1]]
    frame[:, 2 * deg + 1] = q[:, x.shape[1]:]

    sines = np.sqrt((1.0 - sig) * (1.0 + sig))
    if clip_angle is not None:
        lo = np.sin(clip_angle)
        bad = sines < lo
        sines = np.where(bad, lo, sines)
        sig = np.where(bad, np.cos(clip_angle), sig)
    return ModularData(m, frame, sig, sines)


def symplectic_complement(subspace: StandardSubspace) -> StandardSubspace:
    """K' = {v : Im<v, k> = 0 for all k in K}, the Euclidean orthogonal
    complement of iK in the real encoding."""
    m = subspace.ambient_dim
    u, s, _ = svd(_times_i(subspace.basis), full_matrices=True)
    rank = int(np.sum(s > RANK_TOL))
    comp = u[:, rank:]
    return StandardSubspace(m, _complexify_vectors(comp).T)


def symplectic_complement_angle(k1: StandardSubspace, k2: StandardSubspace) -> float:
    """Largest principal angle between K1' and K2, computed from the two
    orthonormal bases without forming K1'.

    K1' = (iK1)^perp, so the part of a unit vector of K2 outside K1' is
    its projection onto iK1: the sines of the angles between K2 and K1' are
    the singular values mu of M = B1^T (i B2), padded with zeros to dim K2.
    There are q = min(2m - dim K1, dim K2) principal angles, those with
    the q smallest sines; the largest angle is arcsin of the q-th smallest
    mu (arcsin of ||M||_2 for equal dimensions).  Raises ValueError when K1
    spans R^{2m}, so that K1' = 0 and no angle is defined."""
    d1, d2 = k1.real_dim, k2.real_dim
    q = min(2 * k1.ambient_dim - d1, d2)
    if q == 0:
        raise ValueError("the symplectic complement is the zero subspace")
    mu = np.zeros(d2)
    mu[d2 - min(d1, d2):] = svd(k1.basis.T @ _times_i(k2.basis), compute_uv=False)[::-1]
    return float(np.arcsin(min(mu[q - 1], 1.0)))


def subspace_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the spans of two orthonormal column sets,
    descending: arctan2 of the sines, the singular values of the smaller
    span's residual off the larger, against the cosines, those of a^T b
    (Bjorck-Golub 1973, Knyazev-Argentati 2002).  Each is accurate where
    the other rounds to 1, so small and right angles alike are resolved."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    sines = svd(b - a @ (a.T @ b), compute_uv=False)
    cosines = svd(a.T @ b, compute_uv=False)
    return np.arctan2(sines, cosines[::-1])


def subspace_angle(k1: StandardSubspace, k2: StandardSubspace) -> float:
    """Largest principal angle between the two real-linear subspaces."""
    angles = subspace_angles(k1.basis, k2.basis)
    return float(angles[0]) if np.size(angles) else 0.0


def random_standard_subspace(m: int, rng: np.random.Generator,
                             angle_floor: float = DEFAULT_ANGLE_FLOOR) -> StandardSubspace:
    """Random standard subspace: m generators with independent standard
    normal real and imaginary parts, resampled until comfortably standard."""
    for _ in range(256):
        gens = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        k = StandardSubspace(m, gens)
        if k.standardness(angle_floor).standard:
            return k
    raise RuntimeError("failed to draw a standard subspace")
