"""Tomita calculus on standard real subspaces of C^m.

A real-linear subspace K of C^m is standard when K and iK meet only at 0 and
span C^m over the reals; equivalently dim_R K = m and the smallest principal
angle between K and iK is positive.  The closed antilinear involution fixing
K pointwise and negating iK factors as S = J Delta^{1/2}; this module
applies S, Delta and J and the unitary flow Delta^{it}.

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

Stacks.  A StandardSubspace built from a (..., k, m) stack of generator
sets, tomita_operators of it and the ModularData it returns carry the
leading stack dimensions through every field, and apply_planes applies
each subspace's operators to its own columns.  One subspace is the
unstacked case of the same code, and each slice of a stack is computed
with the arithmetic of the one-subspace call, so the two agree bit for bit.
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
    "dense",
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
    """Diagnostics from the standardness test.  For a stack of subspaces,
    angles has the stack dimensions in front, real_dim may be an array over
    them, and min_angle, dimension_ok and standard are arrays over the
    stack."""

    ambient_dim: int
    real_dim: int
    angles: np.ndarray          # principal angles between K and iK, descending
    angle_floor: float

    @property
    def min_angle(self):
        if self.angles.shape[-1] == 0:
            return np.inf
        low = self.angles[..., -1]
        return low if low.ndim else float(low)

    @property
    def dimension_ok(self):
        return self.real_dim == self.ambient_dim

    @property
    def standard(self):
        return self.dimension_ok & (self.min_angle > self.angle_floor)


class StandardnessError(ValueError):
    def __init__(self, message: str, report: StandardnessReport):
        super().__init__(f"{message}: real dim {report.real_dim} of {report.ambient_dim}, "
                         f"min principal angle {report.min_angle:.3e} "
                         f"(floor {report.angle_floor:.1e})")
        self.report = report


def _tr(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (the last two axes)."""
    return np.swapaxes(a, -1, -2)


def _halves(cols: np.ndarray) -> tuple:
    """The Re and Im halves of real-encoded columns, (2m,) or (..., 2m, k)."""
    if cols.ndim == 1:
        m = cols.shape[0] // 2
        return cols[:m], cols[m:]
    m = cols.shape[-2] // 2
    return cols[..., :m, :], cols[..., m:, :]


def _times_i(cols: np.ndarray) -> np.ndarray:
    """Multiplication by i in the real encoding, J_STD @ cols as a block
    swap [-Im; Re].  The result is C-ordered, the layout of the matrix
    product, so later products with it round identically."""
    re, im = _halves(cols)
    out = np.empty(cols.shape)
    out_re, out_im = _halves(out)
    out_re[...] = -im
    out_im[...] = re
    return out


def _realify(vectors: np.ndarray) -> np.ndarray:
    """Complex (..., m, k) column stack -> real (..., 2m, k)."""
    v = np.atleast_2d(np.asarray(vectors, dtype=complex))
    return np.concatenate([v.real, v.imag], axis=-2)


def _complexify_vectors(cols: np.ndarray) -> np.ndarray:
    """Real-encoded columns -> complex, (2m,) -> (m,) or (..., 2m, k) ->
    (..., m, k)."""
    re, im = _halves(cols)
    return re + 1j * im


def _span(cols: np.ndarray):
    """Left singular vectors of (..., n, k) columns, and the rank of each
    column set: the singular values above RANK_TOL max(1, largest)."""
    u, s, _ = svd(cols, full_matrices=False)
    return u, np.sum(s > RANK_TOL * np.maximum(1.0, s[..., :1]), axis=-1)


def _principal_planes(b: np.ndarray):
    """(cosines ascending, K principal vectors, residuals of the iK principal
    vectors orthogonal to K, whose norms are the sines) for a basis b of K,
    or for each basis of a (..., 2m, m) stack.

    Each subspace's residuals come back F-ordered, every column contiguous,
    so that numpy sums a column's squares pairwise, as it did for one
    subspace; summed down the columns of a C-ordered stack they would
    round differently for m >= 4."""
    c = _times_i(b)
    u, sig, vt = svd(_tr(b) @ c)
    sig = np.clip(sig, 0.0, 1.0)
    # Singular values descend, so angles ascend; process planes healthiest
    # first so that rounding in nearly degenerate planes cannot leak into
    # well-separated ones.
    order = np.argsort(sig, axis=-1)
    sig = np.take_along_axis(sig, order, axis=-1)
    bu = np.take_along_axis(b @ u, order[..., None, :], axis=-1)
    resid_t = np.take_along_axis(_tr(c @ _tr(vt)), order[..., :, None], axis=-2)
    resid_t -= _tr(bu) * sig[..., :, None]
    return sig, bu, _tr(resid_t)


class StandardSubspace:
    """Real-linear span of complex generator vectors in C^m, or a stack of
    such spans of one real dimension.

    generators are the rows of a (k, m) complex array, or of each (k, m)
    matrix of a (..., k, m) stack; basis is the (2m, real_dim) orthonormal
    basis of the span in the real encoding, with the same leading stack
    dimensions.  A stack whose spans differ in dimension raises ValueError.
    """

    def __init__(self, ambient_dim: int, generators):
        gens = np.atleast_2d(np.asarray(generators, dtype=complex))
        if gens.shape[-1] != ambient_dim:
            raise ValueError("generator length must equal the ambient dimension")
        if gens.size == 0:
            raise ValueError("need at least one generator")
        if not np.isfinite(gens).all():
            raise ValueError("generator entries must be finite")
        norms = np.linalg.norm(gens, axis=-1)
        if np.any(norms == 0.0):
            raise ValueError("zero vector among generators")
        u, ranks = _span(_realify(_tr(gens)))
        rank = int(ranks.flat[0])
        if np.any(ranks != rank):
            raise ValueError("a stack's generators must span subspaces of one real dimension")
        self.ambient_dim = int(ambient_dim)
        self.generators = gens
        self.basis = u[..., :rank]

    @property
    def real_dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def stack_shape(self) -> tuple:
        """The leading stack dimensions, () for one subspace."""
        return self.basis.shape[:-2]

    def standardness(self, angle_floor: float = DEFAULT_ANGLE_FLOOR) -> StandardnessReport:
        """Test K cap iK = 0 and K + iK = C^m (the report's .standard), with
        the principal-angle spectrum between K and iK as the condition."""
        return StandardnessReport(self.ambient_dim, self.real_dim, subspace_angles(
            self.basis, _times_i(self.basis)), angle_floor)


@dataclass(frozen=True)
class ModularData:
    """Tomita operators of a standard subspace, or of each subspace of a
    stack.

    frame: orthogonal 2m x 2m matrix whose column pairs (2k, 2k+1) span the
    S-invariant principal planes; sigmas/sines hold cos/sin of the principal
    angle of each plane.  For a stack, frame is (..., 2m, 2m) and sigmas
    and sines are (..., m), with the stack dimensions of the subspace.
    These four fields are the whole record; nothing is cached.

    Each operator has one form, its application to real-encoded columns
    plane by plane, frame (blocks (frame^T cols)), in O(m^2 k) for k
    columns: apply_planes for any kinds and flow times side by side,
    apply_flow_real and apply_j_real, and apply_s, apply_j and apply_flow
    on complex vectors or (k, m) stacks of row vectors.  Columns of shape
    (..., 2m, k) broadcast against the stack: each subspace's operators
    act on its own columns, or all on the same ones.  A caller that needs
    the 2m x 2m matrix applies the operator to the identity, dense(apply,
    2m).  flow_real(t) is that matrix for Delta^{it}, kept as a name the
    benchmark tracer wraps.
    """

    ambient_dim: int
    frame: np.ndarray
    sigmas: np.ndarray
    sines: np.ndarray

    def _plane_blocks(self, entry, log_eigs: np.ndarray) -> np.ndarray:
        """The 2x2 blocks, (..., m, 2, 2), of one apply_planes entry: "S",
        "delta", "delta_sqrt" or "J", or a flow kind with its time,
        ("flow_cos", t) or ("flow_sin", t), whose blocks are read from the
        log eigenvalues log_eigs."""
        kind, t = (entry, None) if isinstance(entry, str) else entry
        if (t is None) != (kind in ("S", "delta", "delta_sqrt", "J")):
            raise ValueError(f"bad plane block {entry!r}")
        c, s = self.sigmas, self.sines
        blocks = np.empty(c.shape + (2, 2))
        if kind == "S":
            blocks[..., 0, 0] = 1.0
            blocks[..., 0, 1] = -2.0 * c / s
            blocks[..., 1, 0] = 0.0
            blocks[..., 1, 1] = -1.0
        elif kind == "delta":
            blocks[..., 0, 0] = 1.0
            blocks[..., 0, 1] = blocks[..., 1, 0] = -2.0 * c / s
            blocks[..., 1, 1] = (4.0 * c ** 2 + s ** 2) / s ** 2
        elif kind == "delta_sqrt":
            blocks[..., 0, 0] = s
            blocks[..., 0, 1] = blocks[..., 1, 0] = -c
            blocks[..., 1, 1] = (2.0 * c ** 2 + s ** 2) / s
        elif kind == "J":
            blocks[..., 0, 0] = s
            blocks[..., 0, 1] = blocks[..., 1, 0] = -c
            blocks[..., 1, 1] = -s
        elif kind == "flow_cos":
            w = np.cos(t * log_eigs)
            blocks[..., 0, 0] = blocks[..., 1, 1] = w
            blocks[..., 0, 1] = blocks[..., 1, 0] = 0.0
        elif kind == "flow_sin":
            w = np.sin(t * log_eigs)
            blocks[..., 0, 0] = -c * w
            blocks[..., 0, 1] = blocks[..., 1, 0] = -s * w
            blocks[..., 1, 1] = c * w
        else:
            raise ValueError(f"bad plane block {entry!r}")
        return blocks

    def log_eigenvalues(self) -> np.ndarray:
        """log lambda_k = 2 log((1+cos)/sin) per principal plane."""
        return 2.0 * np.log((1.0 + self.sigmas) / self.sines)

    # -- real-encoded operators (act on [Re v; Im v]) --

    def apply_planes(self, kinds, cols: np.ndarray) -> np.ndarray:
        """frame (blocks (frame^T cols)) for each entry of kinds, side by
        side: O(m^2 k) for k columns, no 2m x 2m operator formed.  An entry
        is a block kind, "S", "delta", "delta_sqrt" or "J", or a flow kind
        with its own time, ("flow_cos", t) or ("flow_sin", t), so one call
        serves any mix of operators and times with one product by frame^T
        and one by frame.  cols is one column (2m,) or (..., 2m, k); the
        result is (..., 2m, k len(kinds)), a column counting as k = 1."""
        m = self.ambient_dim
        cols = cols.reshape(2 * m, 1) if cols.ndim == 1 else cols
        y = _tr(self.frame) @ cols
        lead, k = y.shape[:-2], y.shape[-1]
        y = y.reshape(lead + (m, 2, k))
        log_eigs = self.log_eigenvalues()
        # each entry's blocks write straight into its k columns of the
        # product's right factor (viewed as (..., m, 2, k len(kinds)))
        z = np.empty(lead + (2 * m, k * len(kinds)))
        z_planes = z.reshape(lead + (m, 2, k * len(kinds)))
        for i, entry in enumerate(kinds):
            np.einsum("...kij,...kjn->...kin", self._plane_blocks(entry, log_eigs), y,
                      out=z_planes[..., i * k:(i + 1) * k])
        return self.frame @ z

    def apply_flow_real(self, t: float, cols: np.ndarray) -> np.ndarray:
        """Delta^{it} of real-encoded columns.

        The columns are taken into frame coordinates y = frame^T cols, each
        principal plane gets cos(t log lambda) y and sin(t log lambda) G y,
        and both parts are mapped back as frame (cos part) + i frame (sin
        part)."""
        cols = np.asarray(cols, dtype=float)
        (u,) = _flow_images(_split(self.apply_planes(_flow_entries((t,)), cols), 2))
        return u[..., 0] if cols.ndim == 1 else u

    def apply_j_real(self, cols: np.ndarray) -> np.ndarray:
        """J of real-encoded columns, plane by plane as in apply_flow_real."""
        cols = np.asarray(cols, dtype=float)
        out = self.apply_planes(("J",), cols)
        return out[..., 0] if cols.ndim == 1 else out

    def flow_real(self, t: float) -> np.ndarray:
        """Real encoding of Delta^{it} as a 2m x 2m matrix."""
        return dense(lambda cols: self.apply_flow_real(t, cols), 2 * self.ambient_dim)

    # -- complex vectors --

    def _apply(self, real_map, v: np.ndarray) -> np.ndarray:
        """Complex vectors through a map of real-encoded columns: a vector,
        or a (..., k, m) stack of row vectors, comes back in the same shape
        (with the subspace's stack dimensions in front)."""
        v = np.asarray(v, dtype=complex)
        out = _tr(_complexify_vectors(real_map(_realify(_tr(np.atleast_2d(v))))))
        return out[..., 0, :] if v.ndim == 1 else out

    def apply_s(self, v: np.ndarray) -> np.ndarray:
        return self._apply(lambda cols: self.apply_planes(("S",), cols), v)

    def apply_j(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.apply_j_real, v)

    def apply_flow(self, t: float, v: np.ndarray) -> np.ndarray:
        return self._apply(lambda cols: self.apply_flow_real(t, cols), v)


def _split(a: np.ndarray, n: int) -> list:
    """n equal blocks of the columns of a (..., rows, n k) array."""
    k = a.shape[-1] // n
    return [a[..., i * k:(i + 1) * k] for i in range(n)]


def _flow_entries(times) -> list:
    """apply_planes entries for Delta^{it} at each time: its cos and sin
    parts, in pairs."""
    return [(kind, t) for t in times for kind in ("flow_cos", "flow_sin")]


def _flow_images(parts) -> list:
    """Delta^{it} images from the part pairs of _flow_entries: the cos part
    plus i times the sin part."""
    return [re + _times_i(im) for re, im in zip(parts[::2], parts[1::2])]


def dense(apply, n: int) -> np.ndarray:
    """The n x n matrix of a linear map given by its application to
    columns: the map applied to the identity."""
    return apply(np.eye(n))


def _not_standard(subspace: StandardSubspace, angle_floor: float, failing) -> None:
    """Raise StandardnessError with the standardness report of the first
    failing subspace (failing: a mask over the stack dimensions)."""
    report = subspace.standardness(angle_floor)
    if not subspace.stack_shape:
        raise StandardnessError("subspace is not standard", report)
    i = tuple(int(k) for k in np.unravel_index(np.argmax(failing), failing.shape))
    raise StandardnessError(f"subspace {i} of the stack is not standard", StandardnessReport(
        report.ambient_dim, report.real_dim, report.angles[i], angle_floor))


def tomita_operators(subspace: StandardSubspace,
                     angle_floor: float = DEFAULT_ANGLE_FLOOR,
                     clip_angle: float | None = None) -> ModularData:
    """Build the Tomita operators of a standard subspace, or of each
    subspace of a stack (a ModularData with the same stack dimensions; each
    subspace is factored with the arithmetic of its one-subspace call).

    Raises StandardnessError when a subspace fails the dimension test or
    its smallest principal angle is at or below angle_floor; for a stack
    the error reports the first failing subspace.  When clip_angle is
    given, angles are accepted down to numerical degeneracy and any angle
    below clip_angle is clamped to it in the operator formulas; this biases
    only the corresponding nearly-degenerate planes and keeps every flow
    block exactly orthogonal (used by the lattice field, whose extreme
    modular modes are far below double precision).
    """
    m = subspace.ambient_dim
    shape = subspace.stack_shape
    if subspace.real_dim != m:
        _not_standard(subspace, angle_floor, np.ones(shape, bool))

    # The body works on a flat (n, ...) stack, one subspace being n = 1.
    sig, bu, resid = _principal_planes(subspace.basis.reshape(-1, 2 * m, m))
    resid_norm = np.linalg.norm(resid, axis=-2)
    # Standardness from the same SVD: the residual of plane k has norm
    # sin(theta_k), accurate for small angles where the cosine rounds to 1.
    # The SVD mixes planes whose cosines round alike (angles below ~1e-7),
    # which can only raise the smallest residual norm, so the test is exact
    # for floors above that regime.  A failure reports standardness().
    if clip_angle is None:
        low = np.min(np.arctan2(resid_norm, sig), axis=-1) <= angle_floor
        if np.any(low):
            _not_standard(subspace, angle_floor, low.reshape(shape))
    # One complete QR per subspace orthonormalizes the healthy (b, perp)
    # pairs in plane order, then the b's of angle-degenerate planes; as QR
    # works left to right, rounding in the degenerate tail cannot leak into
    # the healthy planes.  The trailing columns of Q complete the frame and
    # become the degenerate partners (any orthonormal completion will do).
    # Subspaces with g healthy planes share a QR width, m + g, and one
    # stacked QR; the frame is allocated once the QRs are done and their
    # inputs freed.
    healthy = resid_norm > 1e-7
    order = np.argsort(~healthy, axis=-1, kind="stable")
    n_healthy = np.sum(healthy, axis=-1)
    groups = []
    # (a set, not np.unique, which imports numpy.ma, a megabyte of RSS)
    for g in sorted(set(n_healthy.tolist())):
        rows = np.flatnonzero(n_healthy == g)[:, None]
        good, deg = order[rows[:, 0], :g], order[rows[:, 0], g:]
        # bu[rows, :, good] is (subspaces, planes, 2m): the chosen columns
        x = np.empty((rows.size, 2 * m, m + g))
        x[..., 0:2 * g:2] = _tr(bu[rows, :, good])
        x[..., 1:2 * g:2] = _tr(resid[rows, :, good] / resid_norm[rows, good][..., None])
        x[..., 2 * g:] = _tr(bu[rows, :, deg])
        q, r = np.linalg.qr(x, mode="complete")
        q[..., :m + g] *= np.where(np.diagonal(r, axis1=-2, axis2=-1) >= 0.0, 1.0, -1.0)[:, None, :]
        groups.append((rows, good, deg, q))
        del x, r
    frame = np.empty(sig.shape[:-1] + (2 * m, 2 * m))
    for rows, good, deg, q in groups:
        g = good.shape[-1]
        frame[rows, :, 2 * good] = _tr(q[..., 0:2 * g:2])
        frame[rows, :, 2 * good + 1] = _tr(q[..., 1:2 * g:2])
        frame[rows, :, 2 * deg] = _tr(q[..., 2 * g:m + g])
        frame[rows, :, 2 * deg + 1] = _tr(q[..., m + g:])

    sines = np.sqrt((1.0 - sig) * (1.0 + sig))
    if clip_angle is not None:
        lo = np.sin(clip_angle)
        bad = sines < lo
        sines = np.where(bad, lo, sines)
        sig = np.where(bad, np.cos(clip_angle), sig)
    return ModularData(m, frame.reshape(shape + (2 * m, 2 * m)),
                       sig.reshape(shape + (m,)), sines.reshape(shape + (m,)))


def symplectic_complement(subspace: StandardSubspace) -> StandardSubspace:
    """K' = {v : Im<v, k> = 0 for all k in K}, the Euclidean orthogonal
    complement of iK in the real encoding."""
    m = subspace.ambient_dim
    u, s, _ = svd(_times_i(subspace.basis), full_matrices=True)
    rank = int(np.sum(s > RANK_TOL))
    comp = u[:, rank:]
    return StandardSubspace(m, _complexify_vectors(comp).T)


def symplectic_complement_angle(b1: np.ndarray, b2: np.ndarray) -> float:
    """Largest principal angle between K1' and K2, computed from
    orthonormal bases b1 of K1 and b2 of K2 (real-encoded columns, any
    bases of the spans) without forming K1'.

    K1' = (iK1)^perp, so the part of a unit vector of K2 outside K1' is
    its projection onto iK1: the sines of the angles between K2 and K1' are
    the singular values mu of M = b1^T (i b2), padded with zeros to dim K2.
    There are q = min(2m - dim K1, dim K2) principal angles, those with
    the q smallest sines; the largest angle is arcsin of the q-th smallest
    mu (arcsin of ||M||_2 for equal dimensions).  Raises ValueError when K1
    spans R^{2m}, so that K1' = 0 and no angle is defined.  Stacks of bases,
    (..., 2m, dim), give an array of angles over the stack."""
    d1, d2 = b1.shape[-1], b2.shape[-1]
    q = min(b1.shape[-2] - d1, d2)
    if q == 0:
        raise ValueError("the symplectic complement is the zero subspace")
    mu = np.zeros(np.broadcast_shapes(b1.shape[:-2], b2.shape[:-2]) + (d2,))
    mu[..., d2 - min(d1, d2):] = svd(_tr(b1) @ _times_i(b2), compute_uv=False)[..., ::-1]
    angle = np.arcsin(np.minimum(mu[..., q - 1], 1.0))
    return angle if np.ndim(angle) else float(angle)


def subspace_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles between the spans of two orthonormal column sets,
    descending: arctan2 of the sines, the singular values of the smaller
    span's residual off the larger, against the cosines, those of a^T b
    (Bjorck-Golub 1973, Knyazev-Argentati 2002).  Each is accurate where
    the other rounds to 1, so small and right angles alike are resolved.
    Stacks of column sets give the angles of each pair."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    sines = svd(b - a @ (_tr(a) @ b), compute_uv=False)
    cosines = svd(_tr(a) @ b, compute_uv=False)
    return np.arctan2(sines, cosines[..., ::-1])


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
        if _standard_draws(m, gens, angle_floor):
            return StandardSubspace(m, gens)
    raise RuntimeError("failed to draw a standard subspace")


def _standard_draws(m: int, gens: np.ndarray, angle_floor: float):
    """The acceptance test of random_standard_subspace on a (..., m, m)
    stack of generator sets: whether each spans a standard subspace, as
    StandardSubspace(m, gens).standardness(angle_floor).standard, with the
    rank of each set taken on its own."""
    u, ranks = _span(_realify(_tr(gens)))
    return StandardnessReport(m, ranks, subspace_angles(u, _times_i(u)),
                              angle_floor).standard
