"""Discretized chiral field on the circle and its modular geometry.

The one-particle space keeps the Fourier modes e^{i n theta} with
1 <= |n| < L/2 on L equispaced sites; the zero mode is null for the energy
form and the Nyquist mode has no chirality sign, so both are projected out.
The complex structure is the discrete Hilbert transform (multiplier
-i sign n), the energy form weights mode n by |n|, and the complex
coordinates

    z_k(u) = sqrt(2k) * (coefficient of e^{-ik theta} in u),  k = 1..L/2-1

identify the retained space isometrically with C^m, m = L/2 - 1.  Interval
subspaces are real spans of site indicators; the Tomita machinery yields
modular flows that are compared against the Moebius flow of the interval.

Numerical scope.  The modular spectrum of a lattice interval subspace is
exponentially squeezed: the reduced vacuum is nearly pure on the interval
interior, so interior content sits in planes whose principal angles fall
far below double precision (verified against 60-digit arithmetic).  Flow
and reflection comparisons are therefore made on the component of a test
family inside the numerically resolvable modular window; see bw_defect and
pct_geometry_defect.  The subspace-level duality angle is reported raw - its
worst principal angle is dominated by boundary site pairs and does not
converge on sharp lattices (measured across several discretizations; see
the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modular as md

__all__ = [
    "LatticeModel",
    "CircleInterval",
    "BWReport",
    "build_model",
    "interval_subspace",
    "interval_tomita",
    "mobius_point_flow",
    "mobius_flow_unitary",
    "bw_defect",
    "duality_defect",
    "pct_geometry_defect",
    "symplectic_locality",
    "energy_trace",
    "half_circle",
    "bump_vector",
    "default_test_family",
    "reflect_interval",
    "circle_reflection",
    "LATTICE_CLIP_ANGLE",
    "RESOLVABLE_WINDOW",
]

# Lattice interval subspaces have principal angles far below double
# precision, so their Tomita operators are built with angles clamped here,
# at the sine below which a plane is degenerate (modular._DEGENERATE_SINE);
# only those planes are biased.  The value was set for cosines, which lose
# an angle theta to eps / theta^2 relative; interval_tomita reads sines,
# which lose it to eps / theta (2.2e-9 here).
LATTICE_CLIP_ANGLE = md._DEGENERATE_SINE

# Modular planes with angles above this threshold carry eigenvalues
# |log lambda| <~ 15 whose flow phases are accurate; the window used for
# flow comparisons.
RESOLVABLE_WINDOW = 1e-3


@dataclass(frozen=True)
class LatticeModel:
    """Circle lattice with complex structure and energy form: L, the site
    angles, the mode count m and the coordinates of site functions.  It
    stores nothing of size L^2.

    The encoding of site functions, [Re z; Im z] with z = coords(u), is
    never stored.  The coordinates of site indicators, from which every
    interval's parity bases (_parity_bases) and so its Tomita record
    (interval_tomita) are built, come per site from _site_coords, and their
    real encodings from _encoded_sites: each phase is read from one table
    of the 2L-th roots of unity (_roots_of_unity), built per call, at its
    index reduced exactly mod 2L.  So its error is about one ulp at every
    L, and the table's exact symmetries make an arc turned by whole sites
    and a complement of the arc's size give the same bits up to sign.
    Products with site functions (coords, and the encodings in
    _encoded_family and _pull_back) go through np.fft.rfft and are exact
    to FFT rounding."""

    L: int
    thetas: np.ndarray

    @property
    def m(self) -> int:
        return self.L // 2 - 1

    def coords(self, u: np.ndarray) -> np.ndarray:
        """Complex coordinates of real site functions along axis 0:
        z_k = sqrt(2k) c_{-k} = (sqrt(2k) / L) conj(rfft(u)_k), k = 1..m."""
        u = np.asarray(u, dtype=float)
        k = np.arange(1, self.m + 1).reshape((-1,) + (1,) * (u.ndim - 1))
        return np.sqrt(2.0 * k) / self.L * np.fft.rfft(u, axis=0)[1:self.m + 1].conj()


def _roots_of_unity(L: int) -> np.ndarray:
    """The 2L-th roots of unity t[x] = e^{i pi x / L}, x = 0..2L-1, exact
    under the circle's symmetries.

    The first octant, x < L/4, is the cosine and sine of pi x / L, and
    e^{i pi / 4} is sqrt(1/2) (1 + i); the second octant is its conjugate
    swap, t[L/2 - x] = i conj(t[x]), and the other three quadrants are the
    first times i, -1 and -i.  Each is a swap or a negation of parts, so
    t[x + L/2] == 1j * t[x] and t[x + L] == -t[x] hold bit for bit, and
    every entry is a cosine and sine of an argument below pi / 4, within
    about one ulp of the exact root."""
    q, h = L // 4, L // 2
    x = np.pi * np.arange(q) / L
    t = np.empty(2 * L, dtype=complex)
    t.real[:q], t.imag[:q] = np.cos(x), np.sin(x)
    t[q] = np.sqrt(0.5) * (1.0 + 1.0j)
    t.real[q + 1:h], t.imag[q + 1:h] = t.imag[q - 1:0:-1], t.real[q - 1:0:-1]
    t.real[h:L], t.imag[h:L] = -t.imag[:h], t.real[:h]
    t[L:] = -t[:L]
    return t


def _site_coords(model: LatticeModel, sites: np.ndarray, c: int = 0) -> np.ndarray:
    """Coordinates of the indicators of the given sites, m x len(sites):
    z of each site for c = 0, and w = e^{-i pi k c / L} z, the coordinates
    of a mirror reflection j -> c - j (_parity_blocks), otherwise.

    z_k = sqrt(2k) c_{-k},  c_{-k}(u) = (1/L) sum_j u_j e^{+2 pi i k j / L};
    the negative-mode coefficients are the complex-linear ones for the
    -i sign(n) complex structure.  So w_k(j) = sqrt(2k) / L times the
    2L-th root of unity at index k (2j - c) mod 2L (_roots_of_unity): the
    phase is reduced exactly, and sites whose indices agree get the same
    bits."""
    L = model.L
    k = np.arange(1, model.m + 1)
    index = np.multiply.outer(k, 2 * np.asarray(sites) - c)
    index %= 2 * L
    z = _roots_of_unity(L)[index]
    z *= np.sqrt(2.0 * k)[:, None]
    z /= L
    return z


def _encoded_sites(model: LatticeModel, sites: np.ndarray) -> np.ndarray:
    """Real encodings [Re z; Im z] of the indicators of the given sites
    (_site_coords), 2m x len(sites)."""
    z = _site_coords(model, sites)
    return np.vstack([z.real, z.imag])


def _encode(model: LatticeModel, fields: np.ndarray) -> np.ndarray:
    """The real encodings [Re z; Im z] of site functions along axis 0, by
    the FFT (LatticeModel.coords)."""
    z = model.coords(fields)
    return np.concatenate([z.real, z.imag])


def build_model(L: int) -> LatticeModel:
    """Build the lattice model; L must be a power of two, at least 16."""
    if L < 16 or (L & (L - 1)) != 0:
        raise ValueError("L must be a power of two with L >= 16")
    return LatticeModel(L, 2.0 * np.pi * np.arange(L) / L)


@dataclass(frozen=True)
class CircleInterval:
    """Open arc from angle a to angle b, counterclockwise."""

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.arc_length < 2.0 * np.pi:
            raise ValueError("arc length must lie strictly between 0 and 2 pi")

    @property
    def arc_length(self) -> float:
        return (self.b - self.a) % (2.0 * np.pi)

    def complement(self) -> "CircleInterval":
        return CircleInterval(self.b, self.a)

    def sites(self, model: LatticeModel) -> np.ndarray:
        """The sites strictly inside the arc, more than 1e-12 from either
        endpoint, in arc order: (theta_j - a) mod 2 pi ascending, by a
        stable sort, so that an arc across theta = 0 lists its sites from a
        to b and pairs its ends (_parity_blocks)."""
        rel = (model.thetas - self.a) % (2.0 * np.pi)
        inside = np.nonzero((rel > 1e-12) & (rel < self.arc_length - 1e-12))[0]
        return inside[np.argsort(rel[inside], kind="stable")]


def half_circle() -> CircleInterval:
    """Upper half circle.  Its endpoints sit on lattice sites, which strict
    membership excludes, so the interval and its complement each carry
    exactly m = L/2 - 1 sites and both site spans can be standard."""
    return CircleInterval(0.0, np.pi)


def _arc_sites(model: LatticeModel, interval: CircleInterval) -> np.ndarray:
    """The sites inside the interval in arc order (CircleInterval.sites);
    raises when the interval or its complement holds no site."""
    sites = interval.sites(model)
    if sites.size == 0:
        raise ValueError("interval contains no lattice sites")
    if sites.size == model.L:
        raise ValueError("interval complement contains no lattice sites")
    return sites


def interval_subspace(model: LatticeModel, interval: CircleInterval) -> md.StandardSubspace:
    """Real span of the retained-mode site indicators inside the interval."""
    # No lattice check reads this span's thin-SVD basis: interval_tomita and
    # the parity pairing work on the parity bases (_parity_bases).  It gives
    # the standardness report of an arc that interval_tomita rejects, and the
    # tests' references.
    return md.StandardSubspace(model.m, _site_coords(model, _arc_sites(model, interval)).T)


def _mirror_phases(model: LatticeModel, c: int) -> np.ndarray:
    """e^{-i pi k c / L}, k = 1..m: the roots of unity (_roots_of_unity) at
    index -k c mod 2L, so c = L/2 gives the phases (-i)^k exactly."""
    return _roots_of_unity(model.L)[-np.arange(1, model.m + 1) * c % (2 * model.L)]


def _parity_blocks(model: LatticeModel, interval: CircleInterval) -> tuple:
    """(c, Re block, Im block): the arc's mirror reflection and the two
    parity blocks of K(interval) under it, which span K+ and K-.

    With the sites in arc order (_arc_sites), the reflection j -> c - j,
    c = (first + last) mod L, maps the arc onto itself; on C^m it is
    z_k -> e^{2 pi i k c / L} conj(z_k).  In the coordinates
    w_k = e^{-i pi k c / L} z_k (_mirror_phases; a unitary change that
    commutes with i, so it keeps every angle and pairing) it is plain
    conjugation and sends the site w_j to w_{c-j} = conj(w_j).  So K(I)
    splits into K+, spanned in the Re rows by Re w of the first ceil(n/2)
    sites, and K-, spanned in the Im rows by Im w of the first floor(n/2):
    two m-row blocks, views of one complex array, each entry one root of
    unity at index k (2j - c) mod 2L (_site_coords).  An arc turned by r
    whole sites has the reflection c' = c + 2r - eps L, eps in {0, 1, 2},
    and the same indices up to k eps L: its blocks are bit for bit
    (-1)^{k eps} times these.  An arc with
    n <= 2m = L - 2 sites has n independent site columns: the retained
    projection kills only the constant and (-1)^j, and a combination
    a + b (-1)^j that vanishes on the arc vanishes on its complement too,
    whose >= 2 contiguous sites hold both parities, so a = b = 0.  So each
    block has full column rank, and its QR needs no rank decision.  For
    n = L - 1 the Re block is m x (m + 1), it spans R^m, and the
    symplectic complement of K(interval) is zero."""
    sites = _arc_sites(model, interval)
    n = sites.size
    c = int(sites[0] + sites[-1]) % model.L
    w = _site_coords(model, sites[:(n + 1) // 2], c)
    return c, w.real, w.imag[:, :n // 2]


def _parity_bases(model: LatticeModel, interval: CircleInterval) -> tuple:
    """(c, basis of K+, basis of K-): the arc's mirror reflection and
    orthonormal bases of its two parity blocks (_parity_blocks), each from
    a reduced QR."""
    c, re, im = _parity_blocks(model, interval)
    return c, np.linalg.qr(re)[0], np.linalg.qr(im)[0]


def _pairing_maps(model: LatticeModel, interval: CircleInterval,
                  other: CircleInterval) -> tuple:
    """(M, M^T, (d1, d2)): the pairing M = B_in^T (i B_out), up to the sign
    of its first block row, as maps of column blocks, and its shape, for
    the parity bases (_parity_bases) of interval, B_in, and of other,
    B_out: blocks P, N and P', N', m rows each, half the rows and about
    half the columns of the site columns.  Its singular values are the
    cosines of the principal angles between K(interval) and iK(other),
    whichever orthonormal bases span the two (Bjorck-Golub 1973): the
    change to w-coordinates is unitary and commutes with i.

    Other's blocks are moved to interval's coordinates by the relative
    phases u = C + iS, u_k = e^{-i pi k (c_in - c_out) / L}, where B_out
    reads [[C P', -S N'], [S P', C N']], so
    M = [[P^T S P', P^T C N'], [N^T C P', -N^T S N']], and M^T has the same
    form with the two arcs' blocks swapped.  Each map costs four products
    with the blocks.

    When other holds as many sites as interval, it is interval turned by
    some r whole sites, and its parity blocks are bit for bit
    (-1)^{k eps} times interval's (_parity_blocks).  So are its bases:
    other is not factored, B_out is B_in, and the sign joins the relative
    phases, which become e^{-i pi k (c_in - c_out - eps L) / L} =
    e^{2 pi i k r / L}.  An arc and its complement share their reflection
    unless exactly one endpoint sits on a site.  Then u is real, (-1)^k
    when the complement has the arc's size (r = L/2) and 1 otherwise:
    multiplication by i swaps the blocks, and the diagonal blocks of the
    pairing are zero."""
    sites, sites_out = _arc_sites(model, interval), _arc_sites(model, other)
    c, plus, minus = _parity_bases(model, interval)
    if sites_out.size == sites.size:
        plus_out, minus_out = plus, minus
        u = _mirror_phases(model, -2 * int(sites_out[0] - sites[0]))[:, None]
    else:
        c_out, plus_out, minus_out = _parity_bases(model, other)
        u = _mirror_phases(model, c - c_out)[:, None]

    def pair(rows, cols, x):
        a, b = cols[0] @ x[:cols[0].shape[1]], cols[1] @ x[cols[0].shape[1]:]
        return np.concatenate([rows[0].T @ (u.imag * a + u.real * b),
                               rows[1].T @ (u.real * a - u.imag * b)])

    ins, outs = (plus, minus), (plus_out, minus_out)
    return (lambda x: pair(ins, outs, x), lambda y: pair(outs, ins, y),
            (plus.shape[1] + minus.shape[1], plus_out.shape[1] + minus_out.shape[1]))


def _parity_pairing(model: LatticeModel, interval: CircleInterval,
                    other: CircleInterval) -> np.ndarray:
    """The pairing of _pairing_maps as a dense d1 x d2 matrix, for
    symplectic_locality and the tests' references."""
    apply, _, (_, d2) = _pairing_maps(model, interval, other)
    return md.dense(apply, d2)


def _top_singular_values(apply, apply_t, shape: tuple, r: int) -> np.ndarray:
    """The r largest singular values, descending, of a d1 x d2 matrix M
    given as the maps M and M^T of column blocks; fewer when the Krylov
    space is exhausted first, the missing ones being zero (as
    modular._complement_angle reads them).

    One block Krylov solve: block Golub-Kahan-Lanczos (Golub-Kahan 1965),
    run as block Lanczos on the Gram matrix of the smaller side, M^T M for
    d2 <= d1, with blocks of r + 5 columns, which on the lattice's
    pairings converge after three or four blocks.
    - The start block is the closed form cos(i j), i = 0..d2-1,
      j = 1..r+5: dense and aperiodic columns, which meet the top singular
      vectors of every pairing tested, and no random numbers drawn.  A
      start of unit vectors misses them on some lattice pairings, and the
      solve then converges to smaller values.
    - Each next block, M^T M times the last, is projected off the basis,
      orthonormalized by its SVD with the directions below 1e-12 of its
      norm deflated, projected off the basis once more and orthonormalized
      again (full reorthogonalization: a direction that cancelled in the
      first projection comes back unit length with the rounding of the
      cancellation, which the second removes).
    - The Ritz values are the singular values of M Q for the basis Q, and
      a Ritz triple (s, x = Q w, y = M x / s) has the residual
      |M^T y - s x| = |M^T M x - s^2 x| / s, read from the kept product
      M^T M Q; it bounds the distance from s to a singular value of M.  The
      solve stops when that is at most 1e-12 for each of the top r, from
      the second block on, or when a whole block deflates: the basis then
      spans an invariant subspace, whose Ritz values are singular values.
    Where the wanted values are separated from the rest, as on the
    lattice, the Ritz values' error is about the square of the residual,
    and the solve agrees with a full SVD to rounding."""
    tol = 1e-12
    d1, d2 = shape
    if d1 < d2:
        apply, apply_t, d1, d2 = apply_t, apply, d2, d1
    basis, images, grams = np.empty((d2, 0)), np.empty((d1, 0)), np.empty((d2, 0))
    block = np.cos(np.outer(np.arange(d2), np.arange(1, min(r + 5, d2) + 1)))
    while True:
        scale = np.linalg.norm(block)
        u, s, _ = np.linalg.svd(block - basis @ (basis.T @ block), full_matrices=False)
        v = u[:, s > tol * scale]
        if not v.shape[1]:
            return np.linalg.svd(images, compute_uv=False)[:r]
        v = np.linalg.svd(v - basis @ (basis.T @ v), full_matrices=False)[0]
        w = apply(v)
        block = apply_t(w)
        basis, images, grams = (np.hstack([basis, v]), np.hstack([images, w]),
                                np.hstack([grams, block]))
        if basis.shape[1] == v.shape[1]:   # the start block alone
            continue
        _, sig, wt = np.linalg.svd(images, full_matrices=False)
        x = wt[:r].T
        resid = np.linalg.norm(grams @ x - (basis @ x) * sig[:r] ** 2, axis=0)
        if np.all(resid <= tol * sig[:r]):
            return sig[:r]


@dataclass(frozen=True)
class _ArcRecord(md._PlaneOperators):
    """Tomita operators of an arc with m sites (interval_tomita), whose
    frame is kept as one orthogonal m x m factor.

    In the arc's w-coordinates, w = phases z (_mirror_phases), the frame's
    Re-row columns are the factor A, with columns b0, b_1, u_1, b_2, u_2,
    ..., and its Im-row columns are A R, R = 1 for b0 and the symmetric
    block [[c, s], [s, -c]] for each later (b, u) pair.  The planes are
    those of the frame: (b0, i b0), which couples the two halves, then for
    each pair the Re-row plane (b, u) and its Im-row image, of equal
    angle, whose cos and sin c and s are the sigmas and sines.  So columns
    reach plane coordinates by the phases, one product of A^T with
    [Re w, Im w] and R on the Im half, and come back the same way: half the
    flops of two products with a dense 2m x 2m frame."""

    ambient_dim: int
    factor: np.ndarray
    phases: np.ndarray
    sigmas: np.ndarray
    sines: np.ndarray

    def _turn(self, pairs: np.ndarray) -> np.ndarray:
        """R on the coordinate pairs (n, 2, k) of the first n Im-row planes."""
        c = self.sigmas[2:2 * len(pairs) + 1:2, None]
        s = self.sines[2:2 * len(pairs) + 1:2, None]
        x, y = pairs[:, 0], pairs[:, 1]
        return np.stack([c * x + s * y, s * x - c * y], axis=1)

    def _to_planes(self, cols: np.ndarray) -> np.ndarray:
        m, k = self.ambient_dim, cols.shape[-1]
        w = self.phases[:, None] * (cols[:m] + 1j * cols[m:])
        y = self.factor.T @ np.concatenate([w.real, w.imag], axis=1)
        planes = np.empty((m, 2, k))
        planes[0] = y[0].reshape(2, k)
        planes[1::2] = y[1:, :k].reshape(-1, 2, k)
        planes[2::2] = self._turn(y[1:, k:].reshape(-1, 2, k))
        return planes

    def _from_planes(self, z: np.ndarray) -> np.ndarray:
        """Columns from the coordinates (n, 2, k) of the first n planes, n
        odd (every pair of planes whole), which read only the first n
        columns of A."""
        n, k = z.shape[0], z.shape[-1]
        y = np.empty((n, 2 * k))
        y[0] = z[0].reshape(2 * k)
        y[1:, :k] = z[1::2].reshape(-1, k)
        y[1:, k:] = self._turn(z[2::2]).reshape(-1, k)
        w = self.factor[:, :n] @ y
        w = self.phases.conj()[:, None] * (w[:, :k] + 1j * w[:, k:])
        return np.concatenate([w.real, w.imag])


def _involution_bound(dat: _ArcRecord) -> float:
    """Upper bound on ||J^2 - 1||_2, hence on max |J J - 1|, read off the
    lattice record of interval_tomita without forming J or its frame.

    J = F B F^T with B the plane blocks B_k = [[s, -c], [-c, -s]], so
    B_k^2 = (s^2 + c^2) I, and F = P^T G the frame: G = blockdiag(A, A R)
    up to the order of its columns, with A the factor and R the blocks
    [[c, s], [s, -c]] (R_k^2 = (s^2 + c^2) I too), and P the mirror phases
    as a real 2m x 2m map, P P^T = diag(|phase_k|^2).  With
    a = ||A^T A - 1||_F, b = max_k |s_k^2 + c_k^2 - 1| and
    p = max_k ||phase_k|^2 - 1|:
    - G^T G - 1 = blockdiag(A^T A - 1, R (A^T A - 1) R + R^2 - 1) has norm
      at most g = (1 + b) a + b;
    - F^T F - 1 = G^T (P P^T - 1) G + G^T G - 1 has norm at most
      e = g + (1 + g) p;
    - J^2 - 1 = (F F^T - 1) + F (B^2 - 1) F^T + F B (F^T F - 1) B F^T,
      so ||J^2 - 1||_2 <= e + (1 + e)(b + (1 + b) e)."""
    gram = dat.factor.T @ dat.factor
    gram[np.diag_indices_from(gram)] -= 1.0
    a = float(np.linalg.norm(gram))
    b = float(np.max(np.abs(dat.sines ** 2 + dat.sigmas ** 2 - 1.0)))
    p = float(np.max(np.abs(np.abs(dat.phases) ** 2 - 1.0)))
    g = (1.0 + b) * a + b
    e = g + (1.0 + g) * p
    return e + (1.0 + e) * (b + (1.0 + b) * e)


def interval_tomita(model: LatticeModel, interval: CircleInterval) -> _ArcRecord:
    """Tomita operators of an interval subspace under the lattice clip
    policy: angles are accepted down to numerical zero and clamped at
    LATTICE_CLIP_ANGLE in the operator formulas.  Raises StandardnessError,
    with the report of interval_subspace, unless dim K(interval) = m, that
    is, unless the arc holds m sites.

    The planes are read off the two parity blocks (_parity_blocks), which
    span K+ in the Re rows and K- in the Im rows of w-coordinates.  i maps
    the Re rows onto the Im rows, so the Re rows hold K+ against iK- and
    the Im rows K- against iK+: both times the pair range P, range N for
    orthonormal bases P of K+ and N of K-.
    - Re rows.  One complete QR of the Re block gives [P | P_perp], m x m;
      m is odd, P has p = (m + 1) / 2 columns and P_perp q = p - 1.  One
      reduced QR of [P | P_perp]^T (Im block) gives N's coordinates
      [x; y], N = P x + P_perp y, with no N formed.  The sines are the
      singular values of y, q x q, as P_perp y is the part of N off P; for
      y = U S V^T each right vector v gives the partner u = P_perp U_v,
      the K vector b = P x v / |x v| and the angle arctan2(sine, |x v|)
      (Bjorck-Golub 1973, Knyazev-Argentati 2002).  The partners of the
      degenerate planes (sine at or below modular._DEGENERATE_SINE) are
      the rest of P_perp U, so every plane is whole without a completion.
    - The right angle.  The columns x V / |x v| span q dimensions of R^p;
      the one left, y0, gives b0 = P y0, orthogonal to iK-: the plane
      (b0, i b0) has cosine 0 and sine 1.  The complete p x p QR of
      x V / |x v| orthonormalizes the b's and gives y0 as its last column.
    - Im rows.  With the clamped angle's cosine c and sine s, the plane
      (b, u) reappears as (c b + s u, s b - c u): its K- vector is N v up
      to the clamp, and its iK vector is i b.  No second factorization.
    The record (_ArcRecord) keeps the orthogonal factor with columns
    b0, b_1, u_1, b_2, u_2, ..., the clamped angles' cosines and sines,
    and the mirror phases that take the frame back to z-coordinates; on
    the half circle those are powers of i, an exact signed permutation.
    Every factorization has m rows or fewer, and nothing 2m x 2m is
    formed: the record is one m x m matrix.  Its planes come in descending
    angle, so those of the resolvable window lead.  Since the clamped
    angles enter both blocks, the record is the exact Tomita data of the
    span of its K vectors: i times a K vector lies in the span of the iK
    vectors.  That span leaves K(interval) only in the clipped planes' Im
    rows, by angles below twice the clip angle."""
    c, re, im = _parity_blocks(model, interval)
    m, p, q = model.m, re.shape[1], im.shape[1]
    if p + q != m:
        raise md.StandardnessError("subspace is not standard",
                                   interval_subspace(model, interval).standardness())
    full = np.linalg.qr(re, mode="complete")[0]
    coords = full.T @ im
    del re, im
    coords = np.linalg.qr(coords)[0]
    u, sines, vt = np.linalg.svd(coords[p:])
    xv = coords[:p] @ vt.T
    del coords, vt
    cosines = np.linalg.norm(xv, axis=0)
    theta = np.maximum(np.arctan2(sines, cosines), LATTICE_CLIP_ANGLE)
    b, r = np.linalg.qr(xv / cosines, mode="complete")
    b[:, :q] *= np.where(np.diagonal(r) >= 0.0, 1.0, -1.0)
    del xv, r
    # the factor's columns b0, b_1, u_1, ..., one product at a time
    factor = np.empty((m, m))
    factor[:, 0] = full[:, :p] @ b[:, q]
    factor[:, 1::2] = full[:, :p] @ b[:, :q]
    factor[:, 2::2] = full[:, p:] @ u
    return _ArcRecord(m, factor, _mirror_phases(model, c),
                      np.concatenate([[0.0], np.repeat(np.cos(theta), 2)]),
                      np.concatenate([[1.0], np.repeat(np.sin(theta), 2)]))


def _window_frame(data: _ArcRecord) -> np.ndarray:
    """Orthonormal frame (real encoding) of the modular planes with principal
    angle above RESOLVABLE_WINDOW; frame @ frame.T projects onto them.  The
    window planes lead (interval_tomita), and their 2n frame columns are
    the images of the unit plane coordinates."""
    n = int(np.sum(np.arcsin(data.sines) > RESOLVABLE_WINDOW))
    return data._from_planes(np.eye(2 * n).reshape(n, 2, 2 * n))


# --- Moebius flow of an interval ---------------------------------------------

def _chart_scaled(interval: CircleInterval, scale: float, theta):
    """The angles whose chart is scale times the chart of theta.

    The chart is w = sin((theta-a)/2) / sin((b-theta)/2), positive exactly
    on the interval, 0 at a and infinity at b.  Its numerator and
    denominator are linear in s, c = sin, cos(theta/2), and the angle of
    chart num / den is twice the argument of
    (ca den + cb num) + i (sb num + sa den), with ca, sa and cb, sb the
    cosines and sines of a/2 and b/2."""
    ca, sa = np.cos(interval.a / 2.0), np.sin(interval.a / 2.0)
    cb, sb = np.cos(interval.b / 2.0), np.sin(interval.b / 2.0)
    theta = np.asarray(theta, dtype=float)
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    num, den = scale * (ca * s - sa * c), sb * c - cb * s
    return (2.0 * np.arctan2(sb * num + sa * den, ca * den + cb * num)) % (2.0 * np.pi)


def mobius_point_flow(interval: CircleInterval, t: float, theta):
    """The canonical Moebius flow of the circle fixing the interval's
    endpoints: the chart w is scaled by e^{-2 pi t}, so the flow drifts
    toward the endpoint a for t > 0.  The orientation is fixed so that the
    modular flow Delta^{it} of the interval subspace tracks the flow at the
    same parameter t.  Raises ValueError unless e^{-2 pi t} is a finite,
    normal, positive float (-112.9 < t < 112.7 about): an overflowing or
    subnormal scale moves the endpoints."""
    with np.errstate(over="ignore", under="ignore"):
        scale = np.exp(-2.0 * np.pi * t)
    if not np.finfo(float).tiny <= scale <= np.finfo(float).max:
        raise ValueError(f"e^(-2 pi t) is not a normal float at t = {t!r}")
    return _chart_scaled(interval, scale, theta)


def circle_reflection(interval: CircleInterval, theta):
    """Reflection of the circle fixing the interval's endpoints (chart
    negation); swaps the interval with its complement."""
    return _chart_scaled(interval, -1.0, theta)


def reflect_interval(interval: CircleInterval, probe: CircleInterval) -> CircleInterval:
    """Image of a probe interval under the reflection fixing interval's
    endpoints (orientation reverses)."""
    return CircleInterval(float(circle_reflection(interval, probe.b)),
                          float(circle_reflection(interval, probe.a)))


def _mode_synthesis(model: LatticeModel, angles: np.ndarray) -> tuple:
    """The two tables whose products e^{i k phi_j}, k = 1..m, evaluate the
    positive retained modes at angles (twice the real part of their sum
    against the coefficients is the field).

    With B = ceil(sqrt(m)) and k = q B + r, e^{i k phi} is
    e^{i q B phi} e^{i r phi}: the tables are low = e^{i r phi} for
    r = 1..B, the running products of e^{i phi}, and high = e^{i q B phi}
    for q = 0..ceil(m/B)-1, the powers of e^{i B phi} = low[:, -1].  That
    is one cosine and sine per angle and about 2 sqrt(m) complex products
    instead of m exponentials.  _pull_back contracts the tables with the
    coefficients without forming the len(angles) x m product.
    The products e^{i k phi} are within 0.19-0.20 L eps of k phi taken
    exactly in long double at L = 256-8192 (1.02-1.13 L eps when each
    table entry is a cosine and sine of the rounded k phi)."""
    m = model.m
    B = int(np.ceil(np.sqrt(m)))
    low = np.empty((len(angles), B), dtype=complex)
    low.real, low.imag = np.cos(angles)[:, None], np.sin(angles)[:, None]
    low = np.cumprod(low, axis=1)
    high = np.ones((len(angles), -(-m // B)), dtype=complex)
    high[:, 1:] = low[:, -1:]
    return low, np.cumprod(high, axis=1)


def _pull_back(model: LatticeModel, cols: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Retained-mode pull-back of encoded columns: each column's field is
    evaluated at the moved site angles and encoded again, as products on
    the columns only, from one pair of synthesis tables.

    The positive-mode coefficients of an encoded column [x; y] are
    c_k = (x - i y) / sqrt(2k), and the field at the angles is twice the
    real part of sum_k c_k e^{i k phi} =
    sum_q e^{i q B phi} (sum_r c_{qB+r} e^{i r phi}) (_mode_synthesis).
    The inner sums, for every q and column, are one product of the
    len(angles) x B table with the coefficients arranged as a
    B x (ceil(m/B) n) matrix for n columns; the outer sum weights them by
    the other table, one small product per angle.  The columns go in
    chunks of at most B, so the inner sums take no more memory than the
    len(angles) x m synthesis matrix that is never formed.
    The encoding of a field equals that of its retained part, so no
    projection onto the retained modes is needed."""
    m, n = model.m, cols.shape[1]
    low, high = _mode_synthesis(model, angles)
    B, Q = low.shape[1], high.shape[1]
    coeffs = np.zeros((Q * B, n), dtype=complex)
    coeffs[:m] = (cols[:m] - 1j * cols[m:]) / np.sqrt(2.0 * np.arange(1, m + 1))[:, None]
    coeffs = coeffs.reshape(Q, B, n).transpose(1, 0, 2)
    field = np.empty((len(angles), n))
    for j in range(0, n, B):
        inner = (low @ coeffs[:, :, j:j + B].reshape(B, -1)).reshape(len(angles), Q, -1)
        field[:, j:j + B] = 2.0 * (high[:, None, :] @ inner)[:, 0].real
    return _encode(model, field)


def mobius_flow_unitary(model: LatticeModel, interval: CircleInterval,
                        t: float) -> np.ndarray:
    """Real L x L matrix of the geometric flow on lattice fields, the plain
    pull-back

        (U(t) f)(theta) = f(delta_{-t}(theta)),

    evaluated by retained-mode interpolation and projected back onto the
    retained modes.  It is the isometric action for the |n|-weighted
    energy form (the invariance of the Dirichlet form).

    It is the pull-back that bw_defect applies to encoded columns, taken
    of the encodings of all site indicators (_encoded_sites) and mapped
    back to site functions by their right inverse: the encoding's rows are
    orthogonal with squared norms k / L, so that is its transpose scaled
    by L / k.  It costs O(L^3)."""
    encoding = _encoded_sites(model, np.arange(model.L))
    k = np.arange(1, model.m + 1)
    right_inverse = encoding.T * (model.L / np.concatenate([k, k]))
    return right_inverse @ _pull_back(model, encoding,
                                      mobius_point_flow(interval, -t, model.thetas))


# --- defect reports -----------------------------------------------------------

def bump_vector(model: LatticeModel, center: float, width: float) -> np.ndarray:
    """Smooth compactly supported bump on the circle, sampled at the sites:
    exp(-1 / (1 - s^2)) at angular distance s width from the center, |s| < 1.
    Raises ValueError unless the center is finite and 0 < width <= pi; a
    wider support would wrap past the antipode, where the bump is not
    smooth."""
    if not (np.isfinite(center) and 0.0 < width <= np.pi):
        raise ValueError("a bump needs a finite center and a width in (0, pi]")
    s = (model.thetas - center + np.pi) % (2.0 * np.pi) - np.pi
    s = s / width
    u = np.zeros(model.L)
    core = np.abs(s) < 1.0
    u[core] = np.exp(-1.0 / (1.0 - s[core] ** 2))
    return u


def default_test_family(model: LatticeModel, interval: CircleInterval) -> list[np.ndarray]:
    """Three mollifier bumps centered in the middle third of the interval
    at three widths (endpoint regions avoided)."""
    arc = interval.arc_length
    centers = [interval.a + arc * f for f in (0.40, 0.50, 0.60)]
    widths = [arc / 8.0, arc / 6.0, arc / 10.0]
    return [bump_vector(model, (c % (2 * np.pi)), w)
            for c, w in zip(centers, widths)]


@dataclass(frozen=True)
class BWReport:
    """Per-interval comparison of the modular flow with the geometric flow:
    the flow defects on the windowed test family and the z-cocycle
    group-law residuals.  It holds no duality angle; that is
    duality_defect, computed from the interval bases alone."""

    L: int
    interval: CircleInterval
    t_grid: np.ndarray
    defects: np.ndarray            # max over the family, per t
    z_residuals: np.ndarray        # group-law residual of z(t), per (s,t) pair

    def max_z_residual(self) -> float:
        return float(np.max(self.z_residuals)) if self.z_residuals.size else 0.0


def _encoded_family(model: LatticeModel, family, frame=None) -> np.ndarray:
    """Unit-normalised encoded family, projected by frame @ frame^T when an
    orthonormal frame is given."""
    cols = _encode(model, np.stack(family, axis=1))
    if frame is not None:
        cols = frame @ (frame.T @ cols)
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms < 1e-12):
        raise ValueError("test vector with vanishing retained part")
    return cols / norms


def bw_defect(model: LatticeModel, interval: CircleInterval, t_grid) -> BWReport:
    """Relative defect || (Delta^{it} - U_geo(t)) v || / || v || over the
    interval's default_test_family, plus the group-law residual
    z(s+t) v - z(s) z(t) v of z(t) = Delta^{it} U_geo(-t).  A scalar
    t_grid is a one-point grid.

    The family is compared through its component in the modular window
    above RESOLVABLE_WINDOW: the interior content of lattice intervals
    occupies modular eigenvalues far beyond double precision, and no flow
    comparison there is meaningful at machine precision (the raw-family
    defect saturates near 1 at every size; measured against 60-digit
    arithmetic).

    Every operator is applied to the k family columns as a chain of
    matrix-vector products: Delta^{it} plane by plane in the factored
    record (_ArcRecord.apply_flow_real) and U_geo as the retained-mode
    pull-back (_pull_back).  The interval is factored once, in interval_tomita, and
    every application after it costs O(L^2 k); no 2m x 2m or L x L operator
    is formed and no other subspace is factored.

    The applications are grouped by time.  The family's pull-backs take one
    pair of synthesis tables per distinct set of flow sites, z(u) of the
    family is formed once per distinct u, and for each s the outer z(s) of
    the group-law residuals acts on all the z(t) blocks it meets in one
    pull-back.  Each pair of tables is dropped after its one pull-back.
    For the grid [0, 0.1, 0.25] that is 10 pairs of tables and 8
    applications of Delta^{it}, against 15 of each when every application
    of z or of the two flows is made on its own."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all(np.abs(t_grid) <= 0.5):
        raise ValueError("t grid must be finite and stay within [-0.5, 0.5]")
    dat = interval_tomita(model, interval)
    fam = _encoded_family(model, default_test_family(model, interval), _window_frame(dat))
    k = fam.shape[1]

    def split(cols):
        return np.hsplit(cols, cols.shape[1] // k)

    def geo(t, blocks):
        """U_geo(t) of each block, from one synthesis."""
        return split(_pull_back(model, np.hstack(blocks),
                                mobius_point_flow(interval, -t, model.thetas)))

    def flow(t, blocks):
        return split(dat.apply_flow_real(t, np.hstack(blocks)))

    def worst(diff):
        return float(np.max(np.linalg.norm(diff, axis=0)))

    ts = [t for t in t_grid if abs(t) > 1e-12][:3]
    pairs = [(s, t) for s in ts for t in ts if abs(s + t) <= 0.5]
    # Delta^{it} fam is compared with U_geo(t) fam at these times, and
    # z(u) fam = Delta^{iu} U_geo(-u) fam is formed at these u
    flow_times = list(dict.fromkeys(t_grid))
    z_times = list(dict.fromkeys(ts + [s + t for s, t in pairs]))
    pulled = {g: geo(g, [fam])[0] for g in dict.fromkeys(flow_times + [-u for u in z_times])}

    flowed, z_fam = {}, {}
    for t in dict.fromkeys(flow_times + z_times):
        blocks = flow(t, ([fam] if t in flow_times else [])
                      + ([pulled[-t]] if t in z_times else []))
        if t in flow_times:
            flowed[t] = blocks.pop(0)
        if t in z_times:
            z_fam[t] = blocks.pop(0)

    defects = np.array([worst(flowed[t] - pulled[t]) for t in t_grid])

    z_pairs = {}
    for s in dict.fromkeys(ts):
        partners = list(dict.fromkeys(t for r, t in pairs if r == s))
        if partners:
            z_pairs.update(zip([(s, t) for t in partners],
                               flow(s, geo(-s, [z_fam[t] for t in partners]))))
    z_residuals = [worst(z_fam[s + t] - z_pairs[s, t]) for s, t in pairs]
    return BWReport(model.L, interval, t_grid, defects, np.asarray(z_residuals))


def duality_defect(model: LatticeModel, interval: CircleInterval) -> float:
    """Largest principal angle between the symplectic complement
    K(I)' = (iK(I))^perp and K(I'), I' the interior of the complement.

    It is arcsin of the q-th smallest singular value of the pairing
    B_in^T (i B_out) (_pairing_maps), the sines padded with zeros to
    dim K(I'), q = min(2m - dim K(I), dim K(I')) (modular._complement_angle,
    the rule of symplectic_complement_angle), for orthonormal bases B_in of
    K(I) and B_out of K(I').  That is the r-th largest, r = d1 + d2 - 2m + 1
    for d1 + d2 > 2m and 1 otherwise (d1 = dim K(I), d2 = dim K(I')): 1
    when both endpoints sit on sites, 2 when one does and 3 when neither
    does.  One block Krylov solve (_top_singular_values) reads the top r
    from the pairing applied as maps: K(I)' is never formed, and neither
    is the pairing.  Principal angles do not depend on which orthonormal
    basis spans each space (Bjorck-Golub 1973), so the angle equals the one
    read from any other bases.  When I' holds as many sites as I, as for
    the half circle, it is I turned by whole sites, and its bases are I's
    up to the sign of each row (_pairing_maps): only I is factored.  An arc
    turned by whole sites whose parity blocks are bit for bit I's (eps even
    in _parity_blocks, as for the half circle turned by L/8) gets the same
    pairing, and so the same angle.

    On sharp site lattices this worst-case angle is dominated by the
    boundary-adjacent site pairs, whose symplectic pairing is
    scale-invariant; it does not decay with L (see the test suite for the
    measured ladder)."""
    apply, apply_t, (d1, d2) = _pairing_maps(model, interval, interval.complement())
    r = max(d1 + d2 - 2 * model.m, 0) + 1
    return md._complement_angle(_top_singular_values(apply, apply_t, (d1, d2), r),
                                2 * model.m, d1, d2)


def _reflect_encoded(model: LatticeModel, interval: CircleInterval,
                     cols: np.ndarray) -> np.ndarray:
    """Geometric reflection Theta_r f = f o r applied to encoded columns:
    the weight-0 pull-back of each field to the reflected sites, never
    forming the L x L operator."""
    return _pull_back(model, cols, circle_reflection(interval, model.thetas))


def pct_geometry_defect(model: LatticeModel, interval: CircleInterval,
                        probe: CircleInterval) -> float:
    """Largest relative defect || (J + Theta_r) w || over the probe's test
    family, with J the modular conjugation of K(interval) and Theta_r the
    pull-back of the field by the reflection r fixing the interval's
    endpoints (r is an involution, so Theta_r maps K(probe) onto
    K(r probe)).

    As in bw_defect, the family is compared through its unit-normalised
    component in the resolvable modular window of the interval: on clipped
    planes J comes from an arbitrary choice of partners, so J of the raw
    probe span depends on rounding (BLAS threads, kernels, generator
    order), while the windowed comparison is a function of the lattice.

    Sign: the measured convention is J ~ -Theta_r (the combination
    J - Theta_r stays near 2).  Because K(r probe) is a real-linear space,
    J K(probe) = K(r probe) holds for either sign.

    J is applied plane by plane (_ArcRecord.apply_j_real) and Theta_r as
    a pull-back of the family columns, so after the one factorization in
    interval_tomita no 2m x 2m or L x L operator is formed."""
    return _pct_defect(model, interval, probe, interval_tomita(model, interval))


def _pct_defect(model: LatticeModel, interval: CircleInterval,
                probe: CircleInterval, dat: _ArcRecord) -> float:
    """pct_geometry_defect from the interval's modular data dat."""
    fam = _encoded_family(model, default_test_family(model, probe), _window_frame(dat))
    diff = dat.apply_j_real(fam) + _reflect_encoded(model, interval, fam)
    return float(np.max(np.linalg.norm(diff, axis=0)))


def symplectic_locality(model: LatticeModel, region: CircleInterval,
                        probe: CircleInterval) -> float:
    """Operator norm of the symplectic pairing Im<.,.> between orthonormal
    bases of K(probe) and K(region), read off their parity bases
    (_parity_pairing): the largest singular value, which depends neither on
    the bases nor on the sign of a block row.  It decays with L for
    separated intervals."""
    return float(np.linalg.norm(_parity_pairing(model, probe, region), 2))


def energy_trace(beta: float, n_max: int) -> float:
    """One-particle partition sum sum_{n=1}^{N} e^{-beta n} over the
    conformal-energy modes (unit multiplicity per retained |n|), N = n_max;
    a lattice model's mode count is model.m."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = np.arange(1, n_max + 1)
    return float(np.sum(np.exp(-beta * n)))
