"""Dense reference forms of the modular and lattice operators.

confmod applies each Tomita operator plane by plane and each geometric flow
as a pull-back of encoded columns; it never assembles them.  The tests
compare those applications with the matrices built here independently:
the dense 2m x 2m frame of a lattice record, the plane blocks assembled as
frame @ blockdiag(blocks) @ frame^T, their complex forms, and the lattice
operators formed from explicit Fourier matrices and the full synthesis
matrix.
"""

import numpy as np

from confmod import chiral as ch
from confmod import modular as md


# --- modular operators -------------------------------------------------------------

def std_i(m):
    """Multiplication by i in the real encoding [Re v; Im v], as a matrix."""
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def frame(dat):
    """The orthogonal 2m x 2m frame of modular data: dat.frame of a
    ModularData, and for the lattice record of chiral.interval_tomita the
    frame it factors, assembled column by column from the factor A, the
    angles and the mirror phases.  In complex w-coordinates, an Im-row
    column y stored as i y, it holds the plane (b0, i b0), then each
    Re-row plane (b, u) and its Im-row image i (c b + s u), i (s b - c u);
    the conjugate phases take it to z-coordinates."""
    if isinstance(dat, md.ModularData):
        return dat.frame
    m, a = dat.ambient_dim, dat.factor
    b, u = a[:, 1::2], a[:, 2::2]
    cos_t, sin_t = dat.sigmas[2::2], dat.sines[2::2]
    w = np.empty((m, 2 * m), dtype=complex)
    w[:, 0], w[:, 1] = a[:, 0], 1j * a[:, 0]
    w[:, 2::4], w[:, 3::4] = b, u
    w[:, 4::4], w[:, 5::4] = 1j * (cos_t * b + sin_t * u), 1j * (sin_t * b - cos_t * u)
    w *= dat.phases.conj()[:, None]
    return np.concatenate([w.real, w.imag])


def assemble(dat, entry):
    """frame @ blockdiag(blocks) @ frame^T for one apply_planes entry, a
    block kind or a flow kind with its time."""
    m, f = dat.ambient_dim, frame(dat)
    # Apply each 2x2 block to its column pair in one batched product.
    paired = f.reshape(2 * m, m, 2)
    mixed = np.einsum("nkj,kji->nki", paired, dat._plane_blocks(entry, dat.log_eigenvalues()))
    return mixed.reshape(2 * m, 2 * m) @ f.T


def s_real(dat):
    return assemble(dat, "S")


def delta_real(dat):
    return assemble(dat, "delta")


def j_real(dat):
    return assemble(dat, "J")


def flow_real(dat, t):
    """Real encoding of Delta^{it}: the cos part plus i times the sin part."""
    return (assemble(dat, ("flow_cos", t))
            + std_i(dat.ambient_dim) @ assemble(dat, ("flow_sin", t)))


def involution_residual(dat):
    """max |J J - 1| of the modular conjugation as a dense 2m x 2m matrix,
    J applied to the identity (md.dense)."""
    J = md.dense(dat.apply_j_real, 2 * dat.ambient_dim)
    return float(np.max(np.abs(J @ J - np.eye(len(J)))))


def complexify_operator(a):
    """Real 2m x 2m matrix commuting with i -> complex m x m matrix.  For
    antilinear S and J, M with S v = M conj(v) encodes as
    s_real @ diag(1, -1); its first m columns, the only ones read here,
    are those of s_real."""
    m = a.shape[0] // 2
    return a[:m, :m] + 1j * a[m:, :m]


def s_matrix(dat):
    """Complex matrix M with S v = M conj(v)."""
    return complexify_operator(s_real(dat))


def delta(dat):
    return complexify_operator(delta_real(dat))


def j_matrix(dat):
    """Unitary U with J v = U conj(v)."""
    return complexify_operator(j_real(dat))


def flow(dat, t):
    """Delta^{it} as a complex unitary matrix."""
    return complexify_operator(flow_real(dat, t))


# --- lattice operators --------------------------------------------------------------

def roots_of_unity(L):
    """The 2L-th roots of unity e^{i pi x / L}, x = 0..2L-1, each part
    evaluated to 30 digits by mpmath and rounded to double: the correctly
    rounded table, the reference for chiral._roots_of_unity."""
    import mpmath
    with mpmath.workdps(30):
        return np.array([complex(mpmath.expjpi(mpmath.mpf(x) / L)) for x in range(2 * L)])


def encoding(model):
    """The real encoding [Re z; Im z] of all site functions, 2m x L, from
    the closed form z_k = sqrt(2k) (1/L) sum_j u_j e^{2 pi i k j / L} with
    the phase reduced exactly, read from the correctly rounded roots of
    unity at index 2 k j mod 2L."""
    k = np.arange(1, model.m + 1)
    z = roots_of_unity(model.L)[np.outer(k, 2 * np.arange(model.L)) % (2 * model.L)]
    z = np.sqrt(2.0 * k)[:, None] * z / model.L
    return np.vstack([z.real, z.imag])


def coord_pinv(model):
    """Right inverse of the encoding of every site (chiral._encoded_sites),
    L x 2m: the encoding's rows are orthogonal with squared norms k / L, so
    this is its transpose scaled by L / k."""
    k = np.arange(1, model.m + 1)
    return ch._encoded_sites(model, np.arange(model.L)).T * (model.L / np.concatenate([k, k]))


def hilbert(model):
    """The complex structure, multiplier -i sign n, as a real L x L matrix."""
    mult = np.zeros(model.L, dtype=complex)
    mult[1:model.m + 1] = -1j
    mult[model.L - model.m:] = 1j
    F = np.fft.fft(np.eye(model.L), axis=0)
    return np.real(np.fft.ifft(mult[:, None] * F, axis=0))


def mode_projector(model):
    """Projector of site functions onto the retained modes, L x L."""
    return coord_pinv(model) @ ch._encoded_sites(model, np.arange(model.L))


def mode_analysis(model):
    """Complex m x L matrix of the positive retained-mode coefficients."""
    k = np.arange(1, model.m + 1)
    return np.exp(-2j * np.pi * np.outer(k, np.arange(model.L)) / model.L) / model.L


def mode_synthesis(model, angles):
    """Complex matrix e^{i k phi_j}, k = 1..m, of the positive retained
    modes at angles: the products of chiral._mode_synthesis's two tables,
    e^{i q B phi} e^{i r phi} at k = q B + r."""
    low, high = ch._mode_synthesis(model, angles)
    return (high[:, :, None] * low[:, None, :]).reshape(len(angles), -1)[:, :model.m]


def synthesis(model, angles):
    """Real matrix evaluating the retained-mode interpolation at angles."""
    return 2.0 * np.real(mode_synthesis(model, angles) @ mode_analysis(model))


def pull_back(model, cols, angles):
    """The retained-mode pull-back of encoded columns (chiral._pull_back)
    through the full synthesis matrix: the field at the angles is twice
    the real part of its product with the positive-mode coefficients."""
    m = model.m
    coeffs = (cols[:m] - 1j * cols[m:]) / np.sqrt(2.0 * np.arange(1, m + 1))[:, None]
    return ch._encode(model, 2.0 * np.real(mode_synthesis(model, angles) @ coeffs))


def mobius_flow_unitary(model, interval, t):
    """Real L x L matrix of the geometric flow on lattice fields, the plain
    pull-back (U(t) f)(theta) = f(delta_{-t}(theta)), by retained-mode
    interpolation projected back onto the retained modes."""
    pullback = synthesis(model, ch.mobius_point_flow(interval, -t, model.thetas))
    return mode_projector(model) @ pullback


# --- interval bases -----------------------------------------------------------------

def site_columns(model, interval):
    """Encoded indicators of the sites inside the interval, 2m x n, in arc
    order (chiral._arc_sites) and built per site (chiral._encoded_sites);
    raises when the interval or its complement holds no site."""
    return ch._encoded_sites(model, ch._arc_sites(model, interval))


def site_basis(model, interval):
    """Orthonormal basis of K(interval) in the real encoding: the reduced
    Householder QR of the encoded site indicators, with no rank decision
    (an arc with n <= 2m sites has n independent site columns; with
    n = L - 1 the reduced Q is a basis of all of R^{2m}, as the thin-SVD
    basis of interval_subspace is).  It is the reference for the parity
    bases that duality_defect and symplectic_locality read."""
    return np.linalg.qr(site_columns(model, interval))[0]


def site_pairing(model, interval, other):
    """B_in^T (i B_out) for the Householder bases of interval and other."""
    return site_basis(model, interval).T @ md._times_i(site_basis(model, other))
