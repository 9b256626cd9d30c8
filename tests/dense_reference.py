"""Dense reference forms of the modular and lattice operators.

confmod applies each Tomita operator plane by plane and each geometric flow
as a pull-back of encoded columns; it never assembles them.  The tests
compare those applications with the matrices built here independently:
the plane blocks assembled as frame @ blockdiag(blocks) @ frame^T, their
complex forms, and the lattice operators formed from explicit Fourier
matrices.
"""

import numpy as np

from confmod import chiral as ch


# --- modular operators -------------------------------------------------------------

def std_i(m):
    """Multiplication by i in the real encoding [Re v; Im v], as a matrix."""
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return j


def assemble(dat, entry):
    """frame @ blockdiag(blocks) @ frame^T for one apply_planes entry, a
    block kind or a flow kind with its time."""
    m = dat.ambient_dim
    # Apply each 2x2 block to its column pair in one batched product.
    paired = dat.frame.reshape(2 * m, m, 2)
    mixed = np.einsum("nkj,kji->nki", paired, dat._plane_blocks(entry, dat.log_eigenvalues()))
    return mixed.reshape(2 * m, 2 * m) @ dat.frame.T


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

def hilbert(model):
    """The complex structure, multiplier -i sign n, as a real L x L matrix."""
    mult = np.zeros(model.L, dtype=complex)
    mult[1:model.m + 1] = -1j
    mult[model.L - model.m:] = 1j
    F = np.fft.fft(np.eye(model.L), axis=0)
    return np.real(np.fft.ifft(mult[:, None] * F, axis=0))


def mode_projector(model):
    """Projector of site functions onto the retained modes, L x L."""
    return model.coord_pinv @ model.coord_map_real


def mode_analysis(model):
    """Complex m x L matrix of the positive retained-mode coefficients."""
    k = np.arange(1, model.m + 1)
    return np.exp(-2j * np.pi * np.outer(k, np.arange(model.L)) / model.L) / model.L


def synthesis(model, angles):
    """Real matrix evaluating the retained-mode interpolation at angles."""
    return 2.0 * np.real(ch._mode_synthesis(model, angles) @ mode_analysis(model))


def mobius_flow_unitary(model, interval, t, weight=0.0):
    """Real L x L matrix of the geometric flow on lattice fields,
    (U(t) f)(theta) = f(delta_{-t}(theta)) * delta_{-t}'(theta)^weight,
    by retained-mode interpolation projected back onto the retained modes."""
    phi, (rows,) = ch._flow_sites(model, interval, t, (weight,))
    pullback = synthesis(model, phi)
    if rows is not None:
        pullback = rows[:, None] * pullback
    return mode_projector(model) @ pullback
