import numpy as np
import pytest
from scipy.linalg import svdvals

import confmod.chiral as ch
import confmod.modular as md


def realify(vectors):
    v = np.atleast_2d(np.asarray(vectors, dtype=complex))
    return np.vstack([v.real, v.imag])


# --- standardness ---------------------------------------------------------------

def test_real_axes_are_standard():
    K = md.StandardSubspace(3, np.eye(3))
    report = K.standardness()
    assert report.standard
    assert report.min_angle == pytest.approx(np.pi / 2)


def test_complex_line_is_not_standard():
    K = md.StandardSubspace(1, [[1.0], [1j]])
    report = K.standardness()
    assert not report.standard
    assert report.real_dim == 2          # K = C, intersection with iK nonzero


def test_dimension_deficit_is_not_standard():
    K = md.StandardSubspace(2, [[1.0, 0.0]])
    report = K.standardness()
    assert not report.standard and not report.dimension_ok


def _tomita_report(K):
    """The standardness report tomita_operators builds, read from the error
    raised with a floor above every angle."""
    with pytest.raises(md.StandardnessError) as err:
        md.tomita_operators(K, angle_floor=4.0)
    return err.value.report


def _principal_angles(K):
    """Independent oracle for the angles between K and iK, descending:
    sines of the part of iK orthogonal to K below pi/4, cosines above."""
    b = K.basis
    c = md._std_i(K.ambient_dim) @ b
    small = np.arcsin(np.clip(svdvals(c - b @ (b.T @ c)), 0.0, 1.0))
    large = np.arccos(np.clip(svdvals(b.T @ c)[::-1], -1.0, 1.0))
    return np.where(small < np.pi / 4, small, large)


def test_tomita_report_matches_standardness():
    # a failing tomita_operators reports the angles of standardness(); an
    # exact right angle, which every odd m has, is resolved to 1e-14
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        report, ref = _tomita_report(K), K.standardness()
        assert (report.ambient_dim, report.real_dim) == (ref.ambient_dim, ref.real_dim)
        np.testing.assert_allclose(report.angles, _principal_angles(K), rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.angles, ref.angles, rtol=0, atol=1e-12)
        if m % 2:
            assert report.angles[0] == pytest.approx(np.pi / 2, abs=1e-14)


def test_tomita_report_on_lattice_half_circle():
    # squeezed interior planes: the angles fall to ~1e-15 and are still
    # resolved
    model = ch.build_model(64)
    K = ch.interval_subspace(model, ch.half_circle())
    report, ref = _tomita_report(K), K.standardness()
    np.testing.assert_allclose(report.angles, _principal_angles(K), rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.angles, ref.angles, rtol=0, atol=1e-12)
    assert report.min_angle < 1e-13


def test_zero_generator_rejected():
    with pytest.raises(ValueError):
        md.StandardSubspace(2, [[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("gens", ([[np.nan, 0.0]], [[np.inf, 1.0]], [[1.0, 1j * np.inf]]))
def test_non_finite_generator_rejected(gens):
    # numpy's svd does not check finiteness: an infinite generator would
    # otherwise give an empty basis
    with pytest.raises(ValueError):
        md.StandardSubspace(2, gens)


def test_tomita_rejects_non_standard():
    K = md.StandardSubspace(1, [[1.0], [1j]])
    with pytest.raises(md.StandardnessError) as err:
        md.tomita_operators(K)
    assert err.value.report.real_dim == 2


# --- canonical examples -----------------------------------------------------------

def test_real_axes_modular_data():
    dat = md.tomita_operators(md.StandardSubspace(3, np.eye(3)))
    np.testing.assert_allclose(dat.delta, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(dat.j_matrix, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(dat.s_matrix, np.eye(3), atol=1e-12)


def test_phase_line_modular_data():
    phi = 0.7
    dat = md.tomita_operators(md.StandardSubspace(1, [[np.exp(1j * phi)]]))
    np.testing.assert_allclose(dat.delta, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(dat.s_matrix, [[np.exp(2j * phi)]], atol=1e-12)
    np.testing.assert_allclose(dat.j_matrix, [[np.exp(2j * phi)]], atol=1e-12)


def brute_force_tomita(K):
    """Independent oracle: dense real-linear solve for S on K + iK, then
    eigendecomposition of S^T S."""
    m = K.ambient_dim
    B = K.basis
    C = md._std_i(m) @ B
    M = np.hstack([B, C])
    S = M @ np.diag(np.concatenate([np.ones(m), -np.ones(m)])) @ np.linalg.inv(M)
    D = S.T @ S
    return S, D


def test_two_dim_example_against_brute_force():
    K = md.StandardSubspace(2, [[1.0, 0.0], [0.5j, 1.0]])
    dat = md.tomita_operators(K)
    S_bf, D_bf = brute_force_tomita(K)
    np.testing.assert_allclose(dat.s_real, S_bf, atol=1e-10)
    np.testing.assert_allclose(dat.delta_real, D_bf, atol=1e-10)
    # frozen spectrum of the dense oracle: (3 -+ sqrt 5)/2, each twice in the
    # real encoding
    ev = np.linalg.eigvalsh(dat.delta)
    np.testing.assert_allclose(ev, [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2],
                               rtol=1e-12)
    # S fixes the generators and squares to one
    for g in K.generators:
        assert np.linalg.norm(dat.apply_s(g) - g) < 1e-12
    v = np.array([0.3 - 0.2j, 1.1 + 0.7j])
    assert np.linalg.norm(dat.apply_s(dat.apply_s(v)) - v) < 1e-12


def test_random_subspaces_against_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = int(rng.integers(1, 7))
        K = md.random_standard_subspace(m, rng, angle_floor=1e-3)
        dat = md.tomita_operators(K)
        S_bf, D_bf = brute_force_tomita(K)
        scale = max(1.0, np.max(np.abs(S_bf)))
        assert np.max(np.abs(dat.s_real - S_bf)) / scale < 1e-8
        assert np.max(np.abs(dat.delta_real - D_bf)) / max(1.0, np.max(np.abs(D_bf))) < 1e-8


# --- invariants over random standard subspaces --------------------------------------

def test_modular_invariants_battery():
    rng = np.random.default_rng(2)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        dat = md.tomita_operators(K)
        S, D, J = dat.s_real, dat.delta_real, dat.j_real
        eye = np.eye(2 * m)
        assert np.max(np.abs(S @ S - eye)) / max(1.0, np.max(np.abs(S)) ** 2) < 1e-6
        assert np.max(np.abs(J @ J - eye)) < 1e-6
        dinv = S @ S.T      # Delta^{-1} exactly: Delta = S^T S and S^2 = 1
        assert np.max(np.abs(J @ D @ J - dinv)) / max(1.0, np.max(np.abs(dinv))) < 1e-6
        for g in K.generators:
            assert np.linalg.norm(dat.apply_s(g) - g) / np.linalg.norm(g) < 1e-7
        # polar relation S = J Delta^{1/2}
        sqrt = dat._assemble(dat._plane_blocks("delta_sqrt"))
        assert np.max(np.abs(J @ sqrt - S)) / max(1.0, np.max(np.abs(S))) < 1e-8


def test_flow_preserves_subspace_and_group_law():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        dat = md.tomita_operators(K)
        for t in (0.3, 1.0, 2.7):
            fk = dat.flow_real(t) @ K.basis
            moved = md.StandardSubspace(m, md._complexify_vectors(fk).T)
            assert md.subspace_angle(K, moved) < 1e-6
        assert np.max(np.abs(dat.flow(0.0) - np.eye(m))) < 1e-12
        assert np.max(np.abs(dat.flow(0.4) @ dat.flow(0.9) - dat.flow(1.3))) < 1e-8
        u = dat.flow(1.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(m))) < 1e-10


def test_plane_flow_matches_dense_flow():
    # apply_flow_real works plane by plane and equals the assembled operator
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        dat = md.tomita_operators(md.random_standard_subspace(m, rng))
        X = rng.normal(size=(2 * m, 3))
        for t in (-0.7, 0.0, 0.25, 2.7):
            np.testing.assert_allclose(dat.apply_flow_real(t, X), dat.flow_real(t) @ X,
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(dat.apply_flow_real(t, X[:, 0]),
                                       dat.flow_real(t) @ X[:, 0], rtol=0, atol=1e-13)
        v = X[:m, 0] + 1j * X[m:, 0]
        np.testing.assert_allclose(dat.apply_flow(0.4, v), dat.flow(0.4) @ v,
                                   rtol=0, atol=1e-13)


def test_plane_conjugation_matches_dense_conjugation():
    # apply_j_real and apply_s work plane by plane and equal the assembled
    # operators
    rng = np.random.default_rng(16)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        dat = md.tomita_operators(md.random_standard_subspace(m, rng))
        X = rng.normal(size=(2 * m, 3))
        J = dat.j_real
        np.testing.assert_allclose(dat.apply_j_real(X), J @ X, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dat.apply_j_real(X[:, 0]), J @ X[:, 0],
                                   rtol=0, atol=1e-13)
        v = X[:m, 0] + 1j * X[m:, 0]
        np.testing.assert_allclose(dat.apply_j(v), dat.j_matrix @ v.conj(),
                                   rtol=0, atol=1e-13)
        # S grows like 1/sin, so compare relative to its largest entry
        S = dat.s_matrix
        np.testing.assert_allclose(dat.apply_s(v), S @ v.conj(),
                                   rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(S))))


def test_kms_symmetry():
    # <Delta^{1/2} x, Delta^{1/2} y> = <S y, S x> on K + iK
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        dat = md.tomita_operators(K)
        sqrt = dat._assemble(dat._plane_blocks("delta_sqrt"))
        S = dat.s_real
        for _ in range(5):
            x, y = rng.normal(size=2 * m), rng.normal(size=2 * m)
            cx = md._complexify_vectors
            lhs = np.vdot(cx(sqrt @ x), cx(sqrt @ y))
            rhs = np.vdot(cx(S @ y), cx(S @ x))
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-6


# --- symplectic complement ------------------------------------------------------------

def test_real_axes_self_dual():
    K = md.StandardSubspace(3, np.eye(3))
    Kp = md.symplectic_complement(K)
    assert md.subspace_angle(K, Kp) < 1e-10


def test_biduality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        K = md.random_standard_subspace(m, rng)
        back = md.symplectic_complement(md.symplectic_complement(K))
        assert md.subspace_angle(K, back) < 1e-8


def test_conjugation_maps_onto_complement():
    # J K = K', with K' computed independently from the symplectic kernel
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        K = md.random_standard_subspace(m, rng)
        dat = md.tomita_operators(K)
        jk = md.StandardSubspace(m, md._complexify_vectors(dat.j_real @ K.basis).T)
        assert md.subspace_angle(jk, md.symplectic_complement(K)) < 1e-6


def test_complement_definition():
    # every vector of K' has real pairing with every generator of K
    rng = np.random.default_rng(7)
    K = md.random_standard_subspace(4, rng)
    Kp = md.symplectic_complement(K)
    for v in Kp.generators:
        for k in K.generators:
            assert abs(np.imag(np.vdot(v, k))) < 1e-10


def test_complement_angle_matches_complement_svd():
    # the angle read from the two bases equals the one measured against the
    # complement that symplectic_complement builds by a full SVD
    rng = np.random.default_rng(15)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        k1, k2 = (md.random_standard_subspace(m, rng) for _ in range(2))
        ref = md.subspace_angle(md.symplectic_complement(k1), k2)
        assert md.symplectic_complement_angle(k1, k2) == pytest.approx(ref, abs=1e-12)
        # equal dimensions: arcsin of the norm of B1^T (i B2)
        norm = np.linalg.norm(k1.basis.T @ md._times_i(k2.basis), 2)
        assert md.symplectic_complement_angle(k1, k2) == pytest.approx(np.arcsin(norm),
                                                                        abs=1e-12)
    # spans of other real dimensions: the q-th smallest singular value,
    # q = min(2m - dim K1, dim K2)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        d1, d2 = rng.integers(1, 2 * m, size=2)
        k1, k2 = (md.StandardSubspace(m, rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m)))
                  for d in (d1, d2))
        assert (k1.real_dim, k2.real_dim) == (d1, d2)
        ref = md.subspace_angle(md.symplectic_complement(k1), k2)
        assert md.symplectic_complement_angle(k1, k2) == pytest.approx(ref, abs=1e-12)
    # a span of all of C^m has the zero complement: no angle, as no complement
    full = md.StandardSubspace(3, rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    for fn in (md.symplectic_complement, lambda k: md.symplectic_complement_angle(k, k2)):
        with pytest.raises(ValueError):
            fn(full)


# --- modular frame ------------------------------------------------------------------------

def _svd_completion_frame(K):
    """Reference frame built the earlier way: the partners of degenerate
    planes from a full SVD of the healthy columns, then a QR over all 2m
    columns with the healthy pairs first and the degenerate pairs after."""
    m = K.ambient_dim
    _, bu, resid = md._principal_planes(K.basis)
    resid_norm = np.linalg.norm(resid, axis=0)
    healthy = resid_norm > 1e-7
    frame = np.zeros((2 * m, 2 * m))
    frame[:, 0::2] = bu
    frame[:, 1::2][:, healthy] = resid[:, healthy] / resid_norm[healthy]
    n_deg = int(np.sum(~healthy))
    if n_deg:
        uu, ss, _ = np.linalg.svd(np.hstack([bu, frame[:, 1::2][:, healthy]]))
        frame[:, 1::2][:, ~healthy] = uu[:, np.sum(ss > 0.5):][:, :n_deg]
    cols = np.concatenate([np.flatnonzero(healthy), np.flatnonzero(~healthy)])
    perm = np.stack([2 * cols, 2 * cols + 1], axis=1).ravel()
    q, r = np.linalg.qr(frame[:, perm])
    frame[:, perm] = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return frame


def _frame_subjects():
    """(subspace, modular data): lattice half circles, whose clipped planes
    need partners, a nearly degenerate pair and random standard subspaces."""
    for L in (64, 256):
        K = ch.interval_subspace(ch.build_model(L), ch.half_circle())
        yield K, md.tomita_operators(K, clip_angle=ch.LATTICE_CLIP_ANGLE)
    K = md.StandardSubspace(2, [[1.0, 0.0], [1j * (1 + 1e-9), 1e-9]])
    yield K, md.tomita_operators(K, clip_angle=1e-7)
    rng = np.random.default_rng(14)
    for _ in range(20):
        K = md.random_standard_subspace(int(rng.integers(1, 9)), rng)
        yield K, md.tomita_operators(K)


def test_frame_orthogonal_and_planes_invariant():
    rng = np.random.default_rng(17)
    for K, dat in _frame_subjects():
        F = dat.frame
        n = F.shape[0]
        assert np.max(np.abs(F.T @ F - np.eye(n))) < 1e-14
        # in frame coordinates every operator is block diagonal, one 2x2
        # block per principal plane
        off = np.kron(np.eye(n // 2), np.ones((2, 2))) == 0
        t = rng.uniform(-1.0, 1.0)
        ops = [dat.j_real, dat.s_real] + [dat._assemble(dat._plane_blocks(kind, t))
                                          for kind in ("flow_cos", "flow_sin")]
        for op in ops:
            leak = np.max(np.abs((F.T @ op @ F)[off]), initial=0.0)
            assert leak / max(1.0, np.max(np.abs(op))) < 1e-14
        if dat.sines.min() > 1e-3:
            # the planes are those of the Tomita operator solved densely
            S = brute_force_tomita(K)[0]
            leak = np.max(np.abs((F.T @ S @ F)[off]), initial=0.0)
            assert leak / max(1.0, np.max(np.abs(S))) < 1e-12


def test_frame_window_matches_svd_completion():
    # the one-QR completion changes only the partners of degenerate planes
    for K, dat in _frame_subjects():
        window = np.repeat(np.arcsin(dat.sines) > ch.RESOLVABLE_WINDOW, 2)
        if K.ambient_dim > 2:
            assert window.any()
        ref = _svd_completion_frame(K)
        np.testing.assert_allclose(dat.frame[:, window], ref[:, window], rtol=0, atol=1e-13)


# --- subspace angles --------------------------------------------------------------------

def test_subspace_angle_examples():
    K1 = md.StandardSubspace(1, [[1.0]])
    assert md.subspace_angle(K1, K1) < 1e-12
    K2 = md.StandardSubspace(1, [[1j]])
    assert md.subspace_angle(K1, K2) == pytest.approx(np.pi / 2)


def test_subspace_angle_perturbation_first_order():
    rng = np.random.default_rng(8)
    K = md.random_standard_subspace(4, rng)
    for eps in (1e-3, 1e-5):
        pert = K.generators + eps * (rng.normal(size=K.generators.shape)
                                     + 1j * rng.normal(size=K.generators.shape))
        Kp = md.StandardSubspace(4, pert)
        angle = md.subspace_angle(K, Kp)
        assert angle < 20 * eps
        assert angle > 0


def _mp_subspace_angles(a, b):
    """Principal angles between the spans of the columns of a and b at 40
    digits: both sets orthonormalized by QR, angles from the cosines."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        qa, _ = mp.qr(mp.matrix(a.tolist()), mode="skinny")
        qb, _ = mp.qr(mp.matrix(b.tolist()), mode="skinny")
        cosines = mp.svd_r(qa.T * qb, compute_uv=False)
        return sorted((float(mp.acos(min(c, 1))) for c in cosines), reverse=True)


def _orthonormal(x):
    return np.linalg.qr(x)[0]


def test_subspace_angles_against_mpmath():
    # unequal dimensions either way round, and a pair at angles near 1e-7,
    # where cosines alone lose half the digits
    rng = np.random.default_rng(21)
    pairs = [(_orthonormal(rng.normal(size=(9, p))), _orthonormal(rng.normal(size=(9, q))))
             for p, q in ((4, 2), (2, 5), (3, 6), (5, 3))]
    a = _orthonormal(rng.normal(size=(9, 4)))
    pairs.append((a, _orthonormal(a[:, :3] + 1e-7 * rng.normal(size=(9, 3)))))
    for a, b in pairs:
        np.testing.assert_allclose(md.subspace_angles(a, b), _mp_subspace_angles(a, b),
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", (1, 3, 5, 7))
def test_subspace_angles_right_angle_of_odd_m(m):
    # B^T (iB) is antisymmetric, so for odd m one principal angle between K
    # and iK is exactly pi/2
    b = md.random_standard_subspace(m, np.random.default_rng(m)).basis
    angles = md.subspace_angles(b, md._times_i(b))
    np.testing.assert_allclose(angles, _mp_subspace_angles(b, md._times_i(b)),
                               rtol=0, atol=1e-14)
    assert abs(angles[0] - np.pi / 2) <= 1e-14


# --- clip policy ---------------------------------------------------------------------------

def test_clip_policy_keeps_flows_orthogonal():
    # nearly degenerate subspace: the clipped construction still produces
    # exactly orthogonal flow and conjugation blocks
    eps = 1e-9
    K = md.StandardSubspace(2, [[1.0, 0.0], [1j * (1 + eps), eps]])
    with pytest.raises(md.StandardnessError):
        md.tomita_operators(K)          # below the default angle floor
    dat = md.tomita_operators(K, clip_angle=1e-7)
    u = dat.flow_real(0.7)
    assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-10
    J = dat.j_real
    assert np.max(np.abs(J @ J - np.eye(4))) < 1e-10
