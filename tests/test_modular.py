import numpy as np
import pytest
from scipy.linalg import svdvals

import confmod.chiral as ch
import confmod.cli as cli
import confmod.modular as md
import dense_reference as dr


def realify(vectors):
    v = np.atleast_2d(np.asarray(vectors, dtype=complex))
    return np.vstack([v.real, v.imag])


def operator(dat, entry):
    """Real 2m x 2m matrix of one apply_planes entry, a block kind or a
    flow kind with its time, from its application."""
    return md.dense(lambda cols: dat.apply_planes((entry,), cols), 2 * dat.ambient_dim)


def flow_real(dat, t):
    """Real encoding of Delta^{it}, from its application."""
    return md.dense(lambda cols: dat.apply_flow_real(t, cols), 2 * dat.ambient_dim)


def flow(dat, t):
    """Delta^{it} as a complex m x m matrix: the images of the real unit
    vectors, the first m columns of its real encoding."""
    return md._complexify_vectors(flow_real(dat, t)[:, :dat.ambient_dim])


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
    c = dr.std_i(K.ambient_dim) @ b
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
    np.testing.assert_allclose(dr.delta(dat), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(dr.j_matrix(dat), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(dr.s_matrix(dat), np.eye(3), atol=1e-12)


def test_phase_line_modular_data():
    phi = 0.7
    dat = md.tomita_operators(md.StandardSubspace(1, [[np.exp(1j * phi)]]))
    np.testing.assert_allclose(dr.delta(dat), [[1.0]], atol=1e-12)
    np.testing.assert_allclose(dr.s_matrix(dat), [[np.exp(2j * phi)]], atol=1e-12)
    np.testing.assert_allclose(dr.j_matrix(dat), [[np.exp(2j * phi)]], atol=1e-12)


def brute_force_tomita(K):
    """Independent oracle: dense real-linear solve for S on K + iK, then
    eigendecomposition of S^T S."""
    m = K.ambient_dim
    B = K.basis
    C = dr.std_i(m) @ B
    M = np.hstack([B, C])
    S = M @ np.diag(np.concatenate([np.ones(m), -np.ones(m)])) @ np.linalg.inv(M)
    D = S.T @ S
    return S, D


def test_two_dim_example_against_brute_force():
    K = md.StandardSubspace(2, [[1.0, 0.0], [0.5j, 1.0]])
    dat = md.tomita_operators(K)
    S_bf, D_bf = brute_force_tomita(K)
    np.testing.assert_allclose(operator(dat, "S"), S_bf, atol=1e-10)
    np.testing.assert_allclose(operator(dat, "delta"), D_bf, atol=1e-10)
    # frozen spectrum of the dense oracle: (3 -+ sqrt 5)/2, each twice in the
    # real encoding
    ev = np.linalg.eigvalsh(dr.delta(dat))
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
        assert np.max(np.abs(operator(dat, "S") - S_bf)) / scale < 1e-8
        assert np.max(np.abs(operator(dat, "delta") - D_bf)) / max(1.0, np.max(np.abs(D_bf))) < 1e-8


# --- invariants over random standard subspaces --------------------------------------

def test_modular_invariants_battery():
    rng = np.random.default_rng(2)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        dat = md.tomita_operators(K)
        S, D, J = (operator(dat, kind) for kind in ("S", "delta", "J"))
        eye = np.eye(2 * m)
        assert np.max(np.abs(S @ S - eye)) / max(1.0, np.max(np.abs(S)) ** 2) < 1e-6
        assert np.max(np.abs(J @ J - eye)) < 1e-6
        dinv = S @ S.T      # Delta^{-1} exactly: Delta = S^T S and S^2 = 1
        assert np.max(np.abs(J @ D @ J - dinv)) / max(1.0, np.max(np.abs(dinv))) < 1e-6
        for g in K.generators:
            assert np.linalg.norm(dat.apply_s(g) - g) / np.linalg.norm(g) < 1e-7
        # polar relation S = J Delta^{1/2}
        sqrt = operator(dat, "delta_sqrt")
        assert np.max(np.abs(J @ sqrt - S)) / max(1.0, np.max(np.abs(S))) < 1e-8


def test_flow_preserves_subspace_and_group_law():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        dat = md.tomita_operators(K)
        for t in (0.3, 1.0, 2.7):
            fk = dat.apply_flow_real(t, K.basis)
            moved = md.StandardSubspace(m, md._complexify_vectors(fk).T)
            assert md.subspace_angle(K, moved) < 1e-6
        assert np.max(np.abs(flow(dat, 0.0) - np.eye(m))) < 1e-12
        assert np.max(np.abs(flow(dat, 0.4) @ flow(dat, 0.9) - flow(dat, 1.3))) < 1e-8
        u = flow(dat, 1.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(m))) < 1e-10


def _modular_suite_subspaces(seed):
    """The 100 subspaces of the CLI modular suite at seed, drawn from its
    generator stream in the suite's order (each round then draws the two
    KMS test vectors)."""
    rng = cli._suite_rng(cli.SuiteConfig(seed=seed), "modular")
    for _ in range(100):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        rng.normal(size=2 * m), rng.normal(size=2 * m)
        yield K


@pytest.mark.parametrize("seed", (42, 306))
def test_flow_angle_matches_subspace_angle(seed):
    # Delta^{it} is orthogonal, so arcsin || (1 - B B^T) Delta^{it} B ||_2,
    # the modular suite's angle, is the largest principal angle between K
    # and a second subspace spanned by the flowed basis
    worst = 0.0
    for K in _modular_suite_subspaces(seed):
        dat = md.tomita_operators(K)
        for t in (0.3, 1.0, 2.7):
            fk = dat.apply_flow_real(t, K.basis)
            resid = np.linalg.norm(fk - K.basis @ (K.basis.T @ fk), 2)
            angle = float(np.arcsin(min(resid, 1.0)))
            ref = md.subspace_angle(K, md.StandardSubspace(K.ambient_dim,
                                                           md._complexify_vectors(fk).T))
            assert angle == pytest.approx(ref, rel=0, abs=1e-13)
            worst = max(worst, angle)
    checks = {c["name"]: c["value"] for c in cli.run_modular_suite(cli.SuiteConfig(seed=seed))}
    assert checks["modular-flow-preserves-subspace"] == worst


def test_plane_flow_matches_dense_flow():
    # apply_flow_real works plane by plane and equals the assembled operator
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        dat = md.tomita_operators(md.random_standard_subspace(m, rng))
        X = rng.normal(size=(2 * m, 3))
        for t in (-0.7, 0.0, 0.25, 2.7):
            np.testing.assert_allclose(dat.apply_flow_real(t, X), dr.flow_real(dat, t) @ X,
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(dat.apply_flow_real(t, X[:, 0]),
                                       dr.flow_real(dat, t) @ X[:, 0], rtol=0, atol=1e-13)
        v = X[:m, 0] + 1j * X[m:, 0]
        np.testing.assert_allclose(dat.apply_flow(0.4, v), dr.flow(dat, 0.4) @ v,
                                   rtol=0, atol=1e-13)


def test_plane_conjugation_matches_dense_conjugation():
    # apply_j_real and apply_s work plane by plane and equal the assembled
    # operators
    rng = np.random.default_rng(16)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        dat = md.tomita_operators(md.random_standard_subspace(m, rng))
        X = rng.normal(size=(2 * m, 3))
        J = dr.j_real(dat)
        np.testing.assert_allclose(dat.apply_j_real(X), J @ X, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dat.apply_j_real(X[:, 0]), J @ X[:, 0],
                                   rtol=0, atol=1e-13)
        v = X[:m, 0] + 1j * X[m:, 0]
        np.testing.assert_allclose(dat.apply_j(v), dr.j_matrix(dat) @ v.conj(),
                                   rtol=0, atol=1e-13)
        # S grows like 1/sin, so compare relative to its largest entry
        S = dr.s_matrix(dat)
        np.testing.assert_allclose(dat.apply_s(v), S @ v.conj(),
                                   rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(S))))


@pytest.mark.parametrize("seed", (18, 19))
def test_complex_application_keeps_rows(seed):
    # a (k, m) stack of row vectors, the layout of StandardSubspace.generators,
    # comes back as rows, each the 1-D application of its row: k < m, k == m
    # and k > m, with S compared relative to its largest entry as above
    rng = np.random.default_rng(seed)
    for m in range(1, 9):
        dat = md.tomita_operators(md.random_standard_subspace(m, rng))
        s_scale = max(1.0, np.max(np.abs(dr.s_matrix(dat))))
        for apply, scale in ((dat.apply_s, s_scale), (dat.apply_j, 1.0),
                             (lambda v: dat.apply_flow(0.4, v), 1.0)):
            for k in sorted({max(1, m - 1), m, m + 2}):
                rows = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
                out = apply(rows)
                assert out.shape == (k, m)
                for row, image in zip(rows, out):
                    np.testing.assert_allclose(image, apply(row), rtol=0,
                                               atol=1e-13 * scale)


def _one_kind_call(dat, entry, cols):
    """The block of one entry from one call per kind: a block kind alone, a
    flow part with its partner at the same time, as apply_flow_real calls
    them (on a single column, a call with one entry is a matrix-vector
    product, whose rounding may differ)."""
    if isinstance(entry, str):
        return dat.apply_planes((entry,), cols)
    kind, t = entry
    return np.hsplit(dat.apply_planes((("flow_cos", t), ("flow_sin", t)), cols), 2)[
        kind == "flow_sin"]


def test_apply_planes_mixed_matches_one_kind_calls():
    # the modular suite's values are bitwise those of one call per kind
    # and time: each block of its two mixed calls, the dense one on the
    # identity and the flow check's on the basis of K, is the one-kind
    # call's, bit for bit, for the suite's draws; so is each block of both
    # entry lists joined
    dense = ["S", "delta", "J", "delta_sqrt",
             *((kind, t) for t in (0.4, 0.9, 1.3) for kind in ("flow_cos", "flow_sin"))]
    flows = [(kind, t) for t in (0.3, 1.0, 2.7) for kind in ("flow_cos", "flow_sin")]
    for K in _modular_suite_subspaces(42):
        dat = md.tomita_operators(K)
        eye = np.eye(2 * K.ambient_dim)
        for entries, cols in ((dense, eye), (dense + flows, eye), (flows, K.basis)):
            blocks = np.hsplit(dat.apply_planes(entries, cols), len(entries))
            for entry, block in zip(entries, blocks):
                np.testing.assert_array_equal(block, _one_kind_call(dat, entry, cols))


def test_apply_planes_rejects_bad_entries():
    dat = md.tomita_operators(md.StandardSubspace(2, [[1.0, 0.0], [0.5j, 1.0]]))
    for entry in ("flow_cos", ("J", 0.3), "T", ("flow_tan", 0.3)):
        with pytest.raises(ValueError):
            dat.apply_planes((entry,), np.eye(4))


def test_kms_symmetry():
    # <Delta^{1/2} x, Delta^{1/2} y> = <S y, S x> on K + iK
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        K = md.random_standard_subspace(m, rng)
        dat = md.tomita_operators(K)
        sqrt, S = operator(dat, "delta_sqrt"), operator(dat, "S")
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
        jk = md.StandardSubspace(m, md._complexify_vectors(dat.apply_j_real(K.basis)).T)
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
        assert md.symplectic_complement_angle(k1.basis, k2.basis) == pytest.approx(ref, abs=1e-12)
        # equal dimensions: arcsin of the norm of B1^T (i B2)
        norm = np.linalg.norm(k1.basis.T @ md._times_i(k2.basis), 2)
        assert md.symplectic_complement_angle(k1.basis, k2.basis) == pytest.approx(
            np.arcsin(norm), abs=1e-12)
    # spans of other real dimensions: the q-th smallest singular value,
    # q = min(2m - dim K1, dim K2)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        d1, d2 = rng.integers(1, 2 * m, size=2)
        k1, k2 = (md.StandardSubspace(m, rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m)))
                  for d in (d1, d2))
        assert (k1.real_dim, k2.real_dim) == (d1, d2)
        ref = md.subspace_angle(md.symplectic_complement(k1), k2)
        assert md.symplectic_complement_angle(k1.basis, k2.basis) == pytest.approx(ref, abs=1e-12)
    # a span of all of C^m has the zero complement: no angle, as no complement
    full = md.StandardSubspace(3, rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    for fn in (md.symplectic_complement,
               lambda k: md.symplectic_complement_angle(k.basis, k2.basis)):
        with pytest.raises(ValueError):
            fn(full)


# --- modular frame ------------------------------------------------------------------------

def _lattice_tomita(L):
    """Tomita data of the half circle at L, whose clipped planes need
    partners (chiral.interval_tomita)."""
    model = ch.build_model(L)
    return ch.interval_subspace(model, ch.half_circle()), ch.interval_tomita(model, ch.half_circle())


def _frame_subjects():
    """(subspace, modular data): lattice half circles and random standard
    subspaces."""
    for L in (64, 256):
        yield _lattice_tomita(L)
    rng = np.random.default_rng(14)
    for _ in range(20):
        K = md.random_standard_subspace(int(rng.integers(1, 9)), rng)
        yield K, md.tomita_operators(K)


def test_frame_orthogonal_and_planes_invariant():
    rng = np.random.default_rng(17)
    for K, dat in _frame_subjects():
        F = dr.frame(dat)
        n = F.shape[0]
        assert np.max(np.abs(F.T @ F - np.eye(n))) < 1e-14
        # in frame coordinates every operator is block diagonal, one 2x2
        # block per principal plane
        off = np.kron(np.eye(n // 2), np.ones((2, 2))) == 0
        t = rng.uniform(-1.0, 1.0)
        ops = [operator(dat, entry) for entry in ("J", "S", ("flow_cos", t), ("flow_sin", t))]
        for op in ops:
            leak = np.max(np.abs((F.T @ op @ F)[off]), initial=0.0)
            assert leak / max(1.0, np.max(np.abs(op))) < 1e-14
        if dat.sines.min() > 1e-3:
            # the planes are those of the Tomita operator solved densely
            S = brute_force_tomita(K)[0]
            leak = np.max(np.abs((F.T @ S @ F)[off]), initial=0.0)
            assert leak / max(1.0, np.max(np.abs(S))) < 1e-12


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
    # the lattice's clipped construction still produces exactly orthogonal
    # flow and conjugation blocks
    for L in (64, 256):
        _, dat = _lattice_tomita(L)
        n = 2 * dat.ambient_dim
        assert dat.sines.min() <= ch.LATTICE_CLIP_ANGLE
        u = flow_real(dat, 0.7)
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-10
        J = md.dense(dat.apply_j_real, n)
        assert np.max(np.abs(J @ J - np.eye(n))) < 1e-10


@pytest.mark.parametrize("eps", (1e-8, 1e-9, 1e-12, 0.0))
def test_tomita_rejects_degenerate_sines_at_any_floor(eps):
    # a plane with sine at or below 1e-7 has no partner direction: it is
    # rejected even at angle floor 0, where it once gave zero sines and a
    # non-finite S
    K = md.StandardSubspace(2, [[1.0, 0.0], [1j, eps]])
    for floor in (md.DEFAULT_ANGLE_FLOOR, 0.0):
        with pytest.raises(md.StandardnessError, match="subspace is not standard"):
            md.tomita_operators(K, angle_floor=floor)
    # in a stack the error names the first failing member
    rng = np.random.default_rng(31)
    gens = np.stack([md.random_standard_subspace(2, rng).generators, K.generators,
                     [[1.0, 0.0], [1j, 0.0]]])
    with pytest.raises(md.StandardnessError, match=r"subspace \(1,\) of the stack") as err:
        md.tomita_operators(md.StandardSubspace(2, gens), angle_floor=0.0)
    assert err.value.report.angles.tobytes() == K.standardness().angles.tobytes()


def test_accepted_records_clear_the_degenerate_sine():
    # a record accepted at angle floor 0 has its smallest angle above the
    # bound, read from the sines it keeps, so every sine is above it too
    rng = np.random.default_rng(5)
    accepted = rejected = 0
    for _ in range(300):
        gens = _degenerate_generators(int(rng.integers(2, 9)), 1, rng.uniform(0.5e-7, 2e-7), rng)
        try:
            dat = md.tomita_operators(md.StandardSubspace(gens.shape[-1], gens), angle_floor=0.0)
        except md.StandardnessError:
            rejected += 1
            continue
        accepted += 1
        assert dat.sines.min() > md._DEGENERATE_SINE
        assert np.isfinite(operator(dat, "S")).all()
    assert accepted and rejected


def test_errors_near_the_degenerate_sine_report_a_failing_subspace():
    # one plane of angle theta from _DEGENERATE_SINE to 6% above it: only
    # the angle on the bound may be rejected, and a rejected subspace's own
    # report is not standard
    for phi in (0.0, 0.3, 1.1):
        for theta in np.linspace(1.0e-7, 1.06e-7, 400):
            gens = np.exp(1j * phi) * np.array([[1.0, 0.0], [1j * np.cos(theta), np.sin(theta)]])
            try:
                md.tomita_operators(md.StandardSubspace(2, gens), angle_floor=1e-12)
            except md.StandardnessError as err:
                assert theta == 1.0e-7 and not err.report.standard


# --- stacks of subspaces -----------------------------------------------------------

STACK_KINDS = ("S", "delta", "delta_sqrt", "J", ("flow_cos", 0.7), ("flow_sin", 0.7),
               ("flow_cos", -2.1), ("flow_sin", -2.1))


def _degenerate_generators(m, k, eps, rng):
    """m generators of a subspace of C^m with k principal planes of angle
    about eps (K holds e_j and nearly i e_j for j < k), turned by a random
    unitary so that no coordinate is special."""
    gens = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    for j in range(k):
        gens[2 * j] = np.eye(m)[2 * j]
        gens[2 * j + 1] = 1j * (1 + eps) * np.eye(m)[2 * j] + eps * np.eye(m)[2 * j + 1]
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return gens @ u


def _assert_stack_matches_one_calls(gens):
    m = gens.shape[-1]
    rng = np.random.default_rng(m)
    K = md.StandardSubspace(m, gens)
    dat = md.tomita_operators(K)
    assert K.stack_shape == gens.shape[:1] and dat.frame.shape == gens.shape[:1] + (2 * m, 2 * m)
    shared, own = rng.normal(size=(2 * m, 3)), rng.normal(size=(len(gens), 2 * m, 3))
    stacked = (dat.apply_planes(STACK_KINDS, shared), dat.apply_planes(STACK_KINDS, own),
               dat.apply_flow_real(0.4, own), dat.apply_j_real(own), dat.apply_s(gens),
               dat.apply_flow(0.4, gens), dat.apply_j(gens))
    for i, g in enumerate(gens):
        one = md.tomita_operators(md.StandardSubspace(m, g))
        for a, b in ((dat.frame[i], one.frame), (dat.sigmas[i], one.sigmas),
                     (dat.sines[i], one.sines), (K.basis[i], md.StandardSubspace(m, g).basis)):
            assert a.tobytes() == b.tobytes()
        singles = (one.apply_planes(STACK_KINDS, shared), one.apply_planes(STACK_KINDS, own[i]),
                   one.apply_flow_real(0.4, own[i]), one.apply_j_real(own[i]), one.apply_s(g),
                   one.apply_flow(0.4, g), one.apply_j(g))
        for a, b in zip(stacked, singles):
            assert a[i].tobytes() == b.tobytes()


def test_stacked_tomita_matches_one_subspace_calls():
    # each subspace of a stack is factored and its operators applied with
    # the arithmetic of its own call, bit for bit, for every m the modular
    # suite draws
    rng = np.random.default_rng(19)
    for m in range(1, 9):
        gens = np.stack([md.random_standard_subspace(m, rng).generators for _ in range(6)])
        _assert_stack_matches_one_calls(gens)


def test_stacked_standardness_is_per_subspace():
    rng = np.random.default_rng(29)
    gens = np.stack([md.random_standard_subspace(3, rng).generators,
                     _degenerate_generators(3, 1, 1e-9, rng),
                     md.random_standard_subspace(3, rng).generators])
    report = md.StandardSubspace(3, gens).standardness()
    assert report.standard.tolist() == [True, False, True]
    assert report.min_angle.shape == (3,) and report.min_angle[1] < 1e-8
    # each member's verdict and angles are those of its one-subspace call
    for g, angles, standard in zip(gens, report.angles, report.standard):
        one = md.StandardSubspace(3, g).standardness()
        assert angles.tobytes() == one.angles.tobytes() and standard == one.standard
    # the error names the first failing subspace and carries its own report
    with pytest.raises(md.StandardnessError, match=r"subspace \(1,\) of the stack") as err:
        md.tomita_operators(md.StandardSubspace(3, gens))
    one = md.StandardSubspace(3, gens[1]).standardness()
    assert err.value.report.angles.tobytes() == one.angles.tobytes()


@pytest.mark.parametrize("shape,failing", [((5,), (2,)), ((2, 3), (1, 1))])
def test_stack_error_reports_its_member_as_the_stacked_standardness(shape, failing):
    # The error's report is the failing member's row of the whole stack's
    # standardness(), bit for bit, though only that member is computed.
    rng = np.random.default_rng(37)
    gens = np.empty(shape + (3, 3), dtype=complex)
    for i in np.ndindex(shape):
        gens[i] = (_degenerate_generators(3, 1, 1e-9, rng) if i == failing
                   else md.random_standard_subspace(3, rng).generators)
    K = md.StandardSubspace(3, gens)
    floor = 1e-6
    whole = K.standardness(floor)
    assert np.argwhere(~whole.standard).tolist() == [list(failing)]
    with pytest.raises(md.StandardnessError, match=rf"subspace \({failing[0]},") as err:
        md.tomita_operators(K, floor)
    report = err.value.report
    assert report.angles.tobytes() == whole.angles[failing].tobytes()
    assert (report.ambient_dim, report.real_dim, report.angle_floor) == (3, 3, floor)
    assert str(err.value).startswith(f"subspace {failing} of the stack is not standard: "
                                     f"real dim 3 of 3, min principal angle "
                                     f"{whole.min_angle[failing]:.3e}")


def test_nan_angle_floor_raises():
    # no angle compares at or below NaN, so a NaN floor would accept every
    # subspace whose sines clear _DEGENERATE_SINE; it raises ValueError, not
    # StandardnessError, so random_standard_subspace stops at its first draw
    rng, ref = np.random.default_rng(31), np.random.default_rng(31)
    with pytest.raises(ValueError, match="NaN") as err:
        md.random_standard_subspace(3, rng, float("nan"))
    assert not isinstance(err.value, md.StandardnessError)
    ref.normal(size=(2, 3, 3))
    assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError, match="NaN"):
        md.tomita_operators(md.StandardSubspace(2, np.eye(2)), np.nan)


def test_stack_of_different_dimensions_raises():
    gens = np.zeros((2, 2, 2), dtype=complex)
    gens[:, 0, 0] = 1.0
    gens[0, 1, 1] = 1.0          # spans R^2: real dimension 2
    gens[1, 1, 0] = 2.0          # parallel to the first: real dimension 1
    with pytest.raises(ValueError, match="one real dimension"):
        md.StandardSubspace(2, gens)
    # alone, the first is standard and the second fails the dimension test
    reports = [md.StandardSubspace(2, g).standardness() for g in gens]
    assert [(r.real_dim, r.standard) for r in reports] == [(2, True), (1, False)]
