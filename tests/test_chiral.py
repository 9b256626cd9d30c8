import numpy as np
import pytest

import confmod.chiral as ch
import confmod.modular as md
import dense_reference as dr

LADDER = (64, 128, 256)


@pytest.fixture(scope="module")
def models():
    return {L: ch.build_model(L) for L in LADDER}


# --- lattice model ---------------------------------------------------------------

def test_build_model_validation():
    for bad in (8, 15, 20, 100):
        with pytest.raises(ValueError):
            ch.build_model(bad)


def test_coord_pinv_closed_form(models):
    # coord_map is z_k(u) = sqrt(2k) c_{-k}(u), coord_map_real its real and
    # imaginary stack, and coord_pinv the transpose scaled by L/k: it equals
    # the SVD pseudo-inverse and is a right inverse of the real coordinate map
    for L, model in models.items():
        # phases reduced mod L exactly; build_model's unreduced phases round
        # at ~eps * pi L
        k = np.arange(1, model.m + 1)[:, None]
        closed = np.sqrt(2.0 * k) * np.exp(2j * np.pi * (k * np.arange(L) % L) / L) / L
        np.testing.assert_allclose(model.coord_map, closed, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(model.coord_map_real,
                                      np.vstack([model.coord_map.real, model.coord_map.imag]))
        tr = model.coord_map_real
        np.testing.assert_allclose(model.coord_pinv, np.linalg.pinv(tr), rtol=0, atol=1e-12)
        np.testing.assert_allclose(tr @ model.coord_pinv, np.eye(2 * model.m),
                                   rtol=0, atol=1e-12)


def test_complex_structure_squares_to_minus_projector(models):
    for L, model in models.items():
        J, P = dr.hilbert(model), dr.mode_projector(model)
        assert np.max(np.abs(J @ J + P)) < 1e-10
        # J annihilates the removed modes: constant and alternating vectors
        assert np.max(np.abs(J @ np.ones(L))) < 1e-10
        assert np.max(np.abs(J @ (-1.0) ** np.arange(L))) < 1e-10


def test_inner_product_is_sesquilinear(models):
    model = models[64]
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=model.L)
        z = model.coords(u)
        # Im <u, u> = 0 and the energy norm is the coordinate norm
        assert abs(np.vdot(z, z).imag) < 1e-12
        assert model.energy_norm(u) == pytest.approx(np.linalg.norm(z))
        # multiplication by the complex structure is multiplication by i
        np.testing.assert_allclose(model.coords(dr.hilbert(model) @ u), 1j * z,
                                   atol=1e-10)


def test_energy_form_positive_definite(models):
    # dense eigendecomposition oracle on the retained space
    model = models[64]
    G = model.coord_map_real.T @ model.coord_map_real
    ev = np.linalg.eigvalsh(G)
    assert np.sum(ev > 1e-12) == model.L - 2      # rank = retained dimension
    assert ev[-1] > 0
    retained = ev[ev > 1e-12]
    assert retained.min() > 0


# --- intervals --------------------------------------------------------------------

def test_half_circle_site_counts(models):
    for L, model in models.items():
        I = ch.half_circle()
        assert len(I.sites(model)) == model.m
        assert len(I.complement().sites(model)) == model.m


def test_interval_subspace_standardness(models):
    model = models[64]
    K = ch.interval_subspace(model, ch.half_circle())
    report = K.standardness(angle_floor=0.0)
    # the dimension is exactly half; the smallest principal angles collapse
    # below double precision (squeezed interior sectors), so the floor-based
    # verdict is negative even though the exact-arithmetic subspace is standard
    assert report.dimension_ok
    assert report.angles[0] > 1.0


def test_single_site_interval_not_standard(models):
    model = models[64]
    width = 2 * np.pi / model.L
    I = ch.CircleInterval(np.pi - 0.75 * width, np.pi + 0.75 * width)
    assert len(I.sites(model)) == 1
    K = ch.interval_subspace(model, I)
    report = K.standardness()
    assert not report.standard and report.real_dim == 1


def test_interval_validation(models):
    with pytest.raises(ValueError):
        ch.CircleInterval(0.0, 0.0)
    with pytest.raises(ValueError):
        ch.CircleInterval(0.0, 2.0 * np.pi)
    model = models[64]
    tiny = ch.CircleInterval(np.pi + 1e-4, np.pi + 2e-4)
    with pytest.raises(ValueError):
        ch.interval_subspace(model, tiny)


# --- circle maps ------------------------------------------------------------------

def test_point_flow_fixes_endpoints():
    I = ch.CircleInterval(0.3, 2.1)
    for t in (-1.0, 0.2, 3.0):
        assert ch.mobius_point_flow(I, t, I.a) == pytest.approx(I.a % (2 * np.pi))
        assert ch.mobius_point_flow(I, t, I.b) == pytest.approx(I.b % (2 * np.pi))


def test_point_flow_group_law():
    I = ch.CircleInterval(0.3, 2.1)
    thetas = np.linspace(0, 2 * np.pi, 50, endpoint=False)
    for s, t in ((0.1, 0.2), (-0.4, 0.7), (1.0, -0.3)):
        a = ch.mobius_point_flow(I, s, ch.mobius_point_flow(I, t, thetas))
        b = ch.mobius_point_flow(I, s + t, thetas)
        np.testing.assert_allclose(np.exp(1j * a), np.exp(1j * b), atol=1e-10)


def test_point_flow_preserves_interval_and_derivative():
    I = ch.CircleInterval(0.3, 2.1)
    thetas = np.linspace(0.4, 2.0, 30)
    for t in (-0.8, 0.5):
        out = ch.mobius_point_flow(I, t, thetas)
        assert all(I.contains_angle(v) for v in np.atleast_1d(out))
        d = ch.mobius_point_flow_deriv(I, t, thetas)
        assert np.all(d > 0)
        # finite-difference check
        h = 1e-6
        fd = (ch.mobius_point_flow(I, t, thetas + h)
              - ch.mobius_point_flow(I, t, thetas - h)) / (2 * h)
        np.testing.assert_allclose(d, fd, rtol=1e-5)


def test_circle_reflection_half_circle():
    I = ch.half_circle()
    thetas = np.linspace(0.1, 6.1, 40)
    out = ch.circle_reflection(I, thetas)
    np.testing.assert_allclose(np.exp(1j * out), np.exp(-1j * thetas), atol=1e-10)


def test_reflect_interval():
    I = ch.half_circle()
    probe = ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)
    r = ch.reflect_interval(I, probe)
    assert r.a == pytest.approx((2 * np.pi - (np.pi + 1.5)) % (2 * np.pi))
    assert r.b == pytest.approx((2 * np.pi - (np.pi + 0.7)) % (2 * np.pi))


def test_reflect_interval_fixes_symmetric_probe():
    # a probe symmetric about the reflection maps onto itself, so J should
    # map K(P) onto K(P)
    I = ch.half_circle()
    sym = ch.CircleInterval(2 * np.pi - 1.1, 1.1)
    r = ch.reflect_interval(I, sym)
    assert r.a == pytest.approx(sym.a, abs=1e-12)
    assert r.b == pytest.approx(sym.b, abs=1e-12)


def test_lattice_rotation_covariance(models):
    # whole-site rotations commute exactly with the complex structure and
    # carry interval subspaces onto rotated ones
    model = models[64]
    L = model.L
    shift = np.roll(np.eye(L), L // 8, axis=0)
    J = dr.hilbert(model)
    assert np.max(np.abs(shift @ J - J @ shift)) < 1e-12
    I = ch.half_circle()
    rot = ch.CircleInterval(I.a + 2 * np.pi * (L // 8) / L,
                            I.b + 2 * np.pi * (L // 8) / L)
    K = ch.interval_subspace(model, I)
    Kr = ch.interval_subspace(model, rot)
    moved = np.stack([model.coord_map @ (shift @ (model.coord_pinv[:, :model.m]
                      @ g.real + model.coord_pinv[:, model.m:] @ g.imag))
                      for g in K.generators])
    assert md.subspace_angle(md.StandardSubspace(model.m, moved), Kr) < 1e-10


# --- geometric unitary ---------------------------------------------------------------

def test_flow_unitary_identity_at_zero(models):
    model = models[64]
    I = ch.half_circle()
    U = model.coord_map_real @ ch.mobius_flow_unitary(model, I, 0.0) @ model.coord_pinv
    assert np.max(np.abs(U - np.eye(2 * model.m))) < 1e-12


@pytest.mark.parametrize("L", (64, 256))
def test_flow_unitary_matches_dense_formula(L):
    # mobius_flow_unitary is the column pull-back applied to every site
    # indicator; the reference is the dense interpolation matrix projected
    # onto the retained modes.  On the half circle at L = 64-1024, weights
    # 0, 0.5 and 1, the two agree to <= 2.1e-15 relative in norm; in the
    # largest-entry measure below they differ by <= 3.1e-15 up to L = 1024
    model = ch.build_model(L)
    for interval in (ch.half_circle(), ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)):
        for weight in (0.0, 0.5, 1.0):
            for t in (0.25, -0.1):
                ref = dr.mobius_flow_unitary(model, interval, t, weight)
                err = np.max(np.abs(ch.mobius_flow_unitary(model, interval, t, weight) - ref))
                assert err <= 1e-13 * np.max(np.abs(ref))


def test_flow_unitary_group_law_converges(models):
    I = ch.half_circle()
    residuals = {}
    for L, model in models.items():
        tr, pinv = model.coord_map_real, model.coord_pinv
        fam = ch._encoded_family(model, ch.default_test_family(model, I))
        U = lambda t: tr @ ch.mobius_flow_unitary(model, I, t) @ pinv
        residuals[L] = np.max(np.linalg.norm(
            (U(0.1) @ U(0.15) - U(0.25)) @ fam, axis=0))
    assert residuals[256] < residuals[128] < residuals[64]
    assert residuals[256] < 1e-2


def test_flow_unitary_near_isometric_on_smooth_vectors(models):
    model = models[256]
    I = ch.half_circle()
    tr, pinv = model.coord_map_real, model.coord_pinv
    fam = ch._encoded_family(model, ch.default_test_family(model, I))
    U = tr @ ch.mobius_flow_unitary(model, I, 0.1) @ pinv
    norms = np.linalg.norm(U @ fam, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=2e-2)


def test_endpoint_concentrated_vector_asymptotically_fixed(models):
    # vectors hugging the fixed point theta = 0 are moved less and less
    model = models[256]
    I = ch.half_circle()
    tr = model.coord_map_real
    U = ch.mobius_flow_unitary(model, I, 0.2)
    overlaps = []
    for center, width in ((0.4, 0.3), (0.05, 0.04), (0.025, 0.02)):
        bump = ch.bump_vector(model, center, width)
        moved = tr @ (U @ bump)
        ref = tr @ (dr.mode_projector(model) @ bump)
        overlaps.append(float(moved @ ref)
                        / (np.linalg.norm(moved) * np.linalg.norm(ref)))
    assert overlaps[0] < overlaps[1] < overlaps[2]
    assert overlaps[2] > 0.7


# --- defect reports --------------------------------------------------------------------

def test_bw_defect_zero_at_t_zero(models):
    rep = ch.bw_defect(models[64], ch.half_circle(), [0.0])
    assert rep.defects[0] < 1e-10


def test_bw_defect_grid_validation(models):
    with pytest.raises(ValueError):
        ch.bw_defect(models[64], ch.half_circle(), [0.7])


def test_bw_defect_ladder_decreases(models):
    defects = []
    for L in LADDER:
        rep = ch.bw_defect(models[L], ch.half_circle(), [0.25])
        defects.append(float(rep.defects[0]))
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 0.45


def test_bw_direction_is_discriminated(models):
    # the reversed geometric flow does not track the modular flow
    model = models[128]
    I = ch.half_circle()
    dat = ch.interval_tomita(model, I)
    fam = ch._encoded_family(model, ch.default_test_family(model, I), ch._window_frame(dat))
    tr, pinv = model.coord_map_real, model.coord_pinv
    fwd = tr @ ch.mobius_flow_unitary(model, I, 0.25) @ pinv
    rev = tr @ ch.mobius_flow_unitary(model, I, -0.25) @ pinv
    F = dat.apply_flow_real(0.25, fam)
    good = np.max(np.linalg.norm(F - fwd @ fam, axis=0))
    bad = np.max(np.linalg.norm(F - rev @ fam, axis=0))
    assert bad > 2 * good


def _dense_bw_reference(model, interval, t_grid):
    """bw_defect's values from dense 2m x 2m operators: the assembled
    Delta^{it} and the encoded dense Moebius flow with the SVD
    pseudo-inverse."""
    dat = ch.interval_tomita(model, interval)
    fam = ch._encoded_family(model, ch.default_test_family(model, interval),
                             ch._window_frame(dat))
    tr, pinv = model.coord_map_real, np.linalg.pinv(model.coord_map_real)

    def U(t, weight=0.0):
        return tr @ dr.mobius_flow_unitary(model, interval, t, weight) @ pinv

    def Z(t):
        return dr.flow_real(dat, t) @ U(-t)

    def worst(op):
        return np.max(np.linalg.norm(op @ fam, axis=0))

    defects = [worst(dr.flow_real(dat, t) - U(t)) for t in t_grid]
    t_ref = t_grid[np.argmax(np.abs(t_grid))]
    weights = [worst(dr.flow_real(dat, t_ref) - U(t_ref, w)) for w in (0.5, 1.0)]
    ts = [t for t in t_grid if abs(t) > 1e-12][:3]
    z = [worst(Z(s + t) - Z(s) @ Z(t)) for s in ts for t in ts if abs(s + t) <= 0.5]
    return np.array(defects), np.array(weights), np.array(z)


def test_bw_defect_matches_dense_reference(models):
    # the matrix-vector chains of bw_defect reproduce the dense operators
    I = ch.half_circle()
    grid = np.array([0.0, 0.1, 0.25])
    for L in LADDER:
        rep = ch.bw_defect(models[L], I, grid)
        defects, weights, z = _dense_bw_reference(models[L], I, grid)
        np.testing.assert_allclose(rep.defects, defects, rtol=0, atol=1e-12)
        np.testing.assert_allclose([rep.weight_diagnostics[w] for w in (0.5, 1.0)],
                                   weights, rtol=0, atol=1e-12)
        assert rep.z_residuals.shape == z.shape == (4,)
        np.testing.assert_allclose(rep.z_residuals, z, rtol=0, atol=1e-12)


def test_bw_defect_groups_its_applications(models, monkeypatch):
    # one synthesis matrix per distinct set of flow sites and per outer
    # z(s), and one modular flow per time and column stage: 15 syntheses and
    # 14 flows when every application is made on its own
    calls = {"synthesis": 0, "flow": 0}
    synthesis, flow = ch._mode_synthesis, md.ModularData.apply_flow_real

    def counted_synthesis(model, angles):
        calls["synthesis"] += 1
        return synthesis(model, angles)

    def counted_flow(self, t, cols):
        calls["flow"] += 1
        return flow(self, t, cols)

    monkeypatch.setattr(ch, "_mode_synthesis", counted_synthesis)
    monkeypatch.setattr(md.ModularData, "apply_flow_real", counted_flow)
    ch.bw_defect(models[64], ch.half_circle(), [0.0, 0.1, 0.25])
    assert calls["synthesis"] <= 10 and calls["flow"] <= 10


@pytest.mark.parametrize("L", (256, 1024, 2048))
def test_mode_synthesis_matches_long_double_reference(L):
    # e^{i k phi} from the two exponential tables against k phi formed
    # exactly in long double and reduced mod 2 pi; rounding k phi in double
    # precision alone costs up to ~k phi eps, hence the bound 2 pi L eps
    model = ch.build_model(L)
    phi = ch.mobius_point_flow(ch.half_circle(), -0.25, model.thetas)
    two_pi = 2 * np.arccos(np.longdouble(-1))
    phase = np.fmod(np.outer(phi.astype(np.longdouble), np.arange(1, model.m + 1)), two_pi)
    exact = np.cos(phase).astype(float) + 1j * np.sin(phase).astype(float)
    err = np.max(np.abs(ch._mode_synthesis(model, phi) - exact))
    assert err <= 2 * np.pi * L * np.finfo(float).eps


def test_weight_diagnostics_reported(models):
    rep = ch.bw_defect(models[64], ch.half_circle(), [0.25])
    assert set(rep.weight_diagnostics) == {0.5, 1.0}
    assert all(v > 0 for v in rep.weight_diagnostics.values())


def test_duality_defect_lattice_symmetries(models):
    I = ch.half_circle()
    for L in (64, 128):
        model = models[L]
        base = ch.duality_defect(model, I)
        # whole-site rotation invariance
        shift = 2 * np.pi * (L // 8) / L
        rot = ch.CircleInterval(I.a + shift, I.b + shift)
        assert abs(base - ch.duality_defect(model, rot)) < 1e-10
        # swapping I and I' leaves the defect unchanged
        assert abs(base - ch.duality_defect(model, I.complement())) < 1e-10


def test_duality_defect_matches_complement_svd(models):
    # the angle read from the interval bases equals the one measured
    # against K(I)' built by the full SVD of symplectic_complement
    def reference(model, interval):
        k_in = ch.interval_subspace(model, interval)
        k_out = ch.interval_subspace(model, interval.complement())
        return md.subspace_angle(md.symplectic_complement(k_in), k_out)

    I = ch.half_circle()
    for L in (64, 128, 256, 512):
        model = models.get(L) or ch.build_model(L)
        shift = 2 * np.pi * (L // 8) / L
        for arc in (I, ch.CircleInterval(I.a + shift, I.b + shift), I.complement()):
            assert abs(ch.duality_defect(model, arc) - reference(model, arc)) < 1e-12
    # endpoints off the sites: dim K(I') differs from 2m - dim K(I), so the
    # angle is the q-th smallest sine, q = min(2m - dim K(I), dim K(I'))
    model = models[64]
    for arc in (ch.CircleInterval(0.1, np.pi + 0.3), ch.CircleInterval(0.3, 1.0)):
        for interval in (arc, arc.complement()):
            k_in = ch.interval_subspace(model, interval)
            k_out = ch.interval_subspace(model, interval.complement())
            assert k_out.real_dim != 2 * model.m - k_in.real_dim
            assert abs(ch.duality_defect(model, interval) - reference(model, interval)) < 1e-12


def _site_basis_arcs(model):
    """The half circle, its L/8 rotation, its complement, and the two
    off-site arcs above with their complements."""
    I = ch.half_circle()
    shift = 2 * np.pi * (model.L // 8) / model.L
    off = (ch.CircleInterval(0.1, np.pi + 0.3), ch.CircleInterval(0.3, 1.0))
    return (I, ch.CircleInterval(I.a + shift, I.b + shift), I.complement(),
            *off, *(arc.complement() for arc in off))


@pytest.mark.parametrize("L", (64, 128, 256, 512))
def test_site_basis_spans_interval_subspace(models, L):
    # the Householder basis is orthonormal, one column per site, and spans
    # the space of the thin-SVD basis of interval_subspace
    model = models.get(L) or ch.build_model(L)
    for arc in _site_basis_arcs(model):
        q = ch._site_basis(model, arc)
        assert q.shape == (2 * model.m, arc.sites(model).size)
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) < 1e-13
        b = ch.interval_subspace(model, arc).basis
        assert np.max(np.abs(q @ q.T - b @ b.T)) < 1e-12


def test_site_basis_errors(models):
    # no sites and all sites: the errors of interval_subspace; L - 1 sites:
    # a basis of all of R^{2m}, whose symplectic complement is zero, as for
    # the thin-SVD basis
    model = models[64]
    w = 2 * np.pi / model.L
    for arc, message in ((ch.CircleInterval(0.25 * w, 0.75 * w),
                          "^interval contains no lattice sites"),
                         (ch.CircleInterval(-0.5 * w, -0.6 * w),
                          "complement contains no lattice sites")):
        for fn in (ch._site_basis, ch.interval_subspace, ch.duality_defect):
            with pytest.raises(ValueError, match=message):
                fn(model, arc)
    most = ch.CircleInterval(0.5 * w, -0.5 * w)
    assert most.sites(model).size == model.L - 1
    assert ch._site_basis(model, most).shape == (2 * model.m, 2 * model.m)
    assert ch.interval_subspace(model, most).real_dim == 2 * model.m
    with pytest.raises(ValueError, match="zero subspace"):
        ch.duality_defect(model, most)


def test_duality_angle_ladder_recorded(models):
    """The worst principal angle is pinned to boundary site pairs whose
    symplectic pairing is scale invariant; the measured ladder increases,
    it does not converge (cf. the frozen calibration values)."""
    from confmod import calibration
    for L in LADDER:
        val = ch.duality_defect(models[L], ch.half_circle())
        assert val == pytest.approx(calibration.DUALITY_ANGLES[L], abs=1e-9)


def test_pct_defect_and_conjugation(models):
    from confmod import calibration
    I = ch.half_circle()
    probe = ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)
    for L in (64, 256):
        model = models[L]
        val = ch.pct_geometry_defect(model, I, probe)
        assert val == pytest.approx(calibration.PCT_DEFECTS[L], abs=1e-9)
        dat = ch.interval_tomita(model, I)
        J = md.dense(dat.apply_j_real, 2 * model.m)
        assert np.max(np.abs(J @ J - np.eye(2 * model.m))) < 1e-6


def test_reflection_matches_dense_pullback(models):
    # the matrix-vector reflection equals the dense retained-mode pull-back
    model = models[64]
    I = ch.half_circle()
    fam = ch._encoded_family(model, ch.default_test_family(model, I))
    pull = dr.synthesis(model, ch.circle_reflection(I, model.thetas))
    dense = model.coord_map_real @ dr.mode_projector(model) @ pull @ model.coord_pinv
    np.testing.assert_allclose(ch._reflect_encoded(model, I, fam), dense @ fam,
                               atol=1e-12)


def test_pct_sign_convention(models):
    # J tracks minus the geometric reflection: the other sign is far off
    model = models[128]
    I = ch.half_circle()
    probe = ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)
    dat = ch.interval_tomita(model, I)
    fam = ch._encoded_family(model, ch.default_test_family(model, probe),
                             ch._window_frame(dat))
    wrong = dat.apply_j_real(fam) - ch._reflect_encoded(model, I, fam)
    assert np.max(np.linalg.norm(wrong, axis=0)) > 1.5


def test_lattice_values_invariant_under_generator_mixing(models, monkeypatch):
    # the values depend on K(I) only, not on the generators spanning it.
    # J and the flow on clipped planes come from an arbitrary frame
    # completion and do; the z-cocycle residuals reach those planes (the
    # geometric flow moves the family out of the window) and are left out
    I = ch.half_circle()
    probe = ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)

    def values(model):
        rep = ch.bw_defect(model, I, [0.0, 0.1, 0.25])
        return np.concatenate([[ch.pct_geometry_defect(model, I, probe),
                                ch.duality_defect(model, I)],
                               rep.defects, list(rep.weight_diagnostics.values())])

    base = {L: values(models[L]) for L in LADDER}
    rng = np.random.default_rng(11)
    unmixed = ch.interval_subspace

    def mixed(model, interval):
        gens = unmixed(model, interval).generators
        q, _ = np.linalg.qr(rng.normal(size=(len(gens), len(gens))))
        return md.StandardSubspace(model.m, q @ gens)

    monkeypatch.setattr(ch, "interval_subspace", mixed)
    for L in LADDER:
        np.testing.assert_allclose(values(models[L]), base[L], rtol=0, atol=1e-9)


def test_windowed_tomita_involution(models):
    # within the resolvable window the Tomita involution holds numerically
    model = models[256]
    dat = ch.interval_tomita(model, ch.half_circle())
    W = ch._window_frame(dat)
    P = W @ W.T
    Sw = P @ md.dense(lambda cols: dat.apply_planes(("S",), cols), 2 * model.m) @ P
    fam = ch._encoded_family(model, ch.default_test_family(model, ch.half_circle()), W)
    assert np.max(np.linalg.norm(Sw @ (Sw @ fam) - fam, axis=0)) < 1e-6


def test_symplectic_locality_decays(models):
    I = ch.half_circle()
    probe = ch.CircleInterval(np.pi * 1.3, np.pi * 1.7)   # separated from I
    vals = [ch.symplectic_locality(models[L], I, probe) for L in LADDER]
    assert vals[0] > vals[1] > vals[2]


def test_z_cocycle_residual_within_ceiling(models):
    from confmod import calibration
    rep = ch.bw_defect(models[256], ch.half_circle(), [0.0, 0.1, 0.25])
    assert rep.max_z_residual() < calibration.BW_CEILINGS[256] * calibration.SLACK


# --- energy trace ------------------------------------------------------------------------

def test_energy_trace_closed_form():
    for beta in (0.5, 1.0, 2.0):
        n = 50
        total = ch.energy_trace(beta, n)
        closed = np.exp(-beta) / (1 - np.exp(-beta))
        tail = np.exp(-beta * n) / (1 - np.exp(-beta))
        assert abs(total - closed) <= tail + 1e-15
    assert ch.energy_trace(1.0, 50) == pytest.approx(
        np.exp(-1) / (1 - np.exp(-1)), abs=1e-12)


def test_energy_trace_monotone_and_validated():
    vals = [ch.energy_trace(b, 40) for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        ch.energy_trace(0.0, 10)


def test_bump_vector_support(models):
    model = models[64]
    u = ch.bump_vector(model, np.pi / 2, np.pi / 8)
    inside = np.abs((model.thetas - np.pi / 2 + np.pi) % (2 * np.pi) - np.pi) < np.pi / 8
    assert np.all(u[~inside] == 0)
    assert u.max() > 0
