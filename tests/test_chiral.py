import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import confmod.chiral as ch
import confmod.modular as md
import dense_reference as dr
from confmod import cli

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
    # the coordinates of every site indicator are z_k(u) = sqrt(2k) c_{-k}(u),
    # their encoding is its real and imaginary stack, and
    # dense_reference.coord_pinv the encoding's transpose scaled by L/k: it
    # equals the SVD pseudo-inverse and is a right inverse of the encoding
    for L, model in models.items():
        # phases reduced mod L exactly, as the model's table of roots of
        # unity reduces them: they agree to rounding, at most 8.1e-17 here
        # (phases left unreduced would round at ~eps * pi L)
        k = np.arange(1, model.m + 1)[:, None]
        closed = np.sqrt(2.0 * k) * np.exp(2j * np.pi * (k * np.arange(L) % L) / L) / L
        z = ch._site_coords(model, np.arange(L))
        np.testing.assert_allclose(z, closed, rtol=0, atol=2e-16)
        tr = ch._encoded_sites(model, np.arange(L))
        np.testing.assert_array_equal(tr, np.vstack([z.real, z.imag]))
        pinv = dr.coord_pinv(model)
        np.testing.assert_allclose(pinv, np.linalg.pinv(tr), rtol=0, atol=1e-12)
        np.testing.assert_allclose(tr @ pinv, np.eye(2 * model.m),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", (16, 32, 64, 128, 256, 512, 1024))
def test_site_columns_match_dense_encoding_bytes(L):
    # the table of roots of unity is within one ulp of the correctly rounded
    # one, part by part, so the dense encoding is within 1.5 eps of its
    # entries' size sqrt(2k) / L of the closed form with correctly rounded
    # phases (dense_reference.encoding; 0.99 eps at L = 1024).  The site
    # columns, built per site, are the bits of the dense encoding's
    # columns, so every interval basis and Tomita frame factors the same
    # input: the half circle, its complement, the pct probe, a rotated half
    # circle, and arcs holding one site and all but one site
    model = ch.build_model(L)
    table, exact = ch._roots_of_unity(L), dr.roots_of_unity(L)
    for got, ref in ((table.real, exact.real), (table.imag, exact.imag)):
        assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))
    dense = ch._encoded_sites(model, np.arange(L))
    k = np.arange(1, model.m + 1)
    size = np.sqrt(2.0 * np.concatenate([k, k]))[:, None] / L
    assert np.all(np.abs(dense - dr.encoding(model)) <= 1.5 * np.finfo(float).eps * size)
    I, w = ch.half_circle(), 2 * np.pi / L
    arcs = (I, I.complement(), ch.CircleInterval(np.pi + 0.7, np.pi + 1.5),
            ch.CircleInterval(3 * w, np.pi + 3 * w),
            ch.CircleInterval(-0.5 * w, 0.5 * w), ch.CircleInterval(0.5 * w, -0.5 * w))
    assert [arc.sites(model).size for arc in arcs[-2:]] == [1, L - 1]
    for arc in arcs:
        cols = dr.site_columns(model, arc)
        assert cols.tobytes() == dense[:, arc.sites(model)].tobytes()


@pytest.mark.parametrize("L", (64, 256))
def test_half_circle_frame_structure_bytes(L):
    # interval_tomita's frame is orthonormal; its sines come in equal pairs,
    # one plane per parity block, beside one plane at the right angle; above
    # the clip its angles are those of the thin-SVD basis of
    # interval_subspace; and its K vectors span the site columns up to the
    # clipped planes, whose Im-row K vectors it turns by less than twice the
    # clip angle.  i times a K vector lies in the span of the iK vectors.
    # The half circle's conjugate phases are powers of i, so bit for bit
    # each column holds, for every mode k, Re z_k = 0 or Im z_k = 0; the
    # half circle turned by three sites takes the same path with phases
    # that are not, and only that last check is left out for it
    model = ch.build_model(L)
    m, w = model.m, 2 * np.pi / L
    frames = []
    for arc in (ch.half_circle(), ch.CircleInterval(3 * w, np.pi + 3 * w)):
        dat = ch.interval_tomita(model, arc)
        F = dr.frame(dat)
        frames.append(F)
        assert np.max(np.abs(F.T @ F - np.eye(2 * m))) <= 1e-13
        assert np.flatnonzero(dat.sigmas == 0.0).tolist() == [0] and dat.sines[0] == 1.0
        assert np.array_equal(dat.sines[1::2], dat.sines[2::2])
        assert np.array_equal(dat.sigmas[1::2], dat.sigmas[2::2])
        B = ch.interval_subspace(model, arc).basis
        ref = md.subspace_angles(B, md._times_i(B))
        angles = np.sort(np.arctan2(dat.sines, dat.sigmas))[::-1]
        above = ref > ch.LATTICE_CLIP_ANGLE
        assert np.max(np.abs(angles[above] - ref[above])) <= 1e-12
        k_vecs, cols = F[:, 0::2], dr.site_columns(model, arc)
        off = np.linalg.norm(cols - k_vecs @ (k_vecs.T @ cols), axis=0)
        assert np.max(off / np.linalg.norm(cols, axis=0)) < 2 * ch.LATTICE_CLIP_ANGLE
        ik_vecs, i_k = dat.sigmas * F[:, 0::2] + dat.sines * F[:, 1::2], md._times_i(k_vecs)
        assert np.max(np.abs(i_k - ik_vecs @ (ik_vecs.T @ i_k))) <= 1e-13
        # the record's own change of coordinates is this frame, and the
        # window planes lead, so the window frame is the frame's first
        # 2n columns
        assert np.max(np.abs(dat._from_planes(np.eye(2 * m).reshape(m, 2, 2 * m)) - F)) <= 1e-15
        assert np.max(np.abs(dat._to_planes(F).reshape(2 * m, 2 * m) - np.eye(2 * m))) <= 1e-13
        window = np.arcsin(dat.sines) > ch.RESOLVABLE_WINDOW
        n = int(window.sum())
        assert window[:n].all() and n % 2 == 1
        assert np.max(np.abs(ch._window_frame(dat) - F[:, :2 * n])) <= 1e-15
    half, turned = frames
    assert np.all((half[:m] == 0.0) | (half[m:] == 0.0))
    assert not np.all((turned[:m] == 0.0) | (turned[m:] == 0.0))


@pytest.mark.parametrize("L", (64, 256))
def test_record_rebuilds_half_circle_frame_bytes(L):
    # the dense frame of the record (A, angles, phases): in w-coordinates
    # its Re-row columns are the factor A and its Im-row columns A R, the
    # pairs (b, u) turned to (c b + s u, s b - c u).  The half circle's
    # phases are powers of i, so undoing them is exact and gives back these
    # columns bit for bit, every Re-row column with zero Im rows and every
    # Im-row column with zero Re rows
    model = ch.build_model(L)
    m = model.m
    dat = ch.interval_tomita(model, ch.half_circle())
    F = dr.frame(dat)
    w = dat.phases[:, None] * (F[:m] + 1j * F[m:])
    a, c, s = dat.factor, dat.sigmas[2::2], dat.sines[2::2]
    b, u = a[:, 1::2], a[:, 2::2]
    re_rows = np.concatenate([a[:, :1], b, u], axis=1)
    im_rows = np.concatenate([a[:, :1], c * b + s * u, s * b - c * u], axis=1)
    re_cols, im_cols = np.r_[0, 2:2 * m:4, 3:2 * m:4], np.r_[1, 4:2 * m:4, 5:2 * m:4]
    assert w.real[:, re_cols].tobytes() == re_rows.tobytes()
    assert w.imag[:, im_cols].tobytes() == im_rows.tobytes()
    assert not w.imag[:, re_cols].any() and not w.real[:, im_cols].any()


def test_interval_tomita_traced_peak_bytes():
    # interval_tomita frees the site table and both parity blocks once
    # [P | P_perp]^T (Im block) is formed, and writes the factor's b and u
    # columns one product at a time: its traced peak is 3.1 m x m float
    # arrays at L = 1024 (97.9 MiB at L = 4096), against 5.4 (171.0 MiB)
    # with the residual SVD and the completion QR
    model = ch.build_model(1024)
    tracemalloc.start()
    try:
        ch.interval_tomita(model, ch.half_circle())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * model.m ** 2


@pytest.mark.parametrize("b, dim", ((np.pi / 2, 31), (3 * np.pi / 2, 95)),
                         ids=("quarter_circle", "three_quarter_circle"))
def test_interval_tomita_rejects_arcs_without_m_sites(b, dim):
    # only an arc of m sites spans a space of real dimension m; any other
    # raises with the standardness report of interval_subspace
    model = ch.build_model(128)
    arc = ch.CircleInterval(0.0, b)
    with pytest.raises(md.StandardnessError, match="not standard") as err:
        ch.interval_tomita(model, arc)
    report = err.value.report
    assert (report.ambient_dim, report.real_dim) == (63, dim) == (model.m, arc.sites(model).size)
    assert not report.standard


@pytest.mark.parametrize("L", (16, 1024))
def test_lattice_model_holds_order_L_bytes(L):
    # a model stores L and the site angles, nothing of size L^2
    model = ch.build_model(L)
    stored = [getattr(model, f.name) for f in dataclasses.fields(model)]
    assert sum(np.asarray(v).nbytes for v in stored) <= 8 * (L + 1)


@pytest.mark.parametrize("L", (16, 64, 256, 1024, 2048))
def test_fft_encoding_matches_dense_product(L):
    # The dense encoding's entries are within about one ulp of the closed
    # form, and row k of its product with F, a sum of L terms, rounds within
    # L eps w_k ||F||_1 in the worst case, w_k = sqrt(2k) / L the entries'
    # size; the bound allows twice that.  The FFT's componentwise error is a
    # few eps log2(L) w_k ||F||_1.
    model = ch.build_model(L)
    eps = np.finfo(float).eps
    k = np.arange(1, model.m + 1)
    w = np.sqrt(2.0 * np.concatenate([k, k])) / L
    rng = np.random.default_rng(L)
    for F in (rng.normal(size=L), rng.normal(size=(L, 3)), ch.bump_vector(model, 1.0, 0.5)):
        dense = ch._encoded_sites(model, np.arange(L)) @ F
        fft = ch._encode(model, F)
        assert fft.shape == dense.shape
        bound = (2 * L + 5 * np.log2(L)) * eps * np.multiply.outer(w, np.abs(F).sum(axis=0))
        assert np.all(np.abs(fft - dense) <= bound)
    assert np.linalg.norm(model.coords(F)) == pytest.approx(np.linalg.norm(dense), rel=1e-12)


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
        # Im <u, u> = 0 and the energy norm, sum |n| |c_n|^2 over the
        # retained modes 1 <= |n| <= m, is the coordinate norm
        assert abs(np.vdot(z, z).imag) < 1e-12
        c, n = np.fft.fft(u) / model.L, np.abs(np.fft.fftfreq(model.L, 1.0 / model.L))
        retained = (n >= 1) & (n <= model.m)
        energy = np.sum(n[retained] * np.abs(c[retained]) ** 2)
        assert np.sqrt(energy) == pytest.approx(np.linalg.norm(z))
        # multiplication by the complex structure is multiplication by i
        np.testing.assert_allclose(model.coords(dr.hilbert(model) @ u), 1j * z,
                                   atol=1e-10)


def test_energy_form_positive_definite(models):
    # dense eigendecomposition oracle on the retained space
    model = models[64]
    tr = ch._encoded_sites(model, np.arange(model.L))
    G = tr.T @ tr
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


def test_point_flow_needs_a_normal_scale():
    # the endpoints stay put while e^{-2 pi t} is a normal float, from
    # about 1e308 at t = -112.9 to 3e-308 at t = 112.7; beyond, it
    # overflows or goes subnormal and the endpoints would move, so the flow
    # raises, without a RuntimeWarning
    for I in (ch.half_circle(), ch.CircleInterval(0.5, 2.0), ch.CircleInterval(5.9, 1.3)):
        for t in (-112.9, 112.7):
            for end in (I.a, I.b):
                turn = np.exp(1j * ch.mobius_point_flow(I, t, end)) / np.exp(1j * end)
                assert abs(np.angle(turn)) <= 4 * np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (-113.0, 118.0, 120.0, np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="not a normal float"):
                    ch.mobius_point_flow(I, t, I.b)


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
        rel = (out - I.a) % (2 * np.pi)
        assert np.all((rel > 0.0) & (rel < I.arc_length))
        # the flow preserves orientation: its derivative, by central
        # differences, is positive
        h = 1e-6
        fd = (ch.mobius_point_flow(I, t, thetas + h)
              - ch.mobius_point_flow(I, t, thetas - h)) / (2 * h)
        assert np.all(fd > 0)


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
    z, pinv = ch._site_coords(model, np.arange(L)), dr.coord_pinv(model)
    moved = np.stack([z @ (shift @ (pinv[:, :model.m] @ g.real + pinv[:, model.m:] @ g.imag))
                      for g in K.generators])
    assert md.subspace_angle(md.StandardSubspace(model.m, moved), Kr) < 1e-10
    # so the checks read the same values off the rotated arc, whose mirror
    # phases are not powers of i (the z-cocycle to its rounding floor, see
    # test_lattice_values_invariant_under_generator_mixing)
    probe = ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)
    turned = ch.CircleInterval(probe.a + rot.a, probe.b + rot.a)
    rep, rep_r = (ch.bw_defect(model, arc, [0.0, 0.1, 0.25]) for arc in (I, rot))
    np.testing.assert_allclose(rep_r.defects, rep.defects, rtol=0, atol=1e-11)
    np.testing.assert_allclose(rep_r.z_residuals, rep.z_residuals, rtol=5e-9, atol=0)
    assert abs(ch.pct_geometry_defect(model, rot, turned)
               - ch.pct_geometry_defect(model, I, probe)) < 1e-11


# --- geometric unitary ---------------------------------------------------------------

def test_flow_unitary_identity_at_zero(models):
    model = models[64]
    I = ch.half_circle()
    tr, pinv = ch._encoded_sites(model, np.arange(model.L)), dr.coord_pinv(model)
    U = tr @ ch.mobius_flow_unitary(model, I, 0.0) @ pinv
    assert np.max(np.abs(U - np.eye(2 * model.m))) < 1e-12


@pytest.mark.parametrize("L", (64, 256))
def test_flow_unitary_matches_dense_formula(L):
    # mobius_flow_unitary is the column pull-back applied to every site
    # indicator; the reference is the dense interpolation matrix projected
    # onto the retained modes.  On the half circle at L = 64-1024 the two
    # agree to <= 2.1e-15 relative in norm; in the largest-entry measure
    # below they differ by <= 3.1e-15 up to L = 1024
    model = ch.build_model(L)
    for interval in (ch.half_circle(), ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)):
        for t in (0.25, -0.1):
            ref = dr.mobius_flow_unitary(model, interval, t)
            err = np.max(np.abs(ch.mobius_flow_unitary(model, interval, t) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref))


def test_flow_unitary_group_law_converges(models):
    I = ch.half_circle()
    residuals = {}
    for L, model in models.items():
        tr, pinv = ch._encoded_sites(model, np.arange(model.L)), dr.coord_pinv(model)
        fam = ch._encoded_family(model, ch.default_test_family(model, I))
        U = lambda t: tr @ ch.mobius_flow_unitary(model, I, t) @ pinv
        residuals[L] = np.max(np.linalg.norm(
            (U(0.1) @ U(0.15) - U(0.25)) @ fam, axis=0))
    assert residuals[256] < residuals[128] < residuals[64]
    assert residuals[256] < 1e-2


def test_flow_unitary_near_isometric_on_smooth_vectors(models):
    model = models[256]
    I = ch.half_circle()
    tr, pinv = ch._encoded_sites(model, np.arange(model.L)), dr.coord_pinv(model)
    fam = ch._encoded_family(model, ch.default_test_family(model, I))
    U = tr @ ch.mobius_flow_unitary(model, I, 0.1) @ pinv
    norms = np.linalg.norm(U @ fam, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=2e-2)


def test_endpoint_concentrated_vector_asymptotically_fixed(models):
    # vectors hugging the fixed point theta = 0 are moved less and less
    model = models[256]
    I = ch.half_circle()
    tr = ch._encoded_sites(model, np.arange(model.L))
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
    for grid in ([0.7], [-0.6, 0.1], [np.nan], [0.1, np.inf], 0.7):
        with pytest.raises(ValueError, match="t grid"):
            ch.bw_defect(models[64], ch.half_circle(), grid)
    # a scalar is a one-point grid
    scalar = ch.bw_defect(models[64], ch.half_circle(), 0.25)
    grid = ch.bw_defect(models[64], ch.half_circle(), [0.25])
    assert scalar.t_grid.shape == (1,)
    assert np.array_equal(scalar.defects, grid.defects)
    assert np.array_equal(scalar.z_residuals, grid.z_residuals)


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
    tr, pinv = ch._encoded_sites(model, np.arange(model.L)), dr.coord_pinv(model)
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
    tr = ch._encoded_sites(model, np.arange(model.L))
    pinv = np.linalg.pinv(tr)

    def U(t):
        return tr @ dr.mobius_flow_unitary(model, interval, t) @ pinv

    def Z(t):
        return dr.flow_real(dat, t) @ U(-t)

    def worst(op):
        return np.max(np.linalg.norm(op @ fam, axis=0))

    defects = [worst(dr.flow_real(dat, t) - U(t)) for t in t_grid]
    ts = [t for t in t_grid if abs(t) > 1e-12][:3]
    z = [worst(Z(s + t) - Z(s) @ Z(t)) for s in ts for t in ts if abs(s + t) <= 0.5]
    return np.array(defects), np.array(z)


def test_bw_defect_matches_dense_reference(models):
    # the matrix-vector chains of bw_defect reproduce the dense operators
    I = ch.half_circle()
    grid = np.array([0.0, 0.1, 0.25])
    for L in LADDER:
        rep = ch.bw_defect(models[L], I, grid)
        defects, z = _dense_bw_reference(models[L], I, grid)
        np.testing.assert_allclose(rep.defects, defects, rtol=0, atol=1e-12)
        assert rep.z_residuals.shape == z.shape == (4,)
        np.testing.assert_allclose(rep.z_residuals, z, rtol=0, atol=1e-12)


def test_bw_defect_groups_its_applications(models, bw_applications):
    # one synthesis matrix per distinct set of flow sites and per outer
    # z(s), and one modular flow per time and column stage: 15 of each when
    # every application of z or of the two flows is made on its own
    ch.bw_defect(models[64], ch.half_circle(), [0.0, 0.1, 0.25])
    assert bw_applications == {"synthesis": 10, "flow": 8}


@pytest.mark.parametrize("L", (256, 1024, 2048))
def test_mode_synthesis_matches_long_double_reference(L):
    # e^{i k phi} from the two tables of running products against k phi
    # formed exactly in long double and reduced mod 2 pi: the recurrence
    # rounds one cosine and sine per angle and about 2 sqrt(m) products, and
    # measures 0.19-0.20 L eps here; cosines and sines of the rounded k phi
    # would reach 1.02-1.13 L eps, over the bound L eps / 2
    model = ch.build_model(L)
    phi = ch.mobius_point_flow(ch.half_circle(), -0.25, model.thetas)
    two_pi = 2 * np.arccos(np.longdouble(-1))
    phase = np.fmod(np.outer(phi.astype(np.longdouble), np.arange(1, model.m + 1)), two_pi)
    exact = np.cos(phase).astype(float) + 1j * np.sin(phase).astype(float)
    err = np.max(np.abs(dr.mode_synthesis(model, phi) - exact))
    assert err <= L * np.finfo(float).eps / 2


@pytest.mark.parametrize("L", (64, 256, 1024))
def test_pull_back_matches_full_synthesis(L):
    # the pull-back contracts the two synthesis tables without forming the
    # L x m synthesis matrix: it equals the product through that matrix
    # (dense_reference.pull_back) for 1, 3, 9 and 2m columns, and the
    # columns of one chunk, at most ceil(sqrt(m)) of them, come out bit for
    # bit as when that chunk is pulled back alone
    model = ch.build_model(L)
    m, B = model.m, int(np.ceil(np.sqrt(model.m)))
    angles = ch.mobius_point_flow(ch.half_circle(), -0.25, model.thetas)
    cols = np.random.default_rng(L).normal(size=(2 * m, 2 * m))
    for k in (1, 3, 9, 2 * m):
        pulled = ch._pull_back(model, cols[:, :k], angles)
        assert np.max(np.abs(pulled - dr.pull_back(model, cols[:, :k], angles))) <= 1e-13
    chunk = ch._pull_back(model, cols[:, B:2 * B], angles)
    assert pulled[:, B:2 * B].tobytes() == chunk.tobytes()


def test_duality_defect_lattice_symmetries(models):
    I = ch.half_circle()
    for L in (64, 128):
        model = models[L]
        base = ch.duality_defect(model, I)
        # whole-site rotation invariance, exact: the rotation has the half
        # circle's parity blocks, bit for bit
        shift = 2 * np.pi * (L // 8) / L
        rot = ch.CircleInterval(I.a + shift, I.b + shift)
        assert base == ch.duality_defect(model, rot)
        # swapping I and I' leaves the defect unchanged
        assert abs(base - ch.duality_defect(model, I.complement())) < 1e-10


def test_duality_factors_one_arc_when_the_complement_has_its_size(monkeypatch):
    # a complement with as many sites as the arc is the arc turned by whole
    # sites, and the arc's parity bases serve it up to the sign of each
    # row: duality_defect factors one arc for the half circle, its L/8
    # rotation and its complement, and both arcs when the complement holds
    # another number of sites
    model = ch.build_model(64)
    arcs = _site_basis_arcs(model)
    factored, bases = [], ch._parity_bases
    monkeypatch.setattr(ch, "_parity_bases",
                        lambda model, arc: factored.append(arc) or bases(model, arc))
    for arc in arcs[:3]:
        factored.clear()
        ch.duality_defect(model, arc)
        assert factored == [arc]
    arc = arcs[11]
    assert arc.sites(model).size != arc.complement().sites(model).size
    factored.clear()
    ch.duality_defect(model, arc)
    assert factored == [arc, arc.complement()]


@pytest.mark.parametrize("L", (256, 512))
def test_lattice_values_against_correctly_rounded_phases(monkeypatch, L):
    # the t = 0.25 bw defect, the pct angle and the duality angle from the
    # table of roots of unity agree to 1e-12 with those from the correctly
    # rounded table (dense_reference.roots_of_unity): at most 3.1e-13 for
    # L = 256 and 512, and 1.7e-15 for the duality angle
    model = ch.build_model(L)
    I, probe = ch.half_circle(), ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)

    def values():
        return np.array([ch.bw_defect(model, I, 0.25).defects[-1],
                         ch.pct_geometry_defect(model, I, probe), ch.duality_defect(model, I)])

    table = values()
    monkeypatch.setattr(ch, "_roots_of_unity", dr.roots_of_unity)
    np.testing.assert_allclose(values(), table, rtol=0, atol=1e-12)


def _site_basis_arcs(model):
    """The half circle, its L/8 rotation and its complement, then five
    arcs, each followed by its complement: two at fixed angles off the
    sites; 2h + 1 sites across theta = 0, h = L/8 (odd); 2h sites from
    site 4 (even); and 2h sites after an endpoint on site 0, the one kind
    of arc whose mirror reflection is not its complement's."""
    I = ch.half_circle()
    w = 2 * np.pi / model.L
    h = model.L // 8
    off = (ch.CircleInterval(0.1, np.pi + 0.3), ch.CircleInterval(0.3, 1.0),
           ch.CircleInterval(-(h + 0.5) * w, (h + 0.5) * w),
           ch.CircleInterval(3.5 * w, (2 * h + 3.5) * w),
           ch.CircleInterval(0.0, (2 * h + 0.5) * w))
    return (I, ch.CircleInterval(I.a + h * w, I.b + h * w), I.complement(),
            *(a for arc in off for a in (arc, arc.complement())))


def _complement_svd_angle(model, interval):
    """The duality angle measured against K(I)' built by the full SVD of
    symplectic_complement."""
    k_in = ch.interval_subspace(model, interval)
    k_out = ch.interval_subspace(model, interval.complement())
    return md.subspace_angle(md.symplectic_complement(k_in), k_out)


def test_duality_defect_matches_complement_svd(models):
    # the angle read from the parity blocks equals the one measured against
    # K(I)' built by the full SVD of symplectic_complement.  Off the sites
    # dim K(I') differs from 2m - dim K(I), so the angle is the q-th
    # smallest sine, q = min(2m - dim K(I), dim K(I')).  An arc of
    # L - 2 = 2m sites spans R^{2m} (at L = 16, the complement of
    # (0.3, 1.0)): its symplectic complement is zero and duality_defect
    # raises.  At L = 1024 the reference costs a second per arc, so only
    # the half circle's three arcs are compared there.
    for L in (16, 32, 64, 128, 256, 512, 1024):
        model = models.get(L) or ch.build_model(L)
        arcs = _site_basis_arcs(model)
        for arc in arcs[:3] if L == 1024 else arcs:
            if arc.sites(model).size == 2 * model.m:
                with pytest.raises(ValueError, match="zero subspace"):
                    ch.duality_defect(model, arc)
                continue
            assert abs(ch.duality_defect(model, arc) - _complement_svd_angle(model, arc)) < 1e-12
        sizes = [arc.sites(model).size for arc in arcs]
        assert [n % 2 for n in sizes[7:11]] == [1, 1, 0, 0]
        assert {0, L - 1} <= set(arcs[7].sites(model))
        for arc in arcs[3:5]:
            k_in = ch.interval_subspace(model, arc)
            k_out = ch.interval_subspace(model, arc.complement())
            assert k_out.real_dim != 2 * model.m - k_in.real_dim


def _parity_and_full_pairing(model, arc):
    """The singular values, descending, of the parity pairing that
    duality_defect reads (_parity_pairing) and of the pairing
    B_in^T (i B_out) of the Householder bases (dense_reference.site_basis)."""
    parity = np.linalg.svd(ch._parity_pairing(model, arc, arc.complement()),
                           compute_uv=False)
    full = np.linalg.svd(dr.site_pairing(model, arc, arc.complement()), compute_uv=False)
    return parity, full


@pytest.mark.parametrize("L", (16, 32, 64, 128, 256))
def test_duality_parity_pairing_gives_the_full_pairing(models, L):
    # the parity pairing has the singular values of the Householder
    # pairing, for every arc.  For an arc that shares its mirror reflection
    # with its complement (all but the last two of _site_basis_arcs),
    # multiplication by i swaps the parity blocks: the pairing's diagonal
    # blocks are zero, and its singular values are those of its two
    # off-diagonal blocks together.  At L = 1024 they agree to 1e-14 (next
    # test).
    model = models.get(L) or ch.build_model(L)
    arcs = _site_basis_arcs(model)
    for arc in arcs:
        parity, full = _parity_and_full_pairing(model, arc)
        assert np.max(np.abs(parity - full)) < 1e-13
        if arc in arcs[11:]:
            continue
        pairing = ch._parity_pairing(model, arc, arc.complement())
        p, p_out = (ch._parity_bases(model, a)[1].shape[1] for a in (arc, arc.complement()))
        assert not pairing[:p, :p_out].any() and not pairing[p:, p_out:].any()
        blocks = np.concatenate([np.linalg.svd(pairing[:p, p_out:], compute_uv=False),
                                 np.linalg.svd(pairing[p:, :p_out], compute_uv=False)])
        union = np.zeros(full.size)
        union[:blocks.size] = np.sort(blocks)[::-1]
        assert np.max(np.abs(union - full)) < 1e-13
    assert ch._parity_bases(model, arcs[11])[0] != ch._parity_bases(model, arcs[12])[0]


def test_duality_parity_pairing_with_reduced_phases():
    # The parity pairing reads its blocks from half the sites, the
    # Householder pairing its basis from all of them; with every phase
    # reduced exactly (one table of roots of unity) they agree to rounding
    # at L = 1024, where unreduced phases parted them by 3.2e-13.
    parity, full = _parity_and_full_pairing(ch.build_model(1024), ch.half_circle())
    assert np.max(np.abs(parity - full)) < 1e-14


@pytest.mark.parametrize("L", (16, 1024))
def test_duality_half_circle_phases_are_a_signed_permutation(L):
    # c = L/2: the phases are (-i)^k exactly, so each row of Re w and of
    # Im w is a row of the site columns, with its sign, bit for bit
    model = ch.build_model(L)
    k = np.arange(1, model.m + 1)
    phases = ch._mirror_phases(model, L // 2)
    assert np.array_equal(phases, np.array([1.0, -1j, -1.0, 1j])[k % 4])
    cols = ch._encoded_sites(model, np.arange(1, L // 2))
    re, im = cols[:model.m], cols[model.m:]
    w = phases[:, None] * (re + 1j * im)
    even = (k % 2 == 0)[:, None]
    sign = np.where(k % 4 < 2, 1.0, -1.0)[:, None]
    assert np.array_equal(w.real, np.where(even, sign * re, sign * im))
    assert np.array_equal(w.imag, np.where(even, sign * im, -sign * re))


def _krylov_and_dense(apply, apply_t, shape, r, dense):
    """The block Krylov solve's top r singular values beside the dense
    matrix's, padded with zeros to r as duality_defect reads them."""
    top = ch._top_singular_values(apply, apply_t, shape, r)
    ref = np.zeros(r)
    ref[:min(r, min(shape))] = np.linalg.svd(dense, compute_uv=False)[:r]
    got = np.zeros(r)
    got[:top.size] = top
    return got, ref


@pytest.mark.parametrize("L", (16, 32, 64, 128, 256, 512, 1024, 2048))
def test_duality_krylov_matches_dense_svd(models, L):
    # the block Krylov solve that duality_defect reads gives the top
    # r = max(d1 + d2 - 2m, 0) + 1 singular values of the parity pairing
    # (1, 2 or 3 as both, one or neither endpoint sits on a site) as the
    # pairing's full SVD does, to 1e-13, for every arc of _site_basis_arcs
    # and its complement up to L = 1024 and the half circle's three arcs
    # at 2048.
    # Off the sites d1 != d2; the half circle's top value is double; and
    # at L = 16 the two sites of (0.3, 1.0) pair to rank 2, below r = 3,
    # where the third value is zero
    model = models.get(L) or ch.build_model(L)
    arcs = _site_basis_arcs(model)
    seen = set()
    for arc in arcs[:3] if L == 2048 else arcs:
        apply, apply_t, (d1, d2) = ch._pairing_maps(model, arc, arc.complement())
        if d1 == 2 * model.m:
            continue
        r = max(d1 + d2 - 2 * model.m, 0) + 1
        got, ref = _krylov_and_dense(apply, apply_t, (d1, d2), r,
                                     ch._parity_pairing(model, arc, arc.complement()))
        assert np.max(np.abs(got - ref)) <= 1e-13
        seen.add((r, d1 == d2, min(d1, d2) < r))
    assert {r for r, _, _ in seen} == ({1} if L == 2048 else {1, 2, 3})
    assert (1, True, False) in seen and (L == 2048 or (3, False, False) in seen)
    assert (L == 16) == ((3, False, True) in seen)
    if L in (64, 1024):
        top = np.linalg.svd(ch._parity_pairing(model, arcs[0], arcs[2]), compute_uv=False)
        assert top[0] - top[1] <= 1e-14 < top[1] - top[2]


@pytest.mark.parametrize("shape", ((40, 25), (25, 40), (30, 30)))
def test_duality_krylov_on_repeated_values_and_low_rank(shape):
    # pairings of rank below min(d1, d2), with a double or triple top value
    # and with fewer nonzero values than r: the solve stops on an
    # invariant subspace or on its residual bound and matches the full
    # SVD to 1e-13, the missing values read as zeros
    rng = np.random.default_rng(sum(shape))
    d1, d2 = shape
    for values in ([0.9, 0.9, 0.5, 0.5, 0.2], [1.0, 1.0, 1.0, 0.3], [0.7, 0.4], [0.6]):
        u = np.linalg.qr(rng.normal(size=(d1, len(values))))[0]
        v = np.linalg.qr(rng.normal(size=(d2, len(values))))[0]
        pairing = (u * values) @ v.T
        for r in (1, 2, 3):
            got, ref = _krylov_and_dense(lambda x: pairing @ x, lambda y: pairing.T @ y,
                                         shape, r, pairing)
            assert np.max(np.abs(got - ref)) <= 1e-13


def test_duality_run_never_imports_numpy_random():
    # the solve's start block is a closed form: a duality run draws no
    # random numbers, and never imports numpy.random, whose import alone
    # costs about 6 MB of resident memory
    src = str(Path(ch.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = ("import sys\n"
            "from confmod import cli\n"
            "cli.run(cli.SuiteConfig(suite='duality', sizes=(64, 128)))\n"
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         timeout=300, check=True)
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("L", (64, 128, 256, 512))
def test_site_basis_spans_interval_subspace(models, L):
    # the Householder basis is orthonormal, one column per site, and spans
    # the space of the thin-SVD basis of interval_subspace
    model = models.get(L) or ch.build_model(L)
    for arc in _site_basis_arcs(model):
        q = dr.site_basis(model, arc)
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
        for fn in (dr.site_basis, ch.interval_subspace, ch.duality_defect):
            with pytest.raises(ValueError, match=message):
                fn(model, arc)
    most = ch.CircleInterval(0.5 * w, -0.5 * w)
    assert most.sites(model).size == model.L - 1
    assert dr.site_basis(model, most).shape == (2 * model.m, 2 * model.m)
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
        assert dr.involution_residual(ch.interval_tomita(model, I)) < 1e-6


@pytest.mark.parametrize("L", (64, 128, 256, 512, 1024))
def test_involution_bound_covers_dense_residual(L):
    # the plane-wise bound on ||J^2 - 1||_2 is at least the dense
    # max |J J - 1| it replaced, and far below the check's 1e-6
    dat = ch.interval_tomita(ch.build_model(L), ch.half_circle())
    assert dr.involution_residual(dat) <= ch._involution_bound(dat) < 1e-12


@pytest.mark.parametrize("corrupt", ("factor column", "plane"))
def test_involution_check_fails_on_corrupted_planes(monkeypatch, corrupt):
    # scaling one column of the record's factor, or one plane's sine and
    # cosine, by 1 + 1e-5 breaks J^2 = 1 by about 2e-5: the dense residual
    # sees it, the bound covers it, and the pct suite's check fails
    def corrupted(model, interval, _fn=ch.interval_tomita):
        dat = _fn(model, interval)
        if corrupt == "factor column":
            factor = dat.factor.copy()
            factor[:, 0] *= 1.0 + 1e-5
            return dataclasses.replace(dat, factor=factor)
        sines, sigmas = dat.sines.copy(), dat.sigmas.copy()
        k = np.argmin(np.abs(sines - 0.5))
        sines[k] *= 1.0 + 1e-5
        sigmas[k] *= 1.0 + 1e-5
        return dataclasses.replace(dat, sines=sines, sigmas=sigmas)

    dat = corrupted(ch.build_model(64), ch.half_circle())
    assert ch._involution_bound(dat) >= dr.involution_residual(dat) > 1e-6
    monkeypatch.setattr(ch, "interval_tomita", corrupted)
    checks = cli.run_pct_suite(cli.SuiteConfig(sizes=(32, 64)))
    (record,) = [c for c in checks if c["name"] == "pct-conjugation-involution"]
    assert record["status"] == "fail" and record["value"] > 1e-6


def test_reflection_matches_dense_pullback(models):
    # the matrix-vector reflection equals the dense retained-mode pull-back
    model = models[64]
    I = ch.half_circle()
    fam = ch._encoded_family(model, ch.default_test_family(model, I))
    pull = dr.synthesis(model, ch.circle_reflection(I, model.thetas))
    tr, pinv = ch._encoded_sites(model, np.arange(model.L)), dr.coord_pinv(model)
    dense = tr @ dr.mode_projector(model) @ pull @ pinv
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
    # the values depend on K(I) only, not on the spanning sets of its parity
    # blocks that interval_tomita and the parity pairing factor: mixing each
    # block's site columns by a random orthogonal matrix changes every basis
    # factored from them, and moves the defects and the duality angle by
    # rounding only (at most 2.3e-13 over 26 mixings at L = 64 and 256).
    # The z-cocycle residuals reach the planes just above the clip, whose
    # sines carry the sine route's relative error eps / 1e-7 = 2.2e-9; they
    # moved by up to 1.0e-11 relative over those mixings at L = 64 and
    # 9.0e-11 at L = 256 (the cosine route: ~1e-3)
    I = ch.half_circle()
    probe = ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)

    def values(model):
        rep = ch.bw_defect(model, I, [0.0, 0.1, 0.25])
        return np.concatenate([[ch.pct_geometry_defect(model, I, probe),
                                ch.duality_defect(model, I)], rep.defects]), rep.z_residuals

    base = {L: values(models[L]) for L in LADDER}
    rng = np.random.default_rng(11)
    unmixed, mixings = ch._parity_blocks, []

    def mixed(model, interval):
        c, re, im = unmixed(model, interval)
        qs = [np.linalg.qr(rng.normal(size=(n, n)))[0] for n in (re.shape[1], im.shape[1])]
        mixings.append(qs)
        return c, re @ qs[0], im @ qs[1]

    monkeypatch.setattr(ch, "_parity_blocks", mixed)
    for L in LADDER:
        mixings.clear()
        checks, z = values(models[L])
        assert mixings and all(np.max(np.abs(q - np.eye(len(q)))) > 0.5 for qs in mixings for q in qs)
        np.testing.assert_allclose(checks, base[L][0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(z, base[L][1], rtol=5e-9, atol=0)


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


@pytest.mark.parametrize("L", (16, 32, 64, 128, 256, 512))
def test_symplectic_locality_matches_householder_reference(models, L):
    # the norm of the parity pairing is that of the Householder pairing, for
    # every pair of arcs: overlapping, nested, disjoint, across theta = 0
    # and with endpoints on and off the sites (the arcs' reflections then
    # differ).  At L = 16 the complement of (0.3, 1.0) holds L - 2 sites and
    # spans R^{2m}, so its pairing with any arc has norm 1.  At L = 512 the
    # regions are the half circle's three arcs only, to bound the cost
    model = models.get(L) or ch.build_model(L)
    arcs = _site_basis_arcs(model)
    bases = [dr.site_basis(model, arc) for arc in arcs]
    for probe, q_probe in zip(arcs, bases):
        for region, q_region in zip(arcs[:3] if L == 512 else arcs, bases):
            ref = np.linalg.norm(q_probe.T @ md._times_i(q_region), 2)
            assert abs(ch.symplectic_locality(model, region, probe) - ref) < 1e-12


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


@pytest.mark.parametrize("center, width", ((1.0, -0.5), (1.0, 0.0), (np.nan, 0.5),
                                           (np.inf, 0.5), (1.0, np.nan), (1.0, 3.2)))
def test_bump_vector_rejects_bad_arguments(models, center, width):
    # a negative width would pass for its absolute value, a zero width
    # divides by zero and a NaN centre gives zeros; past pi the support
    # wraps beyond the antipode, where the bump is not smooth
    with pytest.raises(ValueError, match="bump"):
        ch.bump_vector(models[64], center, width)
    ch.bump_vector(models[64], 1.0, np.pi)
