"""High-precision cross-check of the lattice squeezing phenomenon.

These tests recompute, at 40 significant digits with mpmath, the facts that
motivate the resolvable-window policy and the two expected failures in the
acceptance suite: the principal angles between an interval's site span and
its image under the complex structure collapse exponentially, and smooth
mid-interval vectors carry order-one mass on planes whose angles lie far
below double precision.  At 60 digits they check the sines that
interval_tomita reads, above and below the clip.  Small lattices only; the
structure is scale free.
"""

import numpy as np
import pytest

import confmod.chiral as ch

mp_mod = pytest.importorskip("mpmath")
from mpmath import mp, mpf, matrix, eigsy  # noqa: E402

L = 32
M = L // 2 - 1          # 15 retained positive modes


@pytest.fixture(scope="module")
def precise_setup():
    mp.dps = 40
    thetas = [2 * mp.pi * j / L for j in range(L)]

    # z_k = sqrt(2k) c_{-k}(u): rows of the coordinate map, real encoding
    def encode(u):
        re, im = [], []
        for k in range(1, M + 1):
            scale = mp.sqrt(2 * mpf(k)) / L
            zr = scale * mp.fsum(u[j] * mp.cos(2 * mp.pi * k * j / L) for j in range(L))
            zi = scale * mp.fsum(u[j] * mp.sin(2 * mp.pi * k * j / L) for j in range(L))
            re.append(zr)
            im.append(zi)
        return re + im

    # orthonormal basis of the half-circle site span (sites 1..15)
    gens = []
    for s in range(1, M + 1):
        u = [mpf(0)] * L
        u[s] = mpf(1)
        gens.append(encode(u))
    basis = []
    for v in gens:
        w = list(v)
        for _ in range(2):
            for b in basis:
                c = mp.fsum(w[i] * b[i] for i in range(2 * M))
                w = [w[i] - c * b[i] for i in range(2 * M)]
        wn = mp.sqrt(mp.fsum(x * x for x in w))
        basis.append([x / wn for x in w])

    def mult_i(v):
        return [-x for x in v[M:]] + list(v[:M])

    ib = [mult_i(b) for b in basis]
    overlap = matrix(M, M)
    for a in range(M):
        for b in range(M):
            overlap[a, b] = mp.fsum(basis[a][i] * ib[b][i] for i in range(2 * M))
    cos2, vectors = eigsy(-(overlap * overlap))
    return thetas, encode, basis, cos2, vectors


def test_true_angle_spectrum_collapses(precise_setup):
    _, _, _, cos2, _ = precise_setup
    angles = sorted((float(mp.asin(mp.sqrt(max(mpf(0), 1 - c)))) for c in cos2),
                    reverse=True)
    # conjugation pairs planes of equal angle
    for a, b in zip(angles[1::2], angles[2::2]):
        assert a == pytest.approx(b, rel=1e-20)
    # healthiest plane is order one, and the spectrum collapses across more
    # than six decades already at L = 32
    assert angles[0] > 0.5
    assert angles[-1] < 1e-6
    # the collapse accelerates: successive distinct angles shrink by factors
    # that themselves shrink, so larger lattices plunge far below double
    # precision resolution
    distinct = angles[0::2][1:]
    ratios = [b / a for a, b in zip(distinct, distinct[1:])]
    assert all(r < 0.35 for r in ratios)
    assert ratios[-1] < ratios[0]


def test_smooth_vector_occupies_squeezed_planes(precise_setup):
    thetas, encode, basis, cos2, vectors = precise_setup
    u = []
    for th in thetas:
        s = (th - mp.pi / 2) / (mp.pi / 5)
        u.append(mp.e ** (-1 / (1 - s ** 2)) if abs(s) < 1 else mpf(0))
    z = encode(u)
    nz = mp.sqrt(mp.fsum(x * x for x in z))
    z = [x / nz for x in z]
    coords = [mp.fsum(basis[a][i] * z[i] for i in range(2 * M)) for a in range(M)]
    in_span = float(mp.sqrt(mp.fsum(c * c for c in coords)))
    assert in_span > 0.999999            # the bump lies in the site span

    deep = mpf(0)
    total = mpf(0)
    for k in range(M):
        comp = mp.fsum(vectors[a, k] * coords[a] for a in range(M))
        mass = comp * comp
        total += mass
        angle = mp.asin(mp.sqrt(max(mpf(0), 1 - cos2[k])))
        if angle < mpf(1) / 10 ** 4:
            deep += mass
    # an order-one fraction of a smooth interior vector sits on planes with
    # modular eigenvalues above 1e8 already at L = 32; combined with the
    # accelerating collapse above, interior content at larger L occupies
    # eigenvalues beyond double-precision resolution
    assert float(deep / total) > 0.3


def test_lattice_sines_against_60_digits():
    # The half circle's plane sines at L = 64 (sites 1..31, mirror centre
    # c = L/2), recomputed at 60 digits: the parity blocks of w-coordinates,
    # Re w of sites 1..16 and Im w of sites 1..15 with the phases
    # e^{i pi (2 k j - k c) / L} reduced mod 2L, orthonormalized by QR, and
    # the singular values of N - P (P^T N).  Above the clip the sine route
    # loses a sine s to about eps / s relative (at most 2.4 eps / s
    # measured, from 6.4e-7 to 0.17); below it interval_tomita clamps.
    L = 64
    m, c = L // 2 - 1, L // 2
    dat = ch.interval_tomita(ch.build_model(L), ch.half_circle())
    with mp.workdps(60):
        def block(part, sites):
            rows = [[part(mp.sqrt(2 * k) / L * mp.expjpi(mpf((2 * k * j - k * c) % (2 * L)) / L))
                     for j in sites] for k in range(1, m + 1)]
            return mp.qr(matrix(rows), mode="skinny")[0]
        P, N = block(mp.re, range(1, 17)), block(mp.im, range(1, 16))
        exact = np.sort([float(s) for s in mp.svd_r(N - P * (P.T * N), compute_uv=False)])[::-1]
    sines = dat.sines[2::2]
    above = exact > ch.LATTICE_CLIP_ANGLE
    assert above.sum() == 9 and (~above).sum() == 6
    assert np.all(np.abs(sines[above] - exact[above]) <= 8 * np.finfo(float).eps)
    assert np.all(sines[~above] == np.sin(ch.LATTICE_CLIP_ANGLE))
