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

# Principal angles below ~1e-8 cannot be distinguished from zero in double
# precision (cos theta rounds to 1).  Lattice interval subspaces reach that
# regime, so their Tomita operators are built with angles clamped here;
# only the corresponding nearly degenerate planes are biased.
LATTICE_CLIP_ANGLE = 1e-7

# Modular planes with angles above this threshold carry eigenvalues
# |log lambda| <~ 15 whose flow phases are accurate; the window used for
# flow comparisons.
RESOLVABLE_WINDOW = 1e-3


@dataclass(frozen=True)
class LatticeModel:
    """Circle lattice with complex structure and energy form.  Its one stored
    identification of site functions with C^m is coord_map_real."""

    L: int
    thetas: np.ndarray
    coord_map_real: np.ndarray     # site functions -> [Re z; Im z], 2m x L

    @property
    def m(self) -> int:
        return self.L // 2 - 1

    @property
    def coord_map(self) -> np.ndarray:
        """Site functions -> C^m, complex m x L."""
        return self.coord_map_real[:self.m] + 1j * self.coord_map_real[self.m:]

    @property
    def coord_pinv(self) -> np.ndarray:
        """Right inverse of coord_map_real, L x 2m: the rows of that map are
        orthogonal with squared norms k/L, so this is its scaled transpose."""
        k = np.arange(1, self.m + 1)
        return self.coord_map_real.T * (self.L / np.concatenate([k, k]))

    def coords(self, u: np.ndarray) -> np.ndarray:
        """Complex coordinates of a real site function."""
        return self.coord_map @ np.asarray(u, dtype=float)

    def energy_norm(self, u: np.ndarray) -> float:
        return float(np.linalg.norm(self.coords(u)))


def build_model(L: int) -> LatticeModel:
    """Build the lattice model; L must be a power of two, at least 16."""
    if L < 16 or (L & (L - 1)) != 0:
        raise ValueError("L must be a power of two with L >= 16")
    m = L // 2 - 1
    thetas = 2.0 * np.pi * np.arange(L) / L

    # z_k = sqrt(2k) c_{-k},  c_{-k}(u) = (1/L) sum_j u_j e^{+2 pi i k j / L};
    # the negative-mode coefficients are the complex-linear ones for the
    # -i sign(n) complex structure.
    k = np.arange(1, m + 1)
    phases = np.exp(2j * np.pi * np.outer(k, np.arange(L)) / L)
    coord_map = np.sqrt(2.0 * k)[:, None] * phases / L
    return LatticeModel(L, thetas, np.vstack([coord_map.real, coord_map.imag]))


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

    def contains_angle(self, theta: float) -> bool:
        return 0.0 < (theta - self.a) % (2.0 * np.pi) < self.arc_length

    def sites(self, model: LatticeModel) -> np.ndarray:
        rel = (model.thetas - self.a) % (2.0 * np.pi)
        inside = (rel > 1e-12) & (rel < self.arc_length - 1e-12)
        return np.nonzero(inside)[0]


def half_circle() -> CircleInterval:
    """Upper half circle.  Its endpoints sit on lattice sites, which strict
    membership excludes, so the interval and its complement each carry
    exactly m = L/2 - 1 sites and both site spans can be standard."""
    return CircleInterval(0.0, np.pi)


def _site_columns(model: LatticeModel, interval: CircleInterval) -> np.ndarray:
    """Encoded indicators of the sites inside the interval, 2m x n; raises
    when the interval or its complement holds no site."""
    sites = interval.sites(model)
    if sites.size == 0:
        raise ValueError("interval contains no lattice sites")
    if sites.size == model.L:
        raise ValueError("interval complement contains no lattice sites")
    return model.coord_map_real[:, sites]


def interval_subspace(model: LatticeModel, interval: CircleInterval) -> md.StandardSubspace:
    """Real span of the retained-mode site indicators inside the interval."""
    # Its basis stays the thin SVD of StandardSubspace: a Householder basis
    # (_site_basis) moves the Tomita frame, and bw-defect-L1024 by 5.1e-9
    # relative, beyond the 1e-9 of the recorded references.  It joins
    # _site_basis once the bw and pct values are pinned to the lattice
    # rather than to one basis (ROADMAP item 2).
    cols = _site_columns(model, interval)
    return md.StandardSubspace(model.m, (cols[:model.m] + 1j * cols[model.m:]).T)


def _site_basis(model: LatticeModel, interval: CircleInterval) -> np.ndarray:
    """Orthonormal basis of K(interval) in the real encoding: the reduced
    Householder QR of the encoded site indicators, with no rank decision.

    An arc with n <= 2m = L - 2 sites gives n independent columns.  The
    retained projection kills only the constant and (-1)^j, and a function
    on the arc that is a combination a + b (-1)^j vanishes on the arc's
    complement, whose >= 2 contiguous sites hold both parities, so
    a = b = 0.  With n = L - 1 the 2m + 1 columns span R^{2m}, the reduced
    Q is a basis of all of it, as the SVD basis is, and
    symplectic_complement_angle raises its zero-subspace error.  Principal
    angles do not depend on which orthonormal basis spans each space
    (Bjorck-Golub 1973), so the angles read from it are those of the SVD
    basis of interval_subspace."""
    return np.linalg.qr(_site_columns(model, interval))[0]


def interval_tomita(model: LatticeModel, interval: CircleInterval) -> md.ModularData:
    """Tomita operators of an interval subspace under the lattice clip
    policy (angles accepted down to numerical zero, clamped in the
    operator formulas)."""
    return md.tomita_operators(interval_subspace(model, interval),
                               clip_angle=LATTICE_CLIP_ANGLE)


def _window_frame(data: md.ModularData) -> np.ndarray:
    """Orthonormal frame (real encoding) of the modular planes with principal
    angle above RESOLVABLE_WINDOW; frame @ frame.T projects onto them."""
    return data.frame[:, np.repeat(np.arcsin(data.sines) > RESOLVABLE_WINDOW, 2)]


# --- Moebius flow of an interval ---------------------------------------------

def _interval_chart(interval: CircleInterval):
    """Homogeneous chart w = sin((theta-a)/2) / sin((b-theta)/2), positive
    exactly on the interval, 0 at a and infinity at b: num_den(s, c) is its
    numerator and denominator at s, c = sin, cos(theta/2), lift(num, den, e)
    a multiple of the sine and cosine of half the angle of chart e num / den.
    Both are linear, so they map theta-derivatives too: (c/2, -s/2) for (s, c)."""
    ca, sa = np.cos(interval.a / 2.0), np.sin(interval.a / 2.0)
    cb, sb = np.cos(interval.b / 2.0), np.sin(interval.b / 2.0)

    def num_den(s, c):
        return ca * s - sa * c, sb * c - cb * s

    def lift(num, den, e=1.0):
        return sb * e * num + sa * den, ca * den + cb * e * num

    return num_den, lift


def _chart_scaled(interval: CircleInterval, scale: float, theta):
    """The angles whose chart is scale times the chart of theta."""
    num_den, lift = _interval_chart(interval)
    theta = np.asarray(theta, dtype=float)
    n, d = num_den(np.sin(theta / 2.0), np.cos(theta / 2.0))
    return (2.0 * np.arctan2(*lift(scale * n, d))) % (2.0 * np.pi)


def mobius_point_flow(interval: CircleInterval, t: float, theta):
    """The canonical Moebius flow of the circle fixing the interval's
    endpoints: the chart w is scaled by e^{-2 pi t}, so the flow drifts
    toward the endpoint a for t > 0.  The orientation is fixed so that the
    modular flow Delta^{it} of the interval subspace tracks the flow at the
    same parameter t."""
    return _chart_scaled(interval, np.exp(-2.0 * np.pi * t), theta)


def mobius_point_flow_deriv(interval: CircleInterval, t: float, theta):
    """d/dtheta of the flow map: the derivative of 2 arctan2(y, x), with
    (y, x) the chart's lift of the flowed point."""
    num_den, lift = _interval_chart(interval)
    theta = np.asarray(theta, dtype=float)
    s, c = np.sin(theta / 2.0), np.cos(theta / 2.0)
    e = np.exp(-2.0 * np.pi * t)
    y, x = lift(*num_den(s, c), e)
    dy, dx = lift(*num_den(0.5 * c, -0.5 * s), e)
    return 2.0 * (dy * x - y * dx) / (y ** 2 + x ** 2)


def circle_reflection(interval: CircleInterval, theta):
    """Reflection of the circle fixing the interval's endpoints (chart
    negation); swaps the interval with its complement."""
    return _chart_scaled(interval, -1.0, theta)


def reflect_interval(interval: CircleInterval, probe: CircleInterval) -> CircleInterval:
    """Image of a probe interval under the reflection fixing interval's
    endpoints (orientation reverses)."""
    return CircleInterval(float(circle_reflection(interval, probe.b)),
                          float(circle_reflection(interval, probe.a)))


def _mode_synthesis(model: LatticeModel, angles: np.ndarray) -> np.ndarray:
    """Complex matrix e^{i k phi_j}, k = 1..m, evaluating the positive
    retained modes at angles; twice the real part of its product with the
    coefficients is the field.

    With B = ceil(sqrt(m)) and k = q B + r, it is the product of two small
    tables, e^{i r phi} for r = 1..B and e^{i q B phi} for q = 0..ceil(m/B)-1:
    about 2 sqrt(m) exponentials and m complex products per angle instead
    of m exponentials.  Its error, like that of the direct exponential, is
    set by rounding k phi (<= 2 pi L eps)."""
    m = model.m
    B = int(np.ceil(np.sqrt(m)))
    low = np.exp(1j * np.outer(angles, np.arange(1, B + 1)))
    high = np.exp(1j * np.outer(angles, B * np.arange(-(-m // B))))
    return (high[:, :, None] * low[:, None, :]).reshape(len(angles), -1)[:, :m]


def _pull_back(model: LatticeModel, cols: np.ndarray, angles: np.ndarray,
               rows=(None,)) -> np.ndarray:
    """Retained-mode pull-back of encoded columns: each column's field is
    evaluated at the moved site angles, scaled by row weights and encoded
    again, as matrix-vector products on the columns only.  rows lists the
    row weightings (None for none); their results come back side by side,
    all from one synthesis matrix and one product with the columns.

    The positive-mode coefficients of an encoded column [x; y] are
    (x - i y) / sqrt(2k), and the field at the angles is twice the real
    part of their _mode_synthesis; coord_map_real of a field equals that of
    its retained part, so no projection onto the retained modes is
    needed."""
    m = model.m
    coeffs = (cols[:m] - 1j * cols[m:]) / np.sqrt(2.0 * np.arange(1, m + 1))[:, None]
    fields = 2.0 * np.real(_mode_synthesis(model, angles) @ coeffs)
    return model.coord_map_real @ np.hstack(
        [fields if r is None else r[:, None] * fields for r in rows])


def _flow_sites(model: LatticeModel, interval: CircleInterval, t: float,
                weights=(0.0,)):
    """Site angles delta_{-t}(theta_j) at which the geometric flow at t
    samples a field, and for each weight the row weights
    delta_{-t}'(theta_j)^weight (None for weight 0)."""
    phi = mobius_point_flow(interval, -t, model.thetas)
    deriv = (mobius_point_flow_deriv(interval, -t, model.thetas)
             if any(weights) else None)
    return phi, [None if w == 0.0 else deriv ** w for w in weights]


def mobius_flow_unitary(model: LatticeModel, interval: CircleInterval,
                        t: float, weight: float = 0.0) -> np.ndarray:
    """Real L x L matrix of the geometric flow on lattice fields:

        (U(t) f)(theta) = f(delta_{-t}(theta)) * (delta_{-t})'(theta)^weight

    evaluated by retained-mode interpolation and projected back onto the
    retained modes.  For the |n|-weighted energy form the isometric action
    is the plain pull-back (weight 0, the invariance of the Dirichlet
    form); exponents 1/2 and 1 are diagnostics, read only by
    BWReport.weight_diagnostics.

    It is the pull-back that bw_defect applies to encoded columns, taken
    of the encodings of all site indicators and mapped back to site
    functions by coord_pinv; it costs O(L^3)."""
    return model.coord_pinv @ _pull_back(model, model.coord_map_real,
                                         *_flow_sites(model, interval, t, (weight,)))


# --- defect reports -----------------------------------------------------------

def bump_vector(model: LatticeModel, center: float, width: float) -> np.ndarray:
    """Smooth compactly supported bump on the circle, sampled at the sites."""
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
    the flow defects and weight diagnostics on the windowed test family and
    the z-cocycle group-law residuals.  It holds no duality angle; that is
    duality_defect, computed from the interval bases alone."""

    L: int
    interval: CircleInterval
    t_grid: np.ndarray
    defects: np.ndarray            # max over the family, per t
    z_residuals: np.ndarray        # group-law residual of z(t), per (s,t) pair
    weight_diagnostics: dict

    def max_z_residual(self) -> float:
        return float(np.max(self.z_residuals)) if self.z_residuals.size else 0.0


def _encoded_family(model: LatticeModel, family, frame=None) -> np.ndarray:
    """Unit-normalised encoded family, projected by frame @ frame^T when an
    orthonormal frame is given."""
    cols = np.stack([model.coord_map_real @ f for f in family], axis=1)
    if frame is not None:
        cols = frame @ (frame.T @ cols)
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms < 1e-12):
        raise ValueError("test vector with vanishing retained part")
    return cols / norms


def bw_defect(model: LatticeModel, interval: CircleInterval, t_grid) -> BWReport:
    """Relative defect || (Delta^{it} - U_geo(t)) v || / || v || over the
    interval's default_test_family, plus the group-law residual
    z(s+t) v - z(s) z(t) v of z(t) = Delta^{it} U_geo(-t).

    The family is compared through its component in the modular window
    above RESOLVABLE_WINDOW: the interior content of lattice intervals
    occupies modular eigenvalues far beyond double precision, and no flow
    comparison there is meaningful at machine precision (the raw-family
    defect saturates near 1 at every size; measured against 60-digit
    arithmetic).

    Every operator is applied to the k family columns as a chain of
    matrix-vector products: Delta^{it} plane by plane in the modular frame
    (ModularData.apply_flow_real) and U_geo as the retained-mode pull-back
    (_pull_back).  The interval is factored once, in interval_tomita, and
    every application after it costs O(L^2 k); no 2m x 2m or L x L operator
    is formed and no other subspace is factored.

    The applications are grouped by time.  The family's pull-backs take one
    synthesis matrix per distinct set of flow sites (the weight diagnostics
    only reweight the rows of the t_ref fields), z(u) of the family is
    formed once per distinct u, and for each s the outer z(s) of the
    group-law residuals acts on all the z(t) blocks it meets in one product.
    Each synthesis matrix is dropped after its one product.  For the grid
    [0, 0.1, 0.25] that is 10 syntheses and 8 applications of Delta^{it},
    against 15 and 14 when every application is made on its own."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and (np.min(t_grid) < -0.5 or np.max(t_grid) > 0.5):
        raise ValueError("t grid must stay within [-0.5, 0.5]")
    dat = interval_tomita(model, interval)
    fam = _encoded_family(model, default_test_family(model, interval), _window_frame(dat))
    k = fam.shape[1]

    def split(cols):
        return np.hsplit(cols, cols.shape[1] // k)

    def geo(t, blocks, weights=(0.0,)):
        """U_geo(t) of each block, weight by weight, from one synthesis."""
        return split(_pull_back(model, np.hstack(blocks),
                                *_flow_sites(model, interval, t, weights)))

    def flow(t, blocks):
        return split(dat.apply_flow_real(t, np.hstack(blocks)))

    def worst(diff):
        return float(np.max(np.linalg.norm(diff, axis=0)))

    t_ref = float(t_grid[np.argmax(np.abs(t_grid))]) if t_grid.size else 0.25
    ts = [t for t in t_grid if abs(t) > 1e-12][:3]
    pairs = [(s, t) for s in ts for t in ts if abs(s + t) <= 0.5]
    # Delta^{it} fam is compared with U_geo(t) fam at these times, and
    # z(u) fam = Delta^{iu} U_geo(-u) fam is formed at these u
    flow_times = list(dict.fromkeys([*t_grid, t_ref]))
    z_times = list(dict.fromkeys(ts + [s + t for s, t in pairs]))

    weights = {t: (0.0,) for t in flow_times}
    weights[t_ref] = (0.0, 0.5, 1.0)
    for u in z_times:
        weights.setdefault(-u, (0.0,))
    pulled = {(g, w): block for g, ws in weights.items()
              for w, block in zip(ws, geo(g, [fam], ws))}

    flowed, z_fam = {}, {}
    for t in dict.fromkeys(flow_times + z_times):
        blocks = flow(t, ([fam] if t in flow_times else [])
                      + ([pulled[-t, 0.0]] if t in z_times else []))
        if t in flow_times:
            flowed[t] = blocks.pop(0)
        if t in z_times:
            z_fam[t] = blocks.pop(0)

    defects = np.array([worst(flowed[t] - pulled[t, 0.0]) for t in t_grid])
    weight_diagnostics = {w: worst(flowed[t_ref] - pulled[t_ref, w]) for w in (0.5, 1.0)}

    z_pairs = {}
    for s in dict.fromkeys(ts):
        partners = list(dict.fromkeys(t for r, t in pairs if r == s))
        if partners:
            z_pairs.update(zip([(s, t) for t in partners],
                               flow(s, geo(-s, [z_fam[t] for t in partners]))))
    z_residuals = [worst(z_fam[s + t] - z_pairs[s, t]) for s, t in pairs]
    return BWReport(model.L, interval, t_grid, defects,
                    np.asarray(z_residuals), weight_diagnostics)


def duality_defect(model: LatticeModel, interval: CircleInterval) -> float:
    """Largest principal angle between the symplectic complement
    K(I)' = (iK(I))^perp and K(I'), I' the interior of the complement.

    It is read from Householder bases B_in of K(I) and B_out of K(I')
    (_site_basis): arcsin of the q-th smallest singular value of
    B_in^T (i B_out), q = min(2m - dim K(I), dim K(I'))
    (modular.symplectic_complement_angle).  K(I)' itself is never formed,
    and no SVD beyond that of the 2m-row pairing matrix is taken.

    On sharp site lattices this worst-case angle is dominated by the
    boundary-adjacent site pairs, whose symplectic pairing is
    scale-invariant; it does not decay with L (see the test suite for the
    measured ladder)."""
    return md.symplectic_complement_angle(_site_basis(model, interval),
                                          _site_basis(model, interval.complement()))


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
    planes J comes from an arbitrary frame completion, so J of the raw
    probe span depends on rounding (BLAS threads, kernels, generator
    order), while the windowed comparison is a function of the lattice.

    Sign: the measured convention is J ~ -Theta_r (the combination
    J - Theta_r stays near 2).  Because K(r probe) is a real-linear space,
    J K(probe) = K(r probe) holds for either sign.

    J is applied plane by plane (ModularData.apply_j_real) and Theta_r as
    a pull-back of the family columns, so after the one factorization in
    interval_tomita no 2m x 2m or L x L operator is formed."""
    return _pct_defect(model, interval, probe, interval_tomita(model, interval))


def _pct_defect(model: LatticeModel, interval: CircleInterval,
                probe: CircleInterval, dat: md.ModularData) -> float:
    """pct_geometry_defect from the interval's modular data dat."""
    fam = _encoded_family(model, default_test_family(model, probe), _window_frame(dat))
    diff = dat.apply_j_real(fam) + _reflect_encoded(model, interval, fam)
    return float(np.max(np.linalg.norm(diff, axis=0)))


def symplectic_locality(model: LatticeModel, region: CircleInterval,
                        probe: CircleInterval) -> float:
    """Operator norm of the symplectic pairing between orthonormal bases of
    K(probe) and K(region) (_site_basis); decays with L for separated
    intervals."""
    # pairing matrix of Im<.,.> in the real encoding; the overall sign
    # convention does not affect the norm
    return float(np.linalg.norm(_site_basis(model, probe).T
                                @ md._times_i(_site_basis(model, region)), 2))


def energy_trace(beta: float, n_max: int) -> float:
    """One-particle partition sum sum_{n=1}^{N} e^{-beta n} over the
    conformal-energy modes (unit multiplicity per retained |n|), N = n_max;
    a lattice model's mode count is model.m."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = np.arange(1, n_max + 1)
    return float(np.sum(np.exp(-beta * n)))
