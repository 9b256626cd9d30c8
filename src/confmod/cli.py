"""Batch driver: runs the verification suites and writes machine-readable
reports and CSV exports.

Every check record carries a stable anchor slug, a status in {pass, fail,
skip}, the measured value and its threshold.  All randomness flows from the
single configured seed through per-suite generator streams, so identical
configurations produce identical reports apart from the wall clock.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, calibration
from . import chiral as ch
from . import confgroup as cg
from . import flows as fl
from . import modular as md
from .geometry import (DoubleCone, FutureCone, Wedge, sample_region, spacelike_complement,
                       standard_wedge)

SUITES = ("group", "flows", "modular", "bw", "duality", "pct")

DEFAULT_TOLERANCES = {
    "group_identity": 1e-9,
    "energy_period": 1e-8,
    "flow_conjugacy": 1e-8,
    "flow_group_law": 1e-9,
    "modular_residual": 1e-6,
    "rotation_invariance": 1e-10,
}


class ConfigurationError(Exception):
    pass


@dataclass
class SuiteConfig:
    suite: str = "all"
    dims: tuple = (2, 3, 4)
    seed: int = 42
    sizes: tuple = (64, 128, 256)
    tolerances: dict = field(default_factory=dict)
    out: str | None = None

    def validate(self):
        if self.suite != "all" and self.suite not in SUITES:
            raise ConfigurationError(f"unknown suite {self.suite!r}")
        if not self.dims or not self.sizes:
            raise ConfigurationError("dimensions and lattice sizes must not be empty")
        if any(d < 2 for d in self.dims):
            raise ConfigurationError("suite dimensions must satisfy d >= 2")
        if len(set(self.dims)) != len(self.dims):
            raise ConfigurationError("suite dimensions must be distinct")
        if any(L < 16 or (L & (L - 1)) for L in self.sizes):
            raise ConfigurationError("lattice sizes must be powers of two, >= 16")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ConfigurationError("lattice sizes must be strictly increasing")
        if self.suite in ("all", "pct") and self.sizes[0] < 32:
            # at L = 16 the pct probe's test bumps fall between lattice sites
            raise ConfigurationError("the pct suite needs lattice sizes >= 32")
        if self.seed < 0:
            raise ConfigurationError("the seed must be a non-negative integer")
        eps = np.finfo(float).eps
        for name, value in self.tolerances.items():
            if not np.isfinite(value):
                raise ConfigurationError(f"tolerance {name} is not finite")
            if value < eps:
                raise ConfigurationError(f"tolerance {name} below machine epsilon")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


@dataclass
class Report:
    version: str
    config: dict
    checks: list
    wall_clock_s: float = 0.0

    @property
    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c["status"]] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "tool": "confmod",
            "version": self.version,
            "config": self.config,
            "checks": self.checks,
            "summary": self.summary,
            "wall_clock_s": self.wall_clock_s,
        }

    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)


def _check(checks, name, anchor, value, threshold, ok=None, status=None):
    if ok is None and status is None:
        ok = value < threshold
    checks.append({
        "name": name,
        "anchor": anchor,
        "status": status or ("pass" if ok else "fail"),
        "value": float(value),
        "threshold": float(threshold) if threshold is not None else None,
    })


def _worst(values: np.ndarray) -> float:
    """The largest of the values, 0.0 for none."""
    return float(np.max(values, initial=0.0))


def _ladder(checks, prefix, sizes, values, ceilings=None):
    """Record a lattice ladder: `<prefix>-L<size>` per size, checked against
    its frozen ceiling where `ceilings` has one and recorded otherwise, then
    `<prefix>-monotone`, whose value is the largest step up the ladder (it
    passes when every step goes down).  A one-size ladder has no step, so
    its monotone check is skipped."""
    ceilings = ceilings or {}
    for L, value in zip(sizes, values):
        ceiling = ceilings.get(L)
        if ceiling is None:
            _check(checks, f"{prefix}-L{L}", f"{prefix}-ladder", value, None, ok=True)
        else:
            _check(checks, f"{prefix}-L{L}", f"{prefix}-ceiling", value,
                   ceiling * calibration.SLACK)
    steps = [b - a for a, b in zip(values, values[1:])]
    if steps:
        _check(checks, f"{prefix}-monotone", f"{prefix}-ladder", max(steps), 0.0)
    else:
        _check(checks, f"{prefix}-monotone", f"{prefix}-ladder", 0.0, None, status="skip")


def _suite_rng(config: SuiteConfig, suite: str) -> np.random.Generator:
    return np.random.default_rng([config.seed, SUITES.index(suite)])


# --- suites -------------------------------------------------------------------

def run_group_suite(config: SuiteConfig) -> list:
    rng = _suite_rng(config, "group")
    checks = []
    tol = config.tol("group_identity")
    for d in config.dims:
        # each parameter draws two values in turn, so the draws stay a loop
        a = [rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]) for _ in range(100)]
        _check(checks, f"dilation-generation-identity-d{d}",
               "dilation-generation-identity", _worst(cg._identity_defects(d, a)), tol)

        ident = cg.GroupElement(np.eye(d + 2))
        worst = max(cg.distance_mod_sign(cg.axis_inversion_subgroup(d, 0.0), ident),
                    cg.distance_mod_sign(cg.axis_inversion_subgroup(d, np.pi), ident),
                    cg.distance_mod_sign(cg.axis_inversion_subgroup(d, np.pi / 2),
                                         cg.axis_inversion(d, 1)))
        _check(checks, f"axis-inversion-subgroup-endpoints-d{d}",
               "axis-inversion-subgroup-period", worst, tol)

        al, be = rng.uniform(0.15, np.pi - 0.15, size=(100, 2)).T
        s = (al + be) % np.pi
        kept = ~(np.minimum(s, np.pi - s) < 0.1)
        U = cg._axis_inversion_subgroups
        lhs = cg._product(U(d, al[kept]), U(d, be[kept]))
        _check(checks, f"axis-inversion-subgroup-law-d{d}", "axis-inversion-subgroup-period",
               _worst(cg._distances_mod_sign(lhs, U(d, s[kept]))), 1e-8)

        e = cg.conformal_energy(d).exp(2.0 * np.pi)
        _check(checks, f"conformal-energy-period-d{d}", "conformal-energy-period",
               cg.distance_mod_sign(e, cg.GroupElement(np.eye(d + 2))),
               config.tol("energy_period"))

        ok = cg.in_identity_component(cg.axis_inversion(d, 1))
        expected_p = (d % 2 == 1)
        ok = ok and (cg.in_identity_component(cg.space_reflection(d, 1)) == expected_p)
        _check(checks, f"reflection-component-parity-d{d}",
               "reflection-component-parity", 0.0, 1.0, ok=ok)
    return checks


def _null_coordinates(region, P: np.ndarray) -> tuple:
    """The two light-cone coordinates of each row of P that are positive
    exactly inside the region of a canonical flow: x1 + x0 and x1 - x0 in
    the standard wedge, x0 + |x| and x0 - |x| in the future cone of the
    origin, 1 - (x0 + |x|) and 1 + (x0 - |x|) in the unit double cone."""
    x0, r = P[:, 0], np.sqrt(np.sum(P[:, 1:] ** 2, axis=1))
    if isinstance(region, Wedge) and region.poincare is None:
        return P[:, 1] + x0, P[:, 1] - x0
    if isinstance(region, FutureCone):
        return x0 + r, x0 - r
    if isinstance(region, DoubleCone):
        return 1.0 - (x0 + r), 1.0 + (x0 - r)
    raise ValueError(f"no light-cone coordinates for {type(region).__name__}")


def _preserves_region(flow: fl.CanonicalFlow, pts: np.ndarray, times) -> bool:
    """Whether the flow keeps every sampled point of its region inside it,
    each point moved for each t times its relative margin mu = min(p, q) /
    max(p, q) in (0, 1], p and q its _null_coordinates.

    Exact membership of an image is decidable in float64 only when the
    image's own relative margin is above rounding.  The canonical flows
    scale p and q by at most e^{2 pi |t|} each way, so an image at time
    t mu keeps a relative margin of at least mu e^{-4 pi |t| mu}, which
    is at least min(mu / e, e^{-4 pi |t|}): 1.2e-11 for |t| = 2.  At t
    itself a wedge point 1e-6 inside the horizon would land within an ulp
    of it, and its rounded image outside."""
    p, q = _null_coordinates(flow.region, pts)
    mu = np.minimum(p, q) / np.maximum(p, q)
    ys, regular = flow.rows(np.concatenate([t * mu for t in times]),
                            np.tile(pts, (len(times), 1)))
    return bool(regular.all() and flow.region.contains_many(ys).all())


def run_flows_suite(config: SuiteConfig) -> list:
    checks = []
    tol_c = config.tol("flow_conjugacy")
    tol_g = config.tol("flow_group_law")
    for d in config.dims:
        wf, df, cf = fl.wedge_flow(d), fl.doublecone_flow(d), fl.cone_flow(d)
        g = fl.wedge_to_doublecone(d)
        worst = 0.0
        for t in np.linspace(-2.0, 2.0, 9):
            worst = max(worst, cg.distance_mod_sign(
                df.matrix(t), g @ wf.matrix(t) @ g.inverse()))
        _check(checks, f"wedge-cone-flow-conjugacy-d{d}",
               "wedge-cone-flow-conjugacy", worst, tol_c)

        rng = _suite_rng(config, "flows")
        worst = 0.0
        for flow in (wf, df, cf):
            # 20 (s, t) pairs, each on the first five sampled points
            P = np.tile(sample_region(flow.region, 50, seed=config.seed)[:5], (20, 1))
            s, t = np.repeat(rng.uniform(-1.0, 1.0, size=(20, 2)), 5, axis=0).T
            Y, regular_t = flow.rows(t, P)
            A, regular_a = flow.rows(s, Y)
            B, regular_b = flow.rows(s + t, P)
            ok = regular_t & regular_a & regular_b
            A, B = A[ok], B[ok]
            # max(1, |b|), |b| from dot's kernel as np.linalg.norm takes it
            norm = np.sqrt((B[:, None, :] @ B[:, :, None])[:, 0, 0])
            worst = max(worst, _worst(np.abs(A - B).max(axis=1) / np.fmax(1.0, norm)))
        _check(checks, f"flow-group-law-d{d}", "flow-group-law", worst, tol_g)

        ok = all(_preserves_region(flow, sample_region(flow.region, 200, seed=config.seed + 1),
                                   (-2.0, -1.0, -0.1, 0.1, 1.0, 2.0)) for flow in (wf, df, cf))
        _check(checks, f"flow-region-preservation-d{d}",
               "flow-region-preservation", 0.0, 1.0, ok=ok)

        beta, r1, sw1 = fl.pct_ingredients(d)
        _check(checks, f"pct-factorization-d{d}", "pct-factorization",
               np.max(np.abs((r1 @ sw1).matrix - beta.matrix)), 1e-12)

        w1 = standard_wedge(d)
        w1p = spacelike_complement(w1)
        pts = sample_region(w1, 2000, seed=config.seed + 2)
        img, okmask = cg.act_array(cg.axis_inversion(d, 1), pts)
        frac = np.mean(w1p.contains_many(img[okmask]))
        _check(checks, f"axis-inversion-maps-wedge-d{d}",
               "axis-inversion-maps-wedge-to-complement", 1.0 - frac, 1e-12)
    return checks


def _modular_draws(rng: np.random.Generator, n: int,
                   angle_floor: float = md.DEFAULT_ANGLE_FLOOR) -> list:
    """The modular suite's n draws, (m, generators, x, y) each, in the
    stream order of a loop of m = integers(1, 9), random_standard_subspace
    (m, rng, angle_floor) and x, y = normal(2m) twice.

    The standardness tests run on stacks, one per m: every draw is taken
    first as accepted, and the first one rejected is drawn again by
    random_standard_subspace from the generator state before it, which
    repeats the rejected generators and draws on until one is accepted;
    the draws after it are then taken afresh."""
    draws = []
    while len(draws) < n:
        start, states = len(draws), []
        for _ in range(start, n):
            m = int(rng.integers(1, 9))
            states.append(rng.bit_generator.state)
            gens = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            draws.append((m, gens, rng.normal(size=2 * m), rng.normal(size=2 * m)))
        ms = np.array([d[0] for d in draws[start:]])
        ok = np.empty(ms.size, dtype=bool)
        for m in set(ms.tolist()):
            (at,) = np.nonzero(ms == m)
            ok[at] = md._standard_draws(m, np.stack([draws[start + i][1] for i in at]),
                                        angle_floor)
        if ok.all():
            break
        j = int(np.argmin(ok))
        m = draws[start + j][0]
        del draws[start + j:]
        rng.bit_generator.state = states[j]
        gens = md.random_standard_subspace(m, rng, angle_floor).generators
        draws.append((m, gens, rng.normal(size=2 * m), rng.normal(size=2 * m)))
    return draws


_DENSE_ENTRIES = ("S", "delta", "J", "delta_sqrt", *md._flow_entries((0.4, 0.9, 1.3)))
_FLOW_ENTRIES = md._flow_entries((0.3, 1.0, 2.7))


def _modular_stack_checks(m: int, stack: list) -> dict:
    """The modular suite's check values, each the worst over the draws
    (m, generators, x, y) of one dimension m, factored as one stack.  The
    stack makes two frame products, one dense call for S, Delta, J,
    Delta^{1/2} and the cocycle's flows and one on the bases for the flow
    check's times, and applies S to the stacked generators once."""
    cplx, tr = md._complexify_vectors, md._tr

    def amax(a):
        return np.max(np.abs(a), axis=(-2, -1))

    K = md.StandardSubspace(m, np.stack([d[1] for d in stack]))
    dat = md.tomita_operators(K)
    S, D, J, sq, *cocycle = md._split(md.dense(
        lambda cols: dat.apply_planes(_DENSE_ENTRIES, cols), 2 * m), len(_DENSE_ENTRIES))
    eye = np.eye(2 * m)
    # max(1, |S|^2) squares with the scalar pow of a single draw
    scale = np.maximum(1.0, [v ** 2 for v in amax(S).tolist()])
    involution = np.maximum(amax(S @ S - eye) / scale, amax(J @ J - eye))
    dinv = S @ tr(S)    # Delta^{-1} exactly: Delta = S^T S and S^2 = 1
    conjugation = amax(J @ D @ J - dinv) / np.maximum(1.0, amax(dinv))
    gens = K.generators
    fix = np.linalg.norm(dat.apply_s(gens) - gens, axis=-1) / np.linalg.norm(gens, axis=-1)
    # Delta^{it} is orthogonal, so the largest angle between K and its
    # image is arcsin of the norm of the image's residual off K
    B = K.basis
    fks = md._flow_images(md._split(dat.apply_planes(_FLOW_ENTRIES, B), len(_FLOW_ENTRIES)))
    norms = np.linalg.svd(np.stack([fk - B @ (tr(B) @ fk) for fk in fks], axis=-3),
                          compute_uv=False)[..., 0]
    flow = np.arcsin(np.minimum(np.max(norms, axis=-1), 1.0))
    # J is orthogonal, so J B is an orthonormal basis of J K
    complement = md.symplectic_complement_angle(B, J @ B)
    x, y = (np.stack([d[k] for d in stack])[..., None] for k in (2, 3))
    sx, sy, Sy, Sx = (cplx(a @ v)[..., 0] for a, v in ((sq, x), (sq, y), (S, y), (S, x)))
    kms = []
    for i in range(len(stack)):
        lhs, rhs = np.vdot(sx[i], sy[i]), np.vdot(Sy[i], Sx[i])
        kms.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    # Delta^{it} as a complex m x m matrix: the first m columns of its
    # real encoding, the images of the real unit vectors
    u4, u9, u13 = (cplx(u[..., :m]) for u in md._flow_images(cocycle))
    cocycle = amax(u4 @ u9 - u13)
    return {name: float(np.max(values)) for name, values in (
        ("involution", involution), ("conjugation", conjugation), ("cocycle", cocycle),
        ("fix", fix), ("flow", flow), ("complement", complement), ("kms", kms))}


def run_modular_suite(config: SuiteConfig) -> list:
    """Tomita calculus on 100 random standard subspaces, factored and
    checked as one stack per dimension m."""
    rng = _suite_rng(config, "modular")
    checks = []
    tol = config.tol("modular_residual")
    draws = _modular_draws(rng, 100)
    stacks = [_modular_stack_checks(m, [d for d in draws if d[0] == m])
              for m in sorted({d[0] for d in draws})]
    worst = {name: max(values[name] for values in stacks) for name in stacks[0]}
    _check(checks, "tomita-involutions", "tomita-involutions", worst["involution"], tol)
    _check(checks, "modular-conjugation-inverts", "modular-conjugation-inverts",
           worst["conjugation"], tol)
    _check(checks, "tomita-fixes-subspace", "tomita-fixes-subspace", worst["fix"], tol)
    _check(checks, "modular-flow-preserves-subspace", "modular-flow-preserves-subspace",
           worst["flow"], tol)
    _check(checks, "conjugation-maps-to-complement", "conjugation-maps-to-complement",
           worst["complement"], tol)
    _check(checks, "kms-symmetry", "kms-symmetry", worst["kms"], tol)
    _check(checks, "modular-flow-group-law", "modular-flow-group-law",
           worst["cocycle"], 1e-8)
    return checks


def run_bw_suite(config: SuiteConfig) -> list:
    checks = []
    interval = ch.half_circle()
    reports = [ch.bw_defect(ch.build_model(L), interval, [0.0, 0.1, 0.25])
               for L in config.sizes]
    defects = [float(r.defects[-1]) for r in reports]
    _ladder(checks, "bw-defect", config.sizes, defects, calibration.BW_CEILINGS)
    zceiling = calibration.BW_CEILINGS.get(config.sizes[-1], defects[-1]) * calibration.SLACK
    _check(checks, "z-cocycle-group-law", "z-cocycle-triviality",
           reports[-1].max_z_residual(), zceiling)
    return checks


def run_duality_suite(config: SuiteConfig) -> list:
    checks = []
    interval = ch.half_circle()
    L = config.sizes[0]
    model = ch.build_model(L)
    angles = [ch.duality_defect(model, interval)]
    angles += [ch.duality_defect(ch.build_model(size), interval) for size in config.sizes[1:]]
    _ladder(checks, "duality-angle", config.sizes, angles)
    shift = 2.0 * np.pi * (L // 8) / L
    rot = ch.CircleInterval(interval.a + shift, interval.b + shift)
    _check(checks, "duality-rotation-invariance", "duality-rotation-invariance",
           abs(angles[0] - ch.duality_defect(model, rot)),
           config.tol("rotation_invariance"))
    _check(checks, "duality-swap-symmetry", "duality-swap-symmetry",
           abs(angles[0] - ch.duality_defect(model, interval.complement())), 1e-10)
    return checks


def run_pct_suite(config: SuiteConfig) -> list:
    checks = []
    interval = ch.half_circle()
    probe = ch.CircleInterval(np.pi + 0.7, np.pi + 1.5)
    angles = [ch.pct_geometry_defect(ch.build_model(size), interval, probe)
              for size in config.sizes[:-1]]
    # The top size is factored once, for its pct angle and the involution.
    model = ch.build_model(config.sizes[-1])
    dat = ch.interval_tomita(model, interval)
    angles.append(ch._pct_defect(model, interval, probe, dat))
    _ladder(checks, "pct-angle", config.sizes, angles)
    J = md.dense(dat.apply_j_real, 2 * model.m)
    _check(checks, "pct-conjugation-involution", "pct-conjugation-involution",
           np.max(np.abs(J @ J - np.eye(2 * model.m))), config.tol("modular_residual"))
    return checks


SUITE_RUNNERS = {
    "group": run_group_suite,
    "flows": run_flows_suite,
    "modular": run_modular_suite,
    "bw": run_bw_suite,
    "duality": run_duality_suite,
    "pct": run_pct_suite,
}


def run(config: SuiteConfig) -> Report:
    """Run the configured suites and return the report; raises
    ConfigurationError before any computation on invalid configs."""
    config.validate()
    start = time.time()
    names = SUITES if config.suite == "all" else (config.suite,)
    checks = []
    for name in names:
        checks.extend(SUITE_RUNNERS[name](config))
    report = Report(__version__, {
        "suite": config.suite,
        "dims": list(config.dims),
        "seed": config.seed,
        "sizes": list(config.sizes),
        "tolerances": dict(config.tolerances),
    }, checks, wall_clock_s=time.time() - start)
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    return report


# --- CSV exports ---------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def export_csv(rows: list, header: list, path: str) -> None:
    """Write rows as CSV with a header; floats carry 17 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def export_report_csv(report: Report, path: str) -> None:
    rows = [(c["name"], c["anchor"], c["status"], c["value"],
             "" if c["threshold"] is None else c["threshold"])
            for c in report.checks]
    export_csv(rows, ["name", "anchor", "status", "value", "threshold"], path)


def export_trajectory(flow_name: str, d: int, point, t_grid, path: str) -> None:
    flow = {"wedge": fl.wedge_flow, "doublecone": fl.doublecone_flow,
            "cone": fl.cone_flow}[flow_name](d)
    rows = []
    for t in t_grid:
        y = flow.closed_form(float(t), np.asarray(point, dtype=float))
        if y is not None:
            rows.append([float(t)] + [float(v) for v in y])
    export_csv(rows, ["t"] + [f"x{i}" for i in range(d)], path)


# --- entry point ----------------------------------------------------------------

def _parse_numbers(text, kind, what, count=None):
    """Comma-separated numbers of one kind; a malformed entry, or a count
    other than the one asked for, is a configuration error."""
    try:
        values = tuple(kind(x) for x in text.split(",") if x)
    except ValueError:
        values = None
    if values is None or (count is not None and len(values) != count):
        raise ConfigurationError(f"bad {what} {text!r}")
    return values


def _parse_tol(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigurationError(f"bad --tol entry {item!r}, expected name=value")
        name, value = item.split("=", 1)
        if name not in DEFAULT_TOLERANCES:
            raise ConfigurationError(f"unknown tolerance {name!r}")
        (out[name],) = _parse_numbers(value, float, f"--tol value for {name}", count=1)
    return out


def _parse_t_grid(text):
    what = "--t-grid (min,max,steps)"
    lo, hi, steps = _parse_numbers(text, float, what, count=3)
    if not (np.isfinite(lo) and np.isfinite(hi) and steps >= 0 and steps.is_integer()):
        raise ConfigurationError(f"bad {what} {text!r}")
    return np.linspace(lo, hi, int(steps))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confmod",
        description="verification suites for conformal group geometry, "
                    "canonical flows and modular calculus")
    parser.add_argument("--suite", default="all",
                        help="one of %s or 'all'" % (", ".join(SUITES)))
    parser.add_argument("--d", default="2,3,4", help="comma-separated dimensions")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--sizes", default="64,128,256",
                        help="comma-separated lattice ladder")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override, repeatable")
    parser.add_argument("--out", default=None, help="write JSON report here")
    parser.add_argument("--csv", default=None, help="write check records as CSV")
    parser.add_argument("--trajectory", default=None,
                        choices=("wedge", "doublecone", "cone"),
                        help="export a flow trajectory instead of running suites")
    parser.add_argument("--point", default=None,
                        help="start point for --trajectory, comma-separated")
    parser.add_argument("--t-grid", default="-2,2,9", dest="t_grid",
                        help="min,max,steps for --trajectory")
    args = parser.parse_args(argv)

    try:
        if args.trajectory:
            if not args.point or not args.csv:
                raise ConfigurationError("--trajectory needs --point and --csv")
            point = _parse_numbers(args.point, float, "--point")
            if len(point) < 2:
                raise ConfigurationError("--point needs at least two coordinates")
            if not np.all(np.isfinite(point)):
                raise ConfigurationError("--point coordinates must be finite")
            grid = _parse_t_grid(args.t_grid)
            export_trajectory(args.trajectory, len(point), point, grid, args.csv)
            return 0
        config = SuiteConfig(suite=args.suite, dims=_parse_numbers(args.d, int, "--d"),
                             seed=args.seed,
                             sizes=_parse_numbers(args.sizes, int, "--sizes"),
                             tolerances=_parse_tol(args.tol), out=args.out)
        report = run(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.csv:
        export_report_csv(report, args.csv)
    for c in report.checks:
        print(f"[{c['status'].upper():4s}] {c['name']}: value={c['value']:.6g}"
              + (f" threshold={c['threshold']:.6g}" if c["threshold"] is not None else ""))
    s = report.summary
    print(f"summary: {s['pass']} pass, {s['fail']} fail, {s['skip']} skip "
          f"({report.wall_clock_s:.1f}s)")
    return 1 if report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
