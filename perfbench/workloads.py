"""The three benchmark workloads: inputs made from a seed, one timed pass
through confmod's public functions, and an independent check of the outputs.

Nothing here imports confmod at module level: the worker imports it after
pinning the BLAS thread count, and passes the package in.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("suite_all", "lattice_ladder", "region_sampling")

LADDER_SIZES = (256, 512, 1024)
LADDER_SUITES = ("bw", "duality", "pct")

# Checks that fail at the parent commit for documented reasons (interval
# duality and PCT angles do not decrease on sharp site lattices; see
# ROADMAP item 1).  They count in fail_ratio, but they are not wrong
# outputs; a later fix that makes them pass is not flagged either.
DOCUMENTED_FAILURES = frozenset({"duality-angle-monotone", "pct-angle-monotone"})

# Values compared with the stored references, by check-name prefix, with
# their relative tolerance.  bw-defect and duality angles are functions of
# the lattice configuration alone.  z-cocycle-group-law moves by up to
# 1.5e-3 between OpenBLAS kernels and 3.8e-4 between 1 and 2 threads at
# L=1024, so it is held to 1e-2.  pct-angle-L* is left out until ROADMAP
# item 1 lands: on clipped planes J comes from an arbitrary SVD completion,
# and the angles move by up to 1e-2 with the BLAS thread count.
REFERENCE_RTOL = {"bw-defect-L": 1e-9, "duality-angle-L": 1e-9,
                  "z-cocycle-group-law": 1e-2}

REFERENCES_PATH = Path(__file__).with_name("references.json")

# region_sampling sizes: points per region, and for the conformal image of
# the double cone (about 8.5 ms per accepted point at d=2).
REGION_POINTS = 2000
CONFORMAL_POINTS = 100
REGION_DIMS = (2, 3, 4)
FLOW_TIMES = (-0.5, 0.25)
BOOST_RAPIDITY = 0.5
# Accepted points must satisfy the closed-form predicate up to rounding.
MARGIN_TOL = 1e-9


@dataclass
class Outcome:
    """Operations attempted in one pass, with the counts the summary needs.

    failed: wrong outputs, that is values that miss the closed forms or the
    references, and checks that fail without being documented failures.
    failing: operations that failed in any way, documented failures
    included; the numerator of fail_ratio.
    """

    attempted: int = 0
    failed: int = 0
    failing: int = 0
    compared: int = 0
    mismatches: list = field(default_factory=list)
    points: int = 0
    statuses: dict = field(default_factory=dict)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failing += other.failing
        self.compared += other.compared
        self.mismatches += other.mismatches
        self.points += other.points
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count


# --- reference comparison -------------------------------------------------------

def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


def reference_key(name: str, sizes) -> str | None:
    """Key of a check value in references.json, or None if not compared.

    z-cocycle-group-law is computed at the largest lattice of the ladder, so
    its key carries that size."""
    if name == "z-cocycle-group-law":
        return f"z-cocycle-group-law-L{max(sizes)}"
    if any(name.startswith(p) for p in REFERENCE_RTOL if p.endswith("-L")):
        return name
    return None


def reference_rtol(name: str) -> float:
    for prefix, rtol in REFERENCE_RTOL.items():
        if name.startswith(prefix):
            return rtol
    raise KeyError(name)


def compare_value(value: float, reference: float, rtol: float) -> bool:
    """True when value agrees with reference to relative tolerance rtol."""
    return math.isfinite(value) and abs(value - reference) <= rtol * abs(reference)


def verify_checks(checks: list, sizes, references: dict) -> Outcome:
    """Count check records and compare reference values; each record is one
    operation, failed when its status is an undocumented fail or its value
    misses the reference."""
    out = Outcome(attempted=len(checks))
    for c in checks:
        out.statuses[c["status"]] = out.statuses.get(c["status"], 0) + 1
        wrong = c["status"] != "pass" and c["name"] not in DOCUMENTED_FAILURES
        key = reference_key(c["name"], sizes)
        if key is not None:
            out.compared += 1
            if key not in references or not compare_value(
                    c["value"], references[key], reference_rtol(c["name"])):
                out.mismatches.append((c["name"], c["value"], references.get(key)))
                wrong = True
        out.failed += wrong
        out.failing += wrong or c["status"] != "pass"
    return out


# --- CLI workloads ----------------------------------------------------------------

def cli_configs(cli, workload: str, seed: int) -> list:
    """The configs of one pass.  suite_all is cli.run's default config, run
    one suite per call: the checks are those of a single suite="all" call
    (each suite draws from its own seeded generator), and the shorter calls
    let run.py alternate subject and control more often."""
    if workload == "suite_all":
        return [cli.SuiteConfig(suite=s, seed=seed) for s in cli.SUITES]
    # The ladder is deterministic: the seed reaches SuiteConfig but no
    # bw/duality/pct quantity draws random numbers.
    return [cli.SuiteConfig(suite=s, sizes=LADDER_SIZES, seed=seed)
            for s in LADDER_SUITES]


def run_cli(cli, configs: list) -> list:
    """The timed part of a CLI pass: one report per config."""
    return [cli.run(config) for config in configs]


def verify_cli(configs: list, reports: list, references: dict) -> Outcome:
    out = Outcome()
    for config, report in zip(configs, reports):
        out.add(verify_checks(report.checks, config.sizes, references))
    return out


# --- region_sampling ----------------------------------------------------------------

def _spatial_norm(X: np.ndarray) -> np.ndarray:
    return np.linalg.norm(X[:, 1:], axis=1)


def _boost_axis(d: int) -> int:
    # Along x1 a boost maps the standard wedge onto itself; use x2 where it exists.
    return 1 if d == 2 else 2


def _translation(d: int) -> np.ndarray:
    return np.array([0.3, -0.5, 0.2, 0.1][:d])


def _special_vector(d: int) -> np.ndarray:
    return np.array([0.1, 0.2, 0.0, 0.0][:d])


def _mdot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X[:, 0] * Y[:, 0] - np.sum(X[:, 1:] * Y[:, 1:], axis=1)


def _ray_inversion(X: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return -X / _mdot(X, X)[:, None]


def region_margins(name: str, d: int, X: np.ndarray) -> np.ndarray:
    """Closed-form membership margin, positive inside the region; written
    from the definitions, independent of confmod.geometry."""
    X = np.asarray(X, dtype=float)
    x0, r = X[:, 0], _spatial_norm(X)
    if name == "double_cone":                 # |x0| + |x| < 1
        return 1.0 - np.abs(x0) - r
    if name == "wedge":                       # x1 > |x0|
        return X[:, 1] - np.abs(x0)
    if name == "opposite_wedge":              # -x1 > |x0|
        return -X[:, 1] - np.abs(x0)
    if name == "boosted_wedge":               # inverse boost of x - a in the wedge
        k = _boost_axis(d)
        U = X - _translation(d)
        c, s = math.cosh(BOOST_RAPIDITY), math.sinh(BOOST_RAPIDITY)
        y0 = c * U[:, 0] + s * U[:, k]
        yk = s * U[:, 0] + c * U[:, k]
        y1 = yk if k == 1 else U[:, 1]
        return y1 - np.abs(y0)
    if name == "spacelike_complement":        # spacelike to both tips +-e0
        return r - 1.0 - np.abs(x0)
    if name == "timelike_complement":         # timelike to both tips
        return np.abs(x0) - 1.0 - r
    if name == "future_cone":                 # x0 > |x|
        return x0 - r
    if name == "conformal_double_cone":       # g^-1 x in the double cone, g = special(b)
        Y = _ray_inversion(_ray_inversion(X) - _special_vector(d))
        margin = region_margins("double_cone", d, Y)
        return np.where(np.isfinite(margin), margin, -np.inf)
    raise ValueError(f"unknown region {name!r}")


def margins_ok(margins: np.ndarray, X: np.ndarray) -> np.ndarray:
    scale = 1.0 + np.linalg.norm(X, axis=1)
    return margins > -MARGIN_TOL * scale


REGION_NAMES = ("double_cone", "wedge", "boosted_wedge", "spacelike_complement",
                "timelike_complement", "future_cone", "conformal_double_cone")
# The conformal image of the double cone is sampled at d=2 only: each point
# costs about 0.2 s at d=3 and 2 s at d=4.
REGION_LABELS = tuple(f"{name}_d{d}" for d in REGION_DIMS
                      for name in REGION_NAMES[:None if d == 2 else -1])


def build_regions(confmod, d: int) -> dict:
    """Regions sampled at dimension d, by benchmark name."""
    geo, cg = confmod.geometry, confmod.confgroup
    cone = geo.unit_double_cone(d)
    boost = geo.PoincareMap.from_boost(d, _boost_axis(d), BOOST_RAPIDITY)
    moved = geo.PoincareMap.from_translation(_translation(d)).compose(boost)
    regions = {
        "double_cone": cone,
        "wedge": geo.standard_wedge(d),
        "boosted_wedge": geo.Wedge(d, moved),
        "spacelike_complement": geo.spacelike_complement(cone),
        "timelike_complement": geo.timelike_complement(cone),
        "future_cone": geo.FutureCone(np.zeros(d)),
    }
    if d == 2:
        regions["conformal_double_cone"] = geo.TransformedRegion(
            cg.special(d, _special_vector(d)), cone)
    return regions


def region_inputs(confmod, seed: int) -> list:
    """(label, d, region name, region, n, sampling seed) for every sample."""
    out = []
    for d in REGION_DIMS:
        for k, (name, region) in enumerate(build_regions(confmod, d).items()):
            n = CONFORMAL_POINTS if name == "conformal_double_cone" else REGION_POINTS
            out.append((f"{name}_d{d}", d, name, region, n, seed * 100 + 10 * d + k))
    return out


# Flows whose closed form is checked for region preservation, and the region
# whose samples they move.
FLOW_REGIONS = {"wedge_flow": "wedge", "doublecone_flow": "double_cone",
                "cone_flow": "future_cone"}


def run_regions(confmod, inputs: list, span=None) -> dict:
    """The timed part of a region_sampling pass.

    span, when given, is a context-manager factory that labels each
    sample_region call so that the trace can attribute contains calls to
    their region."""
    geo, cg, fl = confmod.geometry, confmod.confgroup, confmod.flows
    span = span or (lambda name: contextlib.nullcontext())
    samples = {}
    for label, d, _, region, n, seed in inputs:
        with span(f"bench.sample.{label}"):
            samples[label] = geo.sample_region(region, n, seed=seed)
    images = {}
    for d in sorted({row[1] for row in inputs}):
        for flow_name, region_name in FLOW_REGIONS.items():
            flow = getattr(fl, flow_name)(d)
            pts = samples[f"{region_name}_d{d}"]
            for t in FLOW_TIMES:
                images[(flow_name, d, t)] = [flow.closed_form(t, p) for p in pts]
        images[("axis_inversion", d)] = cg.act_array(
            cg.axis_inversion(d, 1), samples[f"wedge_d{d}"])
    return {"samples": samples, "images": images}


def verify_regions(inputs: list, result: dict) -> Outcome:
    """Each accepted point, flow image and inversion image is one operation,
    checked against the closed-form predicates."""
    out = Outcome()
    samples, images = result["samples"], result["images"]
    for label, d, name, _, n, _ in inputs:
        X = samples[label]
        out.attempted += n
        out.points += n
        if X.shape != (n, d) or not np.all(np.isfinite(X)):
            out.failed += n
        else:
            out.failed += int(np.sum(~margins_ok(region_margins(name, d, X), X)))
    for key, value in images.items():
        if key[0] == "axis_inversion":
            d = key[1]
            Y, regular = value
            out.attempted += len(Y)
            good = regular.copy()
            good[regular] = margins_ok(region_margins("opposite_wedge", d, Y[regular]),
                                       Y[regular])
            out.failed += int(np.sum(~good))
            continue
        flow_name, d, _ = key
        out.attempted += len(value)
        # A missing image (None) becomes NaN, which fails the margin test.
        Y = np.array([np.full(d, np.nan) if y is None else y for y in value])
        out.failed += int(np.sum(~margins_ok(region_margins(FLOW_REGIONS[flow_name], d, Y), Y)))
    out.failing = out.failed
    return out
