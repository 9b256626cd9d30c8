"""Acceptance suite: one check per numbered criterion, each printing a
pass/fail line.

The criteria the command-line suites already check are verdicts over the
records of `cli.run` at the acceptance configuration: each criterion names
the anchors (or record names) it stands on, and passes when every record
under them passes and its suite ran within the criterion's wall-clock gate.
Thresholds, seeds and loops live only in `confmod.cli`.  Inputs that no
suite and no other test checks are still computed here.

One sub-check is a strict expected failure, declared with its criterion
and reason in `confmod.cli`: on sharp site lattices the raw duality angle
is dominated by boundary site pairs (scale invariant, non-decaying), so its
monotone-decrease clause cannot be met by this construction; everything
else is green.
"""

import time

import numpy as np
import pytest

import confmod.chiral as ch
import confmod.confgroup as cg
import dense_reference as dr
from confmod import cli
from confmod.geometry import sample_region, spacelike_complement, standard_wedge, unit_double_cone

DIMS = (2, 3, 4)

# criterion -> (suite, anchors or record names it stands on)
CRITERIA = {
    "1": ("group", ("dilation-generation-identity", "axis-inversion-subgroup-period",
                    "conformal-energy-period")),
    "2": ("group", ("reflection-component-parity",)),
    "4": ("flows", ("wedge-cone-flow-conjugacy", "flow-group-law",
                    "flow-region-preservation")),
    "5": ("modular", ("tomita-involutions", "modular-conjugation-inverts",
                      "tomita-fixes-subspace", "modular-flow-preserves-subspace",
                      "conjugation-maps-to-complement", "kms-symmetry",
                      "modular-flow-group-law")),
    "6": ("bw", ("bw-defect-ceiling", "bw-defect-monotone", "z-cocycle-triviality")),
    "7a": ("duality", ("duality-angle-monotone",)),
    "7b": ("duality", ("duality-rotation-invariance",)),
    "8a": ("pct", ("pct-angle-monotone",)),
    "8b": ("pct", ("pct-conjugation-involution",)),
}


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def suite_runs():
    """Each suite run once at the acceptance configuration: suite ->
    (check records, seconds)."""
    runs = {}
    for suite in cli.SUITES:
        start = time.perf_counter()
        rep = cli.run(cli.SuiteConfig(suite=suite, dims=DIMS, sizes=(64, 128, 256), seed=42))
        runs[suite] = (rep.checks, time.perf_counter() - start)
    for suite, keys in CRITERIA.values():
        present = {c["anchor"] for c in runs[suite][0]} | {c["name"] for c in runs[suite][0]}
        assert set(keys) <= present, f"{suite} suite lacks {set(keys) - present}"
    return runs


def verdict(suite_runs, criterion: str, title: str, gate_s: float | None = None) -> bool:
    """Print and return whether every record criterion stands on passes,
    and its suite ran in under gate_s seconds."""
    suite, keys = CRITERIA[criterion]
    checks, elapsed = suite_runs[suite]
    records = [c for c in checks if c["anchor"] in keys or c["name"] in keys]
    ok = all(c["status"] == "pass" for c in records)
    detail = ", ".join(f"{c['name']} {c['status']} {c['value']:.3g}" for c in records)
    if gate_s is not None:
        ok = ok and elapsed < gate_s
        detail += f"; {suite} suite {elapsed:.2f}s < {gate_s:g}s"
    return report(f"criterion {criterion} ({title})", ok, detail)


def test_criterion_1_group_identities(suite_runs):
    assert verdict(suite_runs, "1", "group identities", gate_s=5.0)


def test_criterion_2_identity_component(suite_runs):
    assert verdict(suite_runs, "2", "component test")


def test_criterion_3_geometric_duality_substrate():
    start = time.time()
    ok = True
    for d in DIMS:
        w1 = standard_wedge(d)
        comp = spacelike_complement(w1)
        pts = sample_region(w1, 10_000, seed=42)
        img, regular = cg.act_array(cg.axis_inversion(d, 1), pts)
        ok = ok and regular.all() and all(comp.contains(p) for p in img)
        twice = spacelike_complement(comp)
        box = sample_region(standard_wedge(d), 5_000, seed=43)
        rng = np.random.default_rng(44)
        mixed = np.vstack([box, rng.uniform(-10, 10, size=(5_000, d))])
        ok = ok and all(w1.contains(p) == twice.contains(p) for p in mixed)
        o1 = unit_double_cone(d)
        twice_cone = spacelike_complement(spacelike_complement(o1))
        ok = ok and all(o1.contains(p) == twice_cone.contains(p) for p in mixed)
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    assert report("criterion 3 (geometry/duality substrate)", ok,
                  f"axis inversion maps the wedge onto its complement on 10^4 "
                  f"points, double complements exact on samples, {elapsed:.2f}s < 5s")


def test_criterion_4_flow_coherence(suite_runs):
    assert verdict(suite_runs, "4", "flow coherence", gate_s=10.0)


def test_criterion_5_modular_calculus(suite_runs):
    assert verdict(suite_runs, "5", "modular calculus", gate_s=30.0)


def test_criterion_6_bisognano_wichmann(suite_runs):
    assert verdict(suite_runs, "6", "Bisognano-Wichmann at desk scale", gate_s=600.0)


def test_expected_failures_stand_on_their_criteria():
    for name, (criterion, _) in cli._EXPECTED_FAILURES.items():
        assert name in CRITERIA[criterion][1], name


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason=cli._EXPECTED_FAILURES["duality-angle-monotone"][1])
def test_criterion_7_duality_monotone(suite_runs):
    assert verdict(suite_runs, "7a", "duality ladder decreases")


def test_criterion_7_rotation_invariance(suite_runs):
    # L=64 here; L=128 is test_chiral.py::test_duality_defect_lattice_symmetries
    assert verdict(suite_runs, "7b", "duality rotation invariance")


def test_criterion_8_pct_monotone(suite_runs):
    assert verdict(suite_runs, "8a", "PCT probe ladder decreases")


def test_criterion_8_conjugation_involution(suite_runs):
    # the pct suite bounds |J^2 - 1| at L=256 from the modular planes,
    # test_chiral.py takes the dense residual at 64 and 256; the dense
    # residual at L=128 is checked here
    worst = dr.involution_residual(ch.interval_tomita(ch.build_model(128), ch.half_circle()))
    ok = verdict(suite_runs, "8b", "modular conjugation squares to one")
    assert report("criterion 8b at L=128", worst < 1e-6, f"residual {worst:.1e} < 1e-6") and ok


def test_criterion_9_energy_trace():
    ok = True
    details = []
    for beta in (0.5, 1.0, 2.0):
        total = ch.energy_trace(beta, 50)
        closed = np.exp(-beta) / (1 - np.exp(-beta))
        tail = np.exp(-beta * 50) / (1 - np.exp(-beta))
        ok = ok and abs(total - closed) <= tail + 1e-15
        details.append(f"beta={beta}: |sum - closed| = {abs(total - closed):.1e}")
    assert report("criterion 9 (energy trace)", ok,
                  "; ".join(details) + " within the stated tail bounds")
