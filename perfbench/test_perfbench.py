"""Tests of the benchmark's own logic: span self times, accept ratios, the
reference comparator and the closed-form region predicates.

    python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer as tr
import workloads as w
from worker import ROOT, import_confmod

confmod = import_confmod()


def _spans(rows, names):
    """Span arrays from (name, parent, start, end) rows."""
    ids = {n: i for i, n in enumerate(names)}
    return {"name": np.array([ids[r[0]] for r in rows]),
            "parent": np.array([r[1] for r in rows]),
            "run": np.zeros(len(rows), dtype=int),
            "start": np.array([r[2] for r in rows], dtype=float),
            "end": np.array([r[3] for r in rows], dtype=float)}


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c", "d"]
    a = _spans([("a", -1, 0.0, 10.0),
                ("b", 0, 1.0, 4.0),
                ("c", 0, 5.0, 9.0),
                ("d", 2, 6.0, 8.0)], names)
    np.testing.assert_allclose(tr.self_times(a["parent"], a["start"], a["end"]),
                               [3.0, 3.0, 2.0, 2.0])
    stats = tr.span_stats(names, a)
    assert stats["a"] == (1, 10.0, 3.0)
    assert stats["c"] == (1, 4.0, 2.0)


def test_tracer_records_nesting_and_restores_names():
    t = tr.Tracer()

    def inner(x):
        return x + 1

    inner_traced = t.wrap(inner, "inner")
    outer = t.wrap(lambda x: inner_traced(inner_traced(x)), lambda x: f"outer.{x}")
    assert outer(1) == 3
    a = t.arrays()
    assert [t.names[i] for i in a["name"]] == ["outer.1", "inner", "inner"]
    assert list(a["parent"]) == [-1, 0, 0]
    own = tr.self_times(a["parent"], a["start"], a["end"])
    children = (a["end"] - a["start"])[1:].sum()
    assert own[0] == pytest.approx(a["end"][0] - a["start"][0] - children)

    original = confmod.geometry.sample_region
    with tr.instrument(tr.Tracer(), confmod):
        assert confmod.cli.sample_region is not original
    assert confmod.geometry.sample_region is original
    assert confmod.cli.sample_region is original


def test_descendant_calls_follow_the_whole_ancestor_chain():
    names = ["bw", "mid", "flow", "other"]
    a = _spans([("bw", -1, 0.0, 10.0),
                ("flow", 0, 1.0, 2.0),
                ("mid", 0, 3.0, 6.0),
                ("flow", 2, 4.0, 5.0),
                ("flow", -1, 11.0, 12.0),
                ("other", 0, 7.0, 8.0)], names)
    assert tr.descendant_calls(names, a, ("flow",), ("bw",)) == 2
    assert tr.descendant_calls(names, a, ("flow", "other"), ("bw",)) == 3
    assert tr.descendant_calls(names, a, ("flow",), ("absent",)) == 0


def test_accept_ratio_counts_only_top_level_contains_calls():
    names = ["bench.sample.r_d2", "geometry.sample_region", "geometry.contains"]
    rows = [("bench.sample.r_d2", -1, 0.0, 10.0), ("geometry.sample_region", 0, 0.0, 10.0)]
    for k in range(8):
        rows.append(("geometry.contains", 1, k, k + 0.5))
    # A nested membership test (a transformed region asking its base) is
    # not a draw of the sampler.
    rows.append(("geometry.contains", 2, 0.1, 0.2))
    a = _spans(rows, names)
    assert tr.accept_ratios(names, a, {"r_d2": 2, "other_d3": 5}) == {
        "r_d2": 2 / 8, "other_d3": 0.0}


def test_accept_ratio_of_traced_double_cone_matches_its_volume():
    # The sampling box of the unit double cone at d=2 is [-1,1] x [-2,2],
    # area 8; the cone's area is 2.
    geo = confmod.geometry
    t = tr.Tracer()
    with tr.instrument(t, confmod):
        with t.span("bench.sample.double_cone_d2"):
            geo.sample_region(geo.unit_double_cone(2), 2000, seed=5)
    ratio = tr.accept_ratios(t.names, t.arrays(), {"double_cone_d2": 2000})
    assert ratio["double_cone_d2"] == pytest.approx(0.25, abs=0.02)


def test_time_ratio_weighs_units_by_control_time():
    # Two units: the first (control 3 s) runs 2x slower on the subject, the
    # second (control 1 s) as fast; one outlier pair moves only its median.
    control = [[3.0, 1.0], [3.0, 1.0], [3.0, 1.0]]
    subject = [[6.0, 1.0], [6.0, 5.0], [6.0, 1.0]]
    assert run.time_ratio(subject, control) == pytest.approx((3 * 2 + 1 * 1) / 4)
    assert run.time_ratio(control, control) == 1.0


def test_split_suite_all_has_the_checks_of_one_default_run():
    cli = confmod.cli
    split = [c for r in w.run_cli(cli, w.cli_configs(cli, "suite_all", 5)) for c in r.checks]
    assert split == cli.run(cli.SuiteConfig(seed=5)).checks


@pytest.mark.parametrize("side", ["subject", "control"])
def test_each_side_imports_its_own_confmod(side):
    # import_confmod refuses a confmod found anywhere but the side's directory.
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                          "--workload", "suite_all", "--seed", "1", "--mode", "setup",
                          "--side", side], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1])["units"] == len(confmod.cli.SUITES)


def test_comparator_flags_perturbed_values():
    ref = 0.36478217750522124
    assert w.compare_value(ref, ref, 1e-9)
    assert w.compare_value(ref * (1 + 5e-10), ref, 1e-9)
    assert not w.compare_value(ref * (1 + 2e-9), ref, 1e-9)
    assert not w.compare_value(math.nan, ref, 1e-9)


def _check(name, value, status="pass"):
    return {"name": name, "anchor": name, "status": status, "value": value,
            "threshold": None}


def test_verify_checks_against_stored_references():
    refs = w.load_references()
    sizes = (64, 128, 256)
    good = [_check("bw-defect-L256", refs["bw-defect-L256"]),
            _check("duality-angle-L64", refs["duality-angle-L64"]),
            _check("z-cocycle-group-law", refs["z-cocycle-group-law-L256"] * (1 + 1e-3)),
            _check("pct-angle-L256", 123.0),
            _check("duality-angle-monotone", 0.08, "fail")]
    out = w.verify_checks(good, sizes, refs)
    assert (out.attempted, out.failed, out.failing, out.compared) == (5, 0, 1, 3)
    assert out.statuses == {"pass": 4, "fail": 1}

    bad = [_check("bw-defect-L256", refs["bw-defect-L256"] * (1 + 1e-8)),
           _check("z-cocycle-group-law", refs["z-cocycle-group-law-L256"] * 1.05),
           _check("flow-group-law-d2", 1.0, "fail")]
    out = w.verify_checks(bad, sizes, refs)
    assert (out.attempted, out.failed, out.failing) == (3, 3, 3)
    assert [m[0] for m in out.mismatches] == ["bw-defect-L256", "z-cocycle-group-law"]


@pytest.mark.parametrize("d", w.REGION_DIMS)
def test_closed_form_predicates_agree_with_region_membership(d):
    rng = np.random.default_rng(d)
    for name, region in w.build_regions(confmod, d).items():
        X = rng.uniform(-3.0, 3.0, size=(200 if name == "conformal_double_cone" else 600, d))
        expected = np.array([region.contains(x) for x in X])
        assert np.array_equal(w.region_margins(name, d, X) > 0, expected), name
        assert expected.any(), name


def test_region_pass_outputs_verify():
    regions = w.build_regions(confmod, 2)
    inputs = [(f"{name}_d2", 2, name, regions[name], 20, k)
              for k, name in enumerate(w.FLOW_REGIONS.values())]
    result = w.run_regions(confmod, inputs)
    out = w.verify_regions(inputs, result)
    assert (out.failed, out.points) == (0, 60)
    assert out.attempted == 60 + len(w.FLOW_REGIONS) * len(w.FLOW_TIMES) * 20 + 20
    result["samples"]["double_cone_d2"][0] = [0.9, 0.9]
    assert w.verify_regions(inputs, result).failed == 1


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    fake = {"layers": tr.layer_metrics(tr.Tracer(), dict.fromkeys(w.REGION_LABELS, 0)),
            "pass_s": [1.0], "traced_pass_s": [1.0], "check_values": {},
            "traced_outcome": {"failing": 0, "attempted": 1}}
    layers = run.per_layer("suite_all", fake, None)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[1] for k, v in layers.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [x["name"] for x in spec["workloads"]] == list(run.WORKLOADS)
