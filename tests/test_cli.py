import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confmod.chiral as ch
import confmod.flows as fl
import confmod.modular as md
from confmod import cli
from confmod.geometry import sample_region


def test_group_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    config = cli.SuiteConfig(suite="group", dims=(2, 3), seed=42, out=str(out))
    report = cli.run(config)
    assert not report.failed()
    data = json.loads(out.read_text())
    assert data["tool"] == "confmod"
    assert data["summary"]["fail"] == 0
    assert all(c["anchor"] for c in data["checks"])


def test_reports_are_deterministic():
    config = cli.SuiteConfig(suite="modular", dims=(2,), seed=7)
    a = cli.run(config).to_dict()
    b = cli.run(config).to_dict()
    a.pop("wall_clock_s")
    b.pop("wall_clock_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_bw_suite_deterministic_and_green():
    config = cli.SuiteConfig(suite="bw", sizes=(64, 128, 256), seed=7)
    r1 = cli.run(config)
    r2 = cli.run(config)
    assert [c["value"] for c in r1.checks] == [c["value"] for c in r2.checks]
    assert not r1.failed()


@pytest.mark.parametrize("suite, tol", (("pct", 1e-9), ("group", 0.0), ("flows", 0.0),
                                       ("modular", 0.0)),
                         ids=("pct", "group", "flows", "modular"))
def test_pct_suite_independent_of_blas_threads(tmp_path, suite, tol):
    # the reports promise identical values for identical configurations;
    # the BLAS thread count must not leak into the checks: the group, flows
    # and modular values are equal, the pct values within 1e-9
    src = str(Path(cli.__file__).resolve().parents[1])
    values = []
    for threads in ("1", "2"):
        out = tmp_path / f"{suite}{threads}.json"
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        subprocess.run([sys.executable, "-m", "confmod.cli", "--suite", suite, "--seed", "306",
                        "--sizes", "64,128,256", "--out", str(out)],
                       env=env, capture_output=True, timeout=300)
        checks = json.loads(out.read_text())["checks"]
        values.append({c["name"]: c["value"] for c in checks})
    assert values[0].keys() == values[1].keys()
    for name, value in values[0].items():
        assert values[1][name] == pytest.approx(value, rel=0, abs=tol), name


def test_unknown_suite_is_configuration_error(tmp_path):
    out = tmp_path / "never.json"
    config = cli.SuiteConfig(suite="frobnicate", out=str(out))
    with pytest.raises(cli.ConfigurationError):
        cli.run(config)
    assert not out.exists()          # no partial report


def test_invalid_dimension_rejected():
    with pytest.raises(cli.ConfigurationError):
        cli.run(cli.SuiteConfig(suite="group", dims=(1,)))


def test_tolerance_floor_validation():
    with pytest.raises(cli.ConfigurationError):
        cli.run(cli.SuiteConfig(suite="group", tolerances={"group_identity": 1e-30}))


def test_main_exit_codes(tmp_path):
    assert cli.main(["--suite", "group", "--d", "2", "--seed", "1"]) == 0
    assert cli.main(["--suite", "nope"]) == 2
    assert cli.main(["--suite", "group", "--d", "1,2"]) == 2
    # duality suite reports the non-converging ladder as a failure
    assert cli.main(["--suite", "duality", "--sizes", "64,128"]) == 1
    # a one-size ladder has no step: its monotone check is skipped
    for suite in ("bw", "duality", "pct"):
        out = tmp_path / f"{suite}.json"
        assert cli.main(["--suite", suite, "--sizes", "64", "--out", str(out)]) == 0
        statuses = [c["status"] for c in json.loads(out.read_text())["checks"]]
        assert statuses.count("skip") == 1, suite
    # empty ladders and dimension lists are configuration errors
    out = tmp_path / "never.json"
    assert cli.main(["--suite", "bw", "--sizes", "", "--out", str(out)]) == 2
    assert cli.main(["--suite", "group", "--d", "", "--out", str(out)]) == 2
    # so are ladders that do not strictly increase and repeated dimensions
    assert cli.main(["--suite", "duality", "--sizes", "128,64", "--out", str(out)]) == 2
    assert cli.main(["--suite", "bw", "--sizes", "64,64", "--out", str(out)]) == 2
    assert cli.main(["--suite", "group", "--d", "2,2", "--out", str(out)]) == 2
    # malformed outside input is a configuration error too, never a
    # traceback, and writes no report
    for argv in (["--seed", "-1"], ["--tol", "group_identity=abc"],
                 ["--tol", "group_identity=nan"], ["--tol", "group_identity=inf"],
                 ["--tol", "group_identity=1,2"], ["--d", "x"], ["--sizes", "x"]):
        assert cli.main(["--suite", "group", "--d", "2", "--out", str(out)] + argv) == 2, argv
    # the pct probe family vanishes below L = 32, so such a ladder is
    # rejected before any suite runs
    for argv in (["--suite", "pct", "--sizes", "16"], ["--suite", "all", "--sizes", "16,64"]):
        assert cli.main(argv + ["--out", str(out)]) == 2, argv
    csv = tmp_path / "never.csv"
    for argv in (["--point", "0,a"], ["--point", "0"],
                 ["--point", "0,1", "--t-grid=0,1"], ["--point", "0,1", "--t-grid=0,1,x"],
                 ["--point", "0,1", "--t-grid=0,1,-2"], ["--point", "0,1", "--t-grid=0,nan,3"],
                 ["--point", "nan,0.5"], ["--point", "0,-inf"]):
        assert cli.main(["--trajectory", "wedge", "--csv", str(csv)] + argv) == 2, argv
    assert cli.main(["--trajectory", "doublecone", "--point", "inf,0", "--csv", str(csv)]) == 2
    assert not out.exists() and not csv.exists()
    for bad in (dict(suite="group", seed=-1),
                dict(suite="group", tolerances={"group_identity": float("nan")}),
                dict(suite="pct", sizes=(16, 32)), dict(suite="all", sizes=(16,))):
        with pytest.raises(cli.ConfigurationError):
            cli.SuiteConfig(**bad).validate()


def test_ladder_suites_build_each_model_once(monkeypatch):
    built = []
    build = ch.build_model
    monkeypatch.setattr(ch, "build_model", lambda L: built.append(L) or build(L))
    for suite in ("bw", "duality", "pct"):
        built.clear()
        cli.SUITE_RUNNERS[suite](cli.SuiteConfig(sizes=(64, 128, 256)))
        assert sorted(built) == [64, 128, 256], suite


def test_ladder_suites_factor_each_interval_once(monkeypatch):
    # bw and pct factor the half circle once per size; duality reads its
    # angle from Householder bases of the arcs and builds no Tomita
    # operators; the modular suite factors each of its 100 random subspaces
    # once, in one stacked call per dimension m, and measures J K = K' from
    # the two bases, never forming K'.  Subspaces are counted, not calls: a
    # stacked call factors every subspace of its stack.
    factored, complements = [], []

    def counted(subspace, *args, _fn=md.tomita_operators, **kwargs):
        basis = subspace.basis
        factored.extend(b.tobytes() for b in basis.reshape((-1,) + basis.shape[-2:]))
        return _fn(subspace, *args, **kwargs)

    def counted_complement(*args, _fn=md.symplectic_complement, **kwargs):
        complements.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(md, "tomita_operators", counted)
    monkeypatch.setattr(md, "symplectic_complement", counted_complement)
    for suite, n in (("bw", 3), ("duality", 0), ("pct", 3), ("modular", 100)):
        factored.clear()
        cli.SUITE_RUNNERS[suite](cli.SuiteConfig(sizes=(64, 128, 256)))
        assert len(factored) == n and len(set(factored)) == n, suite
        assert complements == [], suite


def _reference_draws(seed, n, angle_floor):
    """The modular suite's draw loop one draw at a time."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        m = int(rng.integers(1, 9))
        gens = md.random_standard_subspace(m, rng, angle_floor).generators
        draws.append((m, gens, rng.normal(size=2 * m), rng.normal(size=2 * m)))
    return draws, rng


def test_stacked_draws_replay_random_standard_subspace(monkeypatch):
    # at a floor of 0.2 rad about one draw in six is rejected; each
    # rejection is replayed from the generator state before it, so the
    # stacked draws and the rest of the stream equal the one-at-a-time loop
    floor = 0.2
    tested = []

    def counted(m, gens, angle_floor, _fn=md._standard_draws):
        ok = _fn(m, gens, angle_floor)
        if np.ndim(ok) == 0:
            tested.append(bool(ok))
        return ok

    monkeypatch.setattr(md, "_standard_draws", counted)
    for seed in (3, 4):
        tested.clear()
        ref, ref_rng = _reference_draws(seed, 60, floor)
        assert tested.count(False) >= 5
        rng = np.random.default_rng(seed)
        draws = cli._modular_draws(rng, 60, floor)
        assert len(draws) == 60
        for a, b in zip(draws, ref):
            assert a[0] == b[0]
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a[1:], b[1:]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    # at the suite's floor the stacked draws equal the loop as well
    draws = cli._modular_draws(np.random.default_rng(5), 100)
    ref, _ = _reference_draws(5, 100, md.DEFAULT_ANGLE_FLOOR)
    assert all(a[1].tobytes() == b[1].tobytes() for a, b in zip(draws, ref))


def test_modular_suite_passes_at_ill_conditioned_seed():
    # seed 306 draws a subspace with cond(Delta) ~ 2.5e12; the reference
    # Delta^{-1} = S S^T is exact there, where a numerical inverse is not
    report = cli.run(cli.SuiteConfig(suite="modular", seed=306))
    assert not report.failed(), [c for c in report.checks if c["status"] == "fail"]


def test_trajectory_export(tmp_path):
    path = tmp_path / "traj.csv"
    cli.export_trajectory("cone", 4, [1, 0, 0, 0], np.linspace(-2, 2, 5), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2,x3"
    assert len(lines) == 6               # header + 5 rows
    t, x0 = lines[-1].split(",")[:2]
    assert float(x0) == pytest.approx(np.exp(2.0))


def test_trajectory_main(tmp_path):
    path = tmp_path / "w.csv"
    code = cli.main(["--trajectory", "wedge", "--point", "0,1,0,0",
                     "--t-grid=-1,1,5", "--csv", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 6


def test_csv_formatting(tmp_path):
    path = tmp_path / "vals.csv"
    cli.export_csv([[1.0 / 3.0, "x"]], ["v", "s"], str(path))
    text = path.read_text()
    assert "\r" not in text
    assert "0.33333333333333331" in text     # 17 significant digits


def test_empty_trajectory_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    cli.export_csv([], ["t", "x0"], str(path))
    assert path.read_text() == "t,x0\n"


def test_report_csv(tmp_path):
    config = cli.SuiteConfig(suite="group", dims=(2,), seed=3)
    report = cli.run(config)
    path = tmp_path / "checks.csv"
    cli.export_report_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "name,anchor,status,value,threshold"
    assert len(lines) == len(report.checks) + 1


def test_bw_csv_one_row_per_ladder_size(tmp_path):
    config = cli.SuiteConfig(suite="bw", sizes=(64, 128, 256), seed=7)
    report = cli.run(config)
    path = tmp_path / "bw.csv"
    cli.export_report_csv(report, str(path))
    lines = path.read_text().splitlines()
    for L in (64, 128, 256):
        assert sum(line.startswith(f"bw-defect-L{L},") for line in lines) == 1


def test_tolerance_override_through_main(tmp_path):
    out = tmp_path / "r.json"
    # an absurdly tight override makes the group suite fail: the override
    # is wired through, and failures drive the exit code
    code = cli.main(["--suite", "group", "--d", "2", "--seed", "1",
                     "--tol", "group_identity=1e-15", "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert any(c["status"] == "fail" for c in data["checks"])


TIMES = (-2.0, -1.0, -0.1, 0.1, 1.0, 2.0)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_region_preservation_well_posed_near_the_horizon(d):
    # at seed 172 the wedge sample holds points a few 1e-6 inside the
    # horizon x1 = |x0|; moved at t = 2 itself their images lie within an
    # ulp of it and round outside, while at t times their relative margin
    # every image keeps a margin float64 resolves
    wf = fl.wedge_flow(d)
    pts = sample_region(wf.region, 200, seed=172)
    ys, _ = wf.rows(2.0, pts)
    assert not wf.region.contains_many(ys).all()
    assert cli._preserves_region(wf, pts, TIMES)
    for s in (171, 172, 1601):
        report = cli.run(cli.SuiteConfig(suite="flows", dims=(d,), seed=s))
        assert not report.failed(), s


def _wrong_maps(flow, outside):
    """The flow with a shifted image, and with the time-reversed image of
    an outside point."""
    def shifted(t, c):
        y, regular = flow._columns(t, c)
        return [y[0] + 0.5, y[1] - 3.0, *y[2:]], regular

    def reversed_outside(t, c):
        return flow._columns(-t, outside(c))

    return (dataclasses.replace(flow, _columns=shifted),
            dataclasses.replace(flow, _columns=reversed_outside))


@pytest.mark.parametrize("d", (2, 3, 4))
def test_region_preservation_fails_on_wrong_maps(d):
    cases = ((fl.wedge_flow(d), lambda c: [c[0], -c[1], *c[2:]]),
             (fl.doublecone_flow(d), lambda c: [3.0 * ci for ci in c]),
             (fl.cone_flow(d), lambda c: [-c[0], *c[1:]]))
    for flow, outside in cases:
        pts = sample_region(flow.region, 200, seed=43)
        assert cli._preserves_region(flow, pts, TIMES)
        for wrong in _wrong_maps(flow, outside):
            assert not cli._preserves_region(wrong, pts, TIMES)
