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


def test_lattice_suites_ignore_the_seed():
    # the bw, pct and duality suites draw no random numbers: at two seeds
    # their records have the same names and statuses and float.hex-equal
    # values
    for suite in ("bw", "pct", "duality"):
        records = [[(c["name"], c["status"], c["value"].hex())
                    for c in cli.run(cli.SuiteConfig(suite=suite, sizes=(64, 128, 256),
                                                     seed=seed)).checks]
                   for seed in (42, 306)]
        assert records[0] == records[1], suite


# the records of the bw, duality and pct suites; pct-factorization-d* is a
# flows record
_LATTICE_RECORDS = ("bw-", "z-cocycle-", "duality-", "pct-angle-", "pct-conjugation-")
_SUITES_AT_306 = ("group", "flows", "modular", "pct", "bw")


@pytest.mark.parametrize("argv", ([], ["--suite", "bw", "--sizes", "256,512,1024,2048"],
                                  ["--suite", "pct", "--sizes", "256,512,1024,2048"],
                                  ["--suite", "duality", "--sizes", "256,512,1024,2048"],
                                  *(["--suite", suite, "--seed", "306", "--sizes", "64,128,256"]
                                    for suite in _SUITES_AT_306)),
                         ids=("default", "bw", "pct", "duality",
                              *(f"{suite}-306" for suite in _SUITES_AT_306)))
def test_reports_independent_of_blas_threads(tmp_path, argv):
    # whole reports at 1 and 2 BLAS threads: the same records and statuses,
    # the group, flows and modular values float-equal, the lattice values
    # within 1e-12 and the z-cocycle within 5e-9 relative.  The largest
    # moves measured are 2.2e-13 (bw defect), 1.3e-13 (pct angle), 6.7e-16
    # (duality angle) and 2.0e-11 relative (z-cocycle).  Seed 306 draws the
    # modular suite's ill-conditioned subspace; at L = 64-256 only
    # pct-conjugation-involution moved, by 2.9e-18
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run([sys.executable, "-m", "confmod.cli", "--out", str(out)] + argv,
                              env=env, capture_output=True, text=True, timeout=300)
        assert out.exists(), done.stderr
        reports.append(json.loads(out.read_text())["checks"])
    one, two = reports
    assert [(c["name"], c["status"]) for c in one] == [(c["name"], c["status"]) for c in two]
    for a, b in zip(one, two):
        name, value = a["name"], a["value"]
        if name.startswith("z-cocycle-"):
            assert b["value"] == pytest.approx(value, rel=5e-9, abs=0), name
        elif name.startswith(_LATTICE_RECORDS):
            assert b["value"] == pytest.approx(value, rel=0, abs=1e-12), name
        else:
            assert b["value"] == value, name


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
    # the duality suite records its non-converging ladder as a failure, an
    # expected one (criterion 7a), which does not set the exit code
    out = tmp_path / "duality.json"
    assert cli.main(["--suite", "duality", "--sizes", "64,128", "--out", str(out)]) == 0
    statuses = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert statuses["duality-angle-monotone"] == "fail"
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
                 ["--tol", "group_identity=1,2"], ["--tol", "group_identiy=1e-3"],
                 ["--d", "x"], ["--sizes", "x"]):
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
                dict(suite="pct", sizes=(16, 32)), dict(suite="all", sizes=(16,)),
                dict(suite="group", tolerances={"group_identiy": 1e-3}),
                dict(suite="group", tolerances={"group_identity": "1e-3"}),
                dict(suite="group", dims=(2.5,)), dict(suite="bw", sizes=(64.0, 128)),
                dict(suite="group", seed=4.0)):
        with pytest.raises(cli.ConfigurationError):
            cli.SuiteConfig(**bad).validate()


def test_expected_failure_that_passes_fails_the_run(monkeypatch):
    # a duality ladder that decreases passes duality-angle-monotone, which
    # is expected to fail: the run fails, as a strict xfail does
    monkeypatch.setattr(ch, "duality_defect", lambda model, interval: 1.0 / model.L)
    report = cli.run(cli.SuiteConfig(suite="duality", sizes=(64, 128)))
    assert {c["status"] for c in report.checks} == {"pass"}
    assert report.failed()
    assert cli.main(["--suite", "duality", "--sizes", "64,128"]) == 1


def test_ladder_suites_build_each_model_once(monkeypatch):
    built = []
    build = ch.build_model
    monkeypatch.setattr(ch, "build_model", lambda L: built.append(L) or build(L))
    for suite in ("bw", "duality", "pct"):
        built.clear()
        cli.SUITE_RUNNERS[suite](cli.SuiteConfig(sizes=(64, 128, 256)))
        assert sorted(built) == [64, 128, 256], suite


def test_bw_suite_computes_what_its_checks_read(bw_applications):
    # bw_defect is asked for t = 0.25 below the top size and for 0.1, 0.25
    # at the top: every ladder value and the z-cocycle come out bit for bit
    # as from the grid 0, 0.1, 0.25, from 17 pairs of synthesis tables and
    # 13 modular flows instead of 30 and 24
    sizes = (64, 128, 256)
    checks = cli.run_bw_suite(cli.SuiteConfig(sizes=sizes))
    assert bw_applications == {"synthesis": 17, "flow": 13}
    expected = {}
    for L in sizes:
        rep = ch.bw_defect(ch.build_model(L), ch.half_circle(), [0.0, 0.1, 0.25])
        expected[f"bw-defect-L{L}"] = float(rep.defects[-1]).hex()
    expected["z-cocycle-group-law"] = rep.max_z_residual().hex()
    assert {c["name"]: c["value"].hex() for c in checks if c["name"] in expected} == expected


def test_ladder_suites_factor_each_interval_once(monkeypatch):
    # bw and pct factor the half circle once per size, in interval_tomita
    # on its parity blocks, and call no tomita_operators; duality reads its
    # angle from QR bases of the arcs' parity blocks and factors no
    # interval; the modular suite factors each of its 100 random subspaces
    # once, in one stacked tomita_operators call per dimension m, and
    # measures J K = K' from the two bases, never forming K'.  Subspaces are
    # counted, not calls: a stacked call factors every subspace of its
    # stack.
    intervals, subspaces, complements = [], [], []

    def counted_interval(model, interval, _fn=ch.interval_tomita):
        intervals.append((model.L, interval))
        return _fn(model, interval)

    def counted(subspace, *args, _fn=md.tomita_operators, **kwargs):
        basis = subspace.basis
        subspaces.extend(b.tobytes() for b in basis.reshape((-1,) + basis.shape[-2:]))
        return _fn(subspace, *args, **kwargs)

    def counted_complement(*args, _fn=md.symplectic_complement, **kwargs):
        complements.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(ch, "interval_tomita", counted_interval)
    monkeypatch.setattr(md, "tomita_operators", counted)
    monkeypatch.setattr(md, "symplectic_complement", counted_complement)
    for suite, n_intervals, n_subspaces in (("bw", 3, 0), ("duality", 0, 0), ("pct", 3, 0),
                                            ("modular", 0, 100)):
        intervals.clear()
        subspaces.clear()
        cli.SUITE_RUNNERS[suite](cli.SuiteConfig(sizes=(64, 128, 256)))
        assert len(intervals) == len(set(intervals)) == n_intervals, suite
        assert len(subspaces) == len(set(subspaces)) == n_subspaces, suite
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


_TOMITA_OPERATORS = md.tomita_operators     # not the spy of _spy_on_draws


def _assert_draws_equal_loop(rng, n, angle_floor, ref, ref_rng):
    """_modular_draws equals the loop bit for bit, draws and final
    generator state, and hands on each m's draws as one subspace stack with
    its tomita_operators record."""
    draws, factored = cli._modular_draws(rng, n, angle_floor)
    assert len(draws) == n
    for a, b in zip(draws, ref):
        assert a[0] == b[0]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a[1:], b[1:]))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert list(factored) == sorted({d[0] for d in draws})
    for m, (K, dat) in factored.items():
        gens = np.stack([d[1] for d in draws if d[0] == m])
        assert K.generators.tobytes() == gens.tobytes()
        assert K.basis.tobytes() == md.StandardSubspace(m, gens).basis.tobytes()
        assert dat.frame.tobytes() == _TOMITA_OPERATORS(K, angle_floor).frame.tobytes()


def _spy_on_draws(monkeypatch):
    """Lists that record whether tomita_operators accepted each subspace it
    factored alone, the stack shape of every stack it factored, and the m
    of every random_standard_subspace call."""
    verdicts, stacks, loops = [], [], []

    def factored(subspace, *args, _fn=md.tomita_operators):
        if subspace.stack_shape:
            stacks.append(subspace.stack_shape)
            return _fn(subspace, *args)
        try:
            dat = _fn(subspace, *args)
        except md.StandardnessError:
            verdicts.append(False)
            raise
        verdicts.append(True)
        return dat

    def loop(m, *args, _fn=md.random_standard_subspace):
        loops.append(m)
        return _fn(m, *args)

    monkeypatch.setattr(md, "tomita_operators", factored)
    monkeypatch.setattr(md, "random_standard_subspace", loop)
    return verdicts, stacks, loops


def test_stacked_draws_replay_random_standard_subspace(monkeypatch):
    # at a floor of 0.2 rad about one draw in six is rejected; a rejection
    # sends the stacked draws back to the generator state before the first
    # draw, and the loop draws them all, so the stream equals the loop's
    floor = 0.2
    verdicts, _, loops = _spy_on_draws(monkeypatch)
    for seed in (3, 4):
        verdicts.clear()
        ref, ref_rng = _reference_draws(seed, 60, floor)
        assert verdicts.count(False) >= 5
        loops.clear()
        _assert_draws_equal_loop(np.random.default_rng(seed), 60, floor, ref, ref_rng)
        assert len(loops) == 60
    # at the suite's floor every stack is accepted as drawn: no loop runs
    for seed in (5, 6, 7):
        ref, ref_rng = _reference_draws(seed, 100, md.DEFAULT_ANGLE_FLOOR)
        loops.clear()
        _assert_draws_equal_loop(np.random.default_rng(seed), 100, md.DEFAULT_ANGLE_FLOOR,
                                 ref, ref_rng)
        assert loops == []


class _RepeatedRowRng:
    """A generator whose first draw of m >= 2 generators repeats its first
    row, so that the draw spans a real subspace of dimension m - 1; the
    rest of the stream, and every draw after a rewind, is the seed's own."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.parts, self.m = 2, None

    def integers(self, *args):
        return self._rng.integers(*args)

    def normal(self, size):
        x = self._rng.normal(size=size)
        if np.ndim(x) == 2 and len(x) >= 2 and self.parts:
            x[1] = x[0]
            self.parts -= 1
            self.m = len(x)
        return x


def test_draws_with_a_lower_dimensional_span_replay_the_loop(monkeypatch):
    # the repeated row's stack holds spans of two dimensions, so
    # StandardSubspace raises before any stack is factored, and the loop
    # draws all n afresh: the only stacks factored are the replay's, one
    # per m
    _, stacks, loops = _spy_on_draws(monkeypatch)
    ref, ref_rng = _reference_draws(8, 40, md.DEFAULT_ANGLE_FLOOR)
    rng = _RepeatedRowRng(8)
    loops.clear()
    _assert_draws_equal_loop(rng, 40, md.DEFAULT_ANGLE_FLOOR, ref, ref_rng)
    ms = [d[0] for d in ref]
    assert ms.count(rng.m) >= 2
    assert len(loops) == 40
    assert stacks == [(ms.count(m),) for m in sorted(set(ms))]


def test_modular_suite_decides_each_draw_by_its_one_factorization(monkeypatch):
    # a default run spans each m's stack, factors it and measures J K = K'
    # from the two bases: three SVDs of the modular module per m, over its
    # 100 subspaces each.  tomita_operators accepts the draws, and
    # standardness() is only the report of a StandardnessError
    members, reports = [], []

    def counted_svd(a, *args, _fn=md.svd, **kwargs):
        members.append(int(np.prod(a.shape[:-2])))
        return _fn(a, *args, **kwargs)

    def counted_standardness(self, *args, _fn=md.StandardSubspace.standardness):
        reports.append(self.stack_shape)
        return _fn(self, *args)

    monkeypatch.setattr(md, "svd", counted_svd)
    monkeypatch.setattr(md.StandardSubspace, "standardness", counted_standardness)
    checks = cli.run_modular_suite(cli.SuiteConfig(seed=42))
    assert all(c["status"] == "pass" for c in checks)
    assert len(members) == 24 and sum(members) == 300
    assert reports == []


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


def test_trajectory_drops_exactly_the_singular_times(tmp_path):
    # a double-cone trajectory through the poles of its map, at
    # e^{-2 pi t} = (1 + v) / (v - 1) for v = x0 +- |vec x|: the export
    # drops exactly the times where closed_form is None, and its bytes are
    # those of the per-point loop over closed_form
    flow, point = fl.doublecone_flow(3), np.array([3.0, 0.5, 0.0])
    v = np.array([3.5, 2.5])
    poles = -np.log((1.0 + v) / (v - 1.0)) / (2 * np.pi)
    grid = np.sort(np.concatenate([np.linspace(-2.0, 2.0, 9), poles]))
    images = [flow.closed_form(float(t), point) for t in grid]
    assert sum(y is None for y in images) == 2
    ref = tmp_path / "loop.csv"
    cli.export_csv([[float(t)] + [float(c) for c in y] for t, y in zip(grid, images)
                    if y is not None], ["t", "x0", "x1", "x2"], str(ref))
    path = tmp_path / "rows.csv"
    cli.export_trajectory("doublecone", 3, point, grid, str(path))
    assert len(path.read_text().splitlines()) == 1 + len(grid) - 2
    assert path.read_bytes() == ref.read_bytes()


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
