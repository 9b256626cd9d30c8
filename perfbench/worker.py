"""One workload in its own interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,serve,trace,pct2} --side {subject,control} --threads T

The BLAS thread count is pinned before numpy is first imported.  The
result is one JSON object on the last line of standard output; run.py
starts this script and reads it.  --side picks the confmod that is
imported: the checkout's src/ (subject) or the frozen copy under
perfbench/control/ (control).  Modes:

  setup  import confmod and make the inputs, then report the clock
  serve  report the clock when ready, then run one unit of the workload per
         unit index read from standard input and answer each with one JSON
         line (its time, and its checked outcome on the subject side);
         "quit" ends it
  trace  S/2 seconds of untraced passes, then S/2 with every public layer traced
  pct2   one traced pass of the lattice ladder's pct suite (run with T=2)
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Where each side's confmod package lives: the program under test, and the
# frozen copy the subject's pass times are divided by (see README.md).
SOURCES = {"subject": ROOT / "src", "control": HERE / "control"}
OUT_DIR = ROOT / ".perfbench"


def import_confmod(side: str = "subject"):
    """confmod from the side's own directory, never from anywhere else."""
    src = SOURCES[side]
    if not (src / "confmod" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no confmod sources under {src}")
    sys.path.insert(0, str(src))
    import confmod
    import confmod.cli
    if Path(confmod.__file__).resolve().parent != (src / "confmod").resolve():
        raise SystemExit(f"perfbench: imported confmod from {confmod.__file__}")
    return confmod


def _openblas_runtime():
    """Kernel name and thread count reported by numpy's bundled OpenBLAS."""
    import ctypes
    import numpy
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        core = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return "unknown", None
    core.restype, core.argtypes = ctypes.c_char_p, []
    threads.restype, threads.argtypes = ctypes.c_int, []
    return core().decode(), threads()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "openblas_core": core,
        "openblas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


class Workload:
    """Inputs of one workload and its timed pass.  A pass is made of units
    (one CLI config, or one dimension of region_sampling); a unit is run
    and checked on its own, with the same functions as a whole pass."""

    def __init__(self, confmod, name: str, seed: int, suites=None):
        import workloads
        self.confmod, self.name, self.w = confmod, name, workloads
        if name == "region_sampling":
            self.inputs = workloads.region_inputs(confmod, seed)
            self.units = [[row for row in self.inputs if row[1] == d]
                          for d in workloads.REGION_DIMS]
        else:
            self.inputs = workloads.cli_configs(confmod.cli, name, seed)
            if suites is not None:
                self.inputs = [c for c in self.inputs if c.suite in suites]
            self.units = [[config] for config in self.inputs]
        self.references = workloads.load_references()

    @property
    def points(self) -> dict:
        """Points requested per region label; 0 where nothing is sampled."""
        points = dict.fromkeys(self.w.REGION_LABELS, 0)
        if self.name == "region_sampling":
            points.update({label: n for label, _, _, _, n, _ in self.inputs})
        return points

    def run_pass(self, tracer=None, inputs=None):
        inputs = self.inputs if inputs is None else inputs
        if self.name == "region_sampling":
            return self.w.run_regions(self.confmod, inputs,
                                      span=tracer.span if tracer else None)
        return self.w.run_cli(self.confmod.cli, inputs)

    def verify(self, result, inputs=None):
        inputs = self.inputs if inputs is None else inputs
        if self.name == "region_sampling":
            return self.w.verify_regions(inputs, result)
        return self.w.verify_cli(inputs, result, self.references)


def timed_passes(work: Workload, seconds: float, tracer=None):
    """Closed loop with one caller: each pass starts when the previous one
    has returned and been checked, and only if it is expected to end within
    `seconds` (the first pass always runs).  Returns the pass times, the
    summed outcome and the last pass's result."""
    import workloads
    times, total, result = [], workloads.Outcome(), None
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin + times[-1] <= seconds:
        if tracer is not None:
            tracer.run_id = len(times)
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = work.run_pass(tracer)
            times.append(time.perf_counter() - t0)
        total.add(work.verify(result))
    return times, total, result


def serve(work: Workload, check: bool, out: dict) -> None:
    """Run the units run.py asks for, one at a time, and time each; on the
    subject side (check) also verify its outputs, after the clock stops."""
    print(json.dumps(out), flush=True)
    for line in sys.stdin:
        if line.strip() == "quit":
            break
        inputs = work.units[int(line)]
        t0, c0 = time.perf_counter(), time.process_time()
        result = work.run_pass(inputs=inputs)
        reply = {"cpu": time.process_time() - c0, "t": time.perf_counter() - t0}
        if check:
            reply["outcome"] = dataclasses.asdict(work.verify(result, inputs))
        print(json.dumps(reply), flush=True)
    print(json.dumps({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "environment": fingerprint()}), flush=True)


def check_values(result) -> dict:
    return {c["name"]: c["value"] for report in result for c in report.checks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "serve", "trace", "pct2"), required=True)
    ap.add_argument("--side", choices=tuple(SOURCES), default="subject")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--cpu", type=int, default=None,
                    help="run on this CPU only (serve mode pins both sides to one CPU)")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    # Must precede the first numpy import (OpenBLAS reads it when loaded).
    os.environ["OPENBLAS_NUM_THREADS"] = str(args.threads)
    sys.path.insert(0, str(HERE))

    confmod = import_confmod(args.side)
    work = Workload(confmod, args.workload, args.seed,
                    suites=("pct",) if args.mode == "pct2" else None)
    out = {"setup_end": time.monotonic(), "units": len(work.units)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    if args.mode == "serve":
        serve(work, args.side == "subject", out)
        return 0

    import tracer as tr
    out["environment"] = fingerprint()
    if args.mode == "pct2":
        t = tr.Tracer()
        with tr.instrument(t, confmod):
            result = work.run_pass(t)
        out["check_values"] = check_values(result)
        out["layers"] = tr.layer_metrics(t, work.points)
        print(json.dumps(out))
        return 0

    # A traced run splits its time between untraced and traced passes; the
    # difference of their medians is the tracing overhead.
    times, outcome, result = timed_passes(work, args.seconds / 2)
    out["pass_s"] = times
    out["outcome"] = dataclasses.asdict(outcome)
    if args.workload != "region_sampling":
        out["check_values"] = check_values(result)
    t = tr.Tracer()
    with tr.instrument(t, confmod):
        traced_times, traced_outcome, _ = timed_passes(work, args.seconds / 2, t)
    out["traced_pass_s"] = traced_times
    out["traced_outcome"] = dataclasses.asdict(traced_outcome)
    out["layers"] = tr.layer_metrics(t, work.points)
    OUT_DIR.mkdir(exist_ok=True)
    t.save(OUT_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
