"""confmod benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {suite_all,lattice_ladder,region_sampling} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Each workload runs in its own interpreter with
OPENBLAS_NUM_THREADS=1 set before numpy is imported.  The untraced run
gives each unit of the workload at once to that interpreter and to one
running the frozen copy of confmod under perfbench/control/, both on one
CPU, and reports the subject's CPU time over the control's
(cpu_time_ratio).  The last line of
standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1.  The lines before it give every metric with its unit, the
operation counts, the reference check and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("suite_all", "lattice_ladder", "region_sampling")

THREADS = 1
# Fresh interpreters timed for setup_s before and after the workload, besides
# the one that runs it; taking them at both ends samples more of the host's
# speed phases.
SETUP_BEFORE, SETUP_AFTER = 4, 3
# Every run must end within 180 s; children are killed past this point.
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"cpu_time_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD2_LAYERS = {"cli.suite.pct.threads2.total_s": "cli.suite.pct.total_s",
                  "chiral.pct_geometry_defect.threads2.self_s":
                      "chiral.pct_geometry_defect.self_s",
                  "modular.tomita_operators.threads2.self_s":
                      "modular.tomita_operators.self_s"}
# Relative tolerance for calling a 2-thread pct value different from the
# 1-thread one (the reference comparator's tolerance).
THREAD_VALUE_RTOL = 1e-9


class BenchError(Exception):
    pass


def worker_cmd(workload: str, seed: int, mode: str, seconds: float, side: str,
               threads: int, cpu: int | None = None) -> tuple[list, dict]:
    # A fixed hash seed gives both sides the same set and dict layouts.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONHASHSEED="0")
    return [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--side", side, "--threads", str(threads)] + (
                [] if cpu is None else ["--cpu", str(cpu)]), env


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float,
          threads: int = THREADS) -> tuple[float, dict]:
    """Run worker.py on the subject in a fresh interpreter; returns the
    monotonic clock at spawn and the worker's JSON result."""
    cmd, env = worker_cmd(workload, seed, mode, seconds, "subject", threads)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} run")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(workload: str, seed: int, deadline: float) -> float:
    """Seconds from spawning an interpreter until it has imported confmod
    and made the workload's inputs."""
    start, res = spawn(workload, seed, "setup", 0, deadline)
    return res["setup_end"] - start


class Server:
    """A worker in serve mode: one side's confmod, ready to run units."""

    def __init__(self, workload: str, seed: int, side: str, deadline: float,
                 cpu: int | None = None):
        cmd, env = worker_cmd(workload, seed, "serve", 0, side, THREADS, cpu)
        self.side, self.deadline = side, deadline
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self.ready = self.reply()
        except BaseException:
            self.stop()
            raise

    def reply(self) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0 or not select.select([self.proc.stdout], [], [], timeout)[0]:
            raise BenchError(f"the {self.side} worker exceeded the time limit")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"the {self.side} worker exited {self.proc.wait()}")
        return json.loads(line)

    def send(self, request) -> None:
        self.proc.stdin.write(f"{request}\n")
        self.proc.stdin.flush()

    def ask(self, request) -> dict:
        self.send(request)
        return self.reply()

    def stop(self) -> None:
        """Kill the worker if it still runs, and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def concurrent_passes(subject: Server, control: Server, seconds: float) -> dict:
    """Closed loop with one caller per side: every unit of a pass is given
    to the subject and the control at once, and the next only when both
    have answered.  The two share one CPU, so the scheduler alternates them
    every few milliseconds and both see the same machine speed.  Passes are
    made while the next is expected to end within `seconds` (the first
    always runs).  Returns both sides' CPU time per unit and the subject's
    outcomes, one entry per pass."""
    import workloads
    units = subject.ready["units"]
    passes = {"subject_s": [], "control_s": [], "outcome": []}
    begin, last = time.monotonic(), 0.0
    while not passes["outcome"] or time.monotonic() - begin + last <= seconds:
        started = time.monotonic()
        spent = {"subject": [], "control": []}
        outcome = workloads.Outcome()
        for unit in range(units):
            for server in (subject, control):
                server.send(unit)
            for server in (subject, control):
                reply = server.reply()
                spent[server.side].append(reply["cpu"])
                if "outcome" in reply:
                    outcome.add(workloads.Outcome(**reply["outcome"]))
        passes["subject_s"].append(spent["subject"])
        passes["control_s"].append(spent["control"])
        passes["outcome"].append(dataclasses.asdict(outcome))
        last = time.monotonic() - started
    return passes


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """The untraced run: concurrent passes of subject and control, both
    pinned to one CPU, with the subject's set-up time, peak RSS and
    environment."""
    cpu = min(os.sched_getaffinity(0))
    subject = control = None
    try:
        subject = Server(workload, seed, "subject", deadline, cpu)
        control = Server(workload, seed, "control", deadline, cpu)
        run = concurrent_passes(subject, control, seconds)
        run["cpu"] = cpu
        run["setup_s"] = subject.ready["setup_end"] - subject.spawned
        run.update(subject.ask("quit"))
        control.ask("quit")
        # The worker is pinned; nproc is what this process may use.
        run["environment"]["nproc"] = len(os.sched_getaffinity(0))
        return run
    finally:
        for server in (subject, control):
            if server is not None:
                server.stop()


def time_ratio(subject_s: list, control_s: list) -> float:
    """Subject CPU time over control CPU time for a whole pass, from
    per-unit medians: sum_u c_u r_u / sum_u c_u, where r_u is the median
    over passes of the subject's time on unit u over the control's time on
    the same unit, and c_u the control's median time on u.  Every unit
    weighs as much as it takes, and one odd pair moves only its unit's
    median."""
    units = range(len(control_s[0]))
    r = [statistics.median(s[u] / c[u] for s, c in zip(subject_s, control_s)) for u in units]
    c = [statistics.median(p[u] for p in control_s) for u in units]
    return sum(ci * ri for ci, ri in zip(c, r)) / sum(c)


def thread_value_mismatches(one: dict, two: dict) -> int:
    """pct check values that differ between 1 and 2 BLAS threads."""
    return sum(1 for name, value in one.items()
               if name.startswith("pct-") and
               not abs(two.get(name, float("nan")) - value) <= THREAD_VALUE_RTOL * abs(value))


def per_layer(workload: str, run: dict, pct2: dict | None) -> dict:
    """Every per-layer metric as (value, unit)."""
    layers = {name: tuple(v) for name, v in run["layers"].items()}
    traced = statistics.median(run["traced_pass_s"])
    layers["trace.overhead_s"] = (traced - statistics.median(run["pass_s"]), "s")
    o = run["traced_outcome"]
    layers["cli.checks.fail_ratio"] = (
        o["failing"] / o["attempted"] if workload != "region_sampling" else 0.0, "ratio")
    mismatches = 0
    for name, source in THREAD2_LAYERS.items():
        layers[name] = (pct2["layers"][source][0] if pct2 else 0.0, "s")
    if pct2:
        mismatches = thread_value_mismatches(run["check_values"], pct2["check_values"])
    layers["cli.pct.thread_value_mismatches"] = (mismatches, "count")
    return layers


def total_outcome(outcomes: list) -> dict:
    import workloads
    total = workloads.Outcome()
    for o in outcomes:
        total.add(workloads.Outcome(**o))
    return dataclasses.asdict(total)


def end_to_end(run: dict, setup: list) -> dict:
    values = {"cpu_time_ratio": time_ratio(run["subject_s"], run["control_s"]),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": run["peak_rss_kb"] / 1024.0}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def summary_lines(workload: str, seed: int, run: dict, setup: list,
                  e2e: dict) -> list:
    o, n = total_outcome(run["outcome"]), len(run["subject_s"])
    cpu = statistics.median(sum(p) for p in run["subject_s"])
    lines = [f"workload {workload}  seed {seed}  closed loop, 1 caller per side, "
             f"{n} passes of {len(run['control_s'][0])} units, subject and control "
             f"at once on CPU {run['cpu']}, OPENBLAS_NUM_THREADS={THREADS}"]
    notes = {"cpu_time_ratio": f"subject over control, per-unit medians of {n} passes",
             "setup_s": f"median of {len(setup)} interpreters",
             "peak_rss_mb": "ru_maxrss of the subject's workload process"}
    for name, (value, unit) in e2e.items():
        lines.append(f"  {name:<14} {value:12.6g} {unit:<5} "
                     f"attempted {o['attempted']} failed {o['failed']}  ({notes[name]})")
    lines.append(f"  {'cpu_s':<14} {cpu:12.6g} s     median subject CPU time per pass, "
                 f"not gated: the host's speed moves it (control "
                 f"{statistics.median(sum(p) for p in run['control_s']):.6g} s)")
    lines.append(f"  {'ops_per_s':<14} {o['attempted'] / n / cpu:12.6g} 1/s   "
                 f"{o['attempted'] // n} operations per pass, per CPU second")
    lines.append(f"  {'fail_ratio':<14} {o['failing'] / o['attempted']:12.6g} ratio "
                 f"attempted {o['attempted']} failed {o['failing']}  "
                 "(failed operations, documented check failures included)")
    if workload == "region_sampling":
        lines.append(f"  {'points_per_s':<14} {o['points'] / n / cpu:12.6g} 1/s   "
                     f"{o['points'] // n} accepted points per pass, per CPU second")
        lines.append(f"  closed-form check: {o['attempted'] - o['failed']} of "
                     f"{o['attempted']} outputs inside their regions")
    else:
        lines.append(f"  check statuses: {o['statuses']}")
        lines.append(f"  reference check: {o['compared']} values compared, "
                     f"{len(o['mismatches'])} mismatches {o['mismatches'][:5]}; "
                     "pct-angle-L* not compared (ROADMAP item 1)")
    lines.append("  environment: " + json.dumps(run["environment"]))
    return lines


def metric_dict(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + TIME_LIMIT_S
    # Turn SIGTERM into an exception, so that every running worker is killed
    # and waited for before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for side, src in (("subject", ROOT / "src"), ("control", BENCH / "control")):
        if not (src / "confmod" / "__init__.py").is_file():
            print(f"perfbench: no {side} confmod sources under {src}", file=sys.stderr)
            return 2

    setup, pct2 = [], None
    try:
        if args.trace:
            _, run = spawn(args.workload, args.seed, "trace", args.seconds, deadline)
            if args.workload == "lattice_ladder":
                _, pct2 = spawn(args.workload, args.seed, "pct2", 0, deadline, threads=2)
        else:
            setup = [time_setup(args.workload, args.seed, deadline)
                     for _ in range(SETUP_BEFORE)]
            run = measure(args.workload, args.seed, args.seconds, deadline)
            setup.append(run["setup_s"])
            setup += [time_setup(args.workload, args.seed, deadline)
                      for _ in range(SETUP_AFTER)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        o, t = run["outcome"], run["traced_outcome"]
        attempted, failed = o["attempted"] + t["attempted"], o["failed"] + t["failed"]
        metrics = per_layer(args.workload, run, pct2)
        print(f"workload {args.workload}  seed {args.seed}  traced, "
              f"{len(run['pass_s'])} untraced and {len(run['traced_pass_s'])} traced passes")
        print(f"  tracing overhead: {metrics['trace.overhead_s'][0]:.6g} s per pass")
    else:
        metrics = end_to_end(run, setup)
        for line in summary_lines(args.workload, args.seed, run, setup, metrics):
            print(line)
        o = total_outcome(run["outcome"])
        attempted, failed = o["attempted"], o["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metric_dict(metrics)}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "setup_s": setup,
                   "run": run, "pct2": pct2, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
