"""surgerykit benchmark: one closed-loop client, in-process CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the program is imported from
./src.  Each command is one call of `surgerykit.cli.main(argv)` under a
per-command time cap.  Whole passes over the workload's input cycle are
repeated until S seconds have passed; every output is checked against
values computed apart from the program.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from oracle import Mismatch
from refclock import ref_loop, to_reference
from workloads import CAP, STRAND_OWNERS_KEYERROR, Result

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("perfbench", "work")
SETUP_STARTS = 21

# a fresh interpreter times its own import of the program, scaled by the
# reference loop around it
IMPORT_TIMER = """
import sys, time
sys.path[:0] = ["src", "perfbench"]
from refclock import ref_loop, to_reference
before = ref_loop()
t0 = time.perf_counter()
import surgerykit.cli
t = time.perf_counter() - t0
print(to_reference(t, before, ref_loop()))
"""


class CapExceeded(BaseException):
    """Raised by SIGALRM inside a command that outlived its cap."""


def _on_alarm(signum, frame):
    raise CapExceeded()


class Clock:
    """Scales wall time to reference seconds with the reference loop run
    just before and just after each timed stretch."""

    def __init__(self):
        self.ref = ref_loop()

    def scale(self, seconds: float) -> float:
        before, self.ref = self.ref, ref_loop()
        return to_reference(seconds, before, self.ref)


def import_seconds() -> float:
    """Time, in reference seconds, for a fresh interpreter to import
    surgerykit.cli."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


class Runner:
    def __init__(self, cli, cap: float, clock: Clock):
        self.cli = cli
        self.cap = cap
        self.clock = clock
        self.attempted = self.failed = 0
        self.times: list[list[float]] = []    # per command: its time in each pass
        self.broken: list[bool] = []          # per command: failed in some pass
        self.first: list = []                 # per command: outcome of the first pass
        self.problems: list[str] = []         # wrong answers and unexpected failures
        self.pass_bytes: list[int] = []
        self.last = None                      # (rc, report, output) of the last success

    def call(self, argv) -> tuple[int, str]:
        """One in-process command; its wall time goes to self.seconds.
        Raises CapExceeded or whatever escaped main()."""
        buf = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, self.cap)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = self.cli.main(argv)
                except SystemExit as e:        # argparse usage errors
                    rc = e.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.seconds = time.perf_counter() - t0
        return rc, buf.getvalue()

    def run(self, cmd, index: int) -> int:
        """Run, time and check one command; returns the bytes it produced."""
        if cmd.out and os.path.exists(cmd.out):
            os.remove(cmd.out)
        self.attempted += 1
        fault = None
        try:
            rc, stdout = self.call(cmd.argv)
        except CapExceeded:
            fault = CAP
        except Exception as e:
            frames = traceback.extract_tb(e.__traceback__)
            fault = (STRAND_OWNERS_KEYERROR
                     if isinstance(e, KeyError) and frames[-1].name == "_strand_owners"
                     else "%s: %s" % (type(e).__name__, e))
        # a capped command costs the cap, a wall-clock budget, unscaled
        t = self.cap if fault == CAP else self.clock.scale(self.seconds)
        nbytes, outcome, self.last = 0, fault, None
        if fault is None:
            try:
                report = json.loads(stdout) if stdout else None
                output = None
                if cmd.out and rc == 0:
                    with open(cmd.out, "rb") as fh:
                        raw = fh.read()
                    nbytes += len(raw)
                    output = json.loads(raw)
                if report is not None:
                    nbytes += len(json.dumps(report["result"], indent=2, sort_keys=True))
                cmd.check(Result(rc, report, output))
                outcome = (rc, report and report["result"], nbytes)
                self.last = (rc, report, output)
            except (Mismatch, ValueError, KeyError, TypeError, IndexError, OSError) as e:
                fault = outcome = "wrong answer: %s: %s" % (type(e).__name__, e)
        if len(self.first) <= index:
            self.first.append(outcome)
            self.times.append([])
            self.broken.append(False)
        elif self.first[index] != outcome:
            fault = fault or "output differs from the first pass"
            self.problems.append("%s: output differs from the first pass" % " ".join(cmd.argv))
        self.times[index].append(t)
        if fault is not None:
            self.failed += 1
            self.broken[index] = True
            if fault != cmd.fault:
                self.problems.append("%s: %s" % (" ".join(cmd.argv), fault))
        return nbytes

    def run_pass(self, cmds) -> None:
        self.pass_bytes.append(sum(self.run(c, i) for i, c in enumerate(cmds)))

    def typical(self) -> list[float]:
        """Each command's median time over the passes."""
        return [statistics.median(t) for t in self.times]

    def ops_per_s(self) -> float:
        """Commands of one pass that completed correctly, per second of the
        pass's time; failed and capped commands keep their time."""
        return self.broken.count(False) / sum(self.typical())

    def op_p50_s(self) -> float:
        """Median time of the pass's commands, a failed one counting as
        slower than any that completed."""
        return statistics.median(math.inf if b else t
                                 for t, b in zip(self.typical(), self.broken))


def prepare(name: str, seed: int, small: bool):
    """Import the program from ./src and write the workload's inputs."""
    if not os.path.isfile(os.path.join(SRC, "surgerykit", "cli.py")):
        raise SystemExit("error: %s/surgerykit not found; run from a surgerykit "
                         "source checkout" % SRC)
    sys.path.insert(0, SRC)
    from surgerykit import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: surgerykit was imported from %s, not ./src" % cli.__file__)
    build, cap = workloads.WORKLOADS[name]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    cmds, after = build(seed, work, run_cli, small=small)
    return cli, cap, cmds, after


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, cap, cmds, after = prepare(name, seed, small=False)
    clock = Clock()
    runner = Runner(cli, cap, clock)
    starts = []
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        import_seconds()            # fills the bytecode cache
    t0 = time.perf_counter()
    try:
        while True:
            runner.run_pass(cmds)
            if not trace:                 # spread over the run, like the passes
                starts += [import_seconds(), import_seconds()]
            if time.perf_counter() - t0 >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()
    passes = len(runner.pass_bytes)
    while not trace and len(starts) < SETUP_STARTS:
        starts.append(import_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if after is not None:
        try:
            after()
        except Mismatch as e:
            runner.problems.append("after the loop: %s" % e)
    print("%s seed %d: %d passes, %d commands, %d failed, %.4g op/s (%s)"
          % (name, seed, passes, runner.attempted, runner.failed, runner.ops_per_s(),
             "traced" if trace else "untraced"), file=sys.stderr)
    for p in runner.problems[:10]:
        print("problem: " + p, file=sys.stderr)
    if trace:
        metrics = tracer.metrics(passes)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(starts), "unit": "s"},
            "ops_per_s": {"value": runner.ops_per_s(), "unit": "op/s"},
            "op_p50_s": {"value": runner.op_p50_s(), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "result_bytes": {"value": runner.pass_bytes[0], "unit": "B"},
        }
    return {"correct": not runner.problems, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# self-check: smallest inputs, and planted wrong answers must be caught

def _planted(kind: str, rc: int, report: dict | None, output: dict | None):
    """Wrong answers to plant in a command's real output."""
    if report is None:
        return
    r = report["result"]

    def alter(fn):
        rep = copy.deepcopy(report)
        fn(rep["result"])
        return rc, rep, output

    if kind in ("verify", "mutant") and "verdict" in r:
        flipped = "FAIL" if r["verdict"] == "PASS" else "PASS"
        yield "flipped verdict", alter(lambda x: x.update(verdict=flipped))
    if kind == "mutant":
        yield "exit 2 with a report", (2, report, output)
    if kind in ("certify", "unknotify"):
        yield "p + 1", alter(lambda x: x.update(p=x["p"] + 1))
    if kind == "certify":
        bad = copy.deepcopy(output)
        bad["target"]["components"][0]["framing"] += 1
        yield "altered target framing", (rc, report, bad)
    if kind == "unknotify":
        bad = copy.deepcopy(output)
        x = bad["crossings"][0]
        x["over_in"], x["under_in"] = x["under_in"], x["over_in"]
        x["over_out"], x["under_out"] = x["under_out"], x["over_out"]
        yield "switched output crossing", (rc, report, bad)
    if kind == "obstruction":
        yield "flipped verdict", alter(lambda x: x.update(
            verdict="NOT_OBSTRUCTED" if x["verdict"] == "OBSTRUCTED" else "OBSTRUCTED"))
    if kind in ("lattice", "random", "invariants"):
        yield "altered H1", alter(lambda x: x["homology"].update(
            torsion=x["homology"]["torsion"] + [2]))
    if kind in ("lattice", "invariants"):       # "random" det is checked by sympy
        yield "det + 1", alter(lambda x: x.update(det=int(x["det"]) + 1))


def self_check() -> int:
    bad = 0
    for name in workloads.WORKLOADS:
        cli, cap, cmds, after = prepare(name, 0, small=True)
        runner = Runner(cli, cap, Clock())
        caught = planted = 0
        for i, cmd in enumerate(cmds):
            runner.run(cmd, i)
            if runner.last is None:
                continue
            for label, wrong in _planted(cmd.kind, *runner.last):
                planted += 1
                try:
                    cmd.check(Result(*wrong))
                except Mismatch:
                    caught += 1
                else:
                    runner.problems.append("planted %s in %s was not caught"
                                           % (label, " ".join(cmd.argv)))
        if after is not None:
            try:
                after()
            except Mismatch as e:
                runner.problems.append(str(e))
            # the same check with one recorded det off by one must fail
            planted += 1
            det, snf = after.seen[0]
            after.seen[0] = (det + 1, snf)
            try:
                after()
            except Mismatch:
                caught += 1
            else:
                runner.problems.append("planted det in the sympy check was not caught")
            after.seen[0] = (det, snf)
        bad += bool(runner.problems)
        print("%-22s %s: %d commands, %d failed (kept faults), %d/%d planted caught"
              % (name, "FAILED" if runner.problems else "ok", runner.attempted,
                 runner.failed, caught, planted))
        for p in runner.problems:
            print("  problem: " + p)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload on its smallest inputs and confirm that "
                         "each checker rejects planted wrong answers")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
