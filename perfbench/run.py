"""braidrep benchmark: one closed-loop client calling the CLI in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload span-full --seed 1 --seconds 30 --trace 0

Each op is one ``braidrep.cli.main([..., "--json"])`` call on seeded inputs
(see workloads.py); the next op starts when the previous one has returned
and its result has been checked (see checks.py).  The run executes whole
cycles of op slots until ``--seconds`` have passed, so every run holds the
same mix of strata, and at least enough cycles that the tail percentile
always lies in the workload's costliest stratum.

Times are reported in reference seconds: the wall time of the op, scaled by
how fast the host ran a fixed calibration probe just before it, just after
it and every 20 ms while it ran (``timed``).  A shared host can change speed
under a run (the 2-vCPU Xeon VM this was tuned on switched between two
speeds about 1.6x apart for seconds to minutes at a time); the scaling takes
that out, and the raw wall-clock figures are in the detail line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each cycle twice,
untraced and then traced (see tracer.py), and reports the per-layer metrics
and the tracing overhead.  Either way, the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it describe the run and the conditions it ran under, and the
same description is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from tracer import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# The probe time that defines one reference second (see ``timed``).
REFERENCE_PROBE_S = 0.0005
SAMPLE_EVERY_S = 0.02
PREGENERATED_CYCLES = 16
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _stamp(load_1m: float) -> dict:
    """Conditions of the run, so that rows from two runs can be compared."""
    def git(*args):
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30, check=True)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    digest = hashlib.sha256()
    for path in sorted((SRC / "braidrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "load_1m_at_start": load_1m,
    }


def _load_cli():
    """Import braidrep from this checkout's src/ (never an installed copy)."""
    cli = importlib.import_module("braidrep.cli")
    if Path(cli.__file__).resolve().parent != SRC / "braidrep":
        raise ImportError(f"braidrep was imported from {cli.__file__}, not from {SRC}")
    return cli


def probe() -> float:
    """Seconds the host takes for a fixed piece of pure-Python arithmetic
    that braidrep cannot affect, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 150):
            acc += Fraction(1, k)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def timed(fn, paused: bool = True):
    """Call ``fn()`` and return (its result, wall seconds, reference seconds).

    The probe runs just before, just after and, from a SIGALRM timer, every
    SAMPLE_EVERY_S seconds during the call.  Work that runs at the probe's
    pace makes REFERENCE_PROBE_S / probe reference seconds of progress per
    wall second, so the reference time is the wall time times the mean of
    that ratio over the samples.  A single probe before and after is not
    enough: the host's speed changes within one long op.  With ``paused``
    the time the samples took is left out of the reference time (they ran
    on fn's thread); without it fn's work goes on elsewhere meanwhile.  The
    wall time always includes them."""
    ticks: list[float] = [probe()]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        ticks.append(probe())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, tick)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    ticks.append(probe())
    work = wall - spent if paused else wall
    return result, wall, work * statistics.fmean(REFERENCE_PROBE_S / t for t in ticks)


def call(cli, op) -> tuple[int | None, str, str, list[str]]:
    """One ``cli.main`` call with its output captured; returns (exit code,
    standard output, standard error, problems)."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is counted as failed, never ends the run
        return rc, out.getvalue(), err.getvalue(), [traceback.format_exc()]
    return rc, out.getvalue(), err.getvalue(), []


def judge(op, rc, out: str, err: str, problems: list[str]) -> tuple[dict, list[str]]:
    """The op's JSON report and everything wrong with it (see checks.py)."""
    if problems:
        return {}, problems
    try:
        report = json.loads(out)
    except ValueError:
        return {}, [f"no JSON report (exit {rc}): {err.strip()[:200]}"]
    return report, checks.check(op, rc, report)


def execute(cli, op) -> tuple[float, float, int | None, dict, list[str]]:
    """Time and check one op; returns (wall seconds, the same in reference
    seconds, exit code, report, problems)."""
    (rc, out, err, problems), wall, ref = timed(lambda: call(cli, op))
    return (wall, ref, rc, *judge(op, rc, out, err, problems))


class Tally:
    """Counts attempted and failed ops; keeps a sample failure for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def record(self, op, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = {"argv": list(op.argv), "problems": problems}
        return not problems


def prepare(workload: str, seed: int):
    """Import braidrep, generate the inputs and run one untimed warm-up op
    (the smallest slot of the first cycle); returns the cli module, the
    cycle iterator and whether the warm-up op passed its check."""
    cli = _load_cli()
    cycles = workloads.iter_cycles(workload, seed)
    ready = [next(cycles) for _ in range(PREGENERATED_CYCLES)]
    warm = min(ready[0], key=lambda op: op.n)
    problems = judge(warm, *call(cli, warm))[1]
    return cli, itertools.chain(ready, cycles), not problems


def time_setup(workload: str, seed: int) -> tuple[float, float, bool]:
    """Time one set-up from process start: a fresh process of this script
    with --setup-child, timed from just before it is started until it
    reports that its first op could begin.  Returns the time in wall and in
    reference seconds, and whether its warm-up op passed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-child"]

    def start_and_wait():
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        return child, child.stdout.readline()

    (child, line), wall, ref = timed(start_and_wait, paused=False)
    with child:
        try:
            err = child.communicate(timeout=60)[1]
        except subprocess.TimeoutExpired:
            child.kill()
            raise RuntimeError("set-up child did not exit") from None
    if child.returncode != 0 or not line.strip():
        raise RuntimeError(f"set-up child exited {child.returncode}: {err.strip()[-500:]}")
    return wall, ref, json.loads(line)["warm_up_ok"]


def self_test(samples: dict) -> tuple[Tally, list[str]]:
    """Feed each checker tampered copies of a real result from this run;
    every tampered result must be recorded as failed.  Returns the tally and
    the tampers that passed the check."""
    tally, missed = Tally(), []
    for kind, (op, rc, report) in sorted(samples.items()):
        for label, tamper in checks.TAMPERS[kind]:
            if tally.record(op, checks.check(op, *tamper(rc, copy.deepcopy(report)))):
                missed.append(f"{kind}: {label}")
    return tally, missed


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile, index into ``values``)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    idx = max(len(order) - TAIL_BEYOND - 1, 0)
    return values[order[idx]], 100.0 * (idx + 1) / len(order), order[idx]


def min_cycles(workload: str, cycle) -> int:
    """Cycles needed for TAIL_BEYOND + 1 samples of the workload's costliest
    stratum, so that the tail percentile lies in that stratum however slow
    the ops are."""
    top = sum(op.stratum == workloads.TAIL_STRATUM[workload] for op in cycle)
    return math.ceil((TAIL_BEYOND + 1) / top)


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help="only set up (see time_setup), print one line and exit")
    args = parser.parse_args(argv)

    if not (SRC / "braidrep" / "__init__.py").is_file():
        print(f"error: no braidrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_child:
            print(json.dumps({"warm_up_ok": prepare(args.workload, args.seed)[2]}), flush=True)
            return 0
        cli, cycles, warm_ok = prepare(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import braidrep: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    walls: list[float] = []
    scaled: list[float] = []
    op_strata: list[str] = []
    strata: dict[str, list[float]] = {}
    samples: dict = {}
    passed = 0  # untraced ops that passed their check
    tracer = Tracer() if args.trace else None
    # Set-up is timed once before the first cycle and once after each cycle,
    # so that its samples spread over the run like the ops' do.
    setups = [] if tracer is not None else [time_setup(args.workload, args.seed)]
    traced: list[float] = []
    n_cycles = 0
    needed = None
    origin = time.perf_counter()
    deadline = origin + args.seconds
    while True:
        cycle = next(cycles)
        n_cycles += 1
        if needed is None:
            needed = min_cycles(args.workload, cycle)
        for op in cycle:
            wall, ref, rc, report, problems = execute(cli, op)
            if tally.record(op, problems):
                passed += 1
                samples[op.kind] = (op, rc, report)
            walls.append(wall)
            scaled.append(ref)
            op_strata.append(op.stratum)
            strata.setdefault(op.stratum, []).append(ref)
        if tracer is not None:
            tracer.install()
            try:
                for op in cycle:
                    tracer.op += 1
                    wall, ref, _, _, problems = execute(cli, op)
                    tally.record(op, problems)
                    tracer.scales[tracer.op] = ref / wall
                    traced.append(ref)
            finally:
                tracer.uninstall()
        if n_cycles >= needed and time.perf_counter() >= deadline:
            break
        if tracer is None:
            setups.append(time_setup(args.workload, args.seed))
    window = time.perf_counter() - origin
    tampered, missed = self_test(samples)
    warm_ok = warm_ok and all(ok for _, _, ok in setups)
    tail_value, tail_pct, tail_idx = tail(scaled)

    if tracer is None:
        metrics = {
            "ops_per_s": passed / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(ref for _, ref, _ in setups),
        }
        units = END_TO_END
    else:
        metrics = tracer.metrics(sum(scaled), sum(traced))
        units = PER_LAYER

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": _stamp(load_1m),
        "window_s": window,
        "cycles": n_cycles,
        "min_cycles": needed,
        "ops": len(walls),
        "fail_ratio": tally.failed / tally.attempted,
        "first_failure": tally.first_failure,
        "warm_up_ok": warm_ok,
        "self_test": {"tampered": tampered.attempted, "counted_failed": tampered.failed,
                      "missed": missed},
        "op_tail": {"percentile": tail_pct, "samples": len(scaled),
                    "beyond": min(TAIL_BEYOND, len(scaled) - 1),
                    "stratum": op_strata[tail_idx]},
        "wall": {"ops_per_s": passed / sum(walls), "op_p50_s": statistics.median(walls),
                 "op_tail_s": tail(walls)[0],
                 "setup_s": statistics.median(w for w, _, _ in setups) if setups else None},
        "host_speed": {"reference_probe_s": REFERENCE_PROBE_S,
                       "median_scale": statistics.median(r / w for r, w in zip(scaled, walls))},
        "setup_s_samples": [ref for _, ref, _ in setups],
        "strata": {name: {"ops": len(v), "median_s": statistics.median(v)}
                   for name, v in sorted(strata.items())},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        detail["self_shares"] = tracer.self_shares()
        tracer.write_spans(OUT / f"{stem}.spans.jsonl", origin)
    result = {
        "correct": tally.failed == 0 and warm_ok and not missed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result},
                                                 indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
