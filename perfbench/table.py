"""Run the benchmark over several workloads and seeds and print one table.

Usage (from the root of a checkout):

    python3 perfbench/table.py                      # every workload, seed 1
    python3 perfbench/table.py --seeds 1-10         # ten seeds per workload
    python3 perfbench/table.py --trace 1 --workloads solve-sb

Each run is a separate ``perfbench/run.py`` process, one after another.  For
every metric the table gives the median over the seeds and, with more than
one seed, the quartile spread (Q3 - Q1) / median next to the metric's bound
from BENCHMARK.json.  Each run lasts BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=_seeds, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}", flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            spread = ""
            if len(vals) >= 2 and median:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"  spread {(q3 - q1) / median:.3f}"
            bound = "" if bounds.get(name) is None else f"  bound {bounds[name]}"
            print(f"  {name:40s} {median:14.6g} {units[name]:6s}{spread}{bound}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
