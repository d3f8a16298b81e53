"""Run-to-run spread of the benchmark: one run per seed, quartiles per metric.

Run from the repository root:

    python3 perfbench/spread.py --workload wide --seeds 0-9
    python3 perfbench/spread.py --workload all --seeds 0-9

For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the distance between them as a
share of the median, next to the metric's bound in BENCHMARK.json.  A
benchmark is steady when every spread but setup_s's is below a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        per_metric = values.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr)
        for name, vals in sorted(per_metric.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{workload:8s} {name:34s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
