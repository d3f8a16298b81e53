"""Pipeline benchmark for betaood: every metric by name, with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload default --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all        # default, scaled and wide in turn
    python3 perfbench/run.py --smoke               # tiny sizes, both trace modes, ~10 s

Each workload runs in its own fresh interpreter (pipeline.py), one at a time,
with PYTHONPATH set to ``src`` and the BLAS pool pinned to one thread.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Work files go to ``.perfbench/`` under the root.  The exit code is 0 only
when every operation passed its output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("default", "scaled", "wide")

# A run must end within 180 s; the child gets what is left after setup.
RUN_LIMIT_S = 170.0
# Fresh interpreters timed for setup_s, half before and half after the
# pipeline so that a slow phase of the machine does not skew all of them.
SETUP_SAMPLES = 10
_IMPORT_SNIPPET = (
    "import time; t = time.process_time(); import betaood.cli; "
    "print(repr(time.process_time() - t))"
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    # One BLAS thread: two-thread OpenBLAS made `wide` train swing between
    # 2.6 and 4.4 s on one seed, with identical outputs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_imports(root: Path, env: dict, count: int) -> list[float]:
    """CPU seconds each of `count` fresh interpreters takes to import betaood.cli."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_SNIPPET],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip()))
    return samples


def environment(root: Path) -> dict:
    src = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        src.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(root: Path, name: str, args, names: list[str], env: dict) -> dict:
    began = time.perf_counter()
    prefix = "smoke-" if args.smoke else ""
    work = root / ".perfbench" / f"{prefix}{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"environment": environment(root)}
    setup = []
    if not args.trace:
        time_imports(root, env, 1)  # warm-up: compiles bytecode on a fresh checkout
        setup += time_imports(root, env, SETUP_SAMPLES // 2)
    budget = RUN_LIMIT_S - (time.perf_counter() - began)
    cmd = [
        sys.executable, str(HERE / "pipeline.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
        # stop starting pipelines early enough to finish and report
        "--budget", str(max(budget - 30.0, 0.0)),
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=budget)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload {name} did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"workload {name} exited with code {proc.returncode}")
    if not args.trace:
        setup += time_imports(root, env, SETUP_SAMPLES - len(setup))
        record["setup_samples"] = setup
    child = json.loads((work / "result.json").read_text())
    record["environment"].update(child.pop("environment"))
    record.update(child)
    metrics = child.get("metrics")
    if metrics is not None:
        if not args.trace:
            metrics["setup_s"] = statistics.median(setup)
        if set(metrics) != set(names):
            raise SystemExit(
                f"metrics of {name} differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(names))}"
            )
    (work / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(name: str, record: dict, units: dict) -> None:
    print(f"[{name}] seed={record['seed']} data_seed={record['data_seed']} "
          f"trace={record['trace']} pipelines={record['pipelines']} "
          f"floor={record['floor']} reference={record['reference']}")
    print(f"[{name}] environment {json.dumps(record['environment'], sort_keys=True)}")
    for failure in record["failures"]:
        print(f"[{name}] FAILED {failure}")
    error_rate = record["failed"] / record["attempted"]
    print(f"{name:8s} {'error_rate':34s} {error_rate:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']} operations)")
    plain = record["samples"]["untraced"]
    for metric, value in sorted(record.get("metrics", {}).items()):
        if record["trace"]:
            note = LAYER_METRICS[metric]
        elif metric == "setup_s":
            note = f"median of {len(record['setup_samples'])} fresh interpreters"
        elif metric in plain[0]:
            wall = statistics.median(p[metric.replace("_cpu_s", "_wall_s")] for p in plain)
            note = f"median over {len(plain)} pipelines; wall {wall:.6g} s"
        else:
            note = ""
        print(f"{name:8s} {metric:34s} {value:>14.6g} {units[metric]:6s} {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, both trace modes on every workload")
    args = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "betaood" / "cli.py").is_file() or not spec_path.is_file():
        print(f"{root} is not a betaood checkout: run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = child_env(root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.smoke else (args.trace,)
    if args.smoke:
        args.seconds = 0.0
    correct, attempted, failed, metrics = True, 0, 0, {}
    for trace in modes:
        args.trace = trace
        names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        for name in workloads:
            record = run_workload(root, name, args, names, env)
            report(name, record, units)
            correct &= record["failed"] == 0
            attempted += record["attempted"]
            failed += record["failed"]
            prefix = "" if len(workloads) == 1 and len(modes) == 1 else f"{name}."
            for metric, value in record.get("metrics", {}).items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
