"""Runs one workload's pipeline repeatedly in this interpreter and checks its outputs.

Started by run.py in a fresh interpreter per workload, with PYTHONPATH set to
the checkout's ``src`` and the BLAS pool pinned.  Drives the five commands
through ``betaood.cli.main`` in-process, times each, checks every artifact,
and writes ``result.json`` into ``--work``.  With ``--trace 1`` it alternates
untraced and traced pipelines and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import SEED_POOL, SMOKE_WORKLOADS, WORKLOADS, reference_quality

COMMANDS = ("gen_data", "train", "score", "eval", "sweep")

# Files each command writes; a repeat at the same seed must reproduce every byte.
ARTIFACTS = {
    "gen_data": ("synth.*.jsonl", "gen_data_config.json"),
    "train": ("checkpoint.json", "train_config.json"),
    "score": ("scores.csv", "preds.csv", "score_config.json"),
    "eval": ("metrics.csv", "roc_*.csv", "map.csv"),
    "sweep": ("sweep.csv",),
}

# CSV files the cli module writes itself (ROC files are written by metrics).
CLI_CSVS = ("scores.csv", "preds.csv", "metrics.csv", "map.csv", "sweep.csv")

# The end-to-end timings: each command's CPU seconds and their sum, as the
# median over the run's pipelines.  The child is single-threaded (BLAS
# pinned), so its CPU time is its wall time minus the time the machine spent
# on other work.
TIMED = tuple(f"{c}_cpu_s" for c in (*COMMANDS, "pipeline"))

# A quality figure that moves further than this from the reference for its
# seed means the pipeline's numbers changed.
QUALITY_TOLERANCE = 1e-3


def _argv(command: str, cfg: dict, run: Path) -> list[str]:
    d = str(run)
    data = f"{d}/synth"
    return {
        "gen_data": ["gen-data", "--config", str(cfg["gen"]), "--out", d],
        "train": ["train", "--config", str(cfg["train"]), "--data", data, "--out", d],
        "score": ["score", "--config", str(cfg["score"]), "--checkpoint",
                  f"{d}/checkpoint.json", "--data", data, "--out", d],
        "eval": ["eval", "--scores-csv", f"{d}/scores.csv", "--preds",
                 f"{d}/preds.csv", "--out", d],
        "sweep": ["sweep-lambda", "--scores-csv", f"{d}/scores.csv", "--out", d],
    }[command]


def _read_csv_rows(path: Path) -> dict[str, list[str]]:
    lines = path.read_text().splitlines()
    return {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS pool, or None if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import numpy as np
    from importlib.metadata import version

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class Run:
    """Operations of one run: every command call plus its output checks."""

    def __init__(self, cli_main, run_dir: Path, floor, expected):
        self.cli_main = cli_main
        self.run_dir = run_dir
        self.floor = floor
        self.expected = expected
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}

    def op(self, command: str, argv: list[str]) -> tuple[float, float]:
        """Run one command, check its outputs; return its wall and CPU seconds."""
        self.attempted += 1
        gc.collect()
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                wall, cpu = time.perf_counter(), time.process_time()
                rc = self.cli_main(argv)
                cpu = time.process_time() - cpu
                wall = time.perf_counter() - wall
        except Exception:  # a traceback escaping main() is itself a failure
            traceback.print_exc()
            self.failures.append(f"{command}: raised")
            return float("nan"), float("nan")
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if not problems:
            problems = self._check(command, out.getvalue())
        if problems:
            self.failures.append(f"{command}: {'; '.join(problems)}")
        return wall, cpu

    def _check(self, command: str, stdout: str) -> list[str]:
        problems = []
        digests = {f"{command}.stdout": hashlib.sha256(stdout.encode()).hexdigest()}
        for pattern in ARTIFACTS[command]:
            paths = sorted(self.run_dir.glob(pattern))
            if not paths:
                problems.append(f"no artifact matches {pattern}")
            for p in paths:
                with open(p, "rb") as fh:
                    digests[p.name] = hashlib.file_digest(fh, "sha256").hexdigest()
        for name, digest in digests.items():
            if self.digests.setdefault(name, digest) != digest:
                problems.append(f"{name} differs from an earlier repeat at the same seed")
        if command == "eval" and not problems:
            problems += self._check_quality()
        if command == "sweep" and not problems:
            problems += self._check_endpoints()
        return problems

    def _check_quality(self) -> list[str]:
        metrics = _read_csv_rows(self.run_dir / "metrics.csv")
        fpr95, auroc, _ = (float(v) for v in metrics["u_s_pn"])
        mean_ap = float(_read_csv_rows(self.run_dir / "map.csv")["map"][0])
        self.quality = {"auroc_u_s_pn": auroc, "map": mean_ap, "fpr95_u_s_pn": fpr95}
        problems = [
            f"{name} {self.quality[name]!r} differs from the reference {want!r} for this seed"
            for name, want in (self.expected or {}).items()
            if abs(self.quality[name] - want) > QUALITY_TOLERANCE
        ]
        f = self.floor
        if f is None:
            return problems
        if mean_ap < f.map_min:
            problems.append(f"mAP {mean_ap!r} below floor {f.map_min}")
        if auroc < f.auroc_min:
            problems.append(f"u_s_pn AUROC {auroc!r} below floor {f.auroc_min}")
        if fpr95 > f.fpr95_max:
            problems.append(f"u_s_pn FPR95 {fpr95!r} above ceiling {f.fpr95_max}")
        return problems

    def _check_endpoints(self) -> list[str]:
        sweep = _read_csv_rows(self.run_dir / "sweep.csv")
        metrics = _read_csv_rows(self.run_dir / "metrics.csv")
        problems = []
        for lam, column in (("1.0", "u_s_p"), ("0.0", "u_s_n")):
            if sweep.get(lam) != metrics.get(column):
                problems.append(f"sweep row lambda2={lam} is not bit-equal to {column}")
        return problems


def _pipeline(run: Run, cfg: dict) -> dict[str, float]:
    """One pass of the five commands: wall and CPU seconds of each, and their sums."""
    if run.run_dir.exists():
        for p in run.run_dir.iterdir():
            p.unlink()
    times = {}
    for c in COMMANDS:
        times[f"{c}_wall_s"], times[f"{c}_cpu_s"] = run.op(c, _argv(c, cfg, run.run_dir))
    for clock in ("wall", "cpu"):
        times[f"pipeline_{clock}_s"] = sum(times[f"{c}_{clock}_s"] for c in COMMANDS)
    return times


def _medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds after which no new pipeline starts")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    began = time.perf_counter()
    import betaood
    from betaood.cli import main as cli_main
    import_s = time.perf_counter() - began
    src = (Path.cwd() / "src").resolve()
    if src not in Path(betaood.__file__).resolve().parents:
        print(f"betaood imported from {betaood.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    data_seed = args.seed % SEED_POOL
    reference = None if args.smoke else reference_quality(args.workload, data_seed)
    cfg = workload.write_configs(data_seed, args.work / "configs")
    run = Run(cli_main, args.work / "run", workload.floor, reference)
    # A fixed count for a given --seconds, so that faster code does not
    # change how many samples a statistic is taken over.
    count = workload.pipelines(args.seconds)
    plain, traced, layers, spans = [], [], [], []
    last = 0.0
    for iteration in range(count):
        if time.perf_counter() - began + last > args.budget:
            run.failures.append(f"run budget reached after {iteration} of {count} pipelines")
            break
        t0 = time.perf_counter()
        if args.trace and iteration % 2:
            tracer = Tracer(f"{args.workload}-seed{args.seed}-it{iteration}")
            tracer.install()
            try:
                with tracer.span("pipeline"):
                    times = _pipeline(run, cfg)
            finally:
                tracer.uninstall()
            traced.append(times)
            csv_bytes = sum((run.run_dir / f).stat().st_size for f in CLI_CSVS)
            layers.append(layer_metrics(tracer, csv_bytes))
            layers[-1]["trace.spans"] = len(tracer.spans)
            spans.append(tracer)
        else:
            plain.append(_pipeline(run, cfg))
        last = time.perf_counter() - t0
        if run.failures:
            break

    if spans:
        with open(args.work / "spans.jsonl", "w") as fh:
            for tracer in spans:
                tracer.write(fh)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": data_seed,
        "trace": args.trace,
        "pipelines": len(plain) + len(traced),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "floor": None if workload.floor is None else vars(workload.floor),
        "reference": reference,
        "quality": run.quality,
        "import_s": import_s,
        "environment": _environment(),
        "samples": {"untraced": plain, "traced": traced},
    }
    if not run.failures:
        if args.trace:
            metrics = _medians(layers)
            metrics["trace.overhead_s"] = (
                _medians(traced)["pipeline_cpu_s"] - _medians(plain)["pipeline_cpu_s"]
            )
        else:
            medians = _medians(plain)
            metrics = {name: medians[name] for name in TIMED}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["auroc_u_s_pn"] = run.quality["auroc_u_s_pn"]
            metrics["map"] = run.quality["map"]
        result["metrics"] = metrics
    (args.work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if not run.failures:
        shutil.rmtree(run.run_dir)  # tens of MB; kept only when a check failed
    return 0


if __name__ == "__main__":
    sys.exit(main())
