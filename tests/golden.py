"""The pipeline's byte-identity record, ``tests/golden.json``.

For each workload of the benchmark's smoke sizes (``perfbench/workloads.py``,
``SMOKE_WORKLOADS``), for a ``gemv`` workload whose products go through
BLAS gemv, for a ``seams`` workload whose tables span several text chunks and
for a ``shifted`` workload whose OOD split is drawn in the "shifted" mode,
at seeds 0 and 31 this runs gen-data -> train -> score ->
eval -> sweep-lambda, a second score at lambda1 0.3 / lambda2 0.7 with its own
eval, and an eval --aggregate over both metrics.csv.  It records each command's
stdout, with the run directory replaced by ``$RUN``, and the length and SHA-256
of every file each command writes, ``.npy`` caches included.

    PYTHONPATH=src python tests/golden.py            # compare with golden.json
    PYTHONPATH=src python tests/golden.py --update   # rewrite golden.json

The check prints every entry that differs, as '<run>: <key>', and exits 1 if
there is one; --update prints the entries it changes before it writes them, and
leaves the file byte for byte as it was, environment included, if none differs.  A
change that alters an artifact on purpose rewrites the record with --update
and lists each changed entry.  The record names the numpy version, the BLAS and
the CPU targets numpy dispatched to when it was made: the wide workload's
products go through BLAS gemm, the gemv workload's through gemv, and numpy picks some float64 loops, such as
log and exp, by CPU at run time.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from betaood import cli

GOLDEN = Path(__file__).with_name("golden.json")

SEEDS = (0, 31)

# (gen-data config, train config) of each workload, without the seed; the
# sizes of perfbench/workloads.py's SMOKE_WORKLOADS
WORKLOADS = {
    "default": (
        {"train_samples": 200, "val_samples": 50, "test_samples": 60, "ood_samples": 60},
        {"epochs": 2},
    ),
    "scaled": (
        {"train_samples": 300, "val_samples": 300, "test_samples": 300, "ood_samples": 300},
        {"epochs": 1},
    ),
    "wide": (
        {"feature_dim": 64, "label_count": 32, "train_samples": 300, "val_samples": 100,
         "test_samples": 200, "ood_samples": 100},
        {"hidden": [128], "epochs": 1},
    ),
    # one label, so each head product is a matrix-vector product, and 81 = 5 * 16 + 1
    # training rows, so each epoch ends on a one-row batch
    "gemv": (
        {"label_count": 1, "train_samples": 81, "val_samples": 40, "test_samples": 40,
         "ood_samples": 40},
        {"hidden": [32], "epochs": 2, "batch_size": 16},
    ),
    # 9000 scored rows, so scores.csv, preds.csv and each roc_*.csv (up to 9001 rows of
    # 2 cells) span several text chunks at CHUNK_CELLS 2**13 and at 2**14
    "seams": (
        {"train_samples": 200, "val_samples": 50, "test_samples": 4500, "ood_samples": 4500},
        {"epochs": 1},
    ),
    # default's sizes with the OOD split drawn as the IND clusters moved along a seeded
    # direction, not around new cluster means
    "shifted": (
        {"train_samples": 200, "val_samples": 50, "test_samples": 60, "ood_samples": 60,
         "ood_mode": "shifted"},
        {"epochs": 2},
    ),
}


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": " ".join(np.__config__.CONFIG["SIMD Extensions"]["found"])}


def _steps(cfg: Path, out: Path) -> list[tuple[str, list[str]]]:
    d, mix = str(out), str(out / "mix")
    data = f"{d}/synth"
    return [
        ("gen-data", ["gen-data", "--config", str(cfg / "gen.json"), "--out", d]),
        ("train", ["train", "--config", str(cfg / "train.json"), "--data", data, "--out", d]),
        ("score", ["score", "--checkpoint", f"{d}/checkpoint.json", "--data", data, "--out", d]),
        ("eval", ["eval", "--scores-csv", f"{d}/scores.csv", "--preds", f"{d}/preds.csv",
                  "--out", d]),
        ("sweep-lambda", ["sweep-lambda", "--scores-csv", f"{d}/scores.csv", "--out", d]),
        ("score-mix", ["score", "--checkpoint", f"{d}/checkpoint.json", "--data", data,
                       "--lambda1", "0.3", "--lambda2", "0.7", "--out", mix]),
        ("eval-mix", ["eval", "--scores-csv", f"{mix}/scores.csv", "--preds",
                      f"{mix}/preds.csv", "--out", mix]),
        ("eval-aggregate", ["eval", "--aggregate", f"{d}/metrics.csv,{mix}/metrics.csv",
                            "--out", f"{d}/aggregate"]),
    ]


def _digests(out: Path) -> dict[str, str]:
    """'<length> <SHA-256>' of every file under ``out``, by its path there."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            name = path.relative_to(out).as_posix()
            digests[name] = f"{len(data)} {hashlib.sha256(data).hexdigest()}"
    return digests


def run_pipeline(workload: str, seed: int, root: Path) -> dict[str, str]:
    """One run's record: per command in order, its stdout, then each file it wrote."""
    gen, train = WORKLOADS[workload]
    run = root / f"{workload}-{seed}"
    cfg, out = run / "cfg", run / "out"
    cfg.mkdir(parents=True)
    for name, doc in (("gen", gen), ("train", train)):
        (cfg / f"{name}.json").write_text(json.dumps({**doc, "seed": seed}, sort_keys=True))
    record, seen = {}, {}
    for step, argv in _steps(cfg, out):
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            rc = cli.main(argv)
        record[f"{step}: exit code"] = str(rc)
        record[f"{step}: stdout"] = stdout.getvalue().replace(str(run), "$RUN")
        for name, digest in _digests(out).items():
            if seen.get(name) != digest:
                record[f"{step}: {name}"] = seen[name] = digest
    return record


def run_all() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {f"{w}-{seed}": run_pipeline(w, seed, Path(tmp))
                for w in WORKLOADS for seed in SEEDS}
    return {"environment": environment(), "runs": runs}


def differences(golden: dict, fresh: dict) -> list[str]:
    """'<run>: <key>' of every entry that differs, was added or was removed,
    then '<run>' of every run that was removed or added."""
    found, runs = [], []
    for run, want in golden["runs"].items():
        got = fresh["runs"].get(run)
        if got is None:
            runs.append(run)
            continue
        found += [f"{run}: {key}" for key in [*want, *(k for k in got if k not in want)]
                  if want.get(key) != got.get(key)]
    return found + runs + [run for run in fresh["runs"] if run not in golden["runs"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    fresh = run_all()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"runs": {}}
    changed = differences(golden, fresh)
    print("\n".join(changed) or "every artifact matches golden.json")
    if args.update:
        if changed:  # else the record, and the machine it names, stays as it was
            GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {GOLDEN} ({len(changed)} entries changed)" if changed
              else f"left {GOLDEN} as it was")
        return 0
    if changed:
        print(f"recorded with {golden.get('environment')}, run with {fresh['environment']}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
