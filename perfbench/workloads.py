"""Workload definitions: pipeline configs derived from a seed, and quality floors.

A workload fixes the sizes of the five-command pipeline
(gen-data -> train -> score -> eval -> sweep-lambda).  The seed given to
the benchmark, modulo SEED_POOL, becomes the data seed and the training
seed; the program only ever sees the config files written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# A run's data and training seed is its --seed modulo this pool.  Every seed
# of the pool has reference quality figures in reference.json, so every run
# checks that its numbers are unchanged, not only that they clear a floor.
SEED_POOL = 32


def reference_quality(workload: str, seed: int) -> dict[str, float]:
    """auroc_u_s_pn and map recorded for `workload` at pool seed `seed`."""
    path = Path(__file__).resolve().parent / "reference.json"
    return json.loads(path.read_text())[workload][str(seed)]


@dataclass(frozen=True)
class Floor:
    """Quality floor every run of a workload must meet on the u_s_pn score."""

    map_min: float
    auroc_min: float
    fpr95_max: float


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    floor: Floor | None = None
    # Seconds one pipeline took when this benchmark was written; sets how many
    # pipelines a run of --seconds holds.
    nominal_s: float = 1.0

    def pipelines(self, seconds: float) -> int:
        """Pipelines in a run: fixed by `seconds`, at least two so that every
        artifact is compared with a repeat."""
        return max(2, round(seconds / self.nominal_s))

    def write_configs(self, seed: int, out_dir: Path) -> dict[str, Path]:
        """Write the gen-data, train and score configs for `seed`."""
        out_dir.mkdir(parents=True, exist_ok=True)
        docs = {
            "gen": {**self.gen, "seed": seed},
            "train": {**self.train, "seed": seed},
            "score": {},
        }
        paths = {}
        for key, doc in docs.items():
            path = out_dir / f"{key}.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n")
            paths[key] = path
        return paths


# The acceptance gate's floor on u_s_pn.  Every seed of the pool meets it on
# `default` and `scaled`.
PAPER_FLOOR = Floor(map_min=0.9, auroc_min=0.9, fpr95_max=0.5)
# `wide` trains 10 epochs on 32 labels: u_s_pn AUROC runs 0.90-0.93 over the
# pool, so its floor leaves room below the lowest seed.
WIDE_FLOOR = Floor(map_min=0.9, auroc_min=0.88, fpr95_max=0.5)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default",
            floor=PAPER_FLOOR,
            nominal_s=1.1,
        ),
        Workload(
            name="scaled",
            gen={
                "train_samples": 10000,
                "val_samples": 10000,
                "test_samples": 10000,
                "ood_samples": 10000,
            },
            train={"epochs": 5},
            floor=PAPER_FLOOR,
            nominal_s=6.5,
        ),
        Workload(
            name="wide",
            gen={
                "feature_dim": 64,
                "label_count": 32,
                "train_samples": 8000,
                "val_samples": 500,
                "test_samples": 2000,
                "ood_samples": 2000,
            },
            train={"hidden": [128], "epochs": 10},
            floor=WIDE_FLOOR,
            nominal_s=6.0,
        ),
    )
}

# Tiny sizes of the same shapes: exercises every harness path in seconds.
# Quality is not meaningful at these sizes, so no floor applies.
SMOKE_WORKLOADS = {
    "default": Workload(
        name="default",
        gen={"train_samples": 200, "val_samples": 50, "test_samples": 60, "ood_samples": 60},
        train={"epochs": 2},
    ),
    "scaled": Workload(
        name="scaled",
        gen={"train_samples": 300, "val_samples": 300, "test_samples": 300, "ood_samples": 300},
        train={"epochs": 1},
    ),
    "wide": Workload(
        name="wide",
        gen={
            "feature_dim": 64,
            "label_count": 32,
            "train_samples": 300,
            "val_samples": 100,
            "test_samples": 200,
            "ood_samples": 100,
        },
        train={"hidden": [128], "epochs": 1},
    ),
}
