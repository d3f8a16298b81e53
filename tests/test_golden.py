"""Every artifact and stdout of the smoke pipelines is byte-identical to tests/golden.json."""

import json

import pytest
from golden import GOLDEN, differences, run_all


def test_artifacts_match_golden_record():
    changed = differences(json.loads(GOLDEN.read_text()), run_all())
    if changed:
        pytest.fail("differs from the record: " + ", ".join(changed)
                    + "; if the change is meant, run `python tests/golden.py --update`")


def test_differences_name_every_changed_added_and_removed_entry_and_run():
    golden = {"runs": {
        "default-0": {"train: stdout": "a", "train: checkpoint.json": "1 x", "eval: stdout": "e"},
        "gone-0": {"train: stdout": "a"},
        "same-0": {"train: stdout": "a"},
    }}
    fresh = {"runs": {
        "default-0": {"train: stdout": "b", "eval: stdout": "e", "score: preds.csv": "2 y"},
        "same-0": {"train: stdout": "a"},
        "new-0": {"train: stdout": "a"},
    }}
    assert differences(golden, fresh) == [
        "default-0: train: stdout",  # changed
        "default-0: train: checkpoint.json",  # removed
        "default-0: score: preds.csv",  # added
        "gone-0",
        "new-0",
    ]
    assert differences(golden, golden) == []
