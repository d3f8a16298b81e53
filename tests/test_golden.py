"""Every artifact and stdout of the smoke pipelines is byte-identical to tests/golden.json."""

import json

import pytest
from golden import GOLDEN, first_difference, run_all


def test_artifacts_match_golden_record():
    difference = first_difference(json.loads(GOLDEN.read_text()), run_all())
    if difference is not None:
        pytest.fail(f"{difference}; if the change is meant, run `python tests/golden.py --update`")
