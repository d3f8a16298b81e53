"""Every artifact and stdout of the smoke pipelines is byte-identical to tests/golden.json."""

import json

import golden
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


def test_update_rewrites_the_record_only_when_an_entry_differs(tmp_path, monkeypatch, capsys):
    # an update on another machine leaves an unchanged record, and the CPU it names, as it was
    runs = {"default-0": {"train: stdout": "a"}}
    record = {"environment": {"numpy": "1", "blas": "b", "cpu": "X86_V3"}, "runs": runs}
    path = tmp_path / "golden.json"
    path.write_text(text := json.dumps(record, indent=3))  # not the writer's layout
    here = {"numpy": "1", "blas": "b", "cpu": "X86_V3 AVX512_SPR"}
    monkeypatch.setattr(golden, "GOLDEN", path)
    monkeypatch.setattr(golden, "run_all", lambda: {"environment": here, "runs": runs})
    assert golden.main(["--update"]) == 0
    assert path.read_text() == text
    assert "every artifact matches" in capsys.readouterr().out
    changed = {"default-0": {"train: stdout": "b"}}
    monkeypatch.setattr(golden, "run_all", lambda: {"environment": here, "runs": changed})
    assert golden.main(["--update"]) == 0
    assert path.read_text() == json.dumps({"environment": here, "runs": changed}, indent=1) + "\n"
    assert "default-0: train: stdout" in capsys.readouterr().out
