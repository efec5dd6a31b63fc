"""Every output byte of the six reduced studies matches the recorded ledger.

Criterion 9 compares reruns inside one commit; this test compares against
digests recorded earlier (``record.py``), so a change that moves any output
bit fails here unless it records the ledger again.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).with_name("record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_outputs_match_golden_ledger(tmp_path):
    ledger = json.loads(record.LEDGER.read_text())
    here = record.versions()
    if here != ledger["versions"]:
        pytest.skip(f"ledger recorded on {ledger['versions']}; "
                    f"this run has {here}")
    got = record.run_studies(tmp_path)
    want = ledger["files"]
    changed = sorted(f for f in want.keys() & got.keys() if want[f] != got[f])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"changed: {changed}; missing: {missing}; new: {extra}")
