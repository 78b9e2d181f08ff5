"""scripts/leakage_audit.py: its summary table is the README's, and its
JSON is the dumped list of documents, which validate against the published
schema."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import jsonschema
import pytest

from qdleak.report import LEAKAGE_SCHEMA, leakage_document

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "leakage_audit.py"

# protocol, parties, total, secure, leaked, transcripts: the README table
README_ROWS = [
    ("nba", "-", 4, 2.0, 2.0, 16),
    ("jz", "-", 2, 1.0, 1.0, 8),
    ("otp", "-", 2, 1.0, 1.0, 4),
] + [("mxn", str(n), n + 1, 1.0, float(n), 4**n) for n in range(3, 7)]


@pytest.fixture(scope="module")
def audit_script():
    spec = importlib.util.spec_from_file_location("leakage_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(audit_script, monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    code = audit_script.main()
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def test_text_rows_are_the_readme_table(audit_script, monkeypatch, capsys):
    lines = run_main(audit_script, monkeypatch, capsys).splitlines()
    assert lines[0].split() == [
        "protocol", "parties", "total", "secure", "leaked", "transcripts", "entropy/t",
    ]
    assert set(lines[1]) == {"-"}
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == len(README_ROWS)
    for row, (protocol, parties, total, secure, leaked, count) in zip(rows, README_ROWS):
        assert row == [
            protocol,
            parties,
            str(total),
            f"{secure:.3f}",
            f"{leaked:.3f}",
            str(count),
            f"{secure:.3f}",
        ]


def test_json_documents_validate(audit_script, monkeypatch, capsys):
    docs = json.loads(run_main(audit_script, monkeypatch, capsys, "--json"))
    assert [(d["protocol"], d["params"].get("parties")) for d in docs] == [
        (protocol, int(parties) if parties != "-" else None)
        for protocol, parties, *_ in README_ROWS
    ]
    for doc, (*_, total, secure, leaked, count) in zip(docs, README_ROWS):
        jsonschema.validate(doc, LEAKAGE_SCHEMA)
        assert doc["totals"]["total_bits"] == total
        assert doc["totals"]["secure_bits"] == pytest.approx(secure, abs=1e-9)
        assert doc["totals"]["leaked_bits"] == pytest.approx(leaked, abs=1e-9)
        assert len(doc["transcripts"]) == count


def test_json_is_the_dumped_document_list(audit_script, monkeypatch, capsys):
    """The script lays out each report's leakage_json in a list, which must
    be the bytes json.dumps writes for the list of documents."""
    docs = [leakage_document(rep) for rep in audit_script.audit_rows()]
    want = json.dumps(docs, indent=2, sort_keys=True) + "\n"
    got = run_main(audit_script, monkeypatch, capsys, "--json")
    if got != want:  # pytest's own diff of these strings takes minutes
        pytest.fail(f"differs at offset {len(os.path.commonprefix([got, want]))}")
