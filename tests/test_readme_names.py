"""The README's "Library" section names library code; every identifier it
puts in backticks must exist, or the section describes code that is gone."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = (
    "qdleak",
    *(f"qdleak.{m}" for m in ("qstate", "protocols", "leakage", "report", "cli")),
)


def library_identifiers() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    spans = re.findall(r"`([^`]+)`", section)
    return {s for s in spans if "_" in s and re.fullmatch(r"[A-Za-z_][\w.]*", s)}


def resolves(name: str) -> bool:
    attr = name.rpartition(".")[2]  # a dotted name resolves by its last part
    return any(hasattr(importlib.import_module(m), attr) for m in MODULES)


def test_library_section_names_resolve():
    names = library_identifiers()
    assert {"channel_column", "MXN_PARTIES"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []
