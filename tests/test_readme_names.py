"""The README's "Library" section names library code; every identifier it
puts in backticks must exist, or the section describes code that is gone."""

import builtins
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
    return {
        s
        for s in spans
        if re.fullmatch(r"[A-Za-z_][\w.]*", s)
        # a name with an underscore, or a CamelCase name of two words or more
        and ("_" in s or re.fullmatch(r"(?:[A-Z][a-z0-9]+){2,}", s))
    }


def resolves(name: str) -> bool:
    # a dotted name resolves by its last part, in a module or in the class
    # or module its owner names
    *owner, attr = name.split(".")
    modules = (builtins, *map(importlib.import_module, MODULES))
    owners = [getattr(m, owner[-1]) for m in modules if owner and hasattr(m, owner[-1])]
    return any(hasattr(x, attr) for x in (*modules, *owners))


def test_library_section_names_resolve():
    names = library_identifiers()
    assert {"channel_column", "MXN_PARTIES", "CosetLeakage"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []
