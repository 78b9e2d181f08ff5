"""Reachability probe: which functions of the library no command calls.

It runs a fixed list of commands in this one process, each in process:
``table1``, every ``analyze`` case in text and JSON, ``run`` for every
protocol that runs, plain, with ``--verbose`` and in JSON, three usage
errors, and both modes of ``scripts/leakage_audit.py`` through ``runpy``.
A trace function records the code object of every call, and each
function and method the ``qdleak`` package defines (counted with ``ast``,
nested ones included) that none of those calls entered is unreached.
``tests/test_reach.py`` holds that list to its allow-list, so a function
added to the library that no command reaches has to be declared there.

The caches of the library start cold here, which is why the probe runs in
a process of its own.  Usage, with the package importable::

    PYTHONPATH=src python tests/reach.py

It prints one JSON object: each command with its exit status, and the
unreached functions as sorted ``module.qualified_name`` strings.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import qdleak
from qdleak import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "leakage_audit.py"

_ANALYZE_CASES = [["--protocol", p] for p in ("nba", "jz", "otp")] + [
    ["--protocol", "mxn", "--parties", str(n)] for n in (3, 4, 5, 6)
]
_RUNS = [
    ["--protocol", "nba", "--alice", "10", "--bob", "11", "--initial", "psi+"],
    ["--protocol", "jz", "--alice", "0", "--bob", "1", "--initial", "+"],
    ["--protocol", "mxn", "--parties", "4", "--alice", "01", "--others", "1,0,1", "--seed", "7"],
]
_RUN_MODES = ([], ["--verbose"], ["--format", "json"])

# (how the command is run, its argv): "cli" argv go to qdleak.cli.main,
# "script" argv to scripts/leakage_audit.py.
COMMANDS = [
    ("cli", ["table1"]),
    *(("cli", ["analyze", *c, "--format", f]) for c in _ANALYZE_CASES for f in ("text", "json")),
    *(("cli", ["run", *case, *mode]) for case in _RUNS for mode in _RUN_MODES),
    ("cli", ["analyze", "--protocol", "mxn", "--parties", "2"]),
    ("cli", ["run", "--protocol", "nba", "--alice", "1", "--bob", "11", "--initial", "psi+"]),
    ("cli", ["run", "--protocol", "jz", "--alice", "0", "--bob", "1", "--initial", "x"]),
    ("script", []),
    ("script", ["--json"]),
]


def _defs(node: ast.AST, prefix: str = ""):
    """(def node, qualified name) for every function and method under
    ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield child, name
            yield from _defs(child, f"{name}.")
        else:
            yield from _defs(child, prefix)


def library_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> "module.qualified_name" for
    every function and method in the package.  A decorated function's code
    starts at its first decorator."""
    found = {}
    for path in sorted(Path(qdleak.__file__).resolve().parent.glob("*.py")):
        for node, name in _defs(ast.parse(path.read_text(encoding="utf-8"))):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            found[str(path), first] = f"{path.stem}.{name}"
    return found


def run(kind: str, argv: list[str]) -> int:
    """One command's exit status, its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if kind == "cli":
            return cli.main(argv)
        saved, sys.argv = sys.argv, [str(SCRIPT), *argv]
        try:
            runpy.run_path(str(SCRIPT), run_name="__main__")
        except SystemExit as done:  # the script always ends in one
            return done.code
        finally:
            sys.argv = saved


def probe() -> dict:
    functions = library_functions()
    entered: set = set()

    def on_call(frame, event, arg):
        # called once per new frame; returning None traces no line in it
        entered.add(frame.f_code)

    sys.settrace(on_call)
    try:
        exits = [run(kind, argv) for kind, argv in COMMANDS]
    finally:
        sys.settrace(None)
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    return {
        "commands": [[kind, argv, code] for (kind, argv), code in zip(COMMANDS, exits)],
        "unreached": sorted(name for key, name in functions.items() if key not in reached),
    }


if __name__ == "__main__":
    print(json.dumps(probe(), indent=1))
