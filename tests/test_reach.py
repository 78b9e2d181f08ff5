"""The reachability gate: every library function is reached by a command of
``tests/reach.py``, or is public API, or is declared below with its reason.

A function added to the library that no command reaches fails the first
test until it is declared; a declared one that a command comes to reach
fails it too, so the lists only hold what is true.  The probe runs in a
process of its own, against the package this suite imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdleak
from qdleak import cli
from qdleak.protocols import _CODING_OPS, MXN_PARTIES, Protocol

REACH = Path(__file__).resolve().with_name("reach.py")

# Unreached, and public: in qdleak.__all__, or a method of a class there.
PUBLIC = {
    "leakage.Posterior.entropy_bits",
    "leakage.Posterior.support",
    "leakage.eve_posterior",
    "leakage.jz_otp_equivalence",
    "leakage.nba_xor_constraint",
    "leakage.otp_reuse_posterior",
    "protocols.deduce_ghz_from_bells",
    "protocols.ghz_after_ops",
    "protocols.jz_decode",
    "protocols.jz_secrets",
    "protocols.mxn_decode",
    "protocols.mxn_secrets",
    "protocols.nba_decode",
    "protocols.nba_secrets",
    "protocols.otp_secrets",
    "qstate.apply_pauli",
    "qstate.equal_up_to_phase",
    "qstate.ghz_label_of",
    "qstate.ket",
}

_TRACED = "engine reference, named in bench/tracer.py's TRACED"

# Unreached and not public, each with why no command reaches it.
DECLARED = {
    "cli.closed_stdout": "closed pipe; test_cli.py's subprocess test and CI reach it",
    "protocols.nba_final_label": _TRACED,
    "protocols.jz_outcome_label": _TRACED,
    "protocols.mxn_encoded_state": _TRACED,
    "protocols.paired_bell_probability": _TRACED,
    "protocols._announced_bells": "paired_bell_probability's Bell bra, " + _TRACED,
    "qstate.StateVector.__setattr__": "immutability guard: only a write reaches it",
    "qstate.StateVector.__repr__": "debugging aid: no output prints a state",
    "qstate.PauliOp.matrix": "engine: each operation's matrix, which the coset oracle reads",
    "qstate.BellLabel.from_text": "bench/workloads.py reads an initial label with it",
}


@pytest.fixture(scope="module")
def probe():
    src = str(Path(qdleak.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REACH)],
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_unreached_function_is_public_or_declared(probe):
    assert probe["unreached"] == sorted(PUBLIC | DECLARED.keys())


def test_public_entries_are_exported():
    # module.function, or module.Class.method of an exported class
    assert [name for name in sorted(PUBLIC) if name.split(".")[1] not in qdleak.__all__] == []


def _case(kind: str, argv: list[str]) -> tuple:
    if kind == "script":
        return ("script", *argv)
    args = cli.build_parser().parse_args(argv)
    if args.command == "table1":
        return ("table1",)
    mode = "verbose" if getattr(args, "verbose", False) else args.format
    return (args.command, args.protocol, args.parties, mode)


def test_commands_cover_every_case(probe):
    """Every analyze case in both formats, every protocol that runs plain,
    verbose and in JSON, table1 and both script modes succeed, and three
    usage errors exit 2: dropping any command fails here."""
    counts = [(p, None) for p in Protocol if p is not Protocol.MXN]
    counts += [(Protocol.MXN, n) for n in MXN_PARTIES]
    want = {("table1",), ("script",), ("script", "--json")}
    want |= {("analyze", p.text, n, f) for p, n in counts for f in ("text", "json")}
    want |= {
        ("run", p.text, (4 if p is Protocol.MXN else None), mode)
        for p in _CODING_OPS
        for mode in ("text", "verbose", "json")
    }
    commands = probe["commands"]
    assert {code for _, _, code in commands} == {0, 2}
    succeeded = [_case(kind, argv) for kind, argv, code in commands if code == 0]
    assert sorted(succeeded, key=repr) == sorted(want, key=repr)
    assert sum(code == 2 for _, _, code in commands) == 3
