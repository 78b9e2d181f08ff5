"""Mutation check: the tier-1 suite must fail on every named small edit
of the library.

Each mutant copies ``src/`` (with ``scripts/``, which a test finds beside
it) to a temporary directory, applies its edit to the copy, and runs the
tier-1 suite from the repository root with ``-x``, with the copy first on
``PYTHONPATH``.  A mutant the suite passes on has survived: the tests
would not notice that bug.  An unedited copy runs first and must pass, or
a failure would prove nothing about the edits.

Usage, from anywhere (stdlib only; pytest and the test dependencies must be
installed)::

    python tests/mutants.py

Exit status: 0 when every mutant is killed, 1 when one is not (the suite
passes on it, or ends in an error other than a failed test), 2 when the
unedited copy fails or an edit no longer matches its source exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    name: str
    module: str  # a file under src/qdleak
    old: str  # must occur exactly once in the module
    new: str


# Left out as equivalent: run_mxn's minus draw ``u >= 0.5`` -> ``u > 0.5``.
# The two differ only at a draw of exactly 0.5, which a seed reaches with
# probability 2^-53 per pair, so no test can choose it.
MUTANTS = [
    Mutant(
        "eve_posterior drops its mxn party check",
        "leakage.py",
        "        _check_mxn_parties(n)\n",
        "        pass\n",
    ),
    Mutant(
        "eve_posterior looks up the neighbouring code",
        "leakage.py",
        ".get(_label_code(protocol, announced))",
        ".get(_label_code(protocol, announced) ^ 1)",
    ),
    Mutant(
        "_coset_posteriors weighs a coset's first member 2.0",
        "leakage.py",
        "Posterior.from_weights((s, 1.0) for s in coset)",
        "Posterior.from_weights((s, 2.0 if s is coset[0] else 1.0) for s in coset)",
    ),
    Mutant(
        "_second_symbol ignores the syndrome",
        "protocols.py",
        "return symbols[index ^ _public_syndrome(secrets)]",
        "return symbols[index]",
    ),
    Mutant(
        "the otp secret terms drop bob's bit",
        "protocols.py",
        "        return (1, 1)\n",
        "        return (1, 0)\n",
    ),
    Mutant(
        "the Bell operations swap sz and sx",
        "protocols.py",
        "_BELL_OPS = (PauliOp.I, PauliOp.SZ, PauliOp.SX, PauliOp.ISY)",
        "_BELL_OPS = (PauliOp.I, PauliOp.SX, PauliOp.SZ, PauliOp.ISY)",
    ),
    Mutant(
        "the secret terms read a ket's basis bit too",
        "protocols.py",
        "mask = 0b01 if protocol is Protocol.JZ",
        "mask = 0b11 if protocol is Protocol.JZ",
    ),
    Mutant(
        "the secret terms take a party's unit bits least significant first",
        "protocols.py",
        ".items(), reverse=True)",
        ".items())",
    ),
    Mutant(
        "the secret terms read the label positions reversed",
        "protocols.py",
        "enumerate(_label_terms(protocol, parties)[1])",
        "enumerate(_label_terms(protocol, parties)[1][::-1])",
    ),
    Mutant(
        "nba codes 11 with sx, not sz",
        "protocols.py",
        "(1, 1): PauliOp.SZ",
        "(1, 1): PauliOp.SX",
    ),
    Mutant(
        "run_mxn drops x from the last pair's minus bit",
        "protocols.py",
        "<< 1 | x ^ minus]",
        "<< 1 | minus]",
    ),
    Mutant(
        "mxn party 0 codes 01 with sx, not sz",
        "protocols.py",
        "(0, 1): PauliOp.SZ",
        "(0, 1): PauliOp.SX",
    ),
    Mutant(
        "nba codes 01 with sz, not sx",
        "protocols.py",
        "(0, 1): PauliOp.SX",
        "(0, 1): PauliOp.SZ",
    ),
    Mutant(
        "the one-bit flip codes 1 with sx, not isy",
        "protocols.py",
        "(1,): PauliOp.ISY",
        "(1,): PauliOp.SX",
    ),
    Mutant(
        "the two-party tuple weight is off by 1e-10",
        "protocols.py",
        "return 1 / len(ANNOUNCED_SYMBOLS[protocol])",
        "return 1 / len(ANNOUNCED_SYMBOLS[protocol]) * (1 + 1e-10)",
    ),
    Mutant(
        "shannon_entropy's negativity floor is 1e-3",
        "leakage.py",
        "NEGATIVE_FLOOR = 1e-12",
        "NEGATIVE_FLOOR = 1e-3",
    ),
    Mutant(
        "shannon_entropy's sum tolerance is 1e-3",
        "leakage.py",
        "SUM_TOLERANCE = 1e-9",
        "SUM_TOLERANCE = 1e-3",
    ),
    Mutant(
        "SecretAssignment checks every party at party 0's width",
        "protocols.py",
        "self._party_bits(i, o, other_w)",
        "self._party_bits(i, o, alice_w)",
    ),
    Mutant(
        "run reads the symbol after the --initial text",
        "cli.py",
        "texts.index(args.initial)]",
        "texts.index(args.initial) ^ 1]",
    ),
    Mutant(
        "run drops its refusal of a flag that does not apply",
        "cli.py",
        '        _reject(given and not wanted, f"--{flag} does not apply to {protocol.text}")\n',
        "",
    ),
    Mutant(
        "leakage_document reads the neighbouring coset",
        "report.py",
        "report.cosets[coset]",
        "report.cosets[coset - 1]",
    ),
    Mutant(
        "_coset_doc swaps entropy_bits and leaked_bits",
        "report.py",
        '"entropy_bits": coset.entropy_bits,\n        "leaked_bits": coset.leaked_bits,',
        '"entropy_bits": coset.leaked_bits,\n        "leaked_bits": coset.entropy_bits,',
    ),
    Mutant(
        "leakage_json dumps a coset's fields unsorted",
        "report.py",
        "json.dumps(_coset_doc(c), indent=2, sort_keys=True)",
        "json.dumps(_coset_doc(c), indent=2)",
    ),
    Mutant(
        "SecretAssignment reads a string of parties one party per character",
        "protocols.py",
        "isinstance(others, str) or not isinstance(others, Iterable)",
        "not isinstance(others, Iterable)",
    ),
    Mutant(
        "jz_otp_equivalence compares against one fixed otp posterior",
        "leakage.py",
        "otp_reuse_posterior(alice, bob).hypotheses",
        "otp_reuse_posterior(0, 0).hypotheses",
    ),
    Mutant(
        "deduce_ghz_from_bells reads its input unchecked",
        "protocols.py",
        "announced = Transcript(Protocol.MXN, outcomes).announced",
        "announced = tuple(outcomes)",
    ),
]

def stale(mutant: Mutant) -> str | None:
    """Why the edit no longer applies to the library, or None."""
    text = (ROOT / "src" / "qdleak" / mutant.module).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    return None if count == 1 else f"{mutant.old!r} occurs {count} times in {mutant.module}"


def tier1(mutant: Mutant | None) -> tuple[int, str]:
    """Run tier-1 against a copy of src/ with ``mutant`` applied (none for
    the unedited copy): the exit status and pytest's last line."""
    with tempfile.TemporaryDirectory(prefix="qdleak-mutant-") as tmp:
        for tree in ("src", "scripts"):
            ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
            shutil.copytree(ROOT / tree, Path(tmp) / tree, ignore=ignore)
        src = Path(tmp) / "src"
        if mutant is not None:
            path = src / "qdleak" / mutant.module
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, *TIER1],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
        )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def main() -> int:
    problems = [f"{m.name}: {why}" for m in MUTANTS for why in [stale(m)] if why]
    if problems:
        print("stale edits:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    status, last = tier1(None)
    print(f"unedited copy: {last}", flush=True)
    if status != 0:
        return 2
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        status, last = tier1(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error (exit {status})")
        seconds = time.perf_counter() - start
        print(f"{verdict:8}  {mutant.name}  [{seconds:.1f} s: {last}]", flush=True)
        if status != 1:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
