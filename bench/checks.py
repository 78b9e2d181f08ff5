"""Output checks, written from the paper's leakage table and the coding
tables rather than from qdleak's code.

Each check takes an operation's facts (its true inputs) and the plain
string of its output, and returns a list of errors; an empty list means
the output is correct.  The model used here:

* Bell labels are (parity, sign) bit pairs: phi = same bits (parity 0),
  psi = opposite bits; + is sign 0.  A Pauli with bits (x, z) on one qubit
  of a pair flips the parity by x and the sign by z.
* NBA's coding table, read as Paulis up to phase, is linear over GF(2):
  00 -> I (0,0), 01 -> sx (1,0), 10 -> isy (1,1), 11 -> sz (0,1).  Both
  parties act on the same qubit, so the announced (initial, final) pair
  fixes the XOR of their bits, and the eavesdropper's support is the four
  assignments with that XOR.
* JZ: isy swaps 0<->1 and +<->-, so the outcome differs from the initial
  ket exactly when the two bits differ.  OTP: the ciphertexts' XOR is the
  plaintexts' XOR.  Both leave the coset {s, s^11}.
* MXN: each transcript leaves two assignments, differing by m_N: all ones
  for odd N, all ones but party 0's second bit for even N.
"""

from __future__ import annotations

import json
import math

TOL = 1e-9

BELL = {"phi+": (0, 0), "phi-": (0, 1), "psi+": (1, 0), "psi-": (1, 1)}
NBA_PAULI = {(0, 0): (0, 0), (0, 1): (1, 0), (1, 0): (1, 1), (1, 1): (0, 1)}
JZ_FLIP = {"0": "1", "1": "0", "+": "-", "-": "+"}


def expected_totals(protocol: str, parties: int | None) -> tuple[int, float, float]:
    """(total, secure, leaked) bits from the paper's table."""
    fixed = {"nba": (4, 2.0, 2.0), "jz": (2, 1.0, 1.0), "otp": (2, 1.0, 1.0)}
    return fixed.get(protocol) or (parties + 1, 1.0, float(parties))


def expected_count(protocol: str, parties: int | None) -> int:
    return {"nba": 16, "jz": 8, "otp": 4}.get(protocol) or 4**parties


def _xor(a, b) -> tuple[int, ...]:
    return tuple(x ^ y for x, y in zip(a, b))


def _flat(secrets: list[str]) -> tuple[int, ...]:
    return tuple(int(c) for c in "".join(secrets))


def public_xor(protocol: str, announced: list[str]) -> tuple[int, ...]:
    """The XOR of the two parties' bits that a transcript makes public."""
    if protocol == "nba":
        pauli = _xor(BELL[announced[0]], BELL[announced[1]])
        return next(bits for bits, p in NBA_PAULI.items() if p == pauli)
    if protocol == "jz":
        return (int(announced[0] != announced[1]),)
    return (int(announced[0]) ^ int(announced[1]),)


def mxn_mask(parties: int) -> tuple[int, ...]:
    mask = [1] * (parties + 1)
    if parties % 2 == 0:
        mask[1] = 0
    return tuple(mask)


def posterior_errors(
    protocol: str,
    parties: int | None,
    announced: list[str],
    hypotheses: list,
    true_secrets: list[str] | None = None,
) -> list[str]:
    """Equal weights summing to 1 over the coset the model predicts."""
    where = f"{protocol} {' '.join(announced)}"
    probs = [p for _, p in hypotheses]
    support = {_flat(s) for s, _ in hypotheses}
    errors = []
    if not probs or abs(sum(probs) - 1.0) > TOL:
        errors.append(f"{where}: posterior sums to {sum(probs)!r}")
    if probs and max(probs) - min(probs) > TOL:
        errors.append(f"{where}: posterior weights differ")
    if len(support) != len(hypotheses):
        errors.append(f"{where}: repeated hypothesis")
    if protocol == "mxn":
        width = parties + 1
        ok = (
            len(support) == 2
            and all(len(s) == width for s in support)
            and _xor(*support) == mxn_mask(parties)
        )
        if not ok:
            errors.append(f"{where}: support {sorted(support)} is not {{s, s^m_{parties}}}")
    else:
        d = public_xor(protocol, announced)
        half = len(d)
        values = [(0, 0), (0, 1), (1, 0), (1, 1)] if half == 2 else [(0,), (1,)]
        want = {a + _xor(a, d) for a in values}
        if support != want:
            errors.append(f"{where}: support {sorted(support)}, expected {sorted(want)}")
    if true_secrets is not None and _flat(true_secrets) not in support:
        errors.append(f"{where}: true secrets {''.join(true_secrets)} not in the support")
    return errors


def _totals_errors(where, protocol, parties, total, secure, leaked) -> list[str]:
    want = expected_totals(protocol, parties)
    got = (total, secure, leaked)
    if total != want[0] or any(abs(g - w) > TOL for g, w in zip(got[1:], want[1:])):
        return [f"{where}: totals {got}, expected {want}"]
    return []


def _entry_errors(where, protocol, parties, count, probability, entropy, leaked):
    total = expected_totals(protocol, parties)[0]
    entropy_want = 2.0 if protocol == "nba" else 1.0
    errors = []
    if abs(probability - 1.0 / count) > TOL:
        errors.append(f"{where}: probability {probability!r}, expected 1/{count}")
    if abs(entropy - entropy_want) > TOL or abs(leaked - (total - entropy_want)) > TOL:
        errors.append(f"{where}: entropy/leaked {entropy!r}/{leaked!r}")
    return errors


def audit_json_errors(facts: dict, doc: dict, schema: dict) -> list[str]:
    protocol, parties = facts["protocol"], facts["parties"]
    where = f"analyze {protocol}{parties or ''} json"
    # Imported here, at the first check, so that the run's peak RSS, read
    # before any check, does not include it.
    import jsonschema

    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return [f"{where}: schema: {exc.message}"]
    totals = doc["totals"]
    errors = _totals_errors(
        where, protocol, parties,
        totals["total_bits"], totals["secure_bits"], totals["leaked_bits"],
    )
    if doc["protocol"] != protocol or doc["params"].get("parties") != parties:
        errors.append(f"{where}: protocol/params {doc['protocol']} {doc['params']}")
    entries = doc["transcripts"]
    count = expected_count(protocol, parties)
    if len(entries) != count or len({tuple(e["announced"]) for e in entries}) != count:
        errors.append(f"{where}: {len(entries)} transcripts, expected {count} distinct")
    if abs(sum(e["probability"] for e in entries) - 1.0) > TOL:
        errors.append(f"{where}: transcript probabilities do not sum to 1")
    for e in entries:
        at = f"{where} {' '.join(e['announced'])}"
        errors += _entry_errors(
            at, protocol, parties, count, e["probability"], e["entropy_bits"], e["leaked_bits"]
        )
        hypotheses = [(h["secrets"], h["prob"]) for h in e["posterior"]]
        errors += posterior_errors(protocol, parties, e["announced"], hypotheses)
    return errors


def audit_text_errors(facts: dict, text: str) -> list[str]:
    """The text report prints 9 decimals, so each printed number is within
    5e-10 of the true one; sums allow that much per term."""
    protocol, parties = facts["protocol"], facts["parties"]
    where = f"analyze {protocol}{parties or ''} text"
    lines = text.split("\n")
    head = dict(line.split(": ", 1) for line in lines if ": " in line and not line.startswith(" "))
    try:
        total = int(head["total_bits"])
        secure, leaked = float(head["secure_bits"]), float(head["leaked_bits"])
    except (KeyError, ValueError):
        return [f"{where}: header lines missing"]
    errors = _totals_errors(where, protocol, parties, total, secure, leaked)
    if head.get("protocol") != protocol or head.get("parties") != (str(parties) if parties else None):
        errors.append(f"{where}: protocol/parties header wrong")
    count = expected_count(protocol, parties)
    rows = [line.split() for line in lines if line.startswith("  ") and " p=" in line]
    if f"transcripts ({count}):" not in lines or len(rows) != count:
        errors.append(f"{where}: {len(rows)} transcript rows, expected {count}")
    if len({tuple(r[:-3]) for r in rows}) != len(rows):
        errors.append(f"{where}: repeated transcript")
    probs = []
    for row in rows:
        try:
            p, entropy, row_leaked = (float(cell.split("=", 1)[1]) for cell in row[-3:])
        except (IndexError, ValueError):
            errors.append(f"{where}: bad row {' '.join(row)}")
            continue
        probs.append(p)
        errors += _entry_errors(
            f"{where} {' '.join(row[:-3])}", protocol, parties, count, p, entropy, row_leaked
        )
    if abs(math.fsum(probs) - 1.0) > TOL + 5e-10 * len(probs):
        errors.append(f"{where}: transcript probabilities do not sum to 1")
    return errors


def audit_errors(facts: dict, plain: str, schema: dict) -> list[str]:
    status, _, out = plain.partition("\n")
    if status != "exit 0":
        return [f"analyze {facts['protocol']}: {status}"]
    if facts["format"] == "json":
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"analyze {facts['protocol']} json: not JSON ({exc})"]
        return audit_json_errors(facts, doc, schema)
    return audit_text_errors(facts, out)


def dialogue_errors(facts: dict, plain: str) -> list[str]:
    """Every party decodes every other party's true bits, and the
    transcript is the one the coding tables predict (NBA, JZ) or a tuple
    of N Bell labels (MXN)."""
    protocol, secrets, initial = facts["protocol"], facts["secrets"], facts["initial"]
    where = f"{protocol} {'.'.join(secrets)} {initial or ''}".rstrip()
    doc = json.loads(plain)
    errors = []
    decoded = doc["decoded"]
    if len(decoded) != len(secrets):
        errors.append(f"{where}: {len(decoded)} decodings for {len(secrets)} parties")
    for i, got in enumerate(decoded):
        want = {str(j): bits for j, bits in enumerate(secrets) if j != i}
        if got != want:
            errors.append(f"{where}: party {i} decoded {got}, expected {want}")
    announced = doc["transcript"]
    if protocol == "nba":
        d = _xor(_flat(secrets[:1]), _flat(secrets[1:]))
        final = _xor(BELL[initial], NBA_PAULI[d])
        want = [initial, next(t for t, pb in BELL.items() if pb == final)]
    elif protocol == "jz":
        flipped = secrets[0] != secrets[1]
        want = [initial, JZ_FLIP[initial] if flipped else initial]
    else:
        ok = len(announced) == len(secrets) and all(x in BELL for x in announced)
        want = announced if ok else ["<N Bell labels>"]
    if announced != want:
        errors.append(f"{where}: transcript {announced}, expected {want}")
    return errors


def eavesdrop_errors(facts: dict, plain: str) -> list[str]:
    return posterior_errors(
        facts["protocol"],
        facts["parties"],
        facts["announced"],
        json.loads(plain),
        true_secrets=facts["secrets"],
    )
