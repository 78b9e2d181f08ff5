"""Self-test of the benchmark's output checks: each check passes on a real
output and fails on a corrupted copy of it.

    python3 bench/test_checks.py        (or: python3 -m pytest bench)
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from qdleak.report import LEAKAGE_SCHEMA  # noqa: E402


def _real(workload: str, key_prefix: str):
    op = next(op for op in workloads.MAKE_OPS[workload](0) if op.key.startswith(key_prefix))
    return op, workloads.PLAIN[workload](op.call())


def _fails(errors: list[str], needle: str) -> None:
    assert any(needle in e for e in errors), errors


def test_posterior_missing_true_secrets():
    op, plain = _real("eavesdrop", "mxn3-")
    assert checks.eavesdrop_errors(op.facts, plain) == []
    # Another coset of the right shape that leaves the true secrets out.
    s = [1 - int(c) for c in "".join(op.facts["secrets"])]
    s[1] ^= 1
    t = [b ^ m for b, m in zip(s, checks.mxn_mask(3))]
    wrong = [[[f"{a}{b}", *map(str, rest)], 0.5] for a, b, *rest in (s, t)]
    _fails(checks.eavesdrop_errors(op.facts, json.dumps(wrong)), "not in the support")


def test_flipped_decoded_bit():
    for prefix in ("nba-", "jz-", "mxn-"):
        op, plain = _real("dialogues", prefix)
        assert checks.dialogue_errors(op.facts, plain) == []
        doc = json.loads(plain)
        bits = doc["decoded"][0]["1"]
        doc["decoded"][0]["1"] = ("1" if bits[0] == "0" else "0") + bits[1:]
        _fails(checks.dialogue_errors(op.facts, json.dumps(doc)), "party 0 decoded")


def test_leaked_bits_off_by_a_millionth():
    op, plain = _real("audit", "otp-json")
    assert checks.audit_errors(op.facts, plain, LEAKAGE_SCHEMA) == []
    status, _, out = plain.partition("\n")
    doc = json.loads(out)
    doc["totals"]["leaked_bits"] += 1e-6
    corrupted = f"{status}\n{json.dumps(doc)}"
    _fails(checks.audit_errors(op.facts, corrupted, LEAKAGE_SCHEMA), "totals")

    op, plain = _real("audit", "nba-text")
    assert checks.audit_errors(op.facts, plain, LEAKAGE_SCHEMA) == []
    corrupted = plain.replace("leaked_bits: 2.000000000", "leaked_bits: 2.000001000")
    assert corrupted != plain
    _fails(checks.audit_errors(op.facts, corrupted, LEAKAGE_SCHEMA), "totals")


def test_coset_with_wrong_mask():
    op, plain = _real("eavesdrop", "mxn4-")
    assert checks.eavesdrop_errors(op.facts, plain) == []
    # The odd-N mask (all ones) at N=4, where party 0's second bit is shared.
    s = [int(c) for c in "".join(op.facts["secrets"])]
    t = [1 - b for b in s]
    wrong = [[[f"{a}{b}", *map(str, rest)], 0.5] for a, b, *rest in (s, t)]
    _fails(checks.eavesdrop_errors(op.facts, json.dumps(wrong)), "is not {s, s^m_4}")

    op, plain = _real("eavesdrop", "nba-")
    assert checks.eavesdrop_errors(op.facts, plain) == []
    hyps = json.loads(plain)
    hyps[0][0][1] = "".join("1" if c == "0" else "0" for c in hyps[0][0][1])
    _fails(checks.eavesdrop_errors(op.facts, json.dumps(hyps)), "expected")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"PASS {name}")
