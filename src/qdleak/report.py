"""Serializable documents and text rendering for runs and leakage audits.

JSON documents are plain dicts (stable under json round-trips), carry a
``schema_version`` and a ``kind`` discriminator, and validate against the
schemas published here.  Text rendering is deterministic: fixed 9-decimal
floats, stable orderings.
"""

from __future__ import annotations

from typing import Any

from .leakage import LeakageReport, Posterior
from .protocols import (
    Protocol,
    RunRecord,
    Transcript,
    bits_to_str,
    ghz_after_ops,
    mxn_ops_for_secrets,
    nba_consistent_pairs,
    nba_op_for_bits,
    two_party_ops,
)
from .qstate import BellLabel

SCHEMA_VERSION = "1.0"

_PARTY_NAMES = ("alice", "bob", "charlie")


def party_name(index: int) -> str:
    return _PARTY_NAMES[index] if index < 3 else f"party{index + 1}"


def announced_text(transcript: Transcript) -> list[str]:
    return [
        label.text if isinstance(label, BellLabel) else str(label)
        for label in transcript.announced
    ]


def _posterior_doc(posterior: Posterior) -> list[dict[str, Any]]:
    return [
        {
            "secrets": [bits_to_str(bits) for bits in assignment.full_bits],
            "prob": prob,
        }
        for assignment, prob in posterior.hypotheses
    ]


def leakage_document(report: LeakageReport) -> dict[str, Any]:
    params: dict[str, Any] = {}
    if report.parties is not None:
        params["parties"] = report.parties
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "leakage-report",
        "protocol": report.protocol.text,
        "params": params,
        "totals": {
            "total_bits": report.total_bits,
            "secure_bits": report.secure_bits,
            "leaked_bits": report.leaked_bits,
        },
        "transcripts": [
            {
                "announced": announced_text(entry.transcript),
                "probability": entry.probability,
                "entropy_bits": entry.entropy_bits,
                "leaked_bits": entry.leaked_bits,
                "posterior": _posterior_doc(entry.posterior),
            }
            for entry in report.per_transcript
        ],
    }


def run_document(record: RunRecord, seed: int | None = None) -> dict[str, Any]:
    params: dict[str, Any] = {}
    if record.secrets.protocol is Protocol.MXN:
        params["parties"] = record.secrets.num_parties
    if seed is not None:
        params["seed"] = seed
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run-record",
        "protocol": record.secrets.protocol.text,
        "params": params,
        "secrets": [bits_to_str(bits) for bits in record.secrets.full_bits],
        "transcript": announced_text(record.transcript),
        "decoded": [
            {
                "party": party_name(i),
                "recovered": {
                    party_name(j): bits_to_str(bits)
                    for j, bits in sorted(record.decoded[i].items())
                },
            }
            for i in range(record.secrets.num_parties)
        ],
    }


_NUMBER = {"type": "number"}

LEAKAGE_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "kind", "protocol", "params", "totals", "transcripts"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "string"},
        "kind": {"const": "leakage-report"},
        "protocol": {"enum": ["nba", "jz", "mxn", "otp"]},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"parties": {"type": "integer", "minimum": 2, "maximum": 6}},
        },
        "totals": {
            "type": "object",
            "required": ["total_bits", "secure_bits", "leaked_bits"],
            "additionalProperties": False,
            "properties": {
                "total_bits": {"type": "integer"},
                "secure_bits": _NUMBER,
                "leaked_bits": _NUMBER,
            },
        },
        "transcripts": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "announced",
                    "probability",
                    "entropy_bits",
                    "leaked_bits",
                    "posterior",
                ],
                "additionalProperties": False,
                "properties": {
                    "announced": {"type": "array", "items": {"type": "string"}},
                    "probability": _NUMBER,
                    "entropy_bits": _NUMBER,
                    "leaked_bits": _NUMBER,
                    "posterior": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["secrets", "prob"],
                            "additionalProperties": False,
                            "properties": {
                                "secrets": {
                                    "type": "array",
                                    "items": {"type": "string", "pattern": "^[01]+$"},
                                },
                                "prob": _NUMBER,
                            },
                        },
                    },
                },
            },
        },
    },
}

RUN_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "protocol",
        "params",
        "secrets",
        "transcript",
        "decoded",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "string"},
        "kind": {"const": "run-record"},
        "protocol": {"enum": ["nba", "jz", "mxn"]},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "parties": {"type": "integer", "minimum": 3, "maximum": 6},
                "seed": {"type": "integer"},
            },
        },
        "secrets": {"type": "array", "items": {"type": "string", "pattern": "^[01]+$"}},
        "transcript": {"type": "array", "items": {"type": "string"}},
        "decoded": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["party", "recovered"],
                "additionalProperties": False,
                "properties": {
                    "party": {"type": "string"},
                    "recovered": {
                        "type": "object",
                        "additionalProperties": {"type": "string", "pattern": "^[01]+$"},
                    },
                },
            },
        },
    },
}


def _f(x: float) -> str:
    return f"{x:.9f}"


def operation_table_text(initial: BellLabel = BellLabel.PSI_PLUS) -> str:
    """The coding table: for each final Bell result, the (alice, bob)
    operation pairs that produce it, as op/bits cells ordered by alice."""
    lines = [
        f"operation table (initial {initial.text}): (alice, bob) codings per final result"
    ]
    for final in BellLabel:
        cells = []
        for alice_bits, bob_bits in nba_consistent_pairs(initial, final):
            a_op = nba_op_for_bits(alice_bits).text
            b_op = nba_op_for_bits(bob_bits).text
            cells.append(f"({a_op}/{bits_to_str(alice_bits)}, {b_op}/{bits_to_str(bob_bits)})")
        lines.append(f"{final.text:<5} {'  '.join(cells)}")
    return "\n".join(lines)


def leakage_text(report: LeakageReport) -> str:
    lines = [f"protocol: {report.protocol.text}"]
    if report.parties is not None:
        lines.append(f"parties: {report.parties}")
    lines.append(f"total_bits: {report.total_bits}")
    lines.append(f"secure_bits: {_f(report.secure_bits)}")
    lines.append(f"leaked_bits: {_f(report.leaked_bits)}")
    lines.append(f"transcripts ({len(report.per_transcript)}):")
    for entry in report.per_transcript:
        announced = " ".join(announced_text(entry.transcript))
        lines.append(
            f"  {announced}  p={_f(entry.probability)}"
            f"  entropy={_f(entry.entropy_bits)}  leaked={_f(entry.leaked_bits)}"
        )
    if report.protocol is Protocol.NBA:
        lines.append("")
        lines.append(operation_table_text())
    return "\n".join(lines)


def run_text(record: RunRecord, seed: int | None = None, verbose: bool = False) -> str:
    protocol = record.secrets.protocol
    n = record.secrets.num_parties
    lines = [f"protocol: {protocol.text}"]
    if protocol is Protocol.MXN:
        lines.append(f"parties: {n}")
    if seed is not None:
        lines.append(f"seed: {seed}")
    secrets = " ".join(
        f"{party_name(i)}={bits_to_str(bits)}"
        for i, bits in enumerate(record.secrets.full_bits)
    )
    lines.append(f"secrets: {secrets}")
    lines.append(f"transcript: {' '.join(announced_text(record.transcript))}")
    if verbose and protocol is Protocol.MXN:
        ops = mxn_ops_for_secrets(record.secrets)
        lines.append(f"operations: {' '.join(op.text for op in ops)}")
        lines.append(f"encoded: {ghz_after_ops(ops).text}")
    if verbose and protocol is not Protocol.MXN:
        ops = two_party_ops(record.secrets)
        lines.append(f"operations: {' '.join(op.text for op in ops)}")
    for i in range(n):
        recovered = " ".join(
            f"{party_name(j)}={bits_to_str(bits)}"
            for j, bits in sorted(record.decoded[i].items())
        )
        lines.append(f"{party_name(i)} recovers: {recovered}")
    return "\n".join(lines)
