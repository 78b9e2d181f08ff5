"""Serializable documents and text rendering for runs and leakage audits.

JSON documents are plain dicts (stable under json round-trips), carry a
``schema_version`` and a ``kind`` discriminator, and validate against the
schemas published here.  :func:`leakage_json` writes an audit's document
as ``json.dumps(..., indent=2, sort_keys=True)`` would, building one dict
per coset rather than one per transcript.  A run's text
(:func:`run_text`) prints the fields of its document (:func:`run_document`).
Every announced symbol, an audit's or a run's, is written as its text in
:data:`~qdleak.protocols.ANNOUNCED_TEXTS`, the one spelling of each
alphabet, which ``qdleak run --initial`` also reads.  Text rendering is
deterministic: fixed 9-decimal floats, stable orderings.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Iterable

from .leakage import CosetLeakage, LeakageReport
from .protocols import (
    ANNOUNCED_SYMBOLS,
    ANNOUNCED_TEXTS,
    MXN_PARTIES,
    Protocol,
    RunRecord,
    Transcript,
    bits_to_str,
    coding_ops,
    mxn_label,
    named_coset,
)
from .qstate import BellLabel

SCHEMA_VERSION = "1.0"

_PARTY_NAMES = ("alice", "bob", "charlie")


def party_name(index: int) -> str:
    return _PARTY_NAMES[index] if index < 3 else f"party{index + 1}"


def _coset_doc(coset: CosetLeakage) -> dict[str, Any]:
    """A transcript entry's fields other than "announced": its coset's
    numbers and posterior hypotheses, as fresh dicts and lists."""
    return {
        "probability": coset.probability,
        "entropy_bits": coset.entropy_bits,
        "leaked_bits": coset.leaked_bits,
        "posterior": [
            {"secrets": [bits_to_str(bits) for bits in assignment.full_bits], "prob": prob}
            for assignment, prob in coset.posterior.hypotheses
        ],
    }


def leakage_document(report: LeakageReport) -> dict[str, Any]:
    """The audit as a plain dict, one transcript per entry: its symbols'
    texts, and its coset's numbers and posterior."""
    params: dict[str, Any] = {}
    if report.parties is not None:
        params["parties"] = report.parties
    symbols = ANNOUNCED_TEXTS[report.protocol]
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
            {"announced": [symbols[i] for i in indices], **_coset_doc(report.cosets[coset])}
            for indices, coset in report.entries
        ],
    }


def _json_block(brackets: str, items: list[str], depth: int) -> str:
    """An array ("[]") or object ("{}") of items rendered for ``depth + 1``,
    closing at indent level ``depth``, laid out as ``json.dumps(indent=2)``
    does."""
    if not items:
        return brackets
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return brackets[0] + inner + ("," + inner).join(items) + outer + brackets[1]


def leakage_json(report: LeakageReport) -> str:
    """``json.dumps(leakage_document(report), indent=2, sort_keys=True)``,
    byte for byte, in one pass over the report's coset table: the head is
    json.dumps of the head fields, and each coset's fields
    (:func:`_coset_doc`) are dumped once, indented to an entry's depth.
    Per call, each symbol of the announced alphabet is rendered once; per
    entry only its announced block is, from its symbol indices, and its
    coset index picks its fields."""
    head = json.dumps(
        leakage_document(replace(report, entries=())), indent=2, sort_keys=True
    )
    symbols = [json.dumps(text) for text in ANNOUNCED_TEXTS[report.protocol]]
    # "announced" sorts before every other field, so a coset's dumped
    # fields follow an entry's announced block after a comma, in place of
    # their opening brace
    tails = [
        "," + json.dumps(_coset_doc(c), indent=2, sort_keys=True)[1:].replace("\n", "\n    ")
        for c in report.cosets
    ]
    transcripts = [
        '{\n      "announced": '
        + _json_block("[]", [symbols[i] for i in indices], 3)
        + tails[coset]
        for indices, coset in report.entries
    ]
    # "transcripts" sorts last, so the head ends in its empty array
    return head.removesuffix("[]\n}") + _json_block("[]", transcripts, 1) + "\n}"


def run_document(record: RunRecord, seed: int | None = None) -> dict[str, Any]:
    """The run as a plain dict: mxn's party count and the seed, each
    party's bits, the transcript's symbol texts, and each party's recovered
    bits by party name, in party order."""
    protocol = record.secrets.protocol
    symbols, texts = ANNOUNCED_SYMBOLS[protocol], ANNOUNCED_TEXTS[protocol]
    params: dict[str, Any] = {}
    if protocol is Protocol.MXN:
        params["parties"] = record.secrets.num_parties
    if seed is not None:
        params["seed"] = seed
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run-record",
        "protocol": protocol.text,
        "params": params,
        "secrets": [bits_to_str(bits) for bits in record.secrets.full_bits],
        "transcript": [texts[symbols.index(symbol)] for symbol in record.transcript.announced],
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
_MXN_PARTIES_SCHEMA = {
    "type": "integer",
    "minimum": MXN_PARTIES[0],
    "maximum": MXN_PARTIES[-1],
}

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
            "properties": {"parties": _MXN_PARTIES_SCHEMA},
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
                "parties": _MXN_PARTIES_SCHEMA,
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


def _pairs(pairs: Iterable[tuple[str, str]]) -> str:
    return " ".join(f"{name}={bits}" for name, bits in pairs)


def _f(x: float) -> str:
    return f"{x:.9f}"


def operation_table_text() -> str:
    """The coding table: for each final Bell result, the (alice, bob)
    codings that produce it from psi+, the coset the labels name, as
    op/bits cells ordered by alice."""
    initial = BellLabel.PSI_PLUS
    lines = [
        f"operation table (initial {initial.text}): (alice, bob) codings per final result"
    ]
    for final in BellLabel:
        _, coset, _ = named_coset(Transcript(Protocol.NBA, (initial, final)))
        cells = []
        for secrets in coset:
            ops = coding_ops(secrets)
            codings = [f"{op.text}/{bits_to_str(b)}" for op, b in zip(ops, secrets.full_bits)]
            cells.append(f"({', '.join(codings)})")
        lines.append(f"{final.text:<5} {'  '.join(cells)}")
    return "\n".join(lines)


def leakage_text(report: LeakageReport) -> str:
    lines = [f"protocol: {report.protocol.text}"]
    if report.parties is not None:
        lines.append(f"parties: {report.parties}")
    lines.append(f"total_bits: {report.total_bits}")
    lines.append(f"secure_bits: {_f(report.secure_bits)}")
    lines.append(f"leaked_bits: {_f(report.leaked_bits)}")
    lines.append(f"transcripts ({len(report.entries)}):")
    symbols = ANNOUNCED_TEXTS[report.protocol]
    suffixes = [
        f"  p={_f(c.probability)}  entropy={_f(c.entropy_bits)}  leaked={_f(c.leaked_bits)}"
        for c in report.cosets
    ]
    for indices, coset in report.entries:
        lines.append(f"  {' '.join([symbols[i] for i in indices])}{suffixes[coset]}")
    if report.protocol is Protocol.NBA:
        lines.append("")
        lines.append(operation_table_text())
    return "\n".join(lines)


def run_text(record: RunRecord, seed: int | None = None, verbose: bool = False) -> str:
    """The fields of :func:`run_document` as lines, in document order; the
    verbose lines, which the document has no field for, read the record."""
    doc = run_document(record, seed)
    lines = [f"protocol: {doc['protocol']}"]
    lines += [f"{key}: {value}" for key, value in doc["params"].items()]
    parties = [entry["party"] for entry in doc["decoded"]]
    lines.append(f"secrets: {_pairs(zip(parties, doc['secrets']))}")
    lines.append(f"transcript: {' '.join(doc['transcript'])}")
    if verbose:
        lines.append(f"operations: {' '.join(op.text for op in coding_ops(record.secrets))}")
        if record.secrets.protocol is Protocol.MXN:
            lines.append(f"encoded: {mxn_label(record.secrets).text}")
    for entry in doc["decoded"]:
        lines.append(f"{entry['party']} recovers: {_pairs(entry['recovered'].items())}")
    return "\n".join(lines)
