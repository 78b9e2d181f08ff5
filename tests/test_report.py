"""Document building, schema validation, and text rendering."""

import dataclasses
import json
import math
import os

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdleak.leakage import (
    CosetLeakage,
    LeakageReport,
    Posterior,
    leakage_report,
    shannon_entropy,
)
from qdleak.protocols import (
    ANNOUNCED_SYMBOLS,
    MXN_PARTIES,
    Protocol,
    all_secret_assignments,
    bits_to_str,
    jz_secrets,
    mxn_secrets,
    nba_secrets,
    run_jz,
    run_mxn,
    run_nba,
)
from qdleak.qstate import ATOL, BellLabel, make_rng
from qdleak.report import (
    LEAKAGE_SCHEMA,
    RUN_SCHEMA,
    SCHEMA_VERSION,
    leakage_document,
    leakage_json,
    leakage_text,
    operation_table_text,
    party_name,
    run_document,
    run_text,
)

from channel_reference import spelled_entries


def sample_records():
    return [
        run_nba(nba_secrets("10", "01"), BellLabel.PSI_PLUS),
        run_jz(jz_secrets(0, 1), "+"),
        run_mxn(mxn_secrets("00", [0, 1]), make_rng(7)),
        run_mxn(mxn_secrets("11", [1, 0, 1, 0, 1]), make_rng(3)),
    ]


def test_party_names():
    assert [party_name(i) for i in range(6)] == [
        "alice",
        "bob",
        "charlie",
        "party4",
        "party5",
        "party6",
    ]


@pytest.mark.parametrize(
    "protocol,parties",
    [(Protocol.NBA, None), (Protocol.JZ, None), (Protocol.OTP, None), (Protocol.MXN, 3)],
)
def test_leakage_documents_validate_and_round_trip(protocol, parties):
    doc = leakage_document(leakage_report(protocol, parties))
    jsonschema.validate(doc, LEAKAGE_SCHEMA)
    assert doc["schema_version"] == SCHEMA_VERSION
    dumped = json.dumps(doc, indent=2, sort_keys=True)
    assert json.loads(dumped) == doc
    assert json.dumps(doc, indent=2, sort_keys=True) == dumped


def test_leakage_schema_holds_the_mxn_party_bound():
    doc = leakage_document(leakage_report(Protocol.MXN, 3))
    for parties in (2, 7):
        doc["params"]["parties"] = parties
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, LEAKAGE_SCHEMA)


def test_leakage_document_entries_share_no_containers():
    """Every hypothesis gets its own dict and list, even where entries
    share a posterior, so editing one entry leaves the others alone."""
    doc = leakage_document(leakage_report(Protocol.MXN, 3))
    hypotheses = [h for t in doc["transcripts"] for h in t["posterior"]]
    assert len({id(h) for h in hypotheses}) == len(hypotheses)
    assert len({id(h["secrets"]) for h in hypotheses}) == len(hypotheses)
    first = hypotheses[0]["secrets"]
    twin = next(h["secrets"] for h in hypotheses[1:] if h["secrets"] == first)
    first[0] = "edited"
    assert twin[0] != "edited"


ALL_AUDITS = [
    (Protocol.NBA, None),
    (Protocol.JZ, None),
    (Protocol.OTP, None),
    *((Protocol.MXN, n) for n in (3, 4, 5, 6)),
]


@pytest.mark.parametrize("protocol,parties", ALL_AUDITS)
def test_leakage_document_entropy_recomputes_from_posterior(protocol, parties):
    """Each entry's numbers, in the document and in leakage_json's text,
    are its own coset's, named by field: entropy and leaked bits differ
    on mxn (1 against N), so a swap of the two shows there."""
    report = leakage_report(protocol, parties)
    for doc in (leakage_document(report), json.loads(leakage_json(report))):
        assert len(doc["transcripts"]) == len(report.entries)
        for entry, (_, k) in zip(doc["transcripts"], report.entries):
            c = report.cosets[k]
            assert entry["probability"] == c.probability
            assert entry["entropy_bits"] == c.entropy_bits
            assert entry["leaked_bits"] == c.leaked_bits
            probs = [h["prob"] for h in entry["posterior"]]
            assert shannon_entropy(probs) == pytest.approx(entry["entropy_bits"], abs=ATOL)
            assert entry["leaked_bits"] == pytest.approx(
                doc["totals"]["total_bits"] - entry["entropy_bits"], abs=ATOL
            )


def dumped(report: LeakageReport) -> str:
    return json.dumps(leakage_document(report), indent=2, sort_keys=True)


def assert_same_text(got: str, want: str) -> None:
    """Equality, reported by the first differing offset: pytest's own diff
    of two mxn documents takes minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        window = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"differs at {at}: {got[window]!r} != {want[window]!r}")


@pytest.mark.parametrize("protocol,parties", ALL_AUDITS)
def test_leakage_json_is_the_dumped_document(protocol, parties):
    report = leakage_report(protocol, parties)
    text = leakage_json(report)
    assert_same_text(text, dumped(report))
    jsonschema.validate(json.loads(text), LEAKAGE_SCHEMA)


def _hand_built_reports():
    a, b, c, _ = all_secret_assignments(Protocol.OTP)
    shared = Posterior(((a, 0.5), (b, 0.5)))
    coset = CosetLeakage(0.5, shared, 1.0, 1.0)
    odd = Posterior(((a, math.nan), (c, math.inf)))
    non_finite = (CosetLeakage(math.inf, odd, -0.0, math.nan), CosetLeakage(1e-300, odd, 1.0, 1.0))
    twin = CosetLeakage(0.25, dataclasses.replace(shared), 1.5, 0.5)
    assert twin.posterior == shared and twin.posterior is not shared

    def otp(secure, leaked, cosets, entries):
        return LeakageReport(Protocol.OTP, None, 2, secure, leaked, cosets, entries)

    return {
        "no params": otp(1.0, 1.0, (coset,), (((0, 1), 0), ((0, 1), 0))),
        "non-finite": otp(math.nan, -math.inf, non_finite, (((1, 1), 0), ((0, 1), 1))),
        "no transcripts": otp(0.0, 2.0, (coset,), ()),
        "equal posteriors": otp(1.0, 1.0, (coset, twin), (((0, 0), 1), ((0, 1), 0))),
        "out of order": otp(1.0, 1.0, (coset, twin), (((1, 0), 1), ((0, 0), 0), ((1, 1), 1))),
    }


@pytest.mark.parametrize(
    "name, fragment",
    [
        ("no params", '\n  "params": {},\n'),
        ("non-finite", '"probability": Infinity\n'),
        ("no transcripts", '"transcripts": []\n}'),
        ("equal posteriors", '"entropy_bits": 1.5,\n'),
        ("out of order", '        "0"\n      ],\n      "entropy_bits": 1.5,\n'),
    ],
)
def test_leakage_json_of_hand_built_reports(name, fragment):
    report = _hand_built_reports()[name]
    text = leakage_json(report)
    assert_same_text(text, dumped(report))
    assert fragment in text


# Any float, with the edge cases of json.dumps's float spelling drawn
# often: a negative zero, subnormals, NaN and both infinities.
_NUMBERS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def leakage_reports(draw):
    """A report of any protocol and party count the report takes, whose
    cosets hold arbitrary numbers and arbitrary hypotheses, with entries
    naming them in any order."""
    protocol = draw(st.sampled_from(list(Protocol)))
    parties = draw(st.sampled_from(MXN_PARTIES[:2])) if protocol is Protocol.MXN else None
    width = parties or 2
    hypotheses = st.lists(
        st.tuples(st.sampled_from(all_secret_assignments(protocol, width)), _NUMBERS),
        max_size=4,
    )
    posteriors = hypotheses.map(lambda h: Posterior(tuple(h)))
    cosets = draw(
        st.lists(st.builds(CosetLeakage, _NUMBERS, posteriors, _NUMBERS, _NUMBERS), max_size=3)
    )
    symbols = st.integers(0, len(ANNOUNCED_SYMBOLS[protocol]) - 1)
    entries = (
        draw(
            st.lists(
                st.tuples(st.tuples(*[symbols] * width), st.integers(0, len(cosets) - 1)),
                max_size=6,
            )
        )
        if cosets
        else []
    )
    return LeakageReport(
        protocol,
        parties,
        draw(st.integers(0, 8)),
        draw(_NUMBERS),
        draw(_NUMBERS),
        tuple(cosets),
        tuple(entries),
    )


@given(leakage_reports())
@settings(max_examples=200, deadline=None)
def test_leakage_json_is_the_dumped_document_of_any_report(report):
    assert_same_text(leakage_json(report), dumped(report))


def reference_leakage_text(report: LeakageReport) -> str:
    """``leakage_text`` with one f-string per line, spelling each entry
    out as a validated Transcript rather than indexing the symbols."""
    lines = [f"protocol: {report.protocol.text}"]
    if report.parties is not None:
        lines.append(f"parties: {report.parties}")
    lines += [
        f"total_bits: {report.total_bits}",
        f"secure_bits: {report.secure_bits:.9f}",
        f"leaked_bits: {report.leaked_bits:.9f}",
        f"transcripts ({len(report.entries)}):",
    ]
    for transcript, c in spelled_entries(report):
        announced = " ".join(
            s.text if isinstance(s, BellLabel) else s for s in transcript.announced
        )
        lines.append(
            f"  {announced}  p={c.probability:.9f}"
            f"  entropy={c.entropy_bits:.9f}  leaked={c.leaked_bits:.9f}"
        )
    if report.protocol is Protocol.NBA:
        lines += ["", operation_table_text()]
    return "\n".join(lines)


@pytest.mark.parametrize("protocol,parties", ALL_AUDITS)
def test_leakage_text_is_the_reference_rendering(protocol, parties):
    report = leakage_report(protocol, parties)
    assert_same_text(leakage_text(report), reference_leakage_text(report))


@pytest.mark.parametrize("name", sorted(_hand_built_reports()))
def test_leakage_text_of_hand_built_reports(name):
    report = _hand_built_reports()[name]
    assert_same_text(leakage_text(report), reference_leakage_text(report))


def test_run_documents_validate(tmp_path):
    for record in sample_records():
        doc = run_document(record, seed=9)
        jsonschema.validate(doc, RUN_SCHEMA)
        assert json.loads(json.dumps(doc)) == doc


def test_run_document_contents():
    doc = run_document(run_nba(nba_secrets("10", "01"), BellLabel.PSI_PLUS))
    assert doc["protocol"] == "nba"
    assert doc["secrets"] == ["10", "01"]
    assert doc["transcript"][0] == "psi+"
    assert doc["decoded"][0] == {"party": "alice", "recovered": {"bob": "01"}}
    assert doc["decoded"][1] == {"party": "bob", "recovered": {"alice": "10"}}


# The README's coding alphabets: nba's for both parties, mxn's for party
# 0, and the one-bit flip of jz's parties and mxn's parties 1..N-1.
README_NBA_OPS = {"00": "i", "01": "sx", "10": "isy", "11": "sz"}
README_MXN_PARTY0_OPS = {"00": "i", "01": "sz", "10": "isy", "11": "sx"}
README_FLIP_OPS = {"0": "i", "1": "isy"}


def test_operation_table_rows():
    """From initial psi+, a final result fixes alice ^ bob: 01 for phi+,
    10 for phi-, 00 for psi+ and 11 for psi-; each row lists alice's four
    codings in bit order, each beside bob's."""
    lines = operation_table_text().splitlines()
    assert len(lines) == 5
    xors = {"phi+": 0b01, "phi-": 0b10, "psi+": 0b00, "psi-": 0b11}
    assert [line.split()[0] for line in lines[1:]] == list(xors)
    for line in lines[1:]:
        final, cells = line.split(None, 1)
        expected = []
        for alice in range(4):
            a, b = f"{alice:02b}", f"{alice ^ xors[final]:02b}"
            expected.append(f"({README_NBA_OPS[a]}/{a}, {README_NBA_OPS[b]}/{b})")
        assert cells.split("  ") == expected


def verbose_operations(record):
    lines = run_text(record, verbose=True).splitlines()
    return [line for line in lines if line.startswith("operations:")]


def test_run_text_verbose_operations():
    """One operations line per verbose run, every party's coding in party
    order, for every nba, jz and three-party mxn assignment."""
    for secrets in all_secret_assignments(Protocol.NBA):
        a, b = (bits_to_str(bits) for bits in secrets.full_bits)
        record = run_nba(secrets, BellLabel.PSI_PLUS)
        assert verbose_operations(record) == [
            f"operations: {README_NBA_OPS[a]} {README_NBA_OPS[b]}"
        ]
    for secrets in all_secret_assignments(Protocol.JZ):
        a, b = (bits_to_str(bits) for bits in secrets.full_bits)
        record = run_jz(secrets, "+")
        assert verbose_operations(record) == [
            f"operations: {README_FLIP_OPS[a]} {README_FLIP_OPS[b]}"
        ]
    for secrets in all_secret_assignments(Protocol.MXN, 3):
        a, *others = (bits_to_str(bits) for bits in secrets.full_bits)
        ops = [README_MXN_PARTY0_OPS[a], *(README_FLIP_OPS[o] for o in others)]
        record = run_mxn(secrets, make_rng(7))
        assert verbose_operations(record) == [f"operations: {' '.join(ops)}"]


def test_leakage_text_contains_totals_and_table():
    text = leakage_text(leakage_report(Protocol.NBA))
    assert "total_bits: 4" in text
    assert "secure_bits: 2.000000000" in text
    assert "leaked_bits: 2.000000000" in text
    assert "transcripts (16):" in text
    assert "operation table (initial psi+)" in text
    jz = leakage_text(leakage_report(Protocol.JZ))
    assert "operation table" not in jz


def test_run_text_verbose_shows_encoding():
    record = run_mxn(mxn_secrets("00", [0, 1]), make_rng(7))
    text = run_text(record, seed=7, verbose=True)
    assert "protocol: mxn" in text
    assert "parties: 3" in text
    assert "seed: 7" in text
    assert "encoded: ghz_101" in text
    assert "alice recovers: bob=0 charlie=1" in text
    quiet = run_text(record, seed=7)
    assert "encoded" not in quiet
