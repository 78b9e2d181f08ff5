"""Protocol tests: coding alphabets, transcripts, decoding, swapping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdleak.protocols import (
    BIT_PAIRS,
    Protocol,
    SecretAssignment,
    Transcript,
    TranscriptError,
    all_secret_assignments,
    as_bits,
    bits_to_str,
    channel_cell,
    channel_row,
    deduce_ghz_from_bells,
    flip_op_for_bit,
    ghz_after_ops,
    jz_decode,
    jz_outcome_label,
    jz_secrets,
    mxn_decode,
    mxn_encoded_state,
    mxn_ops_for_secrets,
    mxn_secrets,
    mxn_secrets_for_ops,
    nba_consistent_pairs,
    nba_decode,
    nba_final_label,
    nba_op_for_bits,
    nba_secrets,
    op_tuples_for_label,
    otp_secrets,
    paired_bell_distribution,
    paired_bell_probability,
    run_jz,
    run_mxn,
    run_nba,
)
from qdleak.qstate import (
    ATOL,
    BellLabel,
    GhzLabel,
    PauliOp,
    all_ghz_labels,
    bell_state,
    equal_up_to_phase,
    ghz_state,
    make_rng,
    tensor,
)


def oracle_joint_bell_prob(state, labels):
    """Joint probability of all pairwise Bell outcomes (pairs (i, N+i)) by
    one raw-index inner product; independent of the engine's tensor ops."""
    n = state.num_qubits // 2
    bell = {label: bell_state(label).amplitudes for label in BellLabel}
    total = 0j
    for idx in range(state.amplitudes.size):
        bits = [(idx >> (state.num_qubits - 1 - k)) & 1 for k in range(state.num_qubits)]
        coeff = complex(state.amplitudes[idx])
        for i, label in enumerate(labels):
            coeff *= bell[label][2 * bits[i] + bits[n + i]].conjugate()
        total += coeff
    return abs(total) ** 2


# --- bits and assignments ----------------------------------------------


def test_as_bits_accepts_strings_and_sequences():
    assert as_bits("01", 2) == (0, 1)
    assert as_bits([1, 0], 2) == (1, 0)
    with pytest.raises(ValueError):
        as_bits("012", 3)
    with pytest.raises(ValueError):
        as_bits("01", 3)
    assert bits_to_str((1, 0, 1)) == "101"


def test_secret_assignment_shapes():
    assert nba_secrets("10", "01").full_bits == ((1, 0), (0, 1))
    assert jz_secrets(1, 0).num_parties == 2
    assert otp_secrets(0, 1).protocol is Protocol.OTP
    assert mxn_secrets("00", [0, 1]).num_parties == 3
    with pytest.raises(ValueError):
        nba_secrets("1", "01")
    with pytest.raises(ValueError):
        SecretAssignment(Protocol.JZ, (0,), ((0,), (1,)))
    with pytest.raises(ValueError):
        SecretAssignment(Protocol.MXN, (0, 1), ())
    with pytest.raises(ValueError):
        SecretAssignment(Protocol.MXN, (0, 1), ((0,),) * 6)


def test_all_secret_assignments_counts():
    assert len(all_secret_assignments(Protocol.NBA)) == 16
    assert len(all_secret_assignments(Protocol.JZ)) == 4
    assert len(all_secret_assignments(Protocol.OTP)) == 4
    assert len(all_secret_assignments(Protocol.MXN, 3)) == 16
    assert len(all_secret_assignments(Protocol.MXN, 6)) == 128
    with pytest.raises(ValueError):
        all_secret_assignments(Protocol.MXN)


def test_transcript_validation():
    Transcript(Protocol.NBA, (BellLabel.PSI_PLUS, BellLabel.PHI_MINUS))
    Transcript(Protocol.JZ, ("0", "1"))
    Transcript(Protocol.OTP, ("1", "0"))
    Transcript(Protocol.MXN, (BellLabel.PSI_PLUS,) * 6)
    with pytest.raises(TranscriptError):
        Transcript(Protocol.NBA, (BellLabel.PSI_PLUS,))
    with pytest.raises(TranscriptError):
        Transcript(Protocol.NBA, ("psi+", "psi-"))
    with pytest.raises(TranscriptError):
        Transcript(Protocol.JZ, ("0", "2"))
    with pytest.raises(TranscriptError):
        Transcript(Protocol.MXN, (BellLabel.PSI_PLUS,) * 7)
    with pytest.raises(TranscriptError):
        Transcript(Protocol.OTP, ("0", "+"))


# protocol -> (min length, max length, symbols) of an announcement
ANNOUNCEMENTS = {
    Protocol.NBA: (2, 2, tuple(BellLabel)),
    Protocol.JZ: (2, 2, ("0", "1", "+", "-")),
    Protocol.OTP: (2, 2, ("0", "1")),
    Protocol.MXN: (2, 6, tuple(BellLabel)),
}

_ANY_SYMBOL = st.one_of(
    st.sampled_from(list(BellLabel)),
    st.sampled_from(["0", "1", "+", "-"]),
    st.text(max_size=4),
    st.integers(),
)


@st.composite
def announcements(draw):
    """A protocol and a tuple of strings, ints and Bell labels, drawn so
    that about a third of them are well formed."""
    protocol = draw(st.sampled_from(list(Protocol)))
    lo, hi, symbols = ANNOUNCEMENTS[protocol]
    length = draw(st.one_of(st.integers(lo, hi), st.integers(0, 8)))
    element = st.sampled_from(symbols)
    if draw(st.booleans()):
        element = st.one_of(element, _ANY_SYMBOL)
    return protocol, tuple(draw(element) for _ in range(length))


@given(announcements())
@settings(max_examples=300, deadline=None)
def test_transcript_accepts_exactly_well_formed_announcements(drawn):
    protocol, announced = drawn
    lo, hi, symbols = ANNOUNCEMENTS[protocol]
    well_formed = lo <= len(announced) <= hi and all(
        any(type(x) is type(s) and x == s for s in symbols) for x in announced
    )
    try:
        transcript = Transcript(protocol, announced)
    except TranscriptError:
        assert not well_formed
    else:
        assert well_formed
        assert transcript.announced == announced


@pytest.mark.parametrize(
    "protocol, parties",
    [(Protocol.NBA, 2), (Protocol.JZ, 2), (Protocol.OTP, 2), (Protocol.MXN, 3)],
)
def test_channel_cell_is_the_row_entry(protocol, parties):
    """For every assignment and every tuple of the announced alphabet, the
    single-transcript cell equals the row's entry (0 where it has none)."""
    symbols = ANNOUNCEMENTS[protocol][2]
    for secrets in all_secret_assignments(protocol, parties):
        row = channel_row(secrets)
        assert sum(row.values()) == pytest.approx(1.0, abs=ATOL)
        for announced in itertools.product(symbols, repeat=parties):
            want = row.get(announced, 0.0)
            assert channel_cell(secrets, announced) == pytest.approx(want, abs=ATOL)


# --- coding alphabets --------------------------------------------------


def test_two_bit_alphabets_differ_as_documented():
    assert nba_op_for_bits((0, 1)) is PauliOp.SX
    assert nba_op_for_bits((1, 1)) is PauliOp.SZ
    assert [nba_op_for_bits(b) for b in BIT_PAIRS] == [
        PauliOp.I,
        PauliOp.SX,
        PauliOp.ISY,
        PauliOp.SZ,
    ]
    from qdleak.protocols import mxn_alice_op_for_bits

    assert [mxn_alice_op_for_bits(b) for b in BIT_PAIRS] == [
        PauliOp.I,
        PauliOp.SZ,
        PauliOp.ISY,
        PauliOp.SX,
    ]
    assert flip_op_for_bit(0) is PauliOp.I
    assert flip_op_for_bit(1) is PauliOp.ISY


# --- NBA ---------------------------------------------------------------


def test_nba_final_label_worked_examples():
    # equal codings leave psi+ fixed; xor of codings picks the row
    assert nba_final_label((1, 1), (1, 1), BellLabel.PSI_PLUS) is BellLabel.PSI_PLUS
    assert nba_final_label((0, 0), (0, 0), BellLabel.PSI_PLUS) is BellLabel.PSI_PLUS
    assert nba_final_label((1, 0), (0, 1), BellLabel.PSI_PLUS) is BellLabel.PSI_MINUS
    assert nba_final_label((0, 0), (0, 1), BellLabel.PSI_PLUS) is BellLabel.PHI_PLUS
    assert nba_final_label((0, 0), (1, 0), BellLabel.PSI_PLUS) is BellLabel.PHI_MINUS


def test_nba_final_label_depends_only_on_xor():
    for a, b, c, d in itertools.product(BIT_PAIRS, repeat=4):
        if (a[0] ^ b[0], a[1] ^ b[1]) == (c[0] ^ d[0], c[1] ^ d[1]):
            assert nba_final_label(a, b, BellLabel.PSI_PLUS) is nba_final_label(
                c, d, BellLabel.PSI_PLUS
            )


def test_nba_encoding_order_does_not_matter():
    for initial in BellLabel:
        for a, b in itertools.product(BIT_PAIRS, repeat=2):
            assert nba_final_label(a, b, initial) is nba_final_label(b, a, initial)


def test_nba_decode_worked_examples():
    assert nba_decode((1, 1), BellLabel.PSI_PLUS, BellLabel.PSI_MINUS) == (0, 0)
    assert nba_decode((1, 0), BellLabel.PSI_PLUS, BellLabel.PSI_MINUS) == (0, 1)
    assert nba_decode((0, 0), BellLabel.PSI_PLUS, BellLabel.PSI_PLUS) == (0, 0)


def test_nba_round_trip_is_exhaustive():
    for initial in BellLabel:
        for secrets in all_secret_assignments(Protocol.NBA):
            record = run_nba(secrets, initial)
            assert record.transcript.announced[0] is initial
            assert record.decoded[0] == {1: secrets.others[0]}
            assert record.decoded[1] == {0: secrets.alice}


def test_nba_consistent_pairs_match_frozen_table():
    """The four-possibility sets per final result from initial psi+,
    ordered by alice's bits (frozen from the oracle run)."""
    rows = {
        BellLabel.PHI_PLUS: (((0, 0), (0, 1)), ((0, 1), (0, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 0))),
        BellLabel.PHI_MINUS: (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (0, 0)), ((1, 1), (0, 1))),
        BellLabel.PSI_PLUS: (((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 1))),
        BellLabel.PSI_MINUS: (((0, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 0))),
    }
    for final, expected in rows.items():
        assert nba_consistent_pairs(BellLabel.PSI_PLUS, final) == expected


def test_run_nba_rejects_wrong_protocol():
    with pytest.raises(ValueError):
        run_nba(jz_secrets(0, 0), BellLabel.PSI_PLUS)


# --- JZ ----------------------------------------------------------------


def test_jz_outcome_worked_examples():
    # single flip shows, double flip cancels
    assert jz_outcome_label(0, 1, "+") == "-"
    assert jz_outcome_label(1, 0, "+") == "-"
    assert jz_outcome_label(1, 1, "1") == "1"
    assert jz_outcome_label(0, 0, "0") == "0"
    assert jz_outcome_label(1, 0, "-") == "+"


def test_jz_decode_worked_examples_and_errors():
    assert jz_decode(1, "1", "1") == 1
    assert jz_decode(0, "1", "1") == 0
    assert jz_decode(0, "+", "-") == 1
    with pytest.raises(TranscriptError):
        jz_decode(0, "0", "+")
    with pytest.raises(ValueError):
        jz_decode(2, "0", "0")


def test_jz_round_trip_is_exhaustive():
    for initial in ("0", "1", "+", "-"):
        for secrets in all_secret_assignments(Protocol.JZ):
            record = run_jz(secrets, initial)
            assert record.transcript.announced == (
                initial,
                jz_outcome_label(secrets.alice[0], secrets.others[0][0], initial),
            )
            assert record.decoded[0] == {1: secrets.others[0]}
            assert record.decoded[1] == {0: secrets.alice}


# --- MXN: encoding map -------------------------------------------------


def test_ghz_after_ops_worked_examples():
    assert ghz_after_ops((PauliOp.I, PauliOp.I, PauliOp.I)) == GhzLabel(0, (0, 0))
    assert ghz_after_ops((PauliOp.I, PauliOp.I, PauliOp.ISY)) == GhzLabel(1, (0, 1))
    assert ghz_after_ops((PauliOp.SX, PauliOp.ISY, PauliOp.I)) == GhzLabel(1, (0, 1))
    assert ghz_after_ops((PauliOp.SZ, PauliOp.I)) == GhzLabel(1, (0,))


def test_ghz_after_ops_validates_alphabet_and_arity():
    with pytest.raises(ValueError):
        ghz_after_ops((PauliOp.I,))
    with pytest.raises(ValueError):
        ghz_after_ops((PauliOp.I,) * 7)
    with pytest.raises(ValueError):
        ghz_after_ops((PauliOp.I, PauliOp.SX, PauliOp.I))


@pytest.mark.parametrize("parties", [2, 3, 4, 5])
def test_encoding_map_is_two_to_one(parties):
    """Each label has exactly two encodings.  Their secret bits differ
    everywhere when the party count is odd; an even count shares party 0's
    second bit (only isy on every qubit fixes the GHZ rays then).  Every
    party still sees its own bits differ, so decoding stays unambiguous."""
    partner_xor = [1, 0] if parties % 2 == 0 else [1, 1]
    partner_xor += [1] * (parties - 1)
    seen = {}
    count = 0
    for secrets in all_secret_assignments(Protocol.MXN, parties):
        label = ghz_after_ops(mxn_ops_for_secrets(secrets))
        seen.setdefault(label, []).append(secrets)
        count += 1
    assert count == 2 ** (parties + 1)
    assert len(seen) == 2**parties
    for label, group in seen.items():
        assert len(group) == 2
        first = [b for bits in group[0].full_bits for b in bits]
        second = [b for bits in group[1].full_bits for b in bits]
        assert [x ^ y for x, y in zip(first, second)] == partner_xor
        # own-bits filter stays decisive for every party
        for party in range(parties):
            assert group[0].party_bits(party) != group[1].party_bits(party)


def test_op_tuples_for_label_inverts_the_encoding():
    for label in all_ghz_labels(3):
        tuples = op_tuples_for_label(label)
        assert len(tuples) == 2
        for ops in tuples:
            assert ghz_after_ops(ops) == label
            assert mxn_ops_for_secrets(mxn_secrets_for_ops(ops)) == ops


# --- MXN: swapping and deduction ---------------------------------------


def test_paired_distribution_matches_index_oracle():
    """Derived case (frozen): the doubled ghz_101 state reaches exactly 8
    outcome tuples, each of probability 1/8; the raw-index oracle agrees
    tuple by tuple."""
    label = GhzLabel(1, (0, 1))
    state = tensor(ghz_state(GhzLabel(0, (0, 0))), ghz_state(label))
    dist = paired_bell_distribution(state)
    assert len(dist) == 8
    for outcome, prob in dist.items():
        assert prob == pytest.approx(0.125, abs=ATOL)
        assert prob == pytest.approx(oracle_joint_bell_prob(state, outcome), abs=ATOL)
        assert paired_bell_probability(state, outcome) == pytest.approx(prob, abs=ATOL)
    # an unreachable tuple has zero probability under both routes
    unreachable = next(
        t
        for t in itertools.product(list(BellLabel), repeat=3)
        if t not in dist
    )
    assert paired_bell_probability(state, unreachable) == 0.0
    assert oracle_joint_bell_prob(state, unreachable) == pytest.approx(0.0, abs=ATOL)


def test_deduce_identifies_the_label_behind_every_reachable_tuple():
    for label in all_ghz_labels(3):
        state = tensor(ghz_state(GhzLabel(0, (0, 0))), ghz_state(label))
        for outcome in paired_bell_distribution(state):
            assert deduce_ghz_from_bells(outcome) == {label}


def test_deduce_two_party_case():
    assert deduce_ghz_from_bells((BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)) == {
        GhzLabel(0, (0,))
    }


def test_deduce_validates_input():
    with pytest.raises(TranscriptError):
        deduce_ghz_from_bells((BellLabel.PHI_PLUS,))
    with pytest.raises(TranscriptError):
        deduce_ghz_from_bells((BellLabel.PHI_PLUS,) * 7)
    with pytest.raises(TranscriptError):
        deduce_ghz_from_bells(("phi+", "phi+"))


# --- MXN: full runs ----------------------------------------------------


def test_run_mxn_worked_example_is_reproducible():
    secrets = mxn_secrets("00", [0, 1])
    first = run_mxn(secrets, make_rng(7))
    second = run_mxn(secrets, make_rng(7))
    assert first == second
    assert len(first.transcript.announced) == 3
    assert deduce_ghz_from_bells(first.transcript.announced) == {GhzLabel(1, (0, 1))}
    assert first.decoded[0] == {1: (0,), 2: (1,)}
    assert first.decoded[1] == {0: (0, 0), 2: (1,)}
    assert first.decoded[2] == {0: (0, 0), 1: (0,)}


def test_run_mxn_decodes_correctly_across_seeds():
    for secrets in all_secret_assignments(Protocol.MXN, 3):
        for seed in range(5):
            record = run_mxn(secrets, make_rng(seed))
            for party in range(3):
                expected = {
                    j: secrets.party_bits(j) for j in range(3) if j != party
                }
                assert record.decoded[party] == expected


def test_run_mxn_transcripts_follow_the_exact_distribution():
    secrets = mxn_secrets("10", [1, 0])
    dist = paired_bell_distribution(mxn_encoded_state(secrets))
    rng = make_rng(99)
    counts = {}
    for _ in range(400):
        announced = run_mxn(secrets, rng).transcript.announced
        counts[announced] = counts.get(announced, 0) + 1
    assert set(counts) <= set(dist)
    # 400 draws over 8 equiprobable outcomes: expect 50 per cell, 5 sigma ~ 33
    for outcome in dist:
        assert abs(counts.get(outcome, 0) - 50) < 34


def test_run_mxn_rejects_bad_party_counts():
    with pytest.raises(ValueError):
        run_mxn(mxn_secrets("00", [0]), make_rng(0))


def test_mxn_decode_rejects_impossible_own_bits():
    record = run_mxn(mxn_secrets("00", [0, 1]), make_rng(7))
    with pytest.raises(TranscriptError):
        mxn_decode(0, (0, 1), record.transcript)
    with pytest.raises(ValueError):
        mxn_decode(5, (0, 0), record.transcript)
    with pytest.raises(TranscriptError):
        mxn_decode(0, (0, 0), Transcript(Protocol.NBA, (BellLabel.PSI_PLUS,) * 2))


def test_mxn_encoded_state_carries_the_secret_label():
    secrets = mxn_secrets("00", [0, 1])
    state = mxn_encoded_state(secrets)
    expected = tensor(ghz_state(GhzLabel(0, (0, 0))), ghz_state(GhzLabel(1, (0, 1))))
    assert equal_up_to_phase(state, expected)
