"""Protocol tests: coding alphabets, transcripts, decoding, swapping."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdleak import protocols
from qdleak.leakage import eve_posterior, leakage_report
from qdleak.protocols import (
    ANNOUNCED_SYMBOLS,
    ANNOUNCED_TEXTS,
    MXN_PARTIES,
    Protocol,
    RunRecord,
    SecretAssignment,
    Transcript,
    TranscriptError,
    _cosets,
    _label_code,
    _tuple_weight,
    all_secret_assignments,
    alphabet_syndromes,
    as_bits,
    bits_to_str,
    coding_ops,
    deduce_ghz_from_bells,
    ghz_after_ops,
    jz_decode,
    jz_outcome_label,
    jz_secrets,
    mxn_decode,
    mxn_encoded_state,
    mxn_label,
    mxn_secrets,
    named_coset,
    nba_decode,
    nba_final_label,
    nba_secrets,
    otp_secrets,
    paired_bell_distribution,
    paired_bell_probability,
    run_jz,
    run_mxn,
    run_nba,
)
from qdleak.qstate import (
    ATOL,
    KET_LABELS,
    BellLabel,
    GhzLabel,
    PauliOp,
    all_ghz_labels,
    apply_pauli,
    bell_state,
    equal_up_to_phase,
    ghz_state,
    ket,
    make_rng,
    project_bell,
    tensor,
)

from channel_reference import (
    _label_row,
    channel_column,
    channel_row,
    exact_mxn_law,
    label_code,
    mxn_row,
)

BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def basis_labels_of(label):
    """The measurement-basis label pair a ket label belongs to."""
    return ("0", "1") if label in ("0", "1") else ("+", "-")


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: GhzLabel(0, (True, False)),
        lambda: GhzLabel(True, (0,)),
        lambda: GhzLabel(0, (np.True_, 0)),
        lambda: SecretAssignment(Protocol.MXN, (True, 0), ((1,), (0,))),
        lambda: SecretAssignment(Protocol.MXN, (1, 0), ((1,), (False,))),
        lambda: SecretAssignment(Protocol.NBA, (0, 1), ((np.False_, 1),)),
        lambda: SecretAssignment(Protocol.JZ, (1.0,), ((0,),)),
        lambda: mxn_secrets("00", [True, 0]),
        lambda: mxn_secrets("00", [np.True_, 0]),
        lambda: mxn_secrets("00", [1.0, 0]),
        lambda: as_bits(3, 2),
        lambda: nba_secrets(3, "00"),
        lambda: SecretAssignment(Protocol.NBA, (0, 1), (5,)),
        lambda: jz_secrets(2, 0),
        lambda: SecretAssignment(Protocol.JZ, (0,), 1),
        lambda: mxn_secrets("00", 5),
        lambda: SecretAssignment(Protocol.NBA, "00", None),
    ],
)
def test_bit_fields_reject_bools(build):
    """A bool or a float equals 0 or 1 but renders as True/False or 1.0 in
    labels and bit strings, so bit fields refuse it.  A bare value where a
    party's bit sequence, or the other parties, belong is the same
    ValueError, not a TypeError from iterating it."""
    with pytest.raises(ValueError) as exc:
        build()
    assert exc.type is ValueError


def test_secret_assignment_reads_strings_and_names_the_party():
    """Every party's bits go through as_bits, so an assignment takes the
    same "01" strings the helpers take, from any iterable of parties, and a
    bits error names the party it is about.  One string for the parties is
    party 1's bits, as a bare value is, not one party per character."""
    assert SecretAssignment(Protocol.NBA, "10", iter(["01"])) == nba_secrets("10", "01")
    assert SecretAssignment(Protocol.MXN, "00", ("0", "1")) == mxn_secrets("00", [0, 1])
    assert SecretAssignment(Protocol.JZ, "1", ["0"]) == jz_secrets(1, 0)
    assert SecretAssignment(Protocol.NBA, "00", "01").others == ((0, 1),)
    assert SecretAssignment(Protocol.JZ, "1", "0") == jz_secrets(1, 0)
    assert mxn_secrets("00", "01") == mxn_secrets("00", [0, 1])
    with pytest.raises(ValueError, match=r"^party 1 needs 1 bit for mxn, got '01'$"):
        SecretAssignment(Protocol.MXN, "00", "01")
    assert all(type(b) is int for b in mxn_secrets(np.array([1, 0]), np.array([1])).alice)
    with pytest.raises(ValueError, match=r"^party 1 needs 2 bits for nba, got '111'$"):
        nba_secrets("01", "111")
    with pytest.raises(ValueError, match=r"^party 0 needs 2 bits for mxn, got '1'$"):
        mxn_secrets("1", [0, 1])
    with pytest.raises(ValueError, match=r"^party 2 needs 1 bit for mxn, got '01'$"):
        mxn_secrets("00", [0, "01"])
    with pytest.raises(ValueError, match=r"^party 1 needs 1 bit for mxn, got 5$"):
        mxn_secrets("00", 5)
    with pytest.raises(ValueError, match=r"^party 1 needs 2 bits for nba, got None$"):
        SecretAssignment(Protocol.NBA, "00", None)


def test_announced_texts_spell_the_announced_symbols():
    for protocol, symbols in ANNOUNCED_SYMBOLS.items():
        texts = ANNOUNCED_TEXTS[protocol]
        assert texts == tuple(getattr(s, "text", s) for s in symbols)
        assert list(texts) == sorted(texts)
    assert ANNOUNCED_TEXTS[Protocol.NBA] == ("phi+", "phi-", "psi+", "psi-")
    assert set(ANNOUNCED_TEXTS[Protocol.JZ]) == set(KET_LABELS)


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
    for protocol, bad in ((Protocol.NBA, 5), (Protocol.MXN, None)):
        with pytest.raises(TranscriptError, match="bad .* announcement"):
            Transcript(protocol, bad)


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


class _Symbol(str):
    pass


@pytest.mark.parametrize("make", [_Symbol, np.str_])
def test_transcript_holds_the_alphabets_own_symbols(make):
    """A symbol equal to one of the alphabet's but another object, a str
    subclass or a numpy string, is stored as the alphabet's own object;
    one equal to none is still refused."""
    for protocol in (Protocol.JZ, Protocol.OTP):
        alphabet = ANNOUNCED_SYMBOLS[protocol]
        for symbol in alphabet:
            passed = make(symbol)
            assert passed is not symbol
            announced = Transcript(protocol, (passed, passed)).announced
            assert all(x is symbol for x in announced)
        with pytest.raises(TranscriptError, match="bad"):
            Transcript(protocol, (make("2"), alphabet[0]))


def _runs(protocol):
    """(secrets, transcript) of every run: nba and jz from every initial
    label or ket, otp under both key bits, mxn at every count and seeds
    0..2."""
    if protocol is Protocol.NBA:
        for secrets, initial in itertools.product(all_secret_assignments(protocol), BellLabel):
            yield secrets, run_nba(secrets, initial).transcript
    elif protocol is Protocol.JZ:
        for secrets, initial in itertools.product(all_secret_assignments(protocol), KET_LABELS):
            yield secrets, run_jz(secrets, initial).transcript
    elif protocol is Protocol.OTP:
        for secrets, key in itertools.product(all_secret_assignments(protocol), (0, 1)):
            cipher = (str(secrets.alice[0] ^ key), str(secrets.others[0][0] ^ key))
            yield secrets, Transcript(protocol, cipher)
    else:
        for n, seed in itertools.product(MXN_PARTIES, range(3)):
            for secrets in all_secret_assignments(protocol, n):
                yield secrets, run_mxn(secrets, make_rng(seed)).transcript


@pytest.mark.parametrize(
    "protocol, runs",
    [(Protocol.NBA, 64), (Protocol.JZ, 16), (Protocol.OTP, 8), (Protocol.MXN, 3 * 240)],
)
def test_every_run_transcript_is_in_its_own_column(protocol, runs):
    """The code a run's transcript names (the tuple side of the channel) is
    the code its secrets publish (the assignment side): every run's
    secrets are in its transcript's column."""
    seen = 0
    for secrets, transcript in _runs(protocol):
        assert secrets in channel_column(transcript)
        seen += 1
    assert seen == runs


@pytest.mark.parametrize(
    "protocol, parties",
    [
        (Protocol.NBA, 2),
        (Protocol.JZ, 2),
        (Protocol.OTP, 2),
        (Protocol.MXN, 3),
        (Protocol.MXN, 4),
        (Protocol.MXN, 5),
        (Protocol.MXN, 6),
    ],
)
def test_channel_column_is_the_row_column(protocol, parties):
    """For every tuple of the announced alphabet, the column lists exactly
    the assignments whose row holds the tuple, at the row's probability,
    float for float: both read the same table."""
    symbols = ANNOUNCEMENTS[protocol][2]
    rows = {s: channel_row(s) for s in all_secret_assignments(protocol, parties)}
    for row in rows.values():
        assert sum(row.values()) == pytest.approx(1.0, abs=ATOL)
    for announced in itertools.product(symbols, repeat=parties):
        want = {s: row[announced] for s, row in rows.items() if announced in row}
        assert channel_column(Transcript(protocol, announced)) == want


@pytest.mark.parametrize(
    "protocol, parties",
    [
        (Protocol.NBA, 2),
        (Protocol.JZ, 2),
        (Protocol.OTP, 2),
        (Protocol.MXN, 3),
        (Protocol.MXN, 4),
        (Protocol.MXN, 5),
        (Protocol.MXN, 6),
    ],
)
def test_alphabet_syndromes_are_the_named_cosets(protocol, parties):
    """Entry i of the alphabet walk is the code the i-th tuple of the
    alphabet names: the syndrome of the coset it names, at the protocol's
    weight, or a code with no coset where no assignment produces the tuple,
    which happens only on jz's eight tuples leaving the preparation
    basis."""
    tuples = list(itertools.product(ANNOUNCED_SYMBOLS[protocol], repeat=parties))
    codes = alphabet_syndromes(protocol, parties)
    cosets = _cosets(protocol, parties)
    weight = _tuple_weight(protocol, parties)
    assert len(codes) == len(tuples)
    unnamed = []
    for announced, code in zip(tuples, codes):
        want = named_coset(Transcript(protocol, announced))
        if want is None:
            assert code not in cosets
            unnamed.append(announced)
        else:
            assert want == (code, cosets[code], weight)
    if protocol is Protocol.JZ:
        assert len(unnamed) == 8
        assert all(outcome not in basis_labels_of(initial) for initial, outcome in unnamed)
    else:
        assert unnamed == []


@pytest.mark.parametrize(
    "protocol, parties",
    [
        (Protocol.NBA, 2),
        (Protocol.JZ, 2),
        (Protocol.OTP, 2),
        (Protocol.MXN, 3),
        (Protocol.MXN, 4),
        (Protocol.MXN, 5),
        (Protocol.MXN, 6),
    ],
)
def test_cosets_list_their_assignments_in_lexicographic_order(protocol, parties):
    """The cosets partition the assignments, and each one is a subsequence
    of ``all_secret_assignments``: a column lists its coset in that
    order."""
    assignments = all_secret_assignments(protocol, parties)
    positions = [
        [assignments.index(s) for s in coset]
        for coset in _cosets(protocol, parties).values()
    ]
    for coset in positions:
        assert coset == sorted(coset)
    assert sorted(itertools.chain.from_iterable(positions)) == list(range(len(assignments)))


@pytest.mark.parametrize("protocol", list(Protocol))
def test_protocol_hashes_by_identity(protocol):
    """Members are singletons compared by identity, so the C-level identity
    hash agrees with ==: a member parsed from its text is the member, hashes
    alike, and finds the cached tables keyed by it."""
    assert Protocol.__hash__ is object.__hash__
    parsed = Protocol(protocol.text)
    assert parsed is protocol
    assert hash(parsed) == hash(protocol)
    for other in Protocol:
        assert (other == protocol) == (other is protocol)
        assert (hash(other) == hash(protocol)) == (other is protocol)
    parties = 3 if protocol is Protocol.MXN else 2
    table = _cosets(protocol, parties)
    hits = _cosets.cache_info().hits
    assert _cosets(parsed, parties) is table
    assert _cosets.cache_info().hits == hits + 1


@pytest.mark.parametrize("parties", range(2, 7))
def test_label_code_is_the_bitwise_formula(parties):
    """The XOR of the term table's terms is the label read bit by bit."""
    for outcomes in itertools.product(BellLabel, repeat=parties):
        assert _label_code(Protocol.MXN, outcomes) == label_code(outcomes)


# --- coding alphabets --------------------------------------------------


# The README's coding alphabets, in bit order 00, 01, 10, 11 (or 0, 1).
NBA_OPS = (PauliOp.I, PauliOp.SX, PauliOp.ISY, PauliOp.SZ)
MXN_PARTY0_OPS = (PauliOp.I, PauliOp.SZ, PauliOp.ISY, PauliOp.SX)
FLIP_OPS = (PauliOp.I, PauliOp.ISY)


def test_two_bit_alphabets_differ_as_documented():
    for (i, a), (j, b) in itertools.product(enumerate(BIT_PAIRS), repeat=2):
        assert coding_ops(nba_secrets(a, b)) == (NBA_OPS[i], NBA_OPS[j])
        assert coding_ops(mxn_secrets(a, b)) == (
            MXN_PARTY0_OPS[i],
            FLIP_OPS[b[0]],
            FLIP_OPS[b[1]],
        )
    for a, b in itertools.product((0, 1), repeat=2):
        assert coding_ops(jz_secrets(a, b)) == (FLIP_OPS[a], FLIP_OPS[b])


def test_otp_has_no_coding_ops():
    with pytest.raises(ValueError) as exc:
        coding_ops(otp_secrets(0, 1))
    assert exc.type is ValueError


def test_bell_ops_are_the_engine_operations():
    """The i-th operation takes phi+ on a pair's second qubit to the i-th
    Bell label and + to the ket of i's low bit.  The one-bit coding moves
    a 0/1 ket as it moves a +/- one, which jz's basis-free code needs."""
    bell_ops = protocols._BELL_OPS
    assert len(set(bell_ops)) == len(bell_ops) == len(PauliOp)
    phi_plus = bell_state(BellLabel.PHI_PLUS)
    for label, op in zip(BellLabel, bell_ops, strict=True):
        assert equal_up_to_phase(apply_pauli(phi_plus, 1, op), bell_state(label))
    for index, op in enumerate(bell_ops):
        assert equal_up_to_phase(apply_pauli(ket("+"), 0, op), ket("+-"[index & 1]))
    for op in protocols._FLIP_OPS.values():
        flip = bell_ops.index(op) & 1
        for basis in ("01", "+-"):
            for index, label in enumerate(basis):
                assert equal_up_to_phase(apply_pauli(ket(label), 0, op), ket(basis[index ^ flip]))


@pytest.mark.parametrize(
    "protocol, parties",
    [(Protocol.NBA, 2), (Protocol.JZ, 2), *((Protocol.MXN, n) for n in range(2, 7))],
)
def test_public_syndrome_is_the_code_of_the_coded_symbols(protocol, parties):
    """Every assignment's code, which _secret_terms reads off its unit bits
    alone, is the code of the symbols its whole coding makes of phi+ or +,
    one per party: the coding tables are linear, their other entries too."""
    symbols, mask = ANNOUNCED_SYMBOLS[protocol], 0b01 if protocol is Protocol.JZ else 0b11
    for secrets in all_secret_assignments(protocol, parties):
        coded = [symbols[protocols._BELL_OPS.index(op) & mask] for op in coding_ops(secrets)]
        assert protocols._public_syndrome(secrets) == _label_code(protocol, coded)


@pytest.mark.parametrize("bit", [2, "1", True, -1])
def test_one_bit_secrets_reject_non_bits(bit):
    """A one-bit party's bit reaches the coding table only through an
    assignment, which refuses anything but the ints 0 and 1.  mxn also
    takes a party's bits as a string, so the bare value goes in a list."""
    for call in (
        lambda: jz_secrets(bit, 0),
        lambda: jz_secrets(0, bit),
        lambda: mxn_secrets("00", [[bit], 0]),
        lambda: jz_decode(bit, "0", "1"),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert exc.type is ValueError


# --- NBA ---------------------------------------------------------------


def engine_nba_final_label(alice, bob, initial):
    """Engine reference: encode bob's then alice's bits on qubit 1 of the
    initial Bell pair and measure in the Bell basis; the alphabet maps Bell
    rays to Bell rays, so exactly one outcome has probability 1."""
    alice_op, bob_op = coding_ops(nba_secrets(alice, bob))
    state = bell_state(initial)
    state = apply_pauli(state, 1, bob_op)
    state = apply_pauli(state, 1, alice_op)
    outcomes = project_bell(state, (0, 1))
    if len(outcomes) != 1 or abs(outcomes[0].probability - 1.0) > ATOL:
        raise RuntimeError(f"nba final measurement not deterministic: {outcomes!r}")
    return outcomes[0].label


def engine_jz_outcome_label(alice, bob, initial):
    """Engine reference: encode bob's then alice's flip on the initial ket
    and measure in its preparation basis, which must give one outcome with
    probability 1."""
    alice_op, bob_op = coding_ops(jz_secrets(alice, bob))
    state = ket(initial)
    state = apply_pauli(state, 0, bob_op)
    state = apply_pauli(state, 0, alice_op)
    for candidate in basis_labels_of(initial):
        prob = float(abs(np.vdot(ket(candidate).amplitudes, state.amplitudes)) ** 2)
        if abs(prob - 1.0) <= ATOL:
            return candidate
    raise RuntimeError("jz measurement not deterministic")


def test_nba_final_label_is_the_engine_measurement():
    for alice, bob, initial in itertools.product(BIT_PAIRS, BIT_PAIRS, BellLabel):
        assert nba_final_label(alice, bob, initial) is engine_nba_final_label(
            alice, bob, initial
        )


def test_jz_outcome_label_is_the_engine_measurement():
    for alice, bob, initial in itertools.product((0, 1), (0, 1), KET_LABELS):
        assert jz_outcome_label(alice, bob, initial) == engine_jz_outcome_label(
            alice, bob, initial
        )


PSI_PLUS = BellLabel.PSI_PLUS


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: nba_decode((0, 0), "psi+", PSI_PLUS), TranscriptError),
        (lambda: nba_final_label((0, 0), (0, 1), "psi+"), TranscriptError),
        (lambda: named_coset(Transcript(Protocol.NBA, (PSI_PLUS, "phi-"))), TranscriptError),
        (lambda: nba_final_label((0, 2), (0, 1), PSI_PLUS), ValueError),
        (lambda: nba_decode((True, 0), PSI_PLUS, BellLabel.PHI_PLUS), ValueError),
        (lambda: nba_final_label((True, 0), (0, 1), PSI_PLUS), ValueError),
        (lambda: jz_outcome_label(0, 2, "0"), ValueError),
        (lambda: jz_outcome_label(True, 0, "0"), ValueError),
        (lambda: jz_outcome_label(0, 1, "x"), ValueError),
        (lambda: jz_outcome_label(0, 1, BellLabel.PHI_PLUS), ValueError),
        (lambda: jz_decode(True, "0", "1"), ValueError),
        (lambda: jz_decode(0, "x", "1"), TranscriptError),
        (lambda: run_jz(nba_secrets("00", "00"), "0"), ValueError),
    ],
)
def test_two_party_helpers_reject_malformed_input(call, error):
    """A non-Bell label, or a decoded ket that is not one, is a corrupted
    transcript; a non-bit, bools included, an unknown initial ket or
    another protocol's secrets is a plain ValueError."""
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is error


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


def test_named_nba_cosets_match_frozen_table():
    """The four (alice, bob) possibilities per final result from initial
    psi+, ordered by alice's bits (frozen from the oracle run)."""
    rows = {
        BellLabel.PHI_PLUS: (((0, 0), (0, 1)), ((0, 1), (0, 0)), ((1, 0), (1, 1)), ((1, 1), (1, 0))),
        BellLabel.PHI_MINUS: (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (0, 0)), ((1, 1), (0, 1))),
        BellLabel.PSI_PLUS: (((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 0)), ((1, 1), (1, 1))),
        BellLabel.PSI_MINUS: (((0, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 0))),
    }
    for final, expected in rows.items():
        _, coset, _ = named_coset(Transcript(Protocol.NBA, (BellLabel.PSI_PLUS, final)))
        assert tuple((secrets.alice, secrets.others[0]) for secrets in coset) == expected


def test_every_run_and_decoder_reads_the_coset_once(monkeypatch):
    """Runs and public decoders of all three protocols share one decoder,
    which each calls once."""
    calls = []
    coset_decode = protocols._coset_decode

    def counting(transcript, owns):
        calls.append(transcript.protocol)
        return coset_decode(transcript, owns)

    monkeypatch.setattr(protocols, "_coset_decode", counting)
    nba = run_nba(nba_secrets("01", "11"), BellLabel.PSI_PLUS)
    jz = run_jz(jz_secrets(0, 1), "+")
    mxn = run_mxn(mxn_secrets("10", [1, 0]), make_rng(0))
    assert calls == [Protocol.NBA, Protocol.JZ, Protocol.MXN]
    assert nba_decode((0, 1), *nba.transcript.announced) == (1, 1)
    assert jz_decode(0, *jz.transcript.announced) == 1
    assert mxn_decode(1, (1,), mxn.transcript) == {0: (1, 0), 2: (0,)}
    assert calls == [Protocol.NBA, Protocol.JZ, Protocol.MXN] * 2


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
        label = ghz_after_ops(coding_ops(secrets))
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
            assert group[0].full_bits[party] != group[1].full_bits[party]


@pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
def test_mxn_label_is_the_engine_encoding(parties):
    for secrets in all_secret_assignments(Protocol.MXN, parties):
        assert mxn_label(secrets) == ghz_after_ops(coding_ops(secrets))


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mxn_label(nba_secrets("00", "00")), "needs MXN secrets"),
        (lambda: paired_bell_probability(ket("000"), [BellLabel.PHI_PLUS]), "N labels"),
        (lambda: paired_bell_probability(ket("0000"), [BellLabel.PHI_PLUS] * 3), "N labels"),
        (lambda: paired_bell_distribution(ket("000")), "even number of qubits"),
    ],
)
def test_mxn_helpers_reject_malformed_input(call, message):
    """Another protocol's secrets, or a state and outcomes that are not 2N
    qubits and N labels, are a plain ValueError."""
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert exc.type is ValueError


def test_deduce_identifies_the_label_behind_every_reachable_tuple():
    """The engine walk of each label's doubled state reaches a set of
    tuples; the deduction names that label for each of them, and at every
    party count the sets of all labels cover every tuple."""
    for parties in range(2, 6):
        home = ghz_state(GhzLabel(0, (0,) * (parties - 1)))
        reached = 0
        for label in all_ghz_labels(parties):
            for outcome in paired_bell_distribution(tensor(home, ghz_state(label))):
                assert deduce_ghz_from_bells(outcome) == {label}
                reached += 1
        assert reached == 4**parties


@pytest.mark.parametrize("parties", range(2, 7))
def test_deduce_hands_out_the_shared_label(parties):
    """Every tuple names the label its XOR formula gives, as the very
    object all_ghz_labels holds."""
    shared = all_ghz_labels(parties)
    for outcome in itertools.product(BellLabel, repeat=parties):
        (label,) = deduce_ghz_from_bells(outcome)
        psi = [int(b.text.startswith("psi")) for b in outcome]
        minus = [int(b.text.endswith("-")) for b in outcome]
        assert label == GhzLabel(sum(minus) % 2, tuple(p ^ psi[0] for p in psi[1:]))
        assert any(label is candidate for candidate in shared)


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
    with pytest.raises(TranscriptError):
        deduce_ghz_from_bells((BellLabel.PHI_PLUS, BellLabel.PSI_MINUS, "psi-"))
    with pytest.raises(TranscriptError):
        deduce_ghz_from_bells((BellLabel.PHI_PLUS, None, BellLabel.PHI_PLUS))
    with pytest.raises(TranscriptError, match="bad mxn announcement 5"):
        deduce_ghz_from_bells(5)


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
                    j: secrets.full_bits[j] for j in range(3) if j != party
                }
                assert record.decoded[party] == expected


def engine_replay_announced(secrets, rng):
    """Reference sampler: collapse the encoded state pair by pair with the
    engine's Bell projection, one rng.random() per pair, taking the first
    branch whose running probability exceeds the draw (else the last)."""
    n = secrets.num_parties
    state = mxn_encoded_state(secrets)
    labels = []
    for step in range(n):
        outcomes = project_bell(state, (0, n - step))
        u = rng.random()
        acc = 0.0
        chosen = outcomes[-1]
        for branch in outcomes:
            acc += branch.probability
            if u < acc:
                chosen = branch
                break
        labels.append(chosen.label)
        state = chosen.state
    return tuple(labels)


@pytest.mark.parametrize("parties, seeds", [(3, 5), (4, 5), (5, 2), (6, 2)])
def test_run_mxn_replays_the_engine_collapse(parties, seeds):
    """run_mxn samples its GHZ label's law by GF(2) arithmetic; it must
    announce what the engine's branch-by-branch collapse announces for the
    same seed, use the same draws, and decode the true bits for every
    party."""
    for secrets in all_secret_assignments(Protocol.MXN, parties):
        for seed in range(seeds):
            rng, reference_rng = make_rng(seed), make_rng(seed)
            record = run_mxn(secrets, rng)
            assert record.transcript.announced == engine_replay_announced(
                secrets, reference_rng
            )
            assert rng.random() == reference_rng.random()
            for party in range(parties):
                assert record.decoded[party] == {
                    j: secrets.full_bits[j] for j in range(parties) if j != party
                }


def table_thresholds(branches, pair):
    """The table sampler's cumulative thresholds for ``pair``, given the
    branches kept so far: the pair's conditional law in BellLabel order,
    normalized, skipping labels of probability at most ATOL / 4."""
    marginal = dict.fromkeys(BellLabel, 0.0)
    for outcomes, prob in branches:
        marginal[outcomes[pair]] += prob
    total = sum(marginal.values())
    thresholds = []
    acc = 0.0
    for bell, prob in marginal.items():
        prob /= total
        if prob <= ATOL / 4:
            continue
        acc += prob
        thresholds.append((bell, acc))
    return thresholds


def table_sampled_run(secrets, rng):
    """Reference run: sample from the label's engine walk (_label_row)
    pair by pair, one rng.random() per pair against the table sampler's
    thresholds, falling back to the last label kept; then every party
    decodes with mxn_decode."""
    n = secrets.num_parties
    branches = list(_label_row(mxn_label(secrets)).items())
    for pair in range(n):
        thresholds = table_thresholds(branches, pair)
        u = rng.random()
        chosen = next((bell for bell, acc in thresholds if u < acc), thresholds[-1][0])
        branches = [(outcomes, p) for outcomes, p in branches if outcomes[pair] is chosen]
    transcript = Transcript(Protocol.MXN, branches[0][0])
    decoded = tuple(
        mxn_decode(party, secrets.full_bits[party], transcript) for party in range(n)
    )
    return RunRecord(secrets, transcript, decoded)


BELL_FOR_BITS = {
    (0, 0): BellLabel.PHI_PLUS,
    (0, 1): BellLabel.PHI_MINUS,
    (1, 0): BellLabel.PSI_PLUS,
    (1, 1): BellLabel.PSI_MINUS,
}
BITS_FOR_BELL = {bell: bits for bits, bell in BELL_FOR_BITS.items()}


def gf2_thresholds(label, prefix):
    """The law run_mxn samples for the pair after ``prefix``, as cumulative
    thresholds: pair 0 any label at 1/4; a middle pair psi_0 ^ y_i with
    either minus bit at 1/2; the last pair the one label whose minus bit
    makes all minus bits XOR to x."""
    n, pair = label.num_qubits, len(prefix)
    if pair == 0:
        return [(BELL_FOR_BITS[bits], (i + 1) / 4) for i, bits in enumerate(BIT_PAIRS)]
    psi = BITS_FOR_BELL[prefix[0]][0] ^ label.y[pair - 1]
    if pair < n - 1:
        return [(BELL_FOR_BITS[psi, 0], 0.5), (BELL_FOR_BITS[psi, 1], 1.0)]
    minus = label.x
    for bell in prefix:
        minus ^= BITS_FOR_BELL[bell][1]
    return [(BELL_FOR_BITS[psi, minus], 1.0)]


@pytest.mark.parametrize("parties", MXN_PARTIES)
def test_table_thresholds_are_the_gf2_law(parties):
    """For every label and every reachable prefix, the table sampler's
    thresholds are exactly the GF(2) law's, so its fallback never fires
    and both samplers make the same draw."""
    for label in all_ghz_labels(parties):
        pending = [((), list(_label_row(label).items()))]
        while pending:
            prefix, branches = pending.pop()
            if len(prefix) == parties:
                continue
            thresholds = table_thresholds(branches, len(prefix))
            assert thresholds == gf2_thresholds(label, prefix)
            for bell, _ in thresholds:
                kept = [(o, p) for o, p in branches if o[len(prefix)] is bell]
                pending.append(((*prefix, bell), kept))


@pytest.mark.parametrize("parties", MXN_PARTIES)
def test_run_mxn_is_the_table_sampler(parties):
    """Every assignment x seeds 0..49: the same RunRecord as the table
    sampler, and the generator left at the same state."""
    for secrets in all_secret_assignments(Protocol.MXN, parties):
        for seed in range(50):
            rng, reference_rng = make_rng(seed), make_rng(seed)
            assert run_mxn(secrets, rng) == table_sampled_run(secrets, reference_rng)
            assert rng.random() == reference_rng.random()


def _gate_line(secrets, seed):
    record = run_mxn(secrets, make_rng(seed))
    announced = " ".join(label.text for label in record.transcript.announced)
    decoded = ";".join(
        ",".join(f"{j}:{bits_to_str(bits)}" for j, bits in sorted(d.items()))
        for d in record.decoded
    )
    others = bits_to_str(bits[0] for bits in secrets.others)
    return f"{bits_to_str(secrets.alice)} {others} {seed} | {announced} | {decoded}\n"


# sha256 of the 4,800 runs' transcripts and decoded bits, one _gate_line per
# run, in MXN_PARTIES x all_secret_assignments x seed order.
RUN_GATE_SHA256 = "7cd55593e0f045c89ed857f85b1d7f2ff8ed46a8c6f01e43ae1924c0bef4bbed"


def test_run_mxn_gate_bytes():
    """Every assignment x seeds 0..19 at N=3..6 announces and decodes what
    it always has: a seed's transcript is part of the determinism contract."""
    digest = hashlib.sha256()
    for parties in MXN_PARTIES:
        for secrets in all_secret_assignments(Protocol.MXN, parties):
            for seed in range(20):
                digest.update(_gate_line(secrets, seed).encode())
    assert digest.hexdigest() == RUN_GATE_SHA256


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


@pytest.mark.parametrize(
    "party, own",
    [
        (0, (True, 0)),
        (0, (0, 2)),
        (1, (0, 1)),
        (0, (0,)),
        (True, (0,)),
        (1.0, (0,)),
        (np.bool_(True), (0,)),
    ],
)
def test_mxn_decode_rejects_malformed_own_bits(party, own):
    """Own bits of the wrong width, or not bits (bools included), and a
    party index that is not an int (a bool or a float) are a malformed
    argument, not a corrupted transcript."""
    record = run_mxn(mxn_secrets("00", [0, 1]), make_rng(7))
    with pytest.raises(ValueError) as exc:
        mxn_decode(party, own, record.transcript)
    assert exc.type is ValueError


@pytest.mark.parametrize("parties, sample", [(3, None), (4, None), (5, None), (6, 12)])
def test_mxn_row_is_the_engine_walk_of_the_encoded_state(parties, sample):
    """Float for float and in the same order: the encoded state is the
    cached row's doubled state up to a sign, which the walk squares away."""
    assignments = all_secret_assignments(Protocol.MXN, parties)
    if sample:
        picks = make_rng(parties).choice(len(assignments), sample, replace=False)
        assignments = [assignments[i] for i in picks]
    for secrets in assignments:
        want = paired_bell_distribution(mxn_encoded_state(secrets))
        row = mxn_row(secrets)
        assert row == want
        assert list(row) == list(want)


@pytest.mark.parametrize("parties", MXN_PARTIES)
def test_mxn_law_is_exactly_uniform_on_the_named_tuples(parties):
    """The integer contraction gives each label exactly 2^-N on the tuples
    that name it and 0 elsewhere; the column weight and every value of the
    label's engine walk lie within 1e-12 of it."""
    exact = Fraction(1, 2**parties)
    named_by_label = {}
    for announced in itertools.product(BellLabel, repeat=parties):
        (label,) = deduce_ghz_from_bells(announced)
        named_by_label.setdefault(label, set()).add(announced)
    assert named_by_label.keys() == set(all_ghz_labels(parties))
    for label, named in named_by_label.items():
        law = exact_mxn_law(label)
        assert len(law) == 4**parties and len(named) == 2**parties
        assert {t for t, p in law.items() if p} == named
        assert all(law[t] == exact for t in named)
        walk = _label_row(label)
        assert walk.keys() == named
        assert all(abs(p - exact) <= 1e-12 for p in walk.values())
        announced = next(iter(named))
        column = channel_column(Transcript(Protocol.MXN, announced))
        assert all(abs(w - exact) <= 1e-12 for w in column.values())


def test_label_rows_stay_unmutated():
    """The reference's cached label tables are shared: rows hand out
    copies, and they stay as the engine walk made them through audits,
    columns and runs."""
    secrets = mxn_secrets("01", [1, 0, 1])
    label = mxn_label(secrets)
    row = mxn_row(secrets)
    want = dict(row)
    announced = next(iter(row))
    row[announced] = 1.0
    row[(BellLabel.PHI_PLUS,) * 4] = 0.5
    assert mxn_row(secrets) == want
    assert channel_column(Transcript(Protocol.MXN, announced))[secrets] == want[announced]
    leakage_report(Protocol.MXN, 4)
    for candidate in itertools.product(BellLabel, repeat=4):
        channel_column(Transcript(Protocol.MXN, candidate))
        eve_posterior(Transcript(Protocol.MXN, candidate))
    for seed in range(20):
        run_mxn(secrets, make_rng(seed))
    assert _label_row(label) == want
    assert list(_label_row(label)) == list(want)
    home = ghz_state(GhzLabel(0, (0, 0, 0)))
    assert want == paired_bell_distribution(tensor(home, ghz_state(label)))


def test_mxn_encoded_state_carries_the_secret_label():
    secrets = mxn_secrets("00", [0, 1])
    state = mxn_encoded_state(secrets)
    expected = tensor(ghz_state(GhzLabel(0, (0, 0))), ghz_state(GhzLabel(1, (0, 1))))
    assert equal_up_to_phase(state, expected)
