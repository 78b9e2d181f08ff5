"""Observer-inference tests: posteriors, entropy accounting, reports.

The central invariant: a secret assignment is in the posterior's support
for a transcript exactly when re-running the protocol with those secrets
can produce that transcript.  Tests check it exhaustively per protocol
rather than trusting the report pipeline.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdleak import leakage, protocols
from qdleak.leakage import (
    Posterior,
    eve_posterior,
    jz_otp_equivalence,
    leakage_report,
    nba_xor_constraint,
    otp_reuse_posterior,
    shannon_entropy,
    total_secret_bits,
)
from qdleak.protocols import (
    ANNOUNCED_SYMBOLS,
    MXN_PARTIES,
    Protocol,
    SecretAssignment,
    Transcript,
    TranscriptError,
    _cosets,
    all_secret_assignments,
    alphabet_syndromes,
    jz_decode,
    jz_outcome_label,
    mxn_decode,
    mxn_encoded_state,
    mxn_secrets,
    named_coset,
    nba_decode,
    nba_final_label,
    paired_bell_probability,
    run_jz,
    run_mxn,
    run_nba,
)
from qdleak.qstate import ATOL, KET_LABELS, BellLabel, StateVector, ket, make_rng
from qdleak.report import leakage_document, operation_table_text

import coset_oracle
from channel_reference import (
    channel_column,
    jz_row,
    nba_row,
    reference_leakage_report,
    spelled_entries,
)

ALL_JZ_TRANSCRIPTS = [
    ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"),
    ("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"),
]


def support_bits(posterior):
    return {s.full_bits for s in posterior.support}


# --- entropy -----------------------------------------------------------


def test_shannon_entropy_values():
    assert shannon_entropy([1.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=ATOL)
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=ATOL)
    assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0, abs=ATOL)


def test_shannon_entropy_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy([])
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        shannon_entropy([1.5, -0.5])


@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=16))
@settings(max_examples=200, deadline=None)
def test_shannon_entropy_bounds(weights):
    p = np.asarray(weights) / sum(weights)
    h = shannon_entropy(p)
    assert -1e-9 <= h <= math.log2(len(p)) + 1e-9


def numpy_entropy(probabilities):
    """The entropy by numpy's vector formula, the reference for the
    pure-Python sum."""
    p = np.asarray(probabilities, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=16).filter(
        any
    )
)
@settings(max_examples=200, deadline=None)
def test_shannon_entropy_is_the_numpy_formula(weights):
    p = [w / sum(weights) for w in weights]
    assert abs(shannon_entropy(p) - numpy_entropy(p)) <= 1e-12


@pytest.mark.parametrize(
    "protocol, parties",
    [(Protocol.NBA, None), (Protocol.JZ, None), (Protocol.OTP, None)]
    + [(Protocol.MXN, n) for n in MXN_PARTIES],
)
def test_audit_entropies_equal_the_numpy_formula(protocol, parties):
    for coset in leakage_report(protocol, parties).cosets:
        assert coset.entropy_bits == numpy_entropy(coset.posterior.probabilities)


def test_shannon_entropy_negativity_floor_is_1e_12():
    """An entry rounded just below 0 is accepted; one further below is
    refused, although the sum stays within its tolerance."""
    assert shannon_entropy([1.0, -0.5e-12]) == 0.0
    with pytest.raises(ValueError, match="negative probability"):
        shannon_entropy([1.0, -2e-12])


@pytest.mark.parametrize("sign", [1, -1])
def test_shannon_entropy_sum_tolerance_is_1e_9(sign):
    assert shannon_entropy([0.5, 0.5 + sign * 0.5e-9]) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError, match="probabilities sum to"):
        shannon_entropy([0.5, 0.5 + sign * 2e-9])


# --- posterior object --------------------------------------------------


def test_posterior_normalizes_and_sorts():
    secrets = all_secret_assignments(Protocol.JZ)
    post = Posterior.from_weights([(secrets[3], 2.0), (secrets[0], 2.0)])
    assert post.probabilities == pytest.approx((0.5, 0.5))
    assert [s.full_bits for s, _ in post.hypotheses] == [
        ((0,), (0,)),
        ((1,), (1,)),
    ]
    assert dict(post.hypotheses)[secrets[0]] == pytest.approx(0.5)
    assert secrets[1] not in post.support


def test_posterior_requires_support():
    with pytest.raises(TranscriptError):
        Posterior.from_weights([])
    secrets = all_secret_assignments(Protocol.JZ)
    with pytest.raises(TranscriptError):
        Posterior.from_weights([(secrets[0], 0.0)])


def test_posterior_keeps_every_positive_weight():
    """Only an exact 0 drops a hypothesis: a tiny weight is kept, not cut
    by a floor."""
    a, b = all_secret_assignments(Protocol.JZ)[:2]
    post = Posterior.from_weights([(a, 1e-12)])
    assert post.hypotheses == ((a, 1.0),)
    assert Posterior.from_weights([(a, 1.0), (b, 1e-12)]).support == {a, b}
    assert Posterior.from_weights([(a, 1.0), (b, 0.0)]).support == {a}


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
def test_posterior_refuses_negative_and_non_finite_weights(bad):
    a, b = all_secret_assignments(Protocol.JZ)[:2]
    with pytest.raises(TranscriptError):
        Posterior.from_weights([(a, 1.0), (b, bad)])


@pytest.mark.parametrize(
    "bad", [[math.nan], [math.nan, 1.0], [math.inf], [0.5, 0.5, -math.inf]]
)
def test_shannon_entropy_refuses_non_finite_entries(bad):
    """A NaN passes both the negativity and the sum check, so it is refused
    on its own, as is an infinity."""
    with pytest.raises(ValueError, match="non-finite probability"):
        shannon_entropy(bad)


def test_posterior_entropy_refuses_nan():
    a = all_secret_assignments(Protocol.JZ)[0]
    with pytest.raises(ValueError, match="non-finite probability"):
        Posterior(((a, math.nan),)).entropy_bits


# --- NBA ---------------------------------------------------------------


def test_nba_posterior_for_the_four_possibility_transcript():
    post = eve_posterior(
        Transcript(Protocol.NBA, (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS))
    )
    assert support_bits(post) == {
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 1), (0, 0)),
    }
    assert post.probabilities == pytest.approx((0.25,) * 4, abs=ATOL)
    assert post.entropy_bits == pytest.approx(2.0, abs=ATOL)


def test_nba_posterior_support_matches_reruns_exhaustively():
    for initial in BellLabel:
        for final in BellLabel:
            post = eve_posterior(Transcript(Protocol.NBA, (initial, final)))
            rerun = {
                s.full_bits
                for s in all_secret_assignments(Protocol.NBA)
                if nba_final_label(s.alice, s.others[0], initial) is final
            }
            assert support_bits(post) == rerun


def test_nba_xor_constraint_examples_and_oracle():
    t = Transcript(Protocol.NBA, (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS))
    assert nba_xor_constraint(t) == (1, 1)
    t = Transcript(Protocol.NBA, (BellLabel.PSI_PLUS, BellLabel.PHI_PLUS))
    assert nba_xor_constraint(t) == (0, 1)
    # oracle: recompute the constant from scratch for every transcript
    for initial in BellLabel:
        for final in BellLabel:
            got = nba_xor_constraint(Transcript(Protocol.NBA, (initial, final)))
            xors = {
                (s.alice[0] ^ s.others[0][0], s.alice[1] ^ s.others[0][1])
                for s in all_secret_assignments(Protocol.NBA)
                if nba_final_label(s.alice, s.others[0], initial) is final
            }
            assert xors == {got}


def test_nba_xor_constraint_requires_nba():
    with pytest.raises(ValueError):
        nba_xor_constraint(Transcript(Protocol.JZ, ("0", "0")))


# --- JZ ----------------------------------------------------------------


def test_jz_posterior_entropy_is_one_bit_everywhere():
    for initial, outcome in ALL_JZ_TRANSCRIPTS:
        post = eve_posterior(Transcript(Protocol.JZ, (initial, outcome)))
        assert post.entropy_bits == pytest.approx(1.0, abs=ATOL)
        rerun = {
            s.full_bits
            for s in all_secret_assignments(Protocol.JZ)
            if jz_outcome_label(s.alice[0], s.others[0][0], initial) == outcome
        }
        assert support_bits(post) == rerun


def test_jz_posterior_pins_the_xor():
    post = eve_posterior(Transcript(Protocol.JZ, ("1", "1")))
    assert support_bits(post) == {((0,), (0,)), ((1,), (1,))}
    post = eve_posterior(Transcript(Protocol.JZ, ("+", "-")))
    assert support_bits(post) == {((0,), (1,)), ((1,), (0,))}


def test_cross_basis_transcript_has_no_explanation():
    with pytest.raises(TranscriptError):
        eve_posterior(Transcript(Protocol.JZ, ("0", "+")))


# --- MXN ---------------------------------------------------------------


def test_mxn_posterior_is_the_complement_pair():
    record = run_mxn(mxn_secrets("00", [0, 1]), make_rng(7))
    post = eve_posterior(record.transcript)
    assert support_bits(post) == {((0, 0), (0,), (1,)), ((1, 1), (1,), (0,))}
    assert post.probabilities == pytest.approx((0.5, 0.5), abs=ATOL)
    assert post.entropy_bits == pytest.approx(1.0, abs=ATOL)


def test_mxn_posterior_matches_rerun_weights_exhaustively():
    """Dual route at N=3: the transcript's channel column versus the report
    pipeline must give identical posteriors on all 64 transcripts."""
    entries = spelled_entries(leakage_report(Protocol.MXN, 3))
    assert len(entries) == 64
    for transcript, coset in entries:
        direct = eve_posterior(transcript)
        assert support_bits(direct) == support_bits(coset.posterior)
        assert direct.probabilities == pytest.approx(
            coset.posterior.probabilities, abs=ATOL
        )
        for s, p in direct.hypotheses:
            w = paired_bell_probability(mxn_encoded_state(s), transcript.announced)
            assert w > ATOL


def _posterior_by_cells(transcript):
    """The per-assignment posterior: every assignment's encoded state
    measured against the announced Bell vectors, weights at most ATOL / 4
    counted as 0 by ``paired_bell_probability``."""
    announced = transcript.announced
    return Posterior.from_weights(
        (s, paired_bell_probability(mxn_encoded_state(s), announced))
        for s in all_secret_assignments(Protocol.MXN, len(announced))
    )


@pytest.mark.parametrize("parties, samples", [(5, 12), (6, 6)])
def test_mxn_channel_column_matches_the_engine(parties, samples):
    """On seeded tuples, the column holds every assignment whose encoded
    state gives the tuple nonzero probability, at that probability, and the
    posterior's hypotheses equal the per-assignment one exactly."""
    rng = np.random.default_rng(parties)
    labels = list(BellLabel)
    states = {
        s: mxn_encoded_state(s) for s in all_secret_assignments(Protocol.MXN, parties)
    }
    for _ in range(samples):
        announced = tuple(labels[i] for i in rng.integers(0, 4, size=parties))
        transcript = Transcript(Protocol.MXN, announced)
        column = channel_column(transcript)
        assert len(column) == 2
        for s, state in states.items():
            want = paired_bell_probability(state, announced)
            assert column.get(s, 0.0) == pytest.approx(want, abs=ATOL)
            assert (s in column) == (want > 0.0)
        assert eve_posterior(transcript).hypotheses == (
            _posterior_by_cells(transcript).hypotheses
        )


def test_mxn_posterior_keeps_the_audit_party_bound():
    with pytest.raises(ValueError, match=r"mxn audits need parties in 3\.\.6"):
        eve_posterior(Transcript(Protocol.MXN, (BellLabel.PHI_PLUS,) * 2))
    with pytest.raises(ValueError, match=r"mxn audits need parties in 3\.\.6"):
        leakage_report(Protocol.MXN, 2)


# --- OTP ---------------------------------------------------------------


def test_otp_reuse_posterior_examples():
    post = otp_reuse_posterior(0, 1)
    assert support_bits(post) == {((0,), (1,)), ((1,), (0,))}
    post = otp_reuse_posterior(1, 1)
    assert support_bits(post) == {((0,), (0,)), ((1,), (1,))}
    for ca, cb in itertools.product((0, 1), repeat=2):
        assert otp_reuse_posterior(ca, cb).entropy_bits == pytest.approx(1.0, abs=ATOL)
    for bad in ((2, 0), (True, 0), (0, 1.0)):
        with pytest.raises(ValueError, match="ciphertext bits must be 0 or 1"):
            otp_reuse_posterior(*bad)


def test_jz_matches_reused_key_otp_everywhere():
    for initial, outcome in ALL_JZ_TRANSCRIPTS:
        assert jz_otp_equivalence(initial, outcome)
    with pytest.raises(TranscriptError):
        jz_otp_equivalence("0", "-")
    with pytest.raises(ValueError, match="bad jz announcement"):
        jz_otp_equivalence("x", "0")


# --- what the parties decode against what Eve sees ----------------------


def every_run():
    """Every nba run (assignment x initial label), every jz run (assignment
    x initial ket), and every mxn run at N=3..6 under seeds 0 and 1."""
    for secrets, initial in itertools.product(all_secret_assignments(Protocol.NBA), BellLabel):
        yield run_nba(secrets, initial)
    for secrets, initial in itertools.product(all_secret_assignments(Protocol.JZ), KET_LABELS):
        yield run_jz(secrets, initial)
    for parties, seed in itertools.product(MXN_PARTIES, (0, 1)):
        for secrets in all_secret_assignments(Protocol.MXN, parties):
            yield run_mxn(secrets, make_rng(seed))


def public_decode(transcript, party, own):
    """What ``party``, holding ``own``, decodes through the public decoder."""
    if transcript.protocol is Protocol.NBA:
        return {1 - party: nba_decode(own, *transcript.announced)}
    if transcript.protocol is Protocol.JZ:
        return {1 - party: (jz_decode(own[0], *transcript.announced),)}
    return mxn_decode(party, own, transcript)


def test_every_party_decodes_from_the_coset_eve_is_left_with():
    """Eve's support is the coset the transcript names, and any member of
    it, with one party's bits in that party's hands, decodes to its other
    parties' bits: a party's own bits pick one member of what Eve sees."""
    runs = 0
    for record in every_run():
        transcript = record.transcript
        support = eve_posterior(transcript).support
        assert support == frozenset(named_coset(transcript)[1])
        for secrets in support:
            bits = secrets.full_bits
            for party, own in enumerate(bits):
                want = {j: other for j, other in enumerate(bits) if j != party}
                assert public_decode(transcript, party, own) == want
        runs += 1
    assert runs == 64 + 16 + 2 * sum(2 ** (n + 1) for n in MXN_PARTIES)


def test_a_cross_basis_jz_tuple_is_refused_by_decoder_and_eve_alike():
    crossing = [
        (initial, outcome)
        for initial, outcome in itertools.product(KET_LABELS, repeat=2)
        if (initial in "01") != (outcome in "01")
    ]
    assert len(crossing) == 8
    for initial, outcome in crossing:
        for own in (0, 1):
            with pytest.raises(TranscriptError):
                jz_decode(own, initial, outcome)
        with pytest.raises(TranscriptError):
            eve_posterior(Transcript(Protocol.JZ, (initial, outcome)))


# --- reports -----------------------------------------------------------


@pytest.mark.parametrize(
    "protocol,parties,total,secure,count",
    [
        (Protocol.NBA, None, 4, 2.0, 16),
        (Protocol.JZ, None, 2, 1.0, 8),
        (Protocol.OTP, None, 2, 1.0, 4),
        (Protocol.MXN, 3, 4, 1.0, 64),
        (Protocol.MXN, 4, 5, 1.0, 256),
    ],
)
def test_leakage_report_totals(protocol, parties, total, secure, count):
    report = leakage_report(protocol, parties)
    assert report.total_bits == total
    assert report.secure_bits == pytest.approx(secure, abs=ATOL)
    assert report.leaked_bits == pytest.approx(total - secure, abs=ATOL)
    assert len(report.entries) == count
    assert sum(report.cosets[k].probability for _, k in report.entries) == pytest.approx(
        1.0, abs=ATOL
    )


@pytest.mark.parametrize(
    "protocol,parties",
    [(Protocol.NBA, None), (Protocol.JZ, None), (Protocol.OTP, None), (Protocol.MXN, 3)],
)
def test_coset_entropy_is_constant_tying_both_views(protocol, parties):
    # ensemble average and each coset's leakage coincide; assert, don't assume
    report = leakage_report(protocol, parties)
    for coset in report.cosets:
        assert coset.entropy_bits == pytest.approx(report.secure_bits, abs=ATOL)
        assert coset.leaked_bits == pytest.approx(report.leaked_bits, abs=ATOL)
        assert coset.entropy_bits == pytest.approx(
            coset.posterior.entropy_bits, abs=ATOL
        )


@pytest.mark.parametrize(
    "protocol, parties",
    [
        (Protocol.NBA, None),
        (Protocol.JZ, None),
        (Protocol.OTP, None),
        (Protocol.MXN, 3),
        (Protocol.MXN, 4),
        (Protocol.MXN, 5),
        (Protocol.MXN, 6),
    ],
)
def test_leakage_report_matches_the_coset_oracle(protocol, parties):
    """The report lists exactly the transcripts the oracle's linear map can
    explain, each with the coset it predicts as support and log2 of the
    coset's size as entropy."""
    predicted = coset_oracle.posterior_supports(protocol, parties)
    entries = {t.announced: c for t, c in spelled_entries(leakage_report(protocol, parties))}
    assert entries.keys() == predicted.keys()
    for announced, support in predicted.items():
        assert support_bits(entries[announced].posterior) == support
        assert abs(entries[announced].entropy_bits - math.log2(len(support))) <= 1e-9


@pytest.mark.parametrize(
    "protocol, parties, contexts",
    [
        (Protocol.NBA, 2, [None]),
        (Protocol.JZ, 2, ["Z", "X"]),
        (Protocol.OTP, 2, [None]),
        *((Protocol.MXN, n, [None]) for n in range(2, 7)),
    ],
)
def test_secret_terms_are_the_coset_oracle_map(protocol, parties, contexts):
    """Each secret bit's term is the code the oracle's linear map gives the
    assignment with only that bit set, in either jz preparation basis."""
    assignments, _, public, _ = coset_oracle._spec(protocol, parties)
    units = sorted(
        (s for s in assignments if sum(coset_oracle._flat(s)) == 1),
        key=lambda s: coset_oracle._flat(s).index(1),
    )
    for context in contexts:
        oracle = tuple(int(protocols.bits_to_str(public(s, context)), 2) for s in units)
        assert protocols._secret_terms(protocol, parties) == oracle


def gf2_rank(rows):
    """The rank over GF(2) of rows given as ints, by elimination: each
    nonzero pivot clears its lowest set bit from the rows left."""
    rows, rank = list(rows), 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [row ^ pivot if row & low else row for row in rows]
    return rank


@pytest.mark.parametrize(
    "protocol, parties",
    [(Protocol.NBA, None), (Protocol.JZ, None), (Protocol.OTP, None)]
    + [(Protocol.MXN, n) for n in MXN_PARTIES],
)
def test_secret_term_rank_is_the_leak(protocol, parties):
    """The audit leaks as many bits as the secret-term table's rank over
    GF(2), the dimension of the codes the secrets publish."""
    terms = protocols._secret_terms(protocol, protocols.party_count(protocol, parties))
    # Within 1e-9 while the mxn tuple weight is the engine's float; with an
    # exact weight this holds with ==.
    assert abs(leakage_report(protocol, parties).leaked_bits - gf2_rank(terms)) <= 1e-9


@pytest.mark.parametrize(
    "protocol, parties",
    [
        (Protocol.NBA, None),
        (Protocol.JZ, None),
        (Protocol.OTP, None),
        (Protocol.MXN, 3),
        (Protocol.MXN, 4),
        (Protocol.MXN, 5),
        (Protocol.MXN, 6),
    ],
)
def test_leakage_report_is_the_row_table_audit(protocol, parties):
    """Coset by coset, the report's entries spelled out equal the audit
    built from every row at once, float for float and in the same
    transcript order, and so do its totals."""
    report = leakage_report(protocol, parties)
    want, totals = reference_leakage_report(protocol, parties)
    entries = spelled_entries(report)
    assert [t for t, _ in entries] == [t for t, _ in want]
    for (_, got), (_, expected) in zip(entries, want):
        assert got.probability == expected.probability
        assert got.entropy_bits == expected.entropy_bits
        assert got.leaked_bits == expected.leaked_bits
        assert got.posterior.hypotheses == expected.posterior.hypotheses
    assert (report.total_bits, report.secure_bits, report.leaked_bits) == totals
    assert entries == want


@pytest.mark.parametrize(
    "protocol, parties, cosets",
    [
        (Protocol.NBA, None, 4),
        (Protocol.JZ, None, 2),
        (Protocol.OTP, None, 2),
        *((Protocol.MXN, n, 2**n) for n in MXN_PARTIES),
    ],
)
def test_leakage_report_builds_one_posterior_per_coset(monkeypatch, protocol, parties, cosets):
    """The entries of one coset share one Posterior, built once per process
    and measured once per audit, however many transcripts name the coset;
    it is the object eve_posterior hands out for each of them."""
    leakage._coset_posteriors.cache_clear()
    built, measured = [], []
    from_weights, entropy = Posterior.from_weights, leakage.shannon_entropy

    def counting_from_weights(cls, weighted):
        built.append(1)
        return from_weights(weighted)

    def counting_entropy(probabilities):
        measured.append(1)
        return entropy(probabilities)

    monkeypatch.setattr(Posterior, "from_weights", classmethod(counting_from_weights))
    monkeypatch.setattr(leakage, "shannon_entropy", counting_entropy)
    report = leakage_report(protocol, parties)
    assert len(report.cosets) == cosets
    assert len({id(report.cosets[k].posterior) for _, k in report.entries}) == cosets
    assert len(built) == len(measured) == cosets
    assert len(report.entries) > cosets
    del built[:], measured[:]
    again = leakage_report(protocol, parties)
    assert (len(built), len(measured)) == (0, cosets)
    for transcript, coset in spelled_entries(again):
        assert eve_posterior(transcript) is coset.posterior
    assert built == []


_AUDITS = [
    (Protocol.NBA, None),
    (Protocol.JZ, None),
    (Protocol.OTP, None),
    *((Protocol.MXN, n) for n in MXN_PARTIES),
]


@pytest.mark.parametrize("protocol, parties", _AUDITS)
def test_report_cosets_are_the_coset_table(protocol, parties):
    """Coset k of a report is the posterior of the k-th key of ``_cosets``,
    every coset is named by some entry, and each entry's transcript has its
    coset's posterior as its own column's."""
    report = leakage_report(protocol, parties)
    table = _cosets(protocol, parties or 2)
    assert len(report.cosets) == len(table)
    for audit, coset in zip(report.cosets, table.values()):
        assert audit.posterior == Posterior.from_weights((s, 1.0) for s in coset)
    assert {k for _, k in report.entries} == set(range(len(table)))
    for transcript, coset in spelled_entries(report):
        assert eve_posterior(transcript) == coset.posterior


@pytest.mark.parametrize("protocol, parties", _AUDITS)
def test_eve_posterior_is_the_normalized_column_on_every_tuple(protocol, parties):
    """The cached lookup is held to the channel: on every tuple of the
    alphabet its hypotheses equal the column's, weighted by the engine for
    mxn, normalized, with ==, and it refuses exactly the tuples whose
    column is empty."""
    refused = 0
    for announced in itertools.product(ANNOUNCED_SYMBOLS[protocol], repeat=parties or 2):
        transcript = Transcript(protocol, announced)
        column = channel_column(transcript)
        if not column:
            refused += 1
            with pytest.raises(TranscriptError):
                eve_posterior(transcript)
            continue
        want = Posterior.from_weights(column.items()).hypotheses
        assert eve_posterior(transcript).hypotheses == want
    assert refused == (8 if protocol is Protocol.JZ else 0)


def test_cold_eavesdrop_walks_no_engine(monkeypatch):
    """With the coset, posterior and tuple-probability caches emptied, one
    posterior of each kind builds no StateVector and runs no
    paired_bell_distribution: the weight it would read cancels."""
    built, walked = [], []
    construct, walk = StateVector.__init__, protocols.paired_bell_distribution

    def counting(self, amplitudes):
        built.append(1)
        construct(self, amplitudes)

    def counting_walk(state):
        walked.append(1)
        return walk(state)

    monkeypatch.setattr(StateVector, "__init__", counting)
    monkeypatch.setattr(protocols, "paired_bell_distribution", counting_walk)
    for cache in (_cosets, leakage._coset_posteriors, protocols._tuple_probability):
        cache.cache_clear()
    for protocol, parties in _AUDITS:
        first = ANNOUNCED_SYMBOLS[protocol][0]
        eve_posterior(Transcript(protocol, (first,) * (parties or 2)))
    assert built == walked == []
    protocols._tuple_probability(3)  # the counters see a walk
    assert built and walked == [1]


def test_leakage_report_builds_no_transcript(monkeypatch):
    """An audit names each entry's symbols by index: neither it nor its
    document validates a Transcript."""
    built = []
    post_init = Transcript.__post_init__

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Transcript, "__post_init__", counting_post_init)
    report = leakage_report(Protocol.MXN, 6)
    assert len(leakage_document(report)["transcripts"]) == 4**6
    assert built == []
    spelled_entries(report)  # the counter sees every entry spelled out
    assert len(built) == len(report.entries) == 4**6


@pytest.mark.parametrize(
    "protocol, parties, entries",
    [
        (Protocol.OTP, None, (((0,), 0),)),
        (Protocol.OTP, None, (((0, 1, 1), 0),)),
        (Protocol.OTP, None, (((0, 2), 0),)),
        (Protocol.OTP, None, (((-1, 0), 0),)),
        (Protocol.OTP, None, (((0, 1), 2),)),
        (Protocol.OTP, None, (((0, 1), -1),)),
        (Protocol.OTP, None, (((0, 1), 0), ((1, 1), -2))),
        (Protocol.MXN, 3, (((0, 1), 0),)),
    ],
)
def test_report_refuses_malformed_entries(protocol, parties, entries):
    """Each entry needs one symbol index per party and a coset index, all
    in range: a negative index would silently count from the end."""
    report = leakage_report(protocol, parties)
    need = f"{protocol.text} report entries need {parties or 2} symbol indices"
    with pytest.raises(ValueError, match=need):
        dataclasses.replace(report, entries=entries)


@pytest.mark.parametrize(
    "protocol, parties",
    [
        (Protocol.NBA, 5),
        (Protocol.NBA, 2),
        (Protocol.JZ, 2),
        (Protocol.OTP, 2),
        (Protocol.MXN, None),
        (Protocol.MXN, 2),
    ],
)
def test_report_refuses_a_party_count_its_protocol_does_not_take(protocol, parties):
    """A two-party report carries no count, as leakage_report builds it:
    its text would print one and its document would fail the schema."""
    report = leakage_report(protocol, 3 if protocol is Protocol.MXN else None)
    with pytest.raises(ValueError, match="parties"):
        dataclasses.replace(report, parties=parties, entries=())


def test_two_party_paths_build_no_state_vector(monkeypatch):
    """NBA and JZ are label arithmetic: no run, row, posterior, audit or
    operation table of theirs constructs a StateVector."""
    built = []
    construct = StateVector.__init__

    def counting(self, amplitudes):
        built.append(1)
        construct(self, amplitudes)

    monkeypatch.setattr(StateVector, "__init__", counting)
    for secrets in all_secret_assignments(Protocol.NBA):
        nba_row(secrets)
        for initial in BellLabel:
            run_nba(secrets, initial)
    for secrets in all_secret_assignments(Protocol.JZ):
        jz_row(secrets)
        for initial in KET_LABELS:
            run_jz(secrets, initial)
    for announced in itertools.product(BellLabel, repeat=2):
        eve_posterior(Transcript(Protocol.NBA, announced))
    for announced in ALL_JZ_TRANSCRIPTS:
        eve_posterior(Transcript(Protocol.JZ, announced))
    leakage_report(Protocol.NBA)
    leakage_report(Protocol.JZ)
    operation_table_text()
    assert built == []
    ket("0")  # the counter sees a construction
    assert built == [1]


@pytest.mark.parametrize("parties", MXN_PARTIES)
def test_cold_mxn_audit_walks_the_engine_at_most_once(monkeypatch, parties):
    """No label walk: with the per-count cache emptied, an mxn audit runs
    paired_bell_distribution at most once, for its one tuple probability."""
    walked = []
    walk = protocols.paired_bell_distribution

    def counting(state):
        walked.append(state.num_qubits)
        return walk(state)

    monkeypatch.setattr(protocols, "paired_bell_distribution", counting)
    protocols._tuple_probability.cache_clear()
    leakage_report(Protocol.MXN, parties)
    assert len(walked) <= 1


def test_leakage_report_argument_errors():
    with pytest.raises(ValueError):
        leakage_report(Protocol.MXN)
    with pytest.raises(ValueError):
        leakage_report(Protocol.MXN, 7)
    with pytest.raises(ValueError):
        leakage_report(Protocol.NBA, 3)


def test_total_secret_bits():
    assert total_secret_bits(Protocol.NBA) == 4
    assert total_secret_bits(Protocol.JZ) == 2
    assert total_secret_bits(Protocol.OTP) == 2
    assert total_secret_bits(Protocol.MXN, 5) == 6
    with pytest.raises(ValueError):
        total_secret_bits(Protocol.MXN)


# --- one input contract ---------------------------------------------------

_BY_COUNT = (
    total_secret_bits,
    all_secret_assignments,
    alphabet_syndromes,
    leakage_report,
)


def _mxn_transcript(n):
    return Transcript(Protocol.MXN, (BellLabel.PHI_PLUS,) * n)


# (what, call) for every entry point and every bad party count it must
# refuse with a ValueError: never a TypeError, a KeyError or a result.
_REFUSED = [
    *(
        (f"{fn.__name__}({protocol.text}, {n!r})", lambda fn=fn, p=protocol, n=n: fn(p, n))
        for fn in _BY_COUNT
        for protocol in Protocol
        for n in (0, 9, 3.0, True)
    ),
    *((f"{fn.__name__}(nba, 5)", lambda fn=fn: fn(Protocol.NBA, 5)) for fn in _BY_COUNT),
    ("run_mxn at N=2", lambda: run_mxn(mxn_secrets("01", [1]), make_rng(0))),
    ("mxn_decode at N=2", lambda: mxn_decode(0, (0, 0), _mxn_transcript(2))),
    ("channel_column at N=2", lambda: channel_column(_mxn_transcript(2))),
    ("alphabet_syndromes at N=2", lambda: alphabet_syndromes(Protocol.MXN, 2)),
    ("eve_posterior at N=2", lambda: eve_posterior(_mxn_transcript(2))),
]


@pytest.mark.parametrize("call", [c for _, c in _REFUSED], ids=[w for w, _ in _REFUSED])
def test_entry_points_refuse_bad_party_counts_with_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("n", MXN_PARTIES)
def test_entry_points_accept_every_mxn_party_count(n):
    assert total_secret_bits(Protocol.MXN, n) == n + 1
    assert len(all_secret_assignments(Protocol.MXN, n)) == 2 ** (n + 1)
    assert leakage_report(Protocol.MXN, n).parties == n
    record = run_mxn(mxn_secrets("01", [1] * (n - 1)), make_rng(n))
    assert mxn_secrets("01", [np.int64(1)] * (n - 1)) == record.secrets
    assert mxn_decode(0, (0, 1), record.transcript) == record.decoded[0]
    assert record.secrets in channel_column(record.transcript)
    assert record.secrets in eve_posterior(record.transcript).support


def test_list_fields_are_stored_as_tuples():
    secrets = SecretAssignment(Protocol.NBA, [0, 0], [[0, 1]])
    assert (secrets.alice, secrets.others) == ((0, 0), ((0, 1),))
    assert hash(secrets) == hash(SecretAssignment(Protocol.NBA, (0, 0), ((0, 1),)))
    announced = (BellLabel.PHI_PLUS,) * 3
    transcript = Transcript(Protocol.MXN, list(announced))
    assert transcript.announced == announced
    assert hash(transcript) == hash(Transcript(Protocol.MXN, announced))
    assert eve_posterior(transcript) == eve_posterior(Transcript(Protocol.MXN, announced))
