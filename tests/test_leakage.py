"""Observer-inference tests: posteriors, entropy accounting, reports.

The central invariant: a secret assignment is in the posterior's support
for a transcript exactly when re-running the protocol with those secrets
can produce that transcript.  Tests check it exhaustively per protocol
rather than trusting the report pipeline.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdleak.leakage import (
    LeakageReport,
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
    Protocol,
    Transcript,
    TranscriptError,
    all_secret_assignments,
    jz_outcome_label,
    mxn_encoded_state,
    mxn_secrets,
    nba_final_label,
    paired_bell_probability,
    run_mxn,
)
from qdleak.qstate import ATOL, BellLabel, make_rng

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
    """Dual route at N=3: direct per-assignment branch-following versus the
    report pipeline must give identical posteriors on all 64 transcripts."""
    report = leakage_report(Protocol.MXN, 3)
    assert len(report.per_transcript) == 64
    for entry in report.per_transcript:
        direct = eve_posterior(entry.transcript)
        assert support_bits(direct) == support_bits(entry.posterior)
        assert direct.probabilities == pytest.approx(
            entry.posterior.probabilities, abs=ATOL
        )
        for s, p in direct.hypotheses:
            w = paired_bell_probability(mxn_encoded_state(s), entry.transcript.announced)
            assert w > ATOL


# --- OTP ---------------------------------------------------------------


def test_otp_reuse_posterior_examples():
    post = otp_reuse_posterior(0, 1)
    assert support_bits(post) == {((0,), (1,)), ((1,), (0,))}
    post = otp_reuse_posterior(1, 1)
    assert support_bits(post) == {((0,), (0,)), ((1,), (1,))}
    for ca, cb in itertools.product((0, 1), repeat=2):
        assert otp_reuse_posterior(ca, cb).entropy_bits == pytest.approx(1.0, abs=ATOL)
    with pytest.raises(ValueError):
        otp_reuse_posterior(2, 0)


def test_jz_matches_reused_key_otp_everywhere():
    for initial, outcome in ALL_JZ_TRANSCRIPTS:
        assert jz_otp_equivalence(initial, outcome)
    with pytest.raises(TranscriptError):
        jz_otp_equivalence("0", "-")
    with pytest.raises(ValueError):
        jz_otp_equivalence("x", "0")


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
    assert len(report.per_transcript) == count
    assert sum(e.probability for e in report.per_transcript) == pytest.approx(
        1.0, abs=ATOL
    )


@pytest.mark.parametrize(
    "protocol,parties",
    [(Protocol.NBA, None), (Protocol.JZ, None), (Protocol.OTP, None), (Protocol.MXN, 3)],
)
def test_per_transcript_entropy_is_constant_tying_both_views(protocol, parties):
    # ensemble average and per-transcript leakage coincide; assert, don't assume
    report = leakage_report(protocol, parties)
    for entry in report.per_transcript:
        assert entry.entropy_bits == pytest.approx(report.secure_bits, abs=ATOL)
        assert entry.leaked_bits == pytest.approx(report.leaked_bits, abs=ATOL)
        assert entry.entropy_bits == pytest.approx(
            entry.posterior.entropy_bits, abs=ATOL
        )


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
