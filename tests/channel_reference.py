"""The transcript channels row by row, and the audit that reads them.

A row is the whole distribution P(announced | secrets) of one assignment,
averaged over the public choice a run draws uniformly (initial Bell label,
initial ket, key bit; none for mxn).  ``reference_leakage_report`` is the
audit built from all 2^(N+1) rows at once: a likelihood table keyed by
announced tuple, sorted by the symbols' texts.  Tests hold
``qdleak.protocols.channel_column`` and ``qdleak.leakage.leakage_report``,
which read one column per announced tuple, to these.
"""

from __future__ import annotations

from qdleak.leakage import LeakageReport, Posterior, TranscriptLeakage
from qdleak.protocols import (
    Protocol,
    SecretAssignment,
    Transcript,
    _check_mxn_parties,
    _label_row,
    all_secret_assignments,
    jz_outcome_label,
    mxn_label,
    nba_final_label,
    total_secret_bits,
)
from qdleak.qstate import KET_LABELS, BellLabel


def nba_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(announced | secrets) over the four equally likely initial labels."""
    alice, bob = secrets.alice, secrets.others[0]
    return {(i, nba_final_label(alice, bob, i)): 0.25 for i in BellLabel}


def jz_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(announced | secrets) over the four equally likely initial kets."""
    alice, bob = secrets.alice[0], secrets.others[0][0]
    return {(i, jz_outcome_label(alice, bob, i)): 0.25 for i in KET_LABELS}


def otp_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(ciphertexts | plaintexts) over the two equally likely key bits."""
    alice, bob = secrets.alice[0], secrets.others[0][0]
    return {(str(alice ^ key), str(bob ^ key)): 0.5 for key in (0, 1)}


def mxn_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(announced | secrets): a copy of the cached engine walk of the
    secrets' GHZ label."""
    return dict(_label_row(mxn_label(secrets)))


_ROWS = {
    Protocol.NBA: nba_row,
    Protocol.JZ: jz_row,
    Protocol.OTP: otp_row,
    Protocol.MXN: mxn_row,
}


def channel_row(secrets: SecretAssignment) -> dict[tuple, float]:
    return _ROWS[secrets.protocol](secrets)


def _announced_sort_key(announced: tuple):
    return tuple(
        label.text if isinstance(label, BellLabel) else str(label)
        for label in announced
    )


def reference_leakage_report(
    protocol: Protocol, parties: int | None = None
) -> LeakageReport:
    """The audit from every row: a likelihood table, sorted."""
    if protocol is Protocol.MXN:
        _check_mxn_parties(parties)
    elif parties not in (None, 2):
        raise ValueError(f"{protocol.text} has a fixed party count of 2")
    else:
        parties = None

    # announced -> {assignment: P(announced | assignment)}
    likelihoods: dict[tuple, dict[SecretAssignment, float]] = {}
    assignments = all_secret_assignments(protocol, parties)
    for secrets in assignments:
        for announced, prob in channel_row(secrets).items():
            likelihoods.setdefault(announced, {})[secrets] = prob

    total = total_secret_bits(protocol, parties)
    prior = 1.0 / len(assignments)
    entries = []
    for announced in sorted(likelihoods, key=_announced_sort_key):
        weights = likelihoods[announced]
        probability = prior * sum(weights.values())
        posterior = Posterior.from_weights(weights.items())
        entropy = posterior.entropy_bits
        entries.append(
            TranscriptLeakage(
                Transcript(protocol, announced),
                probability,
                posterior,
                entropy,
                total - entropy,
            )
        )
    secure = sum(e.probability * e.entropy_bits for e in entries)
    return LeakageReport(
        protocol=protocol,
        parties=parties,
        total_bits=total,
        secure_bits=secure,
        leaked_bits=total - secure,
        per_transcript=tuple(entries),
    )
