"""What an eavesdropper learns from the public transcript alone.

The threat model is passive: the observer sees every public announcement,
knows the protocol completely, and holds no quantum access.  Starting from a
uniform prior over all secret assignments, the posterior keeps exactly the
assignments that could have produced the announced transcript, weighted by
the probability of producing it.  That probability, P(announced | secrets),
is each protocol's transcript channel, read from :mod:`qdleak.protocols`
(:func:`~qdleak.protocols.channel_row` for a whole audit,
:func:`~qdleak.protocols.channel_cell` for one transcript); nothing here
depends on how a protocol produces its announcements.  Leakage is quantified
in bits:

    leaked = total secret bits - Shannon entropy of the posterior.

Reports carry both the per-transcript view and the ensemble average.  For
these protocols the per-transcript entropy is the same for every reachable
transcript, so the two coincide; tests assert this rather than assuming it.

The classical reference point OTP (two parties XOR-ing their plaintext bits
with one shared, reused key bit and announcing the ciphertexts) gets the
same treatment, so its structure can be compared with JZ's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .protocols import (
    Protocol,
    SecretAssignment,
    Transcript,
    TranscriptError,
    all_secret_assignments,
    basis_labels_of,
    channel_cell,
    channel_row,
    total_secret_bits,
)
from .qstate import ATOL, KET_LABELS, BellLabel

PROB_FLOOR = 1e-9


def shannon_entropy(probabilities: Iterable[float]) -> float:
    """Entropy in bits of a probability vector; 0 * log 0 counts as 0."""
    p = np.asarray(list(probabilities), dtype=float)
    if p.size == 0:
        raise ValueError("empty distribution")
    if np.any(p < -1e-12):
        raise ValueError("negative probability")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {float(p.sum())!r}, not 1")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


@dataclass(frozen=True)
class Posterior:
    """The observer's belief after seeing one transcript: hypotheses with
    their probabilities, sorted by the parties' bit strings."""

    hypotheses: tuple[tuple[SecretAssignment, float], ...]

    @classmethod
    def from_weights(
        cls, weighted: Iterable[tuple[SecretAssignment, float]]
    ) -> "Posterior":
        items = [(s, w) for s, w in weighted if w > PROB_FLOOR]
        if not items:
            raise TranscriptError("no hypothesis is consistent with the transcript")
        total = sum(w for _, w in items)
        items = [(s, w / total) for s, w in items]
        items.sort(key=lambda pair: pair[0].full_bits)
        return cls(tuple(items))

    @property
    def support(self) -> frozenset[SecretAssignment]:
        return frozenset(s for s, _ in self.hypotheses)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.hypotheses)

    @property
    def entropy_bits(self) -> float:
        return shannon_entropy(self.probabilities)



def eve_posterior(transcript: Transcript) -> Posterior:
    """Posterior over all secret assignments given one public transcript,
    starting from a uniform prior."""
    announced = transcript.announced
    weighted = (
        (s, channel_cell(s, announced))
        for s in all_secret_assignments(transcript.protocol, len(announced))
    )
    return Posterior.from_weights(weighted)


def nba_xor_constraint(transcript: Transcript) -> tuple[int, int]:
    """The bitwise XOR of the two parties' bits, which an NBA transcript
    reveals exactly: it is constant across the posterior's support."""
    if transcript.protocol is not Protocol.NBA:
        raise ValueError("needs an NBA transcript")
    posterior = eve_posterior(transcript)
    xors = {
        (s.alice[0] ^ s.others[0][0], s.alice[1] ^ s.others[0][1])
        for s in posterior.support
    }
    if len(xors) != 1:  # pragma: no cover - would signal a bug upstream
        raise RuntimeError(f"xor not constant across support: {xors!r}")
    return xors.pop()


def otp_reuse_posterior(cipher_a: int, cipher_b: int) -> Posterior:
    """Posterior over the two plaintext bits after both ciphertexts of a
    reused one-bit key are observed."""
    if cipher_a not in (0, 1) or cipher_b not in (0, 1):
        raise ValueError("ciphertext bits must be 0 or 1")
    transcript = Transcript(Protocol.OTP, (str(cipher_a), str(cipher_b)))
    return eve_posterior(transcript)


def jz_otp_equivalence(initial: str, outcome: str) -> bool:
    """Whether the JZ posterior for (initial, outcome) has the same
    structure as a reused-key OTP posterior: two hypotheses at 1/2 each,
    bitwise complements, entropy 1 bit, with the XOR of the bits pinned."""
    if initial not in KET_LABELS:
        raise ValueError(f"unknown ket label {initial!r}")
    if outcome not in basis_labels_of(initial):
        raise TranscriptError(
            f"outcome {outcome!r} is not in the preparation basis of {initial!r}"
        )
    jz_post = eve_posterior(Transcript(Protocol.JZ, (initial, outcome)))
    jz_pairs = {
        (s.alice[0], s.others[0][0]): p for s, p in jz_post.hypotheses
    }
    if len(jz_pairs) != 2:
        return False
    (pair_a, pair_b) = sorted(jz_pairs)
    if pair_b != (1 - pair_a[0], 1 - pair_a[1]):
        return False
    otp_post = otp_reuse_posterior(*pair_a)
    otp_pairs = {
        (s.alice[0], s.others[0][0]): p for s, p in otp_post.hypotheses
    }
    if set(otp_pairs) != set(jz_pairs):
        return False
    if any(abs(jz_pairs[k] - otp_pairs[k]) > ATOL for k in jz_pairs):
        return False
    return abs(jz_post.entropy_bits - otp_post.entropy_bits) <= ATOL


@dataclass(frozen=True)
class TranscriptLeakage:
    """Leakage numbers for a single transcript."""

    transcript: Transcript
    probability: float
    posterior: Posterior
    entropy_bits: float
    leaked_bits: float


@dataclass(frozen=True)
class LeakageReport:
    """Full audit of a protocol: every reachable transcript with its
    probability and posterior, plus ensemble totals in bits."""

    protocol: Protocol
    parties: int | None
    total_bits: int
    secure_bits: float
    leaked_bits: float
    per_transcript: tuple[TranscriptLeakage, ...]


def _announced_sort_key(announced: tuple):
    return tuple(
        label.text if isinstance(label, BellLabel) else str(label)
        for label in announced
    )


def leakage_report(protocol: Protocol, parties: int | None = None) -> LeakageReport:
    """Enumerate every reachable transcript (exactly, no sampling) under
    uniform secrets (and uniform initial state / key where one exists) and
    audit each one's posterior."""
    if protocol is Protocol.MXN:
        if parties is None or not 3 <= parties <= 6:
            raise ValueError("mxn audits need parties in 3..6")
    elif parties not in (None, 2):
        raise ValueError(f"{protocol.text} has a fixed party count of 2")
    else:
        parties = None  # a fixed-size protocol's report carries no count

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
