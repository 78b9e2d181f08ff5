"""What an eavesdropper learns from the public transcript alone.

The threat model is passive: the observer sees every public announcement,
knows the protocol completely, and holds no quantum access.  Starting from a
uniform prior over all secret assignments, the posterior keeps exactly the
assignments that could have produced the announced transcript, weighted by
the probability of producing it.  That probability, P(announced | secrets),
is each protocol's transcript channel, read one column at a time from
:mod:`qdleak.protocols` (:func:`~qdleak.protocols.named_coset`): a
single transcript's posterior is its column, normalized.  A tuple's column
is the coset of the public syndrome it names, every member at one weight,
so normalizing cancels the weight and the posterior is the coset at equal
weight.  One cached table per protocol and party count holds those
posteriors (:func:`_coset_posteriors`): :func:`eve_posterior` is one
lookup of the code a transcript names, and an audit is a coset table that
reads the same posteriors, one per coset of assignments that publish the
same syndrome (2^N for mxn, 4 for nba, 2 for jz and otp), and one entry
per tuple of the announced alphabet that names the coset it belongs to.
Only an audit's probabilities read the weight, which for mxn is one engine
walk per party count.  Tests hold the lookup to the column, which
``tests/channel_reference.py`` reads off the same coset.  Nothing here
depends on how a protocol produces its announcements.
Leakage is quantified in bits:

    leaked = total secret bits - Shannon entropy of the posterior.

A report carries each coset's numbers, one entry per reachable transcript
naming its coset, and the ensemble average.  For these protocols every
coset has the same entropy, so a transcript's leak and the average
coincide; tests assert this rather than assuming it.

The classical reference point OTP (two parties XOR-ing their plaintext bits
with one shared, reused key bit and announcing the ciphertexts) gets the
same treatment, so its structure can be compared with JZ's.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .protocols import (
    ANNOUNCED_SYMBOLS,
    Protocol,
    SecretAssignment,
    Transcript,
    TranscriptError,
    _check_mxn_parties,
    _cosets,
    _label_code,
    _tuple_weight,
    alphabet_syndromes,
    party_count,
    total_secret_bits,
)
from .qstate import KET_LABELS, is_bit


# How far below 0 an entry, and how far from 1 the sum, may round.
NEGATIVE_FLOOR = 1e-12
SUM_TOLERANCE = 1e-9


def shannon_entropy(probabilities: Iterable[float]) -> float:
    """Entropy in bits of a probability vector; 0 * log 0 counts as 0."""
    p = [float(x) for x in probabilities]
    if not p:
        raise ValueError("empty distribution")
    if not all(map(math.isfinite, p)):
        raise ValueError("non-finite probability")
    if any(x < -NEGATIVE_FLOOR for x in p):
        raise ValueError("negative probability")
    total = sum(p)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return -sum(x * math.log2(x) for x in p if x > 0)


@dataclass(frozen=True)
class Posterior:
    """The observer's belief after seeing one transcript: hypotheses with
    their probabilities, sorted by the parties' bit strings."""

    hypotheses: tuple[tuple[SecretAssignment, float], ...]

    @classmethod
    def from_weights(
        cls, weighted: Iterable[tuple[SecretAssignment, float]]
    ) -> "Posterior":
        """Normalize weights into a posterior: an exact 0 drops its
        hypothesis, a negative or non-finite weight is refused."""
        items = [(s, w) for s, w in weighted if w]
        for _, w in items:
            if not 0.0 < w < math.inf:
                raise TranscriptError(f"weight {w!r} is not a finite probability")
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


@functools.lru_cache(maxsize=None)
def _coset_posteriors(protocol: Protocol, parties: int) -> dict[int, Posterior]:
    """public syndrome -> the posterior every tuple naming it leaves, keyed
    like :func:`~qdleak.protocols._cosets` and built once per protocol and
    party count.  A coset's members share one P(announced | secrets), which
    normalizing cancels, so each posterior is its coset at equal weight."""
    return {
        code: Posterior.from_weights((s, 1.0) for s in coset)
        for code, coset in _cosets(protocol, parties).items()
    }


def eve_posterior(transcript: Transcript) -> Posterior:
    """Posterior over all secret assignments given one public transcript,
    starting from a uniform prior: the cached posterior of the coset the
    transcript's code names, the one the audit reports.  It equals the
    transcript's column of the channel, the coset
    :func:`~qdleak.protocols.named_coset` names at its weight, normalized;
    tests hold it to ``channel_column`` of ``tests/channel_reference.py``.
    An mxn transcript needs a party count in
    :data:`~qdleak.protocols.MXN_PARTIES`."""
    protocol, announced = transcript.protocol, transcript.announced
    n = len(announced)
    if protocol is Protocol.MXN:
        _check_mxn_parties(n)
    posterior = _coset_posteriors(protocol, n).get(_label_code(protocol, announced))
    if posterior is None:
        raise TranscriptError("no hypothesis is consistent with the transcript")
    return posterior


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
    if not (is_bit(cipher_a) and is_bit(cipher_b)):
        raise ValueError("ciphertext bits must be 0 or 1")
    transcript = Transcript(Protocol.OTP, (str(cipher_a), str(cipher_b)))
    return eve_posterior(transcript)


def jz_otp_equivalence(initial: str, outcome: str) -> bool:
    """Whether the JZ posterior for (initial, outcome) is the reused-key
    OTP posterior of its first hypothesis's bits as ciphertexts: two
    bitwise complements at 1/2 each, with the XOR of the bits pinned."""
    if initial not in KET_LABELS:
        raise ValueError(f"unknown ket label {initial!r}")
    jz = eve_posterior(Transcript(Protocol.JZ, (initial, outcome))).hypotheses
    (alice,), (bob,) = jz[0][0].full_bits
    otp = otp_reuse_posterior(alice, bob).hypotheses
    return [(s.full_bits, p) for s, p in jz] == [(s.full_bits, p) for s, p in otp]


@dataclass(frozen=True)
class CosetLeakage:
    """Leakage numbers for one coset: the probability that a transcript
    names it, and the posterior every such transcript leaves."""

    probability: float
    posterior: Posterior
    entropy_bits: float
    leaked_bits: float


@dataclass(frozen=True)
class LeakageReport:
    """Full audit of a protocol as a coset table, plus ensemble totals in
    bits.

    ``cosets`` holds each coset's numbers once.  ``entries`` lists every
    reachable transcript, in audit order, as (its symbols' indices into
    :data:`~qdleak.protocols.ANNOUNCED_SYMBOLS`, the index of the coset it
    names); the constructor refuses an entry that is not such a pair, a
    two-party report whose ``parties`` is not None, and an mxn one whose
    count is outside :data:`~qdleak.protocols.MXN_PARTIES`."""

    protocol: Protocol
    parties: int | None
    total_bits: int
    secure_bits: float
    leaked_bits: float
    cosets: tuple[CosetLeakage, ...]
    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        width = party_count(self.protocol, self.parties)
        if self.protocol is Protocol.MXN:
            _check_mxn_parties(width)
        elif self.parties is not None:
            raise ValueError(
                f"a {self.protocol.text} report carries parties=None, got {self.parties!r}"
            )
        symbols = len(ANNOUNCED_SYMBOLS[self.protocol])
        # set inclusion also refuses negative indices, which would
        # otherwise count from the end
        if not (
            {len(indices) for indices, _ in self.entries} <= {width}
            and set(itertools.chain.from_iterable(i for i, _ in self.entries))
            <= set(range(symbols))
            and {coset for _, coset in self.entries} <= set(range(len(self.cosets)))
        ):
            raise ValueError(
                f"{self.protocol.text} report entries need {width} symbol indices"
                f" in 0..{symbols - 1} and a coset index in 0..{len(self.cosets) - 1}"
            )


def leakage_report(protocol: Protocol, parties: int | None = None) -> LeakageReport:
    """Enumerate every reachable transcript (exactly, no sampling) under
    uniform secrets (and uniform initial state / key where one exists) and
    audit each coset's posterior.

    The report's cosets follow the keys of
    :func:`~qdleak.protocols._cosets`, each with its probability and
    entropy computed once and the cached posterior :func:`eve_posterior`
    hands out (:func:`_coset_posteriors`); only the probabilities read the
    protocol's tuple weight.  Its entries follow the tuples of
    :data:`~qdleak.protocols.ANNOUNCED_SYMBOLS` in ``itertools.product``
    order, which is the order of the symbols' texts, skipping the tuples
    whose code names no coset.  The codes of all tuples come from one call
    (:func:`~qdleak.protocols.alphabet_syndromes`); per tuple there is only
    its entry, with no :class:`~qdleak.protocols.Transcript`.  An mxn
    audit refuses a party count outside
    :data:`~qdleak.protocols.MXN_PARTIES`."""
    n = party_count(protocol, parties)
    total = total_secret_bits(protocol, n)
    prior = 1.0 / 2**total
    codes = alphabet_syndromes(protocol, n)
    weight = _tuple_weight(protocol, n)
    table = _coset_posteriors(protocol, n)
    cosets = []
    for posterior in table.values():
        entropy = shannon_entropy(posterior.probabilities)
        # the coset's probability: its members' weights summed one by one
        mass = sum(weight for _ in posterior.hypotheses)
        cosets.append(CosetLeakage(prior * mass, posterior, entropy, total - entropy))
    index = {code: k for k, code in enumerate(table)}
    tuples = itertools.product(range(len(ANNOUNCED_SYMBOLS[protocol])), repeat=n)
    entries = tuple((t, index[code]) for t, code in zip(tuples, codes) if code in index)
    terms = [c.probability * c.entropy_bits for c in cosets]
    secure = sum(terms[k] for _, k in entries)
    return LeakageReport(
        protocol=protocol,
        # a two-party protocol's report carries no count
        parties=n if protocol is Protocol.MXN else None,
        total_bits=total,
        secure_bits=secure,
        leaked_bits=total - secure,
        cosets=tuple(cosets),
        entries=entries,
    )
