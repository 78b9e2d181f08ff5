"""The transcript channels row by row, and the audit that reads them.

A row is the whole distribution P(announced | secrets) of one assignment,
averaged over the public choice a run draws uniformly (initial Bell label,
initial ket, key bit; none for mxn).  ``reference_leakage_report`` is the
audit built from all 2^(N+1) rows at once: a likelihood table keyed by
announced tuple, sorted by the symbols' texts, with one entry per
transcript.  Tests hold ``qdleak.protocols.channel_column`` and
``qdleak.leakage.leakage_report``, which read one column per announced
tuple and one posterior per coset, to these; ``spelled_entries`` spells a
report's entries out in the reference's shape.

An mxn row is the engine walk of its GHZ label (``_label_row``).
``exact_mxn_law`` is a second, independent reference for it: the same law
as exact fractions, from an integer contraction with no floating point.
``label_code`` is the label an announced tuple names, bit by bit, the
reference for the term table ``qdleak.protocols._label_code`` reads.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from qdleak.leakage import CosetLeakage, LeakageReport, Posterior
from qdleak.protocols import (
    ANNOUNCED_SYMBOLS,
    Protocol,
    SecretAssignment,
    Transcript,
    _check_mxn_parties,
    all_secret_assignments,
    jz_outcome_label,
    mxn_label,
    nba_final_label,
    paired_bell_distribution,
    total_secret_bits,
)
from qdleak.qstate import KET_LABELS, BellLabel, GhzLabel, ghz_state, tensor


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


@functools.lru_cache(maxsize=None)
def _label_row(label: GhzLabel) -> dict[tuple, float]:
    """The joint law of the N pair outcomes for every assignment encoding
    ``label``: the engine walk on the all-zero multiplet tensor the
    labelled one, which equals each such assignment's encoded state up to a
    sign.  Shared, so callers only read it."""
    home = ghz_state(GhzLabel(0, (0,) * (label.num_qubits - 1)))
    return paired_bell_distribution(tensor(home, ghz_state(label)))


def mxn_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(announced | secrets): a copy of the cached engine walk of the
    secrets' GHZ label."""
    return dict(_label_row(mxn_label(secrets)))


# sqrt2 * <B| for each Bell label in BellLabel order, over the pair's basis
# index 2a + b (qubit i is a, qubit N+i is b): phi+/- = |00> +/- |11>,
# psi+/- = |01> +/- |10>.
_SQRT2_BELL_ROWS = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=np.int64
)


def _sqrt2_ghz(label: GhzLabel) -> np.ndarray:
    """sqrt2 * the GHZ state |0, y> + (-1)^x |1, ~y>, as integers shaped
    one axis per qubit."""
    vec = np.zeros((2,) * label.num_qubits, dtype=np.int64)
    low = (0, *label.y)
    vec[low] = 1
    vec[tuple(1 - b for b in low)] = (-1) ** label.x
    return vec


def exact_mxn_law(label: GhzLabel) -> dict[tuple[BellLabel, ...], Fraction]:
    """P(tuple | label) for every tuple of N Bell labels, exactly.

    2 * (the doubled state) and sqrt2 * each Bell bra are integer, so the
    contraction gives an integer k per tuple whose amplitude is
    k / (2 * sqrt2^N), and the probability is k^2 / 2^(N+2)."""
    n = label.num_qubits
    doubled = np.multiply.outer(_sqrt2_ghz(GhzLabel(0, (0,) * (n - 1))), _sqrt2_ghz(label))
    # one axis per pair (i, N+i), indexed 2a + b
    pair_order = [axis for i in range(n) for axis in (i, n + i)]
    k = doubled.transpose(pair_order).reshape((4,) * n)
    for pair in range(n):
        k = np.moveaxis(np.tensordot(_SQRT2_BELL_ROWS, k, axes=([1], [pair])), 0, pair)
    # k's C order is the tuples' lexicographic BellLabel order
    tuples = itertools.product(BellLabel, repeat=n)
    return {t: Fraction(v * v, 2 ** (n + 2)) for t, v in zip(tuples, k.ravel().tolist())}


def label_code(outcomes: tuple[BellLabel, ...]) -> int:
    """The index in ``all_ghz_labels`` of the GHZ label the tuple names,
    pair by pair: x is the XOR of the minus bits, y_i is psi_0 ^ psi_i, and
    the index holds x then y_1..y_(N-1), most significant first."""
    psi = [int(label.text.startswith("psi")) for label in outcomes]
    x = y = 0
    for label, psi_i in zip(outcomes, psi):
        x ^= int(label.text.endswith("-"))
        y = (y << 1) | (psi_i ^ psi[0])  # pair 0 adds a leading 0 bit
    return (x << (len(outcomes) - 1)) | y


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


def spelled_entries(report: LeakageReport) -> tuple[tuple[Transcript, CosetLeakage], ...]:
    """Each entry of a report as a validated Transcript and the numbers of
    the coset it names."""
    symbols = ANNOUNCED_SYMBOLS[report.protocol]
    return tuple(
        (Transcript(report.protocol, tuple(symbols[i] for i in indices)), report.cosets[k])
        for indices, k in report.entries
    )


def reference_leakage_report(
    protocol: Protocol, parties: int | None = None
) -> tuple[tuple[tuple[Transcript, CosetLeakage], ...], tuple[int, float, float]]:
    """The audit from every row, a likelihood table, sorted: one
    (transcript, numbers) entry per transcript, and the total, secure and
    leaked bits."""
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
            (
                Transcript(protocol, announced),
                CosetLeakage(probability, posterior, entropy, total - entropy),
            )
        )
    secure = sum(c.probability * c.entropy_bits for _, c in entries)
    return tuple(entries), (total, secure, total - secure)
