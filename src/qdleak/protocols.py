"""Exact runs of three bidirectional quantum dialogue protocols.

The three protocols share one shape: one party prepares a quantum resource,
ships part of it around, every party encodes its secret bits with local
Pauli-alphabet operations on the traveling qubits, and a final measurement
plus the public announcements let each party decode everyone else's bits.
Each protocol also has its transcript channel here, P(announced | secrets):
a row (the whole distribution for one assignment) and a cell (one entry of
it, computed along the announced branch only), reached through
:func:`channel_row` and :func:`channel_cell`.  What an outside observer can
infer from the announcements is the business of :mod:`qdleak.leakage`.

Protocols:

* NBA: a Bell pair; both parties encode two bits each on the traveling
  qubit (index 1) via {I(00), sx(01), isy(10), sz(11)}; the preparer's final
  Bell measurement is deterministic.  Announced: initial and final labels.
* JZ: a single photon from {|0>,|1>,|+>,|->}; both parties encode one bit
  each via {I(0), isy(1)}; the preparer measures in the preparation basis.
  Announced: initial and outcome ket labels.
* MXN: two N-party GHZ multiplets; party 0 encodes two bits via
  {I(00), sz(01), isy(10), sx(11)} (note: a different bit order than NBA),
  parties 1..N-1 encode one bit each via {I(0), isy(1)}; qubit pairs
  (i, N+i) are measured in the Bell basis, and the N outcome labels are
  announced.  The announced tuple pins down the encoded GHZ label, which has
  exactly two consistent operation tuples; each party's own bits select one.
* OTP: not a quantum protocol but a classical reference point, two parties
  XOR-ing one plaintext bit each with the same reused key bit and announcing
  the ciphertexts.  It exists so the leakage module can compare structures;
  it has a channel but no run function.

All run functions are deterministic given their arguments (plus the rng for
MXN, which consumes one uniform draw per pair measurement, in pair order).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .qstate import (
    ATOL,
    BellLabel,
    GhzLabel,
    KET_LABELS,
    PauliOp,
    StateVector,
    all_ghz_labels,
    apply_pauli,
    bell_state,
    ghz_label_of,
    ghz_state,
    ket,
    project_bell,
    tensor,
)

Bits = tuple[int, ...]
BitsLike = Union[str, Iterable[int]]


class TranscriptError(ValueError):
    """A public transcript (or a secret claimed to explain one) is
    inconsistent: corrupted labels, impossible outcomes, or no/ambiguous
    decoding."""


class Protocol(Enum):
    NBA = "nba"
    JZ = "jz"
    MXN = "mxn"
    OTP = "otp"

    @property
    def text(self) -> str:
        return self.value


def as_bits(value: BitsLike, width: int) -> Bits:
    """Normalize "01"-style strings or int sequences to a bit tuple."""
    if isinstance(value, str):
        seq = [int(c) if c in "01" else -1 for c in value]
    else:
        seq = [int(b) for b in value]
    if len(seq) != width or any(b not in (0, 1) for b in seq):
        raise ValueError(f"expected {width} bits, got {value!r}")
    return tuple(seq)


def bits_to_str(bits: Iterable[int]) -> str:
    return "".join(str(b) for b in bits)


BIT_PAIRS: tuple[Bits, ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class SecretAssignment:
    """Everyone's secret bits: party 0 ("alice") plus the other parties.

    Bit widths are protocol-fixed: NBA 2+2, JZ and OTP 1+1, MXN 2 for party 0
    and 1 for each of parties 1..N-1 (N = total parties, 2..6).
    """

    protocol: Protocol
    alice: Bits
    others: tuple[Bits, ...]

    def __post_init__(self):
        alice_w, other_w, lo, hi = _SECRET_SHAPE[self.protocol]
        if len(self.alice) != alice_w or any(b not in (0, 1) for b in self.alice):
            raise ValueError(f"party 0 needs {alice_w} bits for {self.protocol.text}")
        if not lo <= len(self.others) <= hi:
            raise ValueError(
                f"{self.protocol.text} takes {lo}..{hi} other parties, got {len(self.others)}"
            )
        for bits in self.others:
            if len(bits) != other_w or any(b not in (0, 1) for b in bits):
                raise ValueError(f"each other party needs {other_w} bits, got {bits!r}")

    @property
    def num_parties(self) -> int:
        return 1 + len(self.others)

    @property
    def full_bits(self) -> tuple[Bits, ...]:
        return (self.alice, *self.others)

    def party_bits(self, party: int) -> Bits:
        return self.full_bits[party]


# (alice width, other width, min others, max others)
_SECRET_SHAPE = {
    Protocol.NBA: (2, 2, 1, 1),
    Protocol.JZ: (1, 1, 1, 1),
    Protocol.OTP: (1, 1, 1, 1),
    Protocol.MXN: (2, 1, 1, 5),
}

# The symbols one announced position may hold; a transcript announces one
# symbol per party.
_ANNOUNCED_SYMBOLS = {
    Protocol.NBA: tuple(BellLabel),
    Protocol.JZ: KET_LABELS,
    Protocol.OTP: ("0", "1"),
    Protocol.MXN: tuple(BellLabel),
}


def nba_secrets(alice: BitsLike, bob: BitsLike) -> SecretAssignment:
    return SecretAssignment(Protocol.NBA, as_bits(alice, 2), (as_bits(bob, 2),))


def jz_secrets(alice: int, bob: int) -> SecretAssignment:
    return SecretAssignment(Protocol.JZ, as_bits([alice], 1), (as_bits([bob], 1),))


def otp_secrets(alice: int, bob: int) -> SecretAssignment:
    return SecretAssignment(Protocol.OTP, as_bits([alice], 1), (as_bits([bob], 1),))


def mxn_secrets(alice: BitsLike, others: Sequence[BitsLike | int]) -> SecretAssignment:
    packed = tuple(
        as_bits([o], 1) if isinstance(o, int) else as_bits(o, 1) for o in others
    )
    return SecretAssignment(Protocol.MXN, as_bits(alice, 2), packed)


def all_secret_assignments(
    protocol: Protocol, parties: int | None = None
) -> tuple[SecretAssignment, ...]:
    """Every possible assignment, in lexicographic bit order (the uniform
    prior's support).  ``parties`` is ignored for fixed-size protocols."""
    alice_w, other_w, lo, hi = _SECRET_SHAPE[protocol]
    if lo == hi:
        parties = lo + 1
    if parties is None or not lo + 1 <= parties <= hi + 1:
        raise ValueError(
            f"{protocol.text} needs an explicit party count in {lo + 1}..{hi + 1}"
        )
    return tuple(
        SecretAssignment(protocol, alice, others)
        for alice in itertools.product((0, 1), repeat=alice_w)
        for others in itertools.product(
            itertools.product((0, 1), repeat=other_w), repeat=parties - 1
        )
    )


def total_secret_bits(protocol: Protocol, parties: int | None = None) -> int:
    """How many secret bits one run of the protocol communicates in total."""
    alice_w, other_w, lo, hi = _SECRET_SHAPE[protocol]
    if lo == hi:
        parties = lo + 1
    if parties is None:
        raise ValueError(f"{protocol.text} needs a party count")
    return alice_w + other_w * (parties - 1)


@dataclass(frozen=True)
class Transcript:
    """Exactly what the protocol announces in public, nothing else.

    announced: NBA -> (initial, final) Bell labels; JZ -> (initial, outcome)
    ket labels; MXN -> the N Bell labels in pair order; OTP -> the two
    ciphertext bits as "0"/"1" strings.
    """

    protocol: Protocol
    announced: tuple

    def __post_init__(self):
        a = self.announced
        _, _, lo, hi = _SECRET_SHAPE[self.protocol]
        symbols = _ANNOUNCED_SYMBOLS[self.protocol]
        if not (lo + 1 <= len(a) <= hi + 1 and all(x in symbols for x in a)):
            raise TranscriptError(f"bad {self.protocol.text} announcement {a!r}")


@dataclass(frozen=True)
class RunRecord:
    """One full protocol run: the secrets, the public transcript, and what
    each party decoded about everyone else ({other party index: bits})."""

    secrets: SecretAssignment
    transcript: Transcript
    decoded: tuple[Mapping[int, Bits], ...]


# --- coding alphabets ---------------------------------------------------

_NBA_OP_FOR_BITS = {
    (0, 0): PauliOp.I,
    (0, 1): PauliOp.SX,
    (1, 0): PauliOp.ISY,
    (1, 1): PauliOp.SZ,
}
_MXN_ALICE_OP_FOR_BITS = {
    (0, 0): PauliOp.I,
    (0, 1): PauliOp.SZ,
    (1, 0): PauliOp.ISY,
    (1, 1): PauliOp.SX,
}
_FLIP_OP_FOR_BIT = {0: PauliOp.I, 1: PauliOp.ISY}


def nba_op_for_bits(bits: Bits) -> PauliOp:
    """Two-bit NBA coding: 00->I, 01->sx, 10->isy, 11->sz."""
    return _NBA_OP_FOR_BITS[as_bits(bits, 2)]


def mxn_alice_op_for_bits(bits: Bits) -> PauliOp:
    """Party 0's MXN coding: 00->I, 01->sz, 10->isy, 11->sx.

    Deliberately not the NBA order; the two protocols fix different bit
    meanings for sx and sz.
    """
    return _MXN_ALICE_OP_FOR_BITS[as_bits(bits, 2)]


def mxn_alice_bits_for_op(op: PauliOp) -> Bits:
    return _MXN_ALICE_BITS_FOR_OP[op]


def flip_op_for_bit(bit: int) -> PauliOp:
    """One-bit coding shared by JZ and MXN parties 1..N-1: 0->I, 1->isy."""
    return _FLIP_OP_FOR_BIT[bit]


_MXN_ALICE_BITS_FOR_OP = {op: bits for bits, op in _MXN_ALICE_OP_FOR_BITS.items()}


# --- NBA ----------------------------------------------------------------


def nba_final_label(alice: Bits, bob: Bits, initial: BellLabel) -> BellLabel:
    """The (deterministic) final Bell result after both encodings.

    Bob encodes first, then Alice, both on the traveling qubit 1.  Because
    the coding alphabet maps Bell rays to Bell rays, exactly one outcome
    survives with probability 1 (within 1e-9); anything else is a bug.
    """
    state = bell_state(initial)
    state = apply_pauli(state, 1, nba_op_for_bits(bob))
    state = apply_pauli(state, 1, nba_op_for_bits(alice))
    outcomes = project_bell(state, (0, 1))
    if len(outcomes) != 1 or abs(outcomes[0].probability - 1.0) > ATOL:
        raise RuntimeError(f"nba final measurement not deterministic: {outcomes!r}")
    return outcomes[0].label


def run_nba(secrets: SecretAssignment, initial: BellLabel) -> RunRecord:
    """Execute one NBA dialogue and decode both ways."""
    if secrets.protocol is not Protocol.NBA:
        raise ValueError("run_nba needs NBA secrets")
    alice, bob = secrets.alice, secrets.others[0]
    final = nba_final_label(alice, bob, initial)
    transcript = Transcript(Protocol.NBA, (initial, final))
    decoded = (
        {1: nba_decode(alice, initial, final)},
        {0: nba_decode(bob, initial, final)},
    )
    return RunRecord(secrets, transcript, decoded)


def nba_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(announced | secrets) over the four equally likely initial labels."""
    alice, bob = secrets.alice, secrets.others[0]
    return {(i, nba_final_label(alice, bob, i)): 0.25 for i in BellLabel}


def nba_cell(secrets: SecretAssignment, announced: tuple) -> float:
    """One entry of :func:`nba_row`, for the announced initial label only."""
    initial, final = announced
    hit = nba_final_label(secrets.alice, secrets.others[0], initial) == final
    return 0.25 if hit else 0.0


def nba_decode(own: Bits, initial: BellLabel, final: BellLabel) -> Bits:
    """Recover the counterpart's two bits from the announced labels plus
    one's own bits.  Exactly one counterpart coding is consistent; zero or
    several mean a corrupted transcript.

    The search is order-blind: the coding operations commute up to phase,
    so decoding works the same for both parties."""
    own = as_bits(own, 2)
    matches = [
        bits for bits in BIT_PAIRS if nba_final_label(own, bits, initial) == final
    ]
    if len(matches) != 1:
        raise TranscriptError(
            f"{len(matches)} counterpart codings consistent with "
            f"({initial.text}, {final.text}) given own bits {bits_to_str(own)}"
        )
    return matches[0]


def nba_consistent_pairs(
    initial: BellLabel, final: BellLabel
) -> tuple[tuple[Bits, Bits], ...]:
    """All (alice bits, bob bits) pairs producing ``final`` from
    ``initial``, ordered by alice's bits.  Always four pairs, one per alice
    value."""
    return tuple(
        (a, b)
        for a in BIT_PAIRS
        for b in BIT_PAIRS
        if nba_final_label(a, b, initial) == final
    )


# --- JZ -----------------------------------------------------------------


def basis_labels_of(label: str) -> tuple[str, str]:
    """The measurement-basis label pair a ket label belongs to."""
    if label in ("0", "1"):
        return ("0", "1")
    if label in ("+", "-"):
        return ("+", "-")
    raise ValueError(f"unknown ket label {label!r}")


def jz_outcome_label(alice: int, bob: int, initial: str) -> str:
    """The (deterministic) measured ket label after both one-bit encodings.

    Bob encodes first, then Alice; the preparer measures in the preparation
    basis.  {I, isy} maps each basis to itself up to phase, so one outcome
    has probability 1."""
    state = ket(initial)
    state = apply_pauli(state, 0, flip_op_for_bit(bob))
    state = apply_pauli(state, 0, flip_op_for_bit(alice))
    for candidate in basis_labels_of(initial):
        amp = np.vdot(ket(candidate).amplitudes, state.amplitudes)
        prob = float(abs(amp) ** 2)
        if abs(prob - 1.0) <= ATOL:
            return candidate
    raise RuntimeError("jz measurement not deterministic")


def run_jz(secrets: SecretAssignment, initial: str) -> RunRecord:
    """Execute one JZ dialogue and decode both ways."""
    if secrets.protocol is not Protocol.JZ:
        raise ValueError("run_jz needs JZ secrets")
    alice, bob = secrets.alice[0], secrets.others[0][0]
    outcome = jz_outcome_label(alice, bob, initial)
    transcript = Transcript(Protocol.JZ, (initial, outcome))
    decoded = (
        {1: (jz_decode(alice, initial, outcome),)},
        {0: (jz_decode(bob, initial, outcome),)},
    )
    return RunRecord(secrets, transcript, decoded)


def jz_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(announced | secrets) over the four equally likely initial kets."""
    alice, bob = secrets.alice[0], secrets.others[0][0]
    return {(i, jz_outcome_label(alice, bob, i)): 0.25 for i in KET_LABELS}


def jz_cell(secrets: SecretAssignment, announced: tuple) -> float:
    """One entry of :func:`jz_row`, for the announced initial ket only."""
    initial, outcome = announced
    hit = jz_outcome_label(secrets.alice[0], secrets.others[0][0], initial) == outcome
    return 0.25 if hit else 0.0


def jz_decode(own: int, initial: str, outcome: str) -> int:
    """Counterpart's bit: whether the ket flipped, minus one's own flip."""
    if own not in (0, 1):
        raise ValueError(f"own bit must be 0 or 1, got {own!r}")
    if outcome not in basis_labels_of(initial):
        raise TranscriptError(
            f"outcome {outcome!r} is not in the preparation basis of {initial!r}"
        )
    flipped = int(initial != outcome)
    return flipped ^ own


# --- OTP ----------------------------------------------------------------


def otp_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(ciphertexts | plaintexts) over the two equally likely key bits."""
    alice, bob = secrets.alice[0], secrets.others[0][0]
    return {(str(alice ^ key), str(bob ^ key)): 0.5 for key in (0, 1)}


def otp_cell(secrets: SecretAssignment, announced: tuple) -> float:
    """One entry of :func:`otp_row`: one key bit explains the ciphertexts
    exactly when their XOR equals the plaintexts' XOR."""
    cipher_xor = int(announced[0]) ^ int(announced[1])
    return 0.5 if secrets.alice[0] ^ secrets.others[0][0] == cipher_xor else 0.0


# --- MXN ----------------------------------------------------------------


def mxn_ops_for_secrets(secrets: SecretAssignment) -> tuple[PauliOp, ...]:
    """The per-party operation tuple encoding an MXN assignment."""
    if secrets.protocol is not Protocol.MXN:
        raise ValueError("needs MXN secrets")
    return (
        mxn_alice_op_for_bits(secrets.alice),
        *(flip_op_for_bit(b[0]) for b in secrets.others),
    )


def two_party_ops(secrets: SecretAssignment) -> tuple[PauliOp, PauliOp]:
    """The (alice, bob) operations encoding an NBA or JZ assignment."""
    if secrets.protocol is Protocol.NBA:
        return nba_op_for_bits(secrets.alice), nba_op_for_bits(secrets.others[0])
    return flip_op_for_bit(secrets.alice[0]), flip_op_for_bit(secrets.others[0][0])


def mxn_secrets_for_ops(ops: Sequence[PauliOp]) -> SecretAssignment:
    """Inverse of :func:`mxn_ops_for_secrets`."""
    return mxn_secrets(
        mxn_alice_bits_for_op(ops[0]),
        [_FLIP_BIT_FOR_OP[op] for op in ops[1:]],
    )


_FLIP_BIT_FOR_OP = {PauliOp.I: 0, PauliOp.ISY: 1}


def ghz_after_ops(ops: Sequence[PauliOp]) -> GhzLabel:
    """The GHZ label reached by applying per-party ops to the all-zero label.

    ops[0] may be any of the four operations; ops[1..] must come from
    {I, isy}.  The coding alphabet permutes GHZ rays, so the search over
    labels always finds exactly one match."""
    ops = tuple(ops)
    n = len(ops)
    if not 2 <= n <= 6:
        raise ValueError(f"ops must cover 2..6 parties, got {n}")
    if any(op not in (PauliOp.I, PauliOp.ISY) for op in ops[1:]):
        raise ValueError("parties 1..N-1 may only encode with I or isy")
    state = ghz_state(GhzLabel(0, (0,) * (n - 1)))
    for qubit, op in enumerate(ops):
        state = apply_pauli(state, qubit, op)
    label = ghz_label_of(state)
    if label is None:  # pragma: no cover - alphabet preserves the basis
        raise RuntimeError("encoding left the GHZ basis")
    return label


@functools.lru_cache(maxsize=None)
def _op_tuples_by_label(parties: int) -> dict[GhzLabel, tuple[tuple[PauliOp, ...], ...]]:
    """label -> the operation tuples encoding it (always exactly two)."""
    table: dict[GhzLabel, list] = {}
    alice_ops = (PauliOp.I, PauliOp.SZ, PauliOp.ISY, PauliOp.SX)
    for first in alice_ops:
        for rest in itertools.product((PauliOp.I, PauliOp.ISY), repeat=parties - 1):
            ops = (first, *rest)
            table.setdefault(ghz_after_ops(ops), []).append(ops)
    return {label: tuple(tuples) for label, tuples in table.items()}


def op_tuples_for_label(label: GhzLabel) -> tuple[tuple[PauliOp, ...], ...]:
    """The operation tuples that encode a GHZ label.

    Always exactly two.  Read as secret bits they differ in every position
    except one: for an even party count, party 0's second bit is shared
    (isy on every qubit fixes each GHZ ray only when N is even, sx tensor
    isy^(N-1) only when N is odd).  Either way each party's own bits
    separate the two tuples, which is what decoding relies on."""
    return _op_tuples_by_label(label.num_qubits)[label]


def mxn_encoded_state(secrets: SecretAssignment) -> StateVector:
    """Both GHZ multiplets after all encodings: qubits 0..N-1 are the
    traveling halves (all-zero label before encoding), N..2N-1 the kept
    multiplet carrying the secret label."""
    n = secrets.num_parties
    home = ghz_state(GhzLabel(0, (0,) * (n - 1)))
    state = tensor(home, home)
    for party, op in enumerate(mxn_ops_for_secrets(secrets)):
        state = apply_pauli(state, n + party, op)
    return state


def run_mxn(secrets: SecretAssignment, rng: np.random.Generator) -> RunRecord:
    """Execute one MXN dialogue: encode, measure pairs (i, N+i) in pair
    order (sampling each branch), announce the labels, decode per party."""
    n = secrets.num_parties
    if not 3 <= n <= 6:
        raise ValueError(f"run_mxn supports 3..6 parties, got {n}")
    state = mxn_encoded_state(secrets)
    labels = []
    for step in range(n):
        # After `step` pair measurements the register holds qubits
        # step..N-1 and N+step..2N-1, so pair (step, N+step) of the
        # original numbering sits at local indices (0, N-step).
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
    transcript = Transcript(Protocol.MXN, tuple(labels))
    decoded = tuple(
        mxn_decode(party, secrets.party_bits(party), transcript) for party in range(n)
    )
    return RunRecord(secrets, transcript, decoded)


def deduce_ghz_from_bells(outcomes: Sequence[BellLabel]) -> set[GhzLabel]:
    """GHZ labels consistent with an announced Bell-outcome tuple.

    A label is consistent when the joint pair-measurement outcome has
    nonzero probability on the doubled state (all-zero multiplet tensor the
    labelled multiplet).  The pair projectors act on disjoint qubits and
    commute, so the joint probability is the single inner product
    |<B_1 ... B_N | psi>|^2, which this computes directly.  Every
    well-formed tuple turns out to be consistent with exactly one label; the
    empty-set error exists for defensive completeness."""
    outcomes = tuple(outcomes)
    n = len(outcomes)
    if not 2 <= n <= 6:
        raise TranscriptError(f"expected 2..6 Bell labels, got {n}")
    if any(not isinstance(label, BellLabel) for label in outcomes):
        raise TranscriptError(f"not Bell labels: {outcomes!r}")
    bell_vec = functools.reduce(
        np.kron, (bell_state(label).amplitudes for label in outcomes)
    )
    consistent = set()
    for label in all_ghz_labels(n):
        amp = np.vdot(bell_vec, _pair_ordered_doubled_ghz(label))
        if float(abs(amp) ** 2) > ATOL:
            consistent.add(label)
    if not consistent:
        raise TranscriptError(f"no GHZ label is consistent with {outcomes!r}")
    return consistent


@functools.lru_cache(maxsize=None)
def _pair_ordered_doubled_ghz(label: GhzLabel) -> np.ndarray:
    """ghz_0 tensor ghz_label with axes permuted to (0,N,1,N+1,...) so pair
    amplitudes line up with a kron of Bell vectors."""
    n = label.num_qubits
    state = tensor(ghz_state(GhzLabel(0, (0,) * (n - 1))), ghz_state(label))
    perm = [axis for i in range(n) for axis in (i, n + i)]
    vec = state.tensor_view().transpose(perm).ravel()
    vec = np.ascontiguousarray(vec)
    vec.setflags(write=False)
    return vec


def paired_bell_probability(
    state: StateVector, outcomes: Sequence[BellLabel]
) -> float:
    """Probability of a specific Bell-label tuple when measuring pairs
    (i, N+i) of a 2N-qubit state, following the collapse branch by branch.
    Returns 0.0 as soon as the branch dies."""
    outcomes = tuple(outcomes)
    n = state.num_qubits // 2
    if state.num_qubits != 2 * n or len(outcomes) != n:
        raise ValueError("state must hold 2N qubits and outcomes N labels")
    prob = 1.0
    for step, wanted in enumerate(outcomes):
        by_label = {b.label: b for b in project_bell(state, (0, n - step))}
        if wanted not in by_label:
            return 0.0
        branch = by_label[wanted]
        prob *= branch.probability
        state = branch.state
    return prob


def paired_bell_distribution(
    state: StateVector,
) -> dict[tuple[BellLabel, ...], float]:
    """Exact joint distribution of all N pairwise Bell outcomes on a
    2N-qubit state, by enumerating every surviving branch (no sampling)."""
    n = state.num_qubits // 2
    if state.num_qubits != 2 * n:
        raise ValueError("state must hold an even number of qubits")
    dist: dict[tuple[BellLabel, ...], float] = {}

    def walk(current: StateVector, step: int, prefix: tuple, prob: float) -> None:
        if step == n:
            dist[prefix] = prob
            return
        for branch in project_bell(current, (0, n - step)):
            walk(branch.state, step + 1, prefix + (branch.label,), prob * branch.probability)

    walk(state, 0, (), 1.0)
    return dist


def mxn_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """P(announced | secrets): the joint law of the N pair outcomes."""
    return paired_bell_distribution(mxn_encoded_state(secrets))


def mxn_cell(secrets: SecretAssignment, announced: tuple) -> float:
    """One entry of :func:`mxn_row`, following only the announced branch."""
    return paired_bell_probability(mxn_encoded_state(secrets), announced)


def mxn_decode(party: int, own: Bits, transcript: Transcript) -> dict[int, Bits]:
    """Recover every other party's bits from the announced Bell labels plus
    one's own bits.

    The announced tuple determines the encoded GHZ label; that label has
    exactly two consistent operation tuples, and every party's own bits
    differ between them, so the own-bits filter keeps exactly one."""
    if transcript.protocol is not Protocol.MXN:
        raise TranscriptError("mxn_decode needs an MXN transcript")
    n = len(transcript.announced)
    if not 0 <= party < n:
        raise ValueError(f"party {party} out of range for {n} parties")
    labels = deduce_ghz_from_bells(transcript.announced)
    if len(labels) != 1:
        raise TranscriptError(f"announcement does not pin down one GHZ label: {labels!r}")
    (label,) = labels
    matches = [
        mxn_secrets_for_ops(ops)
        for ops in op_tuples_for_label(label)
        if mxn_secrets_for_ops(ops).party_bits(party) == tuple(own)
    ]
    if len(matches) != 1:
        raise TranscriptError(
            f"{len(matches)} assignments consistent with own bits {bits_to_str(own)}"
        )
    full = matches[0].full_bits
    return {j: full[j] for j in range(n) if j != party}


# --- transcript channels ------------------------------------------------

# protocol -> (row, cell) of P(announced | secrets)
_CHANNELS = {
    Protocol.NBA: (nba_row, nba_cell),
    Protocol.JZ: (jz_row, jz_cell),
    Protocol.OTP: (otp_row, otp_cell),
    Protocol.MXN: (mxn_row, mxn_cell),
}


def channel_row(secrets: SecretAssignment) -> dict[tuple, float]:
    """Every announced tuple the assignment can produce, with its
    probability averaged over the public choices a run draws uniformly."""
    return _CHANNELS[secrets.protocol][0](secrets)


def channel_cell(secrets: SecretAssignment, announced: tuple) -> float:
    """``channel_row(secrets).get(announced, 0.0)``, touching only the
    public choice and the Bell branches the announced tuple names."""
    return _CHANNELS[secrets.protocol][1](secrets, announced)
