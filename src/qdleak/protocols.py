"""Exact runs of three bidirectional quantum dialogue protocols.

The three protocols share one shape: one party prepares a quantum resource,
ships part of it around, every party encodes its secret bits with local
Pauli-alphabet operations on the traveling qubits, and a final measurement
plus the public announcements let each party decode everyone else's bits.
Each party's operation is the one its bits select in its protocol's coding
table, which :func:`coding_ops` reads for every party at once.
Each protocol also has its transcript channel here, P(announced | secrets),
read one column at a time: every assignment that can produce one announced
tuple, with its probability.  Every protocol's channel is one syndrome
code over GF(2) and one weight.  An announced tuple names a code, the XOR
of its symbols' terms from one cached table (:func:`_label_terms`,
:func:`_label_code`); an assignment publishes one, the XOR of its set
bits' terms from another (:func:`_secret_terms`,
:func:`_public_syndrome`): two term tables, one code.  A transcript
names the coset of the code the secrets publish, and one table
(:func:`_cosets`) groups the assignments by that code.  A column is the
coset of the code a tuple names, at the protocol's weight
(:func:`_tuple_weight`, :func:`named_coset`); a code that is no key of
the table names no coset.
An audit reads the code of every tuple of the announced alphabet,
:data:`ANNOUNCED_SYMBOLS`, whose symbols are listed in audit order (the
order of their texts), from one walk of the announced symbols' table
(:func:`alphabet_syndromes`); a single posterior reads the code one tuple
names (:func:`_label_code`).  Tests hold both to the column, which
``tests/channel_reference.py`` reads off :func:`named_coset`.  What an
outside observer can infer from the announcements is the business of
:mod:`qdleak.leakage`.

The same code is what the parties decode from.  Every run announces a
tuple that names its assignment's code, and every party decodes from the
coset that code names (:func:`_coset_decode`): of its assignments, the one
whose bits at the party's position are the party's own.  Every run ends in
one tail (:func:`_run`), and :func:`nba_decode`, :func:`jz_decode` and
:func:`mxn_decode` check the caller's bits and read the same coset.  An
eavesdropper, holding no bits of its own, is left with the whole coset.

Every layer takes the party counts decided here once: :func:`party_count`
accepts None or 2 for nba, jz and otp and 2..6 for mxn assignments,
transcripts and label maps; mxn runs, decoding, columns, posteriors and
audits take :data:`MXN_PARTIES` (3..6).

Protocols:

* NBA: a Bell pair; both parties encode two bits each on the traveling
  qubit (index 1) via {I(00), sx(01), isy(10), sz(11)}; the preparer
  measures the pair in the Bell basis.  Announced: initial and final labels.
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

Both two-party protocols are label arithmetic over GF(2), with no state
vector.  A symbol's bits are its index in the alphabet: a Bell label's
(psi, minus), the signs of Z tensor Z and X tensor X, or a ket's (basis,
value).  A secret bit's term is the index of the symbol its coding
operation makes of phi+ or +: an X part flips psi, a Z part minus or +.  A
run's second symbol is the index of its first XOR the assignment's code
(:func:`_second_symbol`, which :func:`nba_final_label` and
:func:`jz_outcome_label` call on raw bits), a tuple's code is the XOR of
its indices, and a jz code with the basis bit set names no coset.  A
two-party coset is {(a, a ^ x)}, so party 0's decoding rule, own ^ x,
serves both parties; tests hold both labels to their engine versions.

MXN's encoded state is the all-zero multiplet tensor the multiplet of the
secrets' GHZ label, up to a sign, so the joint law of its N pair outcomes
depends on that label alone: the 2^N tuples that name the label, each
equally likely.  So an mxn column is the two assignments of the label the
tuple names, each at one engine number per party count
(:func:`_tuple_probability`): the branch-by-branch
:func:`~qdleak.qstate.project_bell` walk (:func:`paired_bell_distribution`)
of the all-zero doubled multiplet, read at one tuple.  A run needs no
table: it samples that law pair by pair with GF(2) arithmetic on the
label's bits, the draws the engine's collapse would make.  Labels need no
state vector either: an announced tuple's label
(:func:`deduce_ghz_from_bells`) and an assignment's (:func:`mxn_label`, by
the same rule at each party's pair) are each the code its term table gives,
an index into :func:`~qdleak.qstate.all_ghz_labels`.  Runs, decoding and
columns XOR one tuple's terms, and the audit walks the table once, pair by
pair, for the codes of all 4^N tuples.  The engine versions,
:func:`ghz_after_ops`, :func:`paired_bell_probability` on
:func:`mxn_encoded_state` and every label's own walk, are what tests hold
them to.

All run functions are deterministic given their arguments, plus the rng for
MXN, which consumes exactly one uniform draw per pair, in pair order.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .qstate import (
    ATOL,
    BellLabel,
    GhzLabel,
    PauliOp,
    StateVector,
    all_ghz_labels,
    apply_pauli,
    bell_state,
    ghz_label_of,
    ghz_state,
    is_bit,
    is_int,
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

    # Members compare by identity, so the identity hash agrees with ==;
    # it runs in C, where Enum's hash(self._name_) is a Python call on
    # every Protocol-keyed lookup.
    __hash__ = object.__hash__

    @property
    def text(self) -> str:
        return self.value


def as_bits(value: BitsLike, width: int) -> Bits:
    """Normalize "01"-style strings or int sequences to a bit tuple."""
    if isinstance(value, str):
        seq = [int(c) if c in "01" else -1 for c in value]
    else:
        try:
            seq = list(value)
        except TypeError:  # a bare int or float is no bit sequence
            seq = []
    if len(seq) != width or not all(map(is_bit, seq)):
        raise ValueError(f"expected {width} bits, got {value!r}")
    return tuple(map(int, seq))


def bits_to_str(bits: Iterable[int]) -> str:
    return "".join(str(b) for b in bits)


# Each protocol's input shape: (party 0's bit width, every other party's
# bit width, the party counts it takes).  MXN assignments, transcripts and
# label maps also take N=2, where criterion 8 checks the entanglement swap.
_SECRET_SHAPE = {
    Protocol.NBA: (2, 2, range(2, 3)),
    Protocol.JZ: (1, 1, range(2, 3)),
    Protocol.OTP: (1, 1, range(2, 3)),
    Protocol.MXN: (2, 1, range(2, 7)),
}

# The party counts MXN runs, decoding, columns, posteriors and audits take.
MXN_PARTIES = range(3, 7)


def party_count(
    protocol: Protocol, parties: int | None = None, error: type[ValueError] = ValueError
) -> int:
    """The number of parties an input of ``protocol`` covers: ``None`` or 2
    for a two-party protocol, an explicit int in 2..6 for mxn.  Bools and
    non-ints are refused, as :func:`~qdleak.qstate.is_bit` refuses them."""
    counts = _SECRET_SHAPE[protocol][2]
    if parties is None and len(counts) == 1:
        return counts[0]
    if not is_int(parties) or parties not in counts:
        span = f"{counts[0]}..{counts[-1]}" if len(counts) > 1 else counts[0]
        raise error(f"{protocol.text} takes {span} parties, got {parties!r}")
    return int(parties)


def _check_mxn_parties(parties: int | None, what: str = "audits") -> int:
    if parties not in MXN_PARTIES:
        raise ValueError(
            f"mxn {what} need parties in {MXN_PARTIES[0]}..{MXN_PARTIES[-1]}"
        )
    return parties


@dataclass(frozen=True)
class SecretAssignment:
    """Everyone's secret bits: party 0 ("alice") plus the other parties.

    Bit widths and party counts come from the protocol's shape: NBA 2+2,
    JZ and OTP 1+1, MXN 2 for party 0 and 1 for each of parties 1..N-1.
    Each party's bits are read by :func:`as_bits` ("01" strings or int
    sequences; the other parties from any iterable) and stored as int
    tuples, so an assignment is always hashable.  A ValueError names the
    party whose bits do not fit; a bare value or one string for the parties
    is party 1's.
    """

    protocol: Protocol
    alice: Bits
    others: tuple[Bits, ...]

    def __post_init__(self):
        alice_w, other_w, _ = _SECRET_SHAPE[self.protocol]
        object.__setattr__(self, "alice", self._party_bits(0, self.alice, alice_w))
        others = self.others
        others = [others] if isinstance(others, str) or not isinstance(others, Iterable) else others
        bits = tuple(self._party_bits(i, o, other_w) for i, o in enumerate(others, 1))
        object.__setattr__(self, "others", bits)
        party_count(self.protocol, self.num_parties)

    def _party_bits(self, party: int, value: BitsLike, width: int) -> Bits:
        try:
            return as_bits(value, width)
        except ValueError:
            raise ValueError(
                f"party {party} needs {width} bits for {self.protocol.text}, got {value!r}"
            ) from None

    @property
    def num_parties(self) -> int:
        return 1 + len(self.others)

    @property
    def full_bits(self) -> tuple[Bits, ...]:
        return (self.alice, *self.others)


# The symbols one announced position may hold, in the order of their
# texts, which is the audit's transcript order; a transcript announces one
# symbol per party.
ANNOUNCED_SYMBOLS = {
    Protocol.NBA: tuple(BellLabel),
    Protocol.JZ: ("+", "-", "0", "1"),
    Protocol.OTP: ("0", "1"),
    Protocol.MXN: tuple(BellLabel),
}

# Each alphabet's texts, indexed like ANNOUNCED_SYMBOLS: their one spelling.
ANNOUNCED_TEXTS = {
    protocol: tuple(getattr(symbol, "text", symbol) for symbol in symbols)
    for protocol, symbols in ANNOUNCED_SYMBOLS.items()
}


def nba_secrets(alice: BitsLike, bob: BitsLike) -> SecretAssignment:
    return SecretAssignment(Protocol.NBA, alice, (bob,))


def jz_secrets(alice: int, bob: int) -> SecretAssignment:
    return SecretAssignment(Protocol.JZ, (alice,), ((bob,),))


def otp_secrets(alice: int, bob: int) -> SecretAssignment:
    return SecretAssignment(Protocol.OTP, (alice,), ((bob,),))


def mxn_secrets(alice: BitsLike, others: Sequence[BitsLike | int]) -> SecretAssignment:
    if isinstance(others, Iterable):  # else SecretAssignment refuses it by name
        others = [[o] if is_int(o) else o for o in others]
    return SecretAssignment(Protocol.MXN, alice, others)


def all_secret_assignments(
    protocol: Protocol, parties: int | None = None
) -> tuple[SecretAssignment, ...]:
    """Every possible assignment, in lexicographic bit order (the uniform
    prior's support)."""
    alice_w, other_w, _ = _SECRET_SHAPE[protocol]
    return tuple(
        SecretAssignment(protocol, alice, others)
        for alice in itertools.product((0, 1), repeat=alice_w)
        for others in itertools.product(
            itertools.product((0, 1), repeat=other_w),
            repeat=party_count(protocol, parties) - 1,
        )
    )


def total_secret_bits(protocol: Protocol, parties: int | None = None) -> int:
    """How many secret bits one run of the protocol communicates in total."""
    alice_w, other_w, _ = _SECRET_SHAPE[protocol]
    return alice_w + other_w * (party_count(protocol, parties) - 1)


@dataclass(frozen=True)
class Transcript:
    """Exactly what the protocol announces in public, nothing else.

    announced: NBA -> (initial, final) Bell labels; JZ -> (initial, outcome)
    ket labels; MXN -> the N Bell labels in pair order; OTP -> the two
    ciphertext bits as "0"/"1" strings.  Symbols are stored as the
    alphabet's own objects (:data:`ANNOUNCED_SYMBOLS`).
    """

    protocol: Protocol
    announced: tuple

    def __post_init__(self):
        a = tuple(self.announced)
        party_count(self.protocol, len(a), TranscriptError)
        symbols = ANNOUNCED_SYMBOLS[self.protocol]
        try:
            canonical = tuple([symbols[symbols.index(x)] for x in a])
        except ValueError:
            raise TranscriptError(f"bad {self.protocol.text} announcement {a!r}") from None
        object.__setattr__(self, "announced", canonical)


@dataclass(frozen=True)
class RunRecord:
    """One full protocol run: the secrets, the public transcript, and what
    each party decoded about everyone else ({other party index: bits})."""

    secrets: SecretAssignment
    transcript: Transcript
    decoded: tuple[Mapping[int, Bits], ...]


# --- coding alphabets ---------------------------------------------------

# The operation on a pair's second qubit that takes phi+ to each Bell label,
# in BellLabel order; its index's low bit is the ket it makes of +.
_BELL_OPS = (PauliOp.I, PauliOp.SZ, PauliOp.SX, PauliOp.ISY)

# The one-bit coding of jz's parties and mxn's parties 1..N-1.
_FLIP_OPS = {(0,): PauliOp.I, (1,): PauliOp.ISY}

# Each protocol's coding: party 0's map from its bits to its operation,
# then the map every other party uses.  mxn's party 0 deliberately does not
# use nba's order: the two protocols fix different bit meanings for sx and
# sz.  otp codes classically and has no entry.
_CODING_OPS = {
    Protocol.NBA: 2 * (
        {(0, 0): PauliOp.I, (0, 1): PauliOp.SX, (1, 0): PauliOp.ISY, (1, 1): PauliOp.SZ},
    ),
    Protocol.JZ: (_FLIP_OPS, _FLIP_OPS),
    Protocol.MXN: (
        {(0, 0): PauliOp.I, (0, 1): PauliOp.SZ, (1, 0): PauliOp.ISY, (1, 1): PauliOp.SX},
        _FLIP_OPS,
    ),
}


def coding_ops(secrets: SecretAssignment) -> tuple[PauliOp, ...]:
    """Each party's coding operation, in party order, from its bits by the
    protocol's coding table; otp, which has none, is a ValueError."""
    maps = _CODING_OPS.get(secrets.protocol)
    if maps is None:
        raise ValueError(f"{secrets.protocol.text} has no coding operations")
    return tuple(maps[min(party, 1)][bits] for party, bits in enumerate(secrets.full_bits))


# --- NBA and JZ ---------------------------------------------------------


def _second_symbol(secrets: SecretAssignment, initial, error: type[ValueError]):
    """The symbol a two-party run announces after ``initial``: the one whose
    alphabet index is ``initial``'s XOR the assignment's public syndrome.
    ``error`` is raised when ``initial`` is not in the alphabet."""
    symbols = ANNOUNCED_SYMBOLS[secrets.protocol]
    try:
        index = symbols.index(initial)
    except ValueError:
        raise error(f"not a {secrets.protocol.text} initial symbol: {initial!r}") from None
    return symbols[index ^ _public_syndrome(secrets)]


def nba_final_label(alice: Bits, bob: Bits, initial: BellLabel) -> BellLabel:
    """The final Bell result after both encodings on the traveling qubit:
    the initial label flipped by the assignment's code, whoever encodes
    first."""
    return _second_symbol(nba_secrets(alice, bob), initial, TranscriptError)


def jz_outcome_label(alice: int, bob: int, initial: str) -> str:
    """The measured ket label after both one-bit encodings: ``initial``
    when the bits agree, else the other ket of its basis, since isy swaps
    the two kets of either basis, up to phase."""
    return _second_symbol(jz_secrets(alice, bob), initial, ValueError)


def run_nba(secrets: SecretAssignment, initial: BellLabel) -> RunRecord:
    """Execute one NBA dialogue and decode both ways."""
    if secrets.protocol is not Protocol.NBA:
        raise ValueError("run_nba needs NBA secrets")
    return _run(secrets, (initial, _second_symbol(secrets, initial, TranscriptError)))


def run_jz(secrets: SecretAssignment, initial: str) -> RunRecord:
    """Execute one JZ dialogue and decode both ways."""
    if secrets.protocol is not Protocol.JZ:
        raise ValueError("run_jz needs JZ secrets")
    return _run(secrets, (initial, _second_symbol(secrets, initial, ValueError)))


def nba_decode(own: Bits, initial: BellLabel, final: BellLabel) -> Bits:
    """Recover the counterpart's two bits from the announced labels plus
    one's own bits.  The coset is {(a, a ^ x)} with x = alice ^ bob, so
    party 0's rule, own ^ x, serves both parties."""
    own = as_bits(own, 2)
    return _coset_decode(Transcript(Protocol.NBA, (initial, final)), [(0, own)])[0][1]


def jz_decode(own: int, initial: str, outcome: str) -> int:
    """Counterpart's bit: one's own bit XOR the public alice ^ bob, read
    from the coset the kets name, as :func:`nba_decode` reads it."""
    own = as_bits([own], 1)
    return _coset_decode(Transcript(Protocol.JZ, (initial, outcome)), [(0, own)])[0][1][0]


# --- MXN ----------------------------------------------------------------


def ghz_after_ops(ops: Sequence[PauliOp]) -> GhzLabel:
    """The GHZ label reached by applying per-party ops to the all-zero label.

    ops[0] may be any of the four operations; ops[1..] must come from
    {I, isy}.  The coding alphabet permutes GHZ rays, so the search over
    labels always finds exactly one match.  This is the engine reference
    :func:`mxn_label` is held to."""
    ops = tuple(ops)
    n = party_count(Protocol.MXN, len(ops))
    if any(op not in _CODING_OPS[Protocol.MXN][1].values() for op in ops[1:]):
        raise ValueError("parties 1..N-1 may only encode with I or isy")
    state = ghz_state(GhzLabel(0, (0,) * (n - 1)))
    for qubit, op in enumerate(ops):
        state = apply_pauli(state, qubit, op)
    label = ghz_label_of(state)
    if label is None:  # pragma: no cover - alphabet preserves the basis
        raise RuntimeError("encoding left the GHZ basis")
    return label


def mxn_label(secrets: SecretAssignment) -> GhzLabel:
    """The GHZ label an MXN assignment encodes: the one its code indexes
    in :func:`~qdleak.qstate.all_ghz_labels`."""
    if secrets.protocol is not Protocol.MXN:
        raise ValueError("needs MXN secrets")
    return all_ghz_labels(secrets.num_parties)[_public_syndrome(secrets)]


def mxn_encoded_state(secrets: SecretAssignment) -> StateVector:
    """Both GHZ multiplets after all encodings: qubits 0..N-1 are the
    traveling halves (all-zero label before encoding), N..2N-1 the kept
    multiplet carrying the secret label."""
    n = secrets.num_parties
    home = ghz_state(GhzLabel(0, (0,) * (n - 1)))
    state = tensor(home, home)
    for party, op in enumerate(coding_ops(secrets)):
        state = apply_pauli(state, n + party, op)
    return state


def run_mxn(secrets: SecretAssignment, rng: np.random.Generator) -> RunRecord:
    """Execute one MXN dialogue: encode, measure pairs (i, N+i) in pair
    order, announce the labels, decode per party.

    The measurement samples the exact law of the secrets' GHZ label (x, y),
    pair by pair in BellLabel order, with one uniform draw u per pair.
    The 2^N tuples naming the label (:func:`deduce_ghz_from_bells`: psi_i
    is psi_0 ^ y_i, and the minus bits XOR to x) are equally likely.  So
    pair 0 takes label ``int(4 * u)``, pair i of 1..N-2 has psi
    psi_0 ^ y_i and minus ``u >= 0.5``, and the last pair's minus is x
    XOR the earlier ones, its draw taken all the same.  Those are the
    conditional law's cumulative thresholds, 1/4, 1/2, 3/4 and 1, then
    1/2 and 1, then 1, so a seed gives the transcript that
    :func:`~qdleak.qstate.project_bell` would give collapse by collapse.
    The parties then read the label from the announced tuple once and
    decode from its coset."""
    n = _check_mxn_parties(secrets.num_parties, "runs")
    x, *y = mxn_label(secrets).bits
    draws = rng.random(n).tolist()  # the same n numbers as n rng.random() calls
    bells = ANNOUNCED_SYMBOLS[Protocol.MXN]  # index bits (psi, minus)
    psi0, minus = divmod(int(4 * draws[0]), 2)
    announced = [bells[psi0 << 1 | minus]]
    for y_i, u in zip(y[:-1], draws[1:-1]):
        minus_i = int(u >= 0.5)
        minus ^= minus_i
        announced.append(bells[(psi0 ^ y_i) << 1 | minus_i])
    announced.append(bells[(psi0 ^ y[-1]) << 1 | x ^ minus])
    return _run(secrets, announced)


def _announced_bells(outcomes: tuple[BellLabel, ...]) -> np.ndarray:
    """The kron of the announced Bell vectors, pair i on qubits (i, N+i),
    in register order and shaped (2^N, 2^N): qubits 0..N-1 by N..2N-1."""
    n = len(outcomes)
    kron = functools.reduce(
        np.multiply.outer, (bell_state(label).amplitudes for label in outcomes)
    )
    register_order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return kron.reshape((2,) * (2 * n)).transpose(register_order).reshape(2**n, 2**n)


def deduce_ghz_from_bells(outcomes: Sequence[BellLabel]) -> set[GhzLabel]:
    """The GHZ label behind an announced Bell-outcome tuple, as a
    one-element set.

    Pair i holds qubits (i, N+i) of the doubled state: the all-zero
    multiplet on 0..N-1, the labelled one on N..2N-1.  A Bell label is a
    joint eigenvalue of X tensor X (-1 for a minus label) and Z tensor Z
    (-1 for a psi label) on its pair.  The product of X tensor X over all
    pairs is X on every qubit, which reads (-1)^x on the doubled state, so
    x is the XOR of the minus bits.  Z tensor Z on pair i times pair 0 is
    Z_0 Z_i on both multiplets, which reads (-1)^y_i, so y_i = p_0 ^ p_i
    with p = 1 for psi.  Every well-formed tuple thus names exactly one
    label, the shared one of :func:`~qdleak.qstate.all_ghz_labels`; any
    other input is the :class:`Transcript`'s :class:`TranscriptError`."""
    announced = Transcript(Protocol.MXN, outcomes).announced
    return {all_ghz_labels(len(announced))[_label_code(Protocol.MXN, announced)]}


@functools.lru_cache(maxsize=None)
def _label_terms(protocol: Protocol, parties: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The protocol's alphabet and each position's terms, indexed like it:
    the code of a tuple is the XOR of its symbols' terms.  A two-party
    symbol's term is its index.  An mxn code holds x then y_1..y_(N-1),
    most significant first; a minus bit sets x, pair i >= 1's psi bit sets
    y_i, and pair 0's psi bit flips every y bit, since y_i = psi_0 ^ psi_i."""
    symbols = ANNOUNCED_SYMBOLS[protocol]
    if protocol is not Protocol.MXN:
        return symbols, (tuple(range(len(symbols))),) * parties
    x_bit = 1 << (parties - 1)
    psi_terms = (x_bit - 1, *(x_bit >> pair for pair in range(1, parties)))
    bits = [divmod(index, 2) for index in range(len(symbols))]  # (psi, minus)
    return symbols, tuple(
        tuple(psi * psi_term ^ minus * x_bit for psi, minus in bits)
        for psi_term in psi_terms
    )


def _label_code(protocol: Protocol, announced: Sequence) -> int:
    """The code an announced tuple names, the XOR of its symbols'
    :func:`_label_terms`: for mxn, :func:`deduce_ghz_from_bells`' label as
    its index in :func:`~qdleak.qstate.all_ghz_labels`, the bits of x then
    y.  It skips the input checks: callers pass a validated transcript's
    tuple."""
    symbols, terms = _label_terms(protocol, len(announced))
    code = 0
    for position, symbol in zip(terms, announced):
        # tuple.index compares by identity in C; a dict keyed by the label
        # would call Enum's Python-level __hash__
        code ^= position[symbols.index(symbol)]
    return code


def paired_bell_probability(
    state: StateVector, outcomes: Sequence[BellLabel]
) -> float:
    """Probability of a specific Bell-label tuple when measuring pairs
    (i, N+i) of a 2N-qubit state: |<B_1 ... B_N | psi>|^2, one inner
    product.  Like the branch walk of :func:`paired_bell_distribution`, it
    counts a probability of at most ``ATOL / 4`` as 0.0."""
    outcomes = tuple(outcomes)
    n = state.num_qubits // 2
    if state.num_qubits != 2 * n or len(outcomes) != n:
        raise ValueError("state must hold 2N qubits and outcomes N labels")
    prob = float(abs(np.vdot(_announced_bells(outcomes), state.amplitudes)) ** 2)
    return prob if prob > ATOL / 4 else 0.0


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


@functools.lru_cache(maxsize=None)
def _tuple_probability(parties: int) -> float:
    """P(announced | secrets) for every tuple naming the secrets' label, the
    same for every label: the engine walk of the all-zero doubled multiplet
    at the all-phi+ tuple, which names the all-zero label."""
    home = ghz_state(GhzLabel(0, (0,) * (parties - 1)))
    return paired_bell_distribution(tensor(home, home))[(BellLabel.PHI_PLUS,) * parties]


def mxn_decode(party: int, own: Bits, transcript: Transcript) -> dict[int, Bits]:
    """Recover every other party's bits from the announced Bell labels plus
    one's own bits.

    The announced tuple determines the encoded GHZ label; that label has
    exactly two consistent assignments, and every party's own bits differ
    between them, so the own-bits filter keeps exactly one."""
    if transcript.protocol is not Protocol.MXN:
        raise TranscriptError("mxn_decode needs an MXN transcript")
    n = _check_mxn_parties(len(transcript.announced), "decodings")
    if not is_int(party) or not 0 <= party < n:
        raise ValueError(f"party {party!r} out of range for {n} parties")
    own = as_bits(own, 2 if party == 0 else 1)
    return _coset_decode(transcript, [(party, own)])[0]


# --- runs and decoding: the coset a transcript names --------------------


def _run(secrets: SecretAssignment, announced: Sequence) -> RunRecord:
    """A run's record: its announcements, and every party's decoding of
    them with its own bits."""
    transcript = Transcript(secrets.protocol, announced)
    decoded = _coset_decode(transcript, enumerate(secrets.full_bits))
    return RunRecord(secrets, transcript, decoded)


def _coset_decode(
    transcript: Transcript, owns: Iterable[tuple[int, Bits]]
) -> tuple[dict[int, Bits], ...]:
    """For each (party, own bits), every other party's bits, read from the
    one assignment of the coset the transcript names whose ``party`` bits
    are ``own``.  A code that names no coset, such as a jz outcome outside
    its preparation basis, is a :class:`TranscriptError`."""
    protocol, announced = transcript.protocol, transcript.announced
    coset = _cosets(protocol, len(announced)).get(_label_code(protocol, announced))
    if coset is None:
        raise TranscriptError(f"no {protocol.text} assignment announces {announced!r}")
    candidates = [secrets.full_bits for secrets in coset]
    decoded = []
    for party, own in owns:
        matches = [full for full in candidates if full[party] == own]
        if len(matches) != 1:
            raise TranscriptError(
                f"{len(matches)} assignments consistent with own bits {bits_to_str(own)}"
            )
        decoded.append({j: bits for j, bits in enumerate(matches[0]) if j != party})
    return tuple(decoded)


# --- transcript channels ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _secret_terms(protocol: Protocol, parties: int) -> tuple[int, ...]:
    """Each secret bit's term, party by party, most significant bit first:
    the code of the symbol its coding operation makes of phi+ or + at the
    party's position, since the coding tables' flips compose by XOR.
    otp's key bit cancels from the ciphertexts' XOR."""
    if protocol is Protocol.OTP:
        return (1, 1)
    mask = 0b01 if protocol is Protocol.JZ else 0b11  # only a Z part moves a + ket
    return tuple(
        terms[_BELL_OPS.index(op) & mask]
        for party, terms in enumerate(_label_terms(protocol, parties)[1])
        for bits, op in sorted(_CODING_OPS[protocol][min(party, 1)].items(), reverse=True)
        if sum(bits) == 1
    )


def _public_syndrome(secrets: SecretAssignment) -> int:
    """The code every transcript of the assignment names, the XOR of its
    set bits' :func:`_secret_terms`."""
    terms = _secret_terms(secrets.protocol, secrets.num_parties)
    bits = itertools.chain.from_iterable(secrets.full_bits)
    return functools.reduce(operator.xor, itertools.compress(terms, bits), 0)


def _tuple_weight(protocol: Protocol, parties: int) -> float:
    """P(announced | secrets) of a tuple for each assignment of its coset.
    A two-party run draws its first symbol uniformly (the initial label or
    ket, or by the key bit the first ciphertext) and the secrets fix the
    rest; every mxn tuple has one engine number per party count."""
    if protocol is Protocol.MXN:
        return _tuple_probability(_check_mxn_parties(parties))
    return 1 / len(ANNOUNCED_SYMBOLS[protocol])


@functools.lru_cache(maxsize=None)
def _cosets(protocol: Protocol, parties: int) -> dict[int, tuple[SecretAssignment, ...]]:
    """public syndrome -> the assignments publishing it, in lexicographic
    order, built once, so columns and decoding hand out shared assignments.
    A two-party coset {(a, a ^ x)} holds one assignment per value of either
    party's bits, and an mxn coset two assignments that differ in every bit
    except, for an even party count, party 0's second one, so each party's
    own bits pick one assignment, which is what decoding relies on."""
    table: dict[int, list[SecretAssignment]] = {}
    for secrets in all_secret_assignments(protocol, parties):
        table.setdefault(_public_syndrome(secrets), []).append(secrets)
    return {syndrome: tuple(coset) for syndrome, coset in table.items()}


def named_coset(
    transcript: Transcript,
) -> tuple[int, tuple[SecretAssignment, ...], float] | None:
    """The (syndrome, coset, weight) a transcript names: its code, the
    shared assignments publishing it, and P(announced | secrets) for each
    of them; None when no assignment produces it."""
    protocol, announced = transcript.protocol, transcript.announced
    weight = _tuple_weight(protocol, len(announced))  # refuses mxn outside MXN_PARTIES
    syndrome = _label_code(protocol, announced)
    coset = _cosets(protocol, len(announced)).get(syndrome)
    return None if coset is None else (syndrome, coset, weight)


def alphabet_syndromes(protocol: Protocol, parties: int | None = None) -> list[int]:
    """The code every tuple of the announced alphabet names, in
    ``itertools.product`` order: entry i is :func:`_label_code` of the i-th
    tuple.  A code is the XOR of one :func:`_label_terms` term per
    position, so all codes come from one walk of the term table, position
    by position."""
    n = party_count(protocol, parties)
    if protocol is Protocol.MXN:
        _check_mxn_parties(n)
    codes = [0]
    for terms in _label_terms(protocol, n)[1]:
        codes = [code ^ term for code in codes for term in terms]
    return codes
