"""An independent oracle for the leakage audit: each protocol as a linear
map over GF(2) from the secret bits to the label bits its transcript makes
public.

Label bits are sign bits of Pauli observables.  A Bell label has two: psi,
the sign of Z tensor Z, and minus, the sign of X tensor X.  A ket of the
preparation basis has one, the sign of Z or of X.  A GHZ label (x, y) has
x, the sign of X on every qubit, and y_i, the sign of Z_0 Z_i.  A coding
operation P on one qubit flips the sign bit of an observable O exactly
when P O P^dagger = -O; this module reads that off the 2x2 matrices and the
coding tables, not from the XOR formulas in ``qdleak.protocols``.  Flips
compose by XOR, so the public bits are a linear map of the secrets, and
the assignments a transcript leaves are one coset of that map's kernel:
the posterior's support.  Every assignment in it produces the transcript
equally often, so the posterior's entropy is log2 of the support's size.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from qdleak.protocols import Protocol
from qdleak.qstate import KET_LABELS, BellLabel, PauliOp, bell_state, ket

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# The coding tables: secret bits -> operation on the party's qubit.
NBA_CODING = {
    (0, 0): PauliOp.I,
    (0, 1): PauliOp.SX,
    (1, 0): PauliOp.ISY,
    (1, 1): PauliOp.SZ,
}
MXN_LEAD_CODING = {
    (0, 0): PauliOp.I,
    (0, 1): PauliOp.SZ,
    (1, 0): PauliOp.ISY,
    (1, 1): PauliOp.SX,
}
FLIP_CODING = {(0,): PauliOp.I, (1,): PauliOp.ISY}


@functools.lru_cache(maxsize=None)
def flips(op: PauliOp, observable: str) -> int:
    """1 when ``op`` negates the single-qubit observable "X" or "Z"."""
    o = {"X": X, "Z": Z}[observable]
    turned = op.matrix @ o @ op.matrix.conj().T
    if np.allclose(turned, -o):
        return 1
    assert np.allclose(turned, o), (op, observable)
    return 0


def _sign_bit(observable: np.ndarray, amplitudes: np.ndarray) -> int | None:
    """The sign bit of an eigenstate's eigenvalue, None if not an eigenstate."""
    value = np.vdot(amplitudes, observable @ amplitudes).real
    if not math.isclose(abs(value), 1.0, abs_tol=1e-9):
        return None
    return int(value < 0)


@functools.lru_cache(maxsize=None)
def bell_bits(label: BellLabel) -> tuple[int, int]:
    """(psi, minus) of a Bell label, read from its state."""
    amplitudes = bell_state(label).amplitudes
    return _sign_bit(np.kron(Z, Z), amplitudes), _sign_bit(np.kron(X, X), amplitudes)


@functools.lru_cache(maxsize=None)
def ket_basis_bit(label: str) -> tuple[str, int]:
    """The basis observable a ket is an eigenstate of, and its sign bit."""
    amplitudes = ket(label).amplitudes
    for name, observable in (("Z", Z), ("X", X)):
        bit = _sign_bit(observable, amplitudes)
        if bit is not None:
            return name, bit
    raise AssertionError(f"{label!r} is in neither basis")


def _xor(*vectors: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(bits) % 2 for bits in zip(*vectors))


def _flat(secrets) -> tuple[int, ...]:
    return tuple(b for bits in secrets for b in bits)


# --- each protocol: secrets, alphabet, public bits --------------------------
#
# ``public(secrets, context)`` is the linear map; ``read(announced)`` gives
# the (context, public bits) a transcript shows, or None when no secrets can
# explain it.  The context is the public choice the map depends on.


def _nba_public(secrets, context):
    # Both parties act on qubit 1 of the pair: a flip of Z there negates
    # Z tensor Z, a flip of X negates X tensor X.
    ops = [NBA_CODING[bits] for bits in secrets]
    return _xor(*((flips(op, "Z"), flips(op, "X")) for op in ops))


def _nba_read(announced):
    initial, final = announced
    return None, _xor(bell_bits(initial), bell_bits(final))


def _jz_public(secrets, basis):
    return _xor(*((flips(FLIP_CODING[bits], basis),) for bits in secrets))


def _jz_read(announced):
    (basis, before), (after_basis, after) = map(ket_basis_bit, announced)
    if basis != after_basis:
        return None
    return basis, (before ^ after,)


def _otp_public(secrets, context):
    # One key bit enters both ciphertexts, so their XOR is the plaintexts'.
    return _xor(*secrets)


def _otp_read(announced):
    return None, (int(announced[0]) ^ int(announced[1]),)


def _mxn_public(secrets, context):
    lead, *others = secrets
    ops = [MXN_LEAD_CODING[lead], *(FLIP_CODING[bits] for bits in others)]
    x = _xor(*((flips(op, "X"),) for op in ops))
    y = tuple(flips(ops[0], "Z") ^ flips(op, "Z") for op in ops[1:])
    return (*x, *y)


def _mxn_read(announced):
    # Pair i of the doubled state holds qubit i of the all-zero multiplet,
    # whose every label bit reads 0, and qubit i of the labelled one.  So X
    # on all 2N qubits, the product of every pair's X tensor X, reads x, and
    # Z_0 Z_i on both multiplets, pair 0's Z tensor Z times pair i's, reads
    # y_i.
    psi, minus = zip(*map(bell_bits, announced))
    return None, (sum(minus) % 2, *(p ^ psi[0] for p in psi[1:]))


def _assignments(widths):
    return tuple(itertools.product(*(itertools.product((0, 1), repeat=w) for w in widths)))


def _spec(protocol: Protocol, parties: int | None):
    """(assignments, alphabet, public, read) for one protocol."""
    if protocol is Protocol.NBA:
        return _assignments((2, 2)), tuple(BellLabel), _nba_public, _nba_read
    if protocol is Protocol.JZ:
        return _assignments((1, 1)), KET_LABELS, _jz_public, _jz_read
    if protocol is Protocol.OTP:
        return _assignments((1, 1)), ("0", "1"), _otp_public, _otp_read
    widths = (2,) + (1,) * (parties - 1)
    return _assignments(widths), tuple(BellLabel), _mxn_public, _mxn_read


def posterior_supports(
    protocol: Protocol, parties: int | None = None
) -> dict[tuple, frozenset]:
    """announced tuple -> the posterior support the oracle predicts, as the
    assignments' per-party bit tuples, for every transcript some assignment
    can produce.  Each support is checked to be a coset of the kernel."""
    assignments, alphabet, public, read = _spec(protocol, parties)

    @functools.cache
    def cosets(context):
        table: dict = {}
        for secrets in assignments:
            table.setdefault(public(secrets, context), set()).add(secrets)
        kernel = table[(0,) * len(next(iter(table)))]
        for support in table.values():
            shift = _flat(next(iter(support)))
            assert {_flat(s) for s in support} == {_xor(shift, _flat(k)) for k in kernel}
        return {bits: frozenset(group) for bits, group in table.items()}

    supports = {}
    for announced in itertools.product(alphabet, repeat=len(assignments[0])):
        shown = read(announced)
        if shown is not None and shown[1] in cosets(shown[0]):
            supports[announced] = cosets(shown[0])[shown[1]]
    return supports

