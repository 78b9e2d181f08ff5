"""Exact state-vector engine for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of the computational-basis index, so
  for an ``n``-qubit state the amplitude at index ``b`` belongs to the basis
  ket labelled ``format(b, f"0{n}b")``.
* Amplitudes are complex128 and states are kept normalized; numeric
  comparisons use an absolute tolerance of 1e-9 (every amplitude produced
  here is a dyadic multiple of a power of 1/sqrt(2), far from that floor).
* Physical states are rays.  Protocol logic never compares amplitudes
  directly; it uses :func:`equal_up_to_phase`.
* Everything is pure and immutable: operations return new states and never
  mutate their inputs, so values can be shared freely across threads.  The
  only stateful object is the caller-owned random generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

ATOL = 1e-9

MAX_QUBITS = 12

#: Single-qubit ket labels understood by :func:`ket`, in display order.
KET_LABELS = ("0", "1", "+", "-")


def is_int(value) -> bool:
    """True for a Python or numpy int.  Bools and floats are refused: they
    compare equal to ints but render as "True"/"False" or "1.0" in labels
    and bit strings, and a float does not XOR."""
    return type(value) is int or isinstance(value, np.integer)


def is_bit(value) -> bool:
    """True for the ints 0 and 1, Python or numpy, by :func:`is_int`."""
    return is_int(value) and value in (0, 1)


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic random generator (numpy PCG64) for a given seed.

    Every sampling entry point in this package takes one of these instead of
    touching global state, so runs are reproducible bit for bit.
    """
    return np.random.Generator(np.random.PCG64(seed))


class StateVector:
    """Normalized pure state of ``num_qubits`` qubits.

    The amplitude array is marked read-only on construction.  ``num_qubits``
    may be 0: a fully measured register collapses to a single global-phase
    amplitude, which downstream code treats as a valid (empty) state.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.array(amplitudes, dtype=np.complex128).ravel()
        n = int(amps.size).bit_length() - 1
        if amps.size != 2**n:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the supported maximum of {MAX_QUBITS}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state is not normalized (norm {norm!r})")
        amps.setflags(write=False)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("StateVector is immutable")

    def tensor_view(self) -> np.ndarray:
        """Read-only view shaped (2,)*num_qubits, axis i = qubit i."""
        return self.amplitudes.reshape((2,) * self.num_qubits)

    def __repr__(self) -> str:
        terms = []
        for idx in np.flatnonzero(np.abs(self.amplitudes) > ATOL):
            label = format(idx, f"0{self.num_qubits}b") if self.num_qubits else ""
            terms.append(f"({self.amplitudes[idx]:.3g})|{label}>")
        return f"StateVector({' + '.join(terms) or '0'})"


class PauliOp(Enum):
    """Coding alphabet: identity and the three flips, with fixed phases.

    ISY is the real matrix [[0, 1], [-1, 0]], i.e. ISY|0> = -|1> and
    ISY|1> = |0>.  The phases matter only internally; protocol observables
    are rays.
    """

    I = "i"
    SX = "sx"
    ISY = "isy"
    SZ = "sz"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]

    @property
    def text(self) -> str:
        return self.value


_PAULI_MATRICES = {
    PauliOp.I: np.eye(2, dtype=np.complex128),
    PauliOp.SX: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    PauliOp.ISY: np.array([[0, 1], [-1, 0]], dtype=np.complex128),
    PauliOp.SZ: np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
for _m in _PAULI_MATRICES.values():
    _m.setflags(write=False)


class BellLabel(Enum):
    """The four Bell states of a qubit pair.

    With qubit 0 as the MSB: phi+/- = (|00> +/- |11>)/sqrt2,
    psi+/- = (|01> +/- |10>)/sqrt2.
    """

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @property
    def text(self) -> str:
        return self.value

    @classmethod
    def from_text(cls, text: str) -> "BellLabel":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown Bell label {text!r}") from None


@dataclass(frozen=True)
class GhzLabel:
    """Label (x, y) of an n-party GHZ basis state, n = len(y) + 1.

    The labelled state is (|0, y> + (-1)^x |1, ~y>)/sqrt2 where ~y flips
    every bit of y.  The 2^n labels with x in {0,1} and y any bit tuple form
    an orthonormal basis of the n-qubit space.
    """

    x: int
    y: tuple[int, ...]

    def __post_init__(self):
        if not is_bit(self.x):
            raise ValueError(f"x must be a bit, got {self.x!r}")
        if not self.y or not all(map(is_bit, self.y)):
            raise ValueError(f"y must be a nonempty bit tuple, got {self.y!r}")

    @property
    def num_qubits(self) -> int:
        return 1 + len(self.y)

    @property
    def bits(self) -> tuple[int, ...]:
        return (self.x, *self.y)

    @property
    def text(self) -> str:
        return "ghz_" + "".join(str(b) for b in self.bits)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "GhzLabel":
        seq = tuple(int(b) for b in bits)
        if len(seq) < 2:
            raise ValueError("a GHZ label needs at least two bits")
        return cls(seq[0], seq[1:])


@functools.lru_cache(maxsize=None)
def all_ghz_labels(num_qubits: int) -> tuple[GhzLabel, ...]:
    """All 2^n GHZ labels on ``num_qubits`` qubits, in bit-string order
    (built once per width; the labels are frozen, so callers share them)."""
    if not 2 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in 2..{MAX_QUBITS}, got {num_qubits}")
    labels = []
    for code in range(2**num_qubits):
        bits = [(code >> (num_qubits - 1 - i)) & 1 for i in range(num_qubits)]
        labels.append(GhzLabel.from_bits(bits))
    return tuple(labels)


_KET_VECTORS = {
    "0": np.array([1, 0], dtype=np.complex128),
    "1": np.array([0, 1], dtype=np.complex128),
    "+": np.array([1, 1], dtype=np.complex128) / np.sqrt(2),
    "-": np.array([1, -1], dtype=np.complex128) / np.sqrt(2),
}


def ket(labels: str) -> StateVector:
    """Product state from a string of single-qubit labels, e.g. "0", "+", "01-".

    Qubit order follows string order (first character = qubit 0 = MSB).
    """
    if not labels or any(c not in _KET_VECTORS for c in labels):
        raise ValueError(f"ket labels must be drawn from {KET_LABELS}, got {labels!r}")
    vec = functools.reduce(np.kron, (_KET_VECTORS[c] for c in labels))
    return StateVector(vec)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; qubits of ``a`` come first (more significant)."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


@functools.lru_cache(maxsize=None)
def bell_state(label: BellLabel) -> StateVector:
    """The Bell state for a label, on qubits (0, 1)."""
    s = 1 / np.sqrt(2)
    vec = {
        BellLabel.PHI_PLUS: (s, 0, 0, s),
        BellLabel.PHI_MINUS: (s, 0, 0, -s),
        BellLabel.PSI_PLUS: (0, s, s, 0),
        BellLabel.PSI_MINUS: (0, s, -s, 0),
    }[label]
    return StateVector(vec)


@functools.lru_cache(maxsize=None)
def ghz_state(label: GhzLabel) -> StateVector:
    """The GHZ basis state (|0, y> + (-1)^x |1, ~y>)/sqrt2."""
    n = label.num_qubits
    vec = np.zeros(2**n, dtype=np.complex128)
    lo = int("".join(str(b) for b in (0, *label.y)), 2)
    hi = int("".join(str(1 - b) for b in (0, *label.y)), 2)  # leading bit flips to 1
    vec[lo] = 1 / np.sqrt(2)
    vec[hi] = (-1) ** label.x / np.sqrt(2)
    return StateVector(vec)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.num_qubits}-qubit state")


def apply_pauli(state: StateVector, qubit: int, op: PauliOp) -> StateVector:
    """Apply a single-qubit coding operation; returns a new state."""
    _check_qubit(state, qubit)
    psi = state.tensor_view()
    out = np.tensordot(op.matrix, psi, axes=([1], [qubit]))
    out = np.moveaxis(out, 0, qubit)
    return StateVector(np.ascontiguousarray(out).ravel())


class BellOutcome(NamedTuple):
    """One branch of a Bell measurement: label, its probability, and the
    post-measurement state of the remaining qubits."""

    label: BellLabel
    probability: float
    state: StateVector


def project_bell(state: StateVector, pair: tuple[int, int]) -> tuple[BellOutcome, ...]:
    """Measure two qubits in the Bell basis, removing them from the register.

    Returns every outcome with probability above ``ATOL / 4``, in BellLabel
    order.  The pair order matters: ``pair[0]`` plays the role of the Bell
    state's first (more significant) qubit.  Probabilities over all four
    labels sum to 1; at most three branches are dropped, so the returned
    probabilities sum to 1 within ``ATOL``.
    """
    i, j = pair
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise ValueError("Bell measurement needs two distinct qubits")
    psi = state.tensor_view()
    outcomes = []
    for label in BellLabel:
        bell = bell_state(label).amplitudes.reshape(2, 2)
        # <bell| contracted onto qubits (i, j); Bell amplitudes are real.
        amp = np.tensordot(psi, bell.conj(), axes=([i, j], [0, 1]))
        prob = float(np.vdot(amp, amp).real)
        if prob <= ATOL / 4:
            continue
        rest = np.ascontiguousarray(amp).ravel() / np.sqrt(prob)
        outcomes.append(BellOutcome(label, prob, StateVector(rest)))
    return tuple(outcomes)


def equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    """True when a = e^{i theta} b for some global phase, within ATOL."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have the same number of qubits")
    k = int(np.argmax(np.abs(b.amplitudes)))
    if abs(a.amplitudes[k]) <= ATOL:
        return False
    phase = a.amplitudes[k] / b.amplitudes[k]
    return bool(np.allclose(a.amplitudes, phase * b.amplitudes, rtol=0.0, atol=ATOL))


def ghz_label_of(state: StateVector) -> Optional[GhzLabel]:
    """The GHZ label phase-equivalent to a state, or None.

    A GHZ state's two amplitudes sit at complementary indices (0, y) and
    (1, ~y); the largest amplitude names that pair, their ratio's sign
    names x, and one phase comparison confirms the guess."""
    n = state.num_qubits
    if n < 2:
        raise ValueError(f"a GHZ label needs 2..{MAX_QUBITS} qubits, got {n}")
    amps = state.amplitudes
    mask = 2**n - 1
    lo = int(np.argmax(np.abs(amps)))
    if lo >> (n - 1):
        lo ^= mask
    if abs(amps[lo]) <= ATOL:
        return None
    x = int((amps[lo ^ mask] / amps[lo]).real < 0)
    label = GhzLabel(x, tuple((lo >> (n - 2 - i)) & 1 for i in range(n - 1)))
    return label if equal_up_to_phase(state, ghz_state(label)) else None
