"""Engine tests: exact amplitudes, Bell-measurement branches, invariants.

Derived expectations are cross-checked against slow pure-Python oracles
that use only index arithmetic, never the engine's tensor ops.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdleak.qstate import (
    ATOL,
    BellLabel,
    GhzLabel,
    PauliOp,
    StateVector,
    all_ghz_labels,
    apply_pauli,
    bell_state,
    equal_up_to_phase,
    ghz_label_of,
    ghz_state,
    ket,
    make_rng,
    project_bell,
    tensor,
)

S = 1 / np.sqrt(2)


def oracle_bell_prob(state, pair, label):
    """Probability of one Bell outcome on qubits `pair`, computed with raw
    index loops: group amplitudes by the untouched qubits, contract the
    pair against the Bell bra, sum squared magnitudes."""
    n = state.num_qubits
    i, j = pair
    bell = bell_state(label).amplitudes
    acc = {}
    for idx in range(state.amplitudes.size):
        bi = (idx >> (n - 1 - i)) & 1
        bj = (idx >> (n - 1 - j)) & 1
        rest = tuple((idx >> (n - 1 - k)) & 1 for k in range(n) if k != i and k != j)
        acc[rest] = acc.get(rest, 0j) + bell[2 * bi + bj].conjugate() * state.amplitudes[idx]
    return sum(abs(v) ** 2 for v in acc.values())


# --- StateVector -------------------------------------------------------


def test_state_vector_validates_shape_and_norm():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])
    # a normalized 13-qubit state, refused by the cap rather than the norm
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        StateVector(np.eye(1, 2**13)[0])
    with pytest.raises(ValueError):
        all_ghz_labels(13)
    assert StateVector(np.eye(1, 2**12)[0]).num_qubits == 12


def test_state_vector_is_immutable():
    state = ket("0")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 5.0
    with pytest.raises(AttributeError):
        state.num_qubits = 3


def test_empty_register_is_a_valid_state():
    # A fully measured register leaves a single global-phase amplitude.
    state = StateVector([1.0])
    assert state.num_qubits == 0
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)


def test_ket_and_tensor_ordering():
    # First label is qubit 0, the most significant bit.
    assert np.allclose(ket("01").amplitudes, [0, 1, 0, 0])
    assert np.allclose(tensor(ket("0"), ket("1")).amplitudes, ket("01").amplitudes)
    assert np.allclose(ket("+").amplitudes, [S, S])
    assert np.allclose(ket("-").amplitudes, [S, -S])
    with pytest.raises(ValueError):
        ket("2")
    with pytest.raises(ValueError):
        ket("")


# --- operator algebra --------------------------------------------------


@pytest.mark.parametrize("op", list(PauliOp))
def test_coding_ops_are_unitary(op):
    m = op.matrix
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=ATOL)


def test_flip_phases_are_exact():
    """isy = [[0,1],[-1,0]]: |0> -> -|1>, |1> -> |0>, |+> -> |->, |-> -> -|+>."""
    assert np.allclose(apply_pauli(ket("0"), 0, PauliOp.ISY).amplitudes, [0, -1])
    assert np.allclose(apply_pauli(ket("1"), 0, PauliOp.ISY).amplitudes, [1, 0])
    assert equal_up_to_phase(apply_pauli(ket("0"), 0, PauliOp.ISY), ket("1"))
    assert equal_up_to_phase(apply_pauli(ket("+"), 0, PauliOp.ISY), ket("-"))
    assert equal_up_to_phase(apply_pauli(ket("-"), 0, PauliOp.ISY), ket("+"))
    assert equal_up_to_phase(apply_pauli(ket("+"), 0, PauliOp.SX), ket("+"))
    assert equal_up_to_phase(apply_pauli(ket("-"), 0, PauliOp.SZ), ket("+"))


def test_apply_pauli_index_errors():
    with pytest.raises(IndexError):
        apply_pauli(ket("0"), 1, PauliOp.SX)
    with pytest.raises(IndexError):
        apply_pauli(ket("0"), -1, PauliOp.SX)


# --- Bell and GHZ bases ------------------------------------------------


def test_bell_amplitudes():
    assert np.allclose(bell_state(BellLabel.PHI_PLUS).amplitudes, [S, 0, 0, S])
    assert np.allclose(bell_state(BellLabel.PHI_MINUS).amplitudes, [S, 0, 0, -S])
    assert np.allclose(bell_state(BellLabel.PSI_PLUS).amplitudes, [0, S, S, 0])
    assert np.allclose(bell_state(BellLabel.PSI_MINUS).amplitudes, [0, S, -S, 0])


def test_bell_basis_is_orthonormal():
    vecs = np.array([bell_state(l).amplitudes for l in BellLabel])
    assert np.allclose(vecs @ vecs.conj().T, np.eye(4), atol=ATOL)


def test_ghz_examples():
    assert np.allclose(
        ghz_state(GhzLabel(0, (0, 0))).amplitudes, [S, 0, 0, 0, 0, 0, 0, S]
    )
    # label x=1, y=01: (|001> - |110>)/sqrt2
    assert np.allclose(
        ghz_state(GhzLabel(1, (0, 1))).amplitudes, [0, S, 0, 0, 0, 0, -S, 0]
    )


def test_two_party_ghz_labels_are_bell_states():
    pairs = {
        GhzLabel(0, (0,)): BellLabel.PHI_PLUS,
        GhzLabel(0, (1,)): BellLabel.PSI_PLUS,
        GhzLabel(1, (0,)): BellLabel.PHI_MINUS,
        GhzLabel(1, (1,)): BellLabel.PSI_MINUS,
    }
    for ghz, bell in pairs.items():
        assert np.allclose(ghz_state(ghz).amplitudes, bell_state(bell).amplitudes)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ghz_basis_is_orthonormal(n):
    labels = all_ghz_labels(n)
    assert len(labels) == 2**n
    vecs = np.array([ghz_state(l).amplitudes for l in labels])
    assert np.allclose(vecs @ vecs.conj().T, np.eye(2**n), atol=ATOL)


def test_ghz_label_round_trips():
    label = GhzLabel(1, (0, 1))
    assert label.text == "ghz_101"
    assert GhzLabel.from_bits((1, 0, 1)) == label
    with pytest.raises(ValueError):
        GhzLabel(2, (0,))
    with pytest.raises(ValueError):
        GhzLabel(0, ())


def test_label_lookups():
    assert ghz_label_of(ghz_state(GhzLabel(1, (1, 0)))) == GhzLabel(1, (1, 0))


def scan_ghz_label(state):
    """Reference lookup: compare the state with every GHZ label in turn."""
    for label in all_ghz_labels(state.num_qubits):
        if equal_up_to_phase(state, ghz_state(label)):
            return label
    return None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ghz_label_of_agrees_with_the_full_scan(n):
    for label in all_ghz_labels(n):
        for phase in (1, -1, 1j, -1j):
            state = StateVector(phase * ghz_state(label).amplitudes)
            assert ghz_label_of(state) == scan_ghz_label(state) == label


def test_ghz_label_of_rejects_states_outside_the_basis():
    mix = S * (
        ghz_state(GhzLabel(0, (1, 0))).amplitudes
        + ghz_state(GhzLabel(1, (1, 0))).amplitudes
    )
    for state in (ket("000"), ket("0+1"), StateVector(mix)):
        assert scan_ghz_label(state) is None
        assert ghz_label_of(state) is None


def test_all_ghz_labels_is_built_once_per_width():
    assert all_ghz_labels(4) is all_ghz_labels(4)


# --- Bell projection ---------------------------------------------------


def test_project_bell_on_a_bell_state_is_deterministic():
    for label in BellLabel:
        outcomes = project_bell(bell_state(label), (0, 1))
        assert len(outcomes) == 1
        assert outcomes[0].label is label
        assert outcomes[0].probability == pytest.approx(1.0, abs=ATOL)
        assert outcomes[0].state.num_qubits == 0


def test_project_bell_on_product_state():
    # |00> = (phi+ + phi-)/sqrt2: half/half, never psi.
    outcomes = project_bell(ket("00"), (0, 1))
    assert {o.label for o in outcomes} == {BellLabel.PHI_PLUS, BellLabel.PHI_MINUS}
    for o in outcomes:
        assert o.probability == pytest.approx(0.5, abs=ATOL)


def test_project_bell_matches_index_oracle():
    """Frozen derived case: measuring pair (0, 3) of ghz_000 x ghz_101
    gives four outcomes of probability 1/4 each."""
    state = tensor(ghz_state(GhzLabel(0, (0, 0))), ghz_state(GhzLabel(1, (0, 1))))
    outcomes = project_bell(state, (0, 3))
    assert len(outcomes) == 4
    for o in outcomes:
        want = oracle_bell_prob(state, (0, 3), o.label)
        assert want == pytest.approx(0.25, abs=ATOL)
        assert o.probability == pytest.approx(want, abs=ATOL)
        assert o.state.num_qubits == 4
        assert np.linalg.norm(o.state.amplitudes) == pytest.approx(1.0, abs=ATOL)


def test_entanglement_swap_of_two_phi_plus_pairs():
    """Measuring (0, 2) of phi+ x phi+ is uniform over all four labels and
    leaves the partner qubits in the matching Bell state."""
    state = tensor(bell_state(BellLabel.PHI_PLUS), bell_state(BellLabel.PHI_PLUS))
    outcomes = project_bell(state, (0, 2))
    assert len(outcomes) == 4
    for o in outcomes:
        assert o.probability == pytest.approx(0.25, abs=ATOL)
        assert o.probability == pytest.approx(
            oracle_bell_prob(state, (0, 2), o.label), abs=ATOL
        )
        assert equal_up_to_phase(o.state, bell_state(o.label))


def test_project_bell_argument_errors():
    with pytest.raises(ValueError):
        project_bell(ket("00"), (0, 0))
    with pytest.raises(IndexError):
        project_bell(ket("00"), (0, 2))
    with pytest.raises(IndexError):
        project_bell(ket("0"), (0, 1))


# --- random generator ------------------------------------------------


def test_rng_streams_are_reproducible():
    a = [make_rng(s).random() for s in range(32)]
    b = [make_rng(s).random() for s in range(32)]
    assert a == b
    assert make_rng(5).random() == make_rng(5).random()


# --- ray comparison ----------------------------------------------------


def test_equal_up_to_phase_accepts_any_unit_phase():
    base = bell_state(BellLabel.PSI_PLUS)
    for phase in (1, -1, 1j, np.exp(0.73j)):
        rotated = StateVector(phase * base.amplitudes)
        assert equal_up_to_phase(base, rotated)
        assert equal_up_to_phase(rotated, base)


def test_equal_up_to_phase_rejects_different_states():
    assert not equal_up_to_phase(ket("0"), ket("1"))
    assert not equal_up_to_phase(ket("0"), ket("+"))
    assert not equal_up_to_phase(
        bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_MINUS)
    )
    with pytest.raises(ValueError):
        equal_up_to_phase(ket("0"), ket("00"))


# --- randomized invariants ---------------------------------------------


@st.composite
def random_states(draw, min_qubits=1, max_qubits=4):
    n = draw(st.integers(min_qubits, max_qubits))
    dim = 2**n
    finite = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
    re = draw(st.lists(finite, min_size=dim, max_size=dim))
    im = draw(st.lists(finite, min_size=dim, max_size=dim))
    vec = np.array(re, dtype=complex) + 1j * np.array(im)
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = vec + 1.0  # nudge degenerate draws away from zero
        norm = np.linalg.norm(vec)
    return StateVector(vec / norm)


@given(random_states(), st.sampled_from(list(PauliOp)), st.data())
@settings(max_examples=200, deadline=None)
def test_apply_pauli_preserves_norm_and_is_invertible(state, op, data):
    qubit = data.draw(st.integers(0, state.num_qubits - 1))
    moved = apply_pauli(state, qubit, op)
    assert np.linalg.norm(moved.amplitudes) == pytest.approx(1.0, abs=1e-9)
    twice = apply_pauli(moved, qubit, op)
    # every op squares to +/- identity, so the ray returns
    assert equal_up_to_phase(twice, state)


@st.composite
def states_with_pair(draw):
    state = draw(random_states(min_qubits=2))
    i = draw(st.integers(0, state.num_qubits - 1))
    j = draw(st.integers(0, state.num_qubits - 1).filter(lambda x: x != i))
    return state, (i, j)


# Two branches of 8e-10 each: pruning each one at 1e-9 dropped 1.6e-9 of mass.
_TWO_TINY_BRANCHES = StateVector(np.array([0, 0, 1j, 4e-5j]) / np.sqrt(1 + 1.6e-9))


@given(states_with_pair())
@example((_TWO_TINY_BRANCHES, (0, 1)))
@settings(max_examples=200, deadline=None)
def test_project_bell_probabilities_sum_to_one(state_and_pair):
    state, pair = state_and_pair
    outcomes = project_bell(state, pair)
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)
    for o in outcomes:
        assert o.state.num_qubits == state.num_qubits - 2
        assert np.linalg.norm(o.state.amplitudes) == pytest.approx(1.0, abs=1e-9)
