"""Acceptance gate: the headline claims this package must reproduce.

Each criterion runs as one test and prints a single PASS/FAIL line directly
to the terminal (bypassing capture), so `pytest tests/test_acceptance.py`
reads as a checklist.  Tolerances are stated inline; entropy and probability
checks use 1e-9 throughout.
"""

import contextlib
import itertools
import json

import numpy as np
import pytest

from qdleak.cli import main
from qdleak.leakage import (
    eve_posterior,
    jz_otp_equivalence,
    leakage_report,
    nba_xor_constraint,
    otp_reuse_posterior,
)
from qdleak.protocols import (
    Protocol,
    Transcript,
    all_secret_assignments,
    coding_ops,
    deduce_ghz_from_bells,
    ghz_after_ops,
    mxn_encoded_state,
    paired_bell_distribution,
    run_jz,
    run_mxn,
    run_nba,
    jz_secrets,
)
from qdleak.qstate import (
    BellLabel,
    GhzLabel,
    PauliOp,
    all_ghz_labels,
    bell_state,
    equal_up_to_phase,
    ghz_state,
    make_rng,
    project_bell,
    tensor,
    StateVector,
    apply_pauli,
)

from channel_reference import spelled_entries

TOL = 1e-9


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def _criterion(num, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL  criterion {num:>2}: {description}")
            raise
        with capsys.disabled():
            print(f"PASS  criterion {num:>2}: {description}")

    return _criterion


def cli_json(capsys, *argv):
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_1_nba_leakage_totals(criterion, capsys):
    with criterion(1, "nba analyze: 4 total, 2.0 secure, 2.0 leaked; 16 transcripts at entropy 2.0"):
        doc = cli_json(capsys, "analyze", "--protocol", "nba")
        assert doc["totals"]["total_bits"] == 4
        assert abs(doc["totals"]["secure_bits"] - 2.0) <= TOL
        assert abs(doc["totals"]["leaked_bits"] - 2.0) <= TOL
        assert len(doc["transcripts"]) == 16
        for entry in doc["transcripts"]:
            assert abs(entry["entropy_bits"] - 2.0) <= TOL


def test_criterion_2_nba_posterior_set(criterion):
    with criterion(2, "nba (psi+, psi-): support {(00,11),(01,10),(10,01),(11,00)} uniform, xor 11"):
        transcript = Transcript(Protocol.NBA, (BellLabel.PSI_PLUS, BellLabel.PSI_MINUS))
        posterior = eve_posterior(transcript)
        support = {s.full_bits for s in posterior.support}
        assert support == {
            ((0, 0), (1, 1)),
            ((0, 1), (1, 0)),
            ((1, 0), (0, 1)),
            ((1, 1), (0, 0)),
        }
        for prob in posterior.probabilities:
            assert abs(prob - 0.25) <= TOL
        assert nba_xor_constraint(transcript) == (1, 1)


def test_criterion_3_operation_table_row(criterion, capsys):
    with criterion(3, "table1: psi- row lists the frozen coding pairs column for column"):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line for line in out.splitlines()[1:]}
        cells = rows["psi-"].split(None, 1)[1].split("  ")
        assert cells == [
            "(i/00, sz/11)",
            "(sx/01, isy/10)",
            "(isy/10, sx/01)",
            "(sz/11, i/00)",
        ]


def test_criterion_4_jz_leakage_totals(criterion, capsys):
    with criterion(4, "jz analyze: 2 total, 1.0 secure, 1.0 leaked; 8 transcripts at entropy 1.0"):
        doc = cli_json(capsys, "analyze", "--protocol", "jz")
        assert doc["totals"]["total_bits"] == 2
        assert abs(doc["totals"]["secure_bits"] - 1.0) <= TOL
        assert abs(doc["totals"]["leaked_bits"] - 1.0) <= TOL
        assert len(doc["transcripts"]) == 8
        for entry in doc["transcripts"]:
            assert abs(entry["entropy_bits"] - 1.0) <= TOL


def test_criterion_5_jz_worked_example(criterion):
    with criterion(5, "jz run: initial +, bob flips, alice passes -> outcome -, both decode"):
        record = run_jz(jz_secrets(0, 1), "+")
        assert record.transcript.announced == ("+", "-")
        assert record.decoded[0] == {1: (1,)}
        assert record.decoded[1] == {0: (0,)}


def test_criterion_6_mxn_three_party(criterion, capsys):
    with criterion(6, "mxn N=3 analyze: 4 total, 1.0 secure, 3.0 leaked; ghz_101 posterior pair"):
        doc = cli_json(capsys, "analyze", "--protocol", "mxn", "--parties", "3")
        assert doc["totals"]["total_bits"] == 4
        assert abs(doc["totals"]["secure_bits"] - 1.0) <= TOL
        assert abs(doc["totals"]["leaked_bits"] - 3.0) <= TOL
        target = GhzLabel(1, (0, 1))
        hits = 0
        for transcript, coset in spelled_entries(leakage_report(Protocol.MXN, 3)):
            if deduce_ghz_from_bells(transcript.announced) == {target}:
                hits += 1
                support = {s.full_bits for s in coset.posterior.support}
                assert support == {((0, 0), (0,), (1,)), ((1, 1), (1,), (0,))}
        assert hits == 8


def test_criterion_7_mxn_scaling(criterion):
    with criterion(7, "mxn N=3..6: secure 1.0 and leaked N within 1e-9"):
        for parties in (3, 4, 5, 6):
            report = leakage_report(Protocol.MXN, parties)
            assert report.total_bits == parties + 1
            assert abs(report.secure_bits - 1.0) <= TOL
            assert abs(report.leaked_bits - parties) <= TOL


def test_criterion_8_swapping_oracle(criterion):
    with criterion(8, "N=2..6 enumeration: deduction total and single-valued; encoding round-trips"):
        for parties in (2, 3, 4, 5, 6):
            home = ghz_state(GhzLabel(0, (0,) * (parties - 1)))
            owner_of = {}
            for label in all_ghz_labels(parties):
                dist = paired_bell_distribution(tensor(home, ghz_state(label)))
                assert abs(sum(dist.values()) - 1.0) <= TOL
                for outcome in dist:
                    assert outcome not in owner_of  # single ownership
                    owner_of[outcome] = label
                    assert deduce_ghz_from_bells(outcome) == {label}
            # totality: every well-formed tuple is reachable under some label
            assert len(owner_of) == 4**parties
            # round trip: each op tuple's encoded state is (a phase of) its
            # label's doubled state, so it induces exactly those outcomes
            for secrets in all_secret_assignments(Protocol.MXN, parties):
                ops = coding_ops(secrets)
                label = ghz_after_ops(ops)
                assert equal_up_to_phase(
                    mxn_encoded_state(secrets), tensor(home, ghz_state(label))
                )


def test_criterion_9_decode_correctness(criterion):
    with criterion(9, "decode: exhaustive (nba, jz) and 20 seeds x all op tuples (mxn N=3,4)"):
        for initial in BellLabel:
            for secrets in all_secret_assignments(Protocol.NBA):
                record = run_nba(secrets, initial)
                assert record.decoded[0] == {1: secrets.others[0]}
                assert record.decoded[1] == {0: secrets.alice}
        for initial in ("0", "1", "+", "-"):
            for secrets in all_secret_assignments(Protocol.JZ):
                record = run_jz(secrets, initial)
                assert record.decoded[0] == {1: secrets.others[0]}
                assert record.decoded[1] == {0: secrets.alice}
        for parties in (3, 4):
            for secrets in all_secret_assignments(Protocol.MXN, parties):
                for seed in range(20):
                    record = run_mxn(secrets, make_rng(seed))
                    for party in range(parties):
                        expected = {
                            j: secrets.full_bits[j]
                            for j in range(parties)
                            if j != party
                        }
                        assert record.decoded[party] == expected


def test_criterion_10_otp_equivalence(criterion):
    with criterion(10, "otp: all 4 reused-key posteriors at entropy 1.0; jz matches on all 8"):
        for ca, cb in itertools.product((0, 1), repeat=2):
            assert abs(otp_reuse_posterior(ca, cb).entropy_bits - 1.0) <= TOL
        for initial in ("0", "1", "+", "-"):
            for outcome in ("0", "1") if initial in ("0", "1") else ("+", "-"):
                assert jz_otp_equivalence(initial, outcome)


def test_criterion_11_randomized_numerics(criterion):
    with criterion(11, "numerics: unitarity, norms, orthonormality, distribution sums over 1e4 cases"):
        for op in PauliOp:
            assert np.allclose(op.matrix.conj().T @ op.matrix, np.eye(2), atol=TOL)
        bell = np.array([bell_state(l).amplitudes for l in BellLabel])
        assert np.abs(bell @ bell.conj().T - np.eye(4)).max() <= TOL
        for parties in (2, 3, 4, 5, 6):
            vecs = np.array([ghz_state(l).amplitudes for l in all_ghz_labels(parties)])
            assert np.abs(vecs @ vecs.conj().T - np.eye(2**parties)).max() <= TOL

        rng = make_rng(2024)
        ops = list(PauliOp)
        for _ in range(10_000):
            n = int(rng.integers(1, 5))
            raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = StateVector(raw / np.linalg.norm(raw))
            moved = apply_pauli(state, int(rng.integers(n)), ops[rng.integers(4)])
            assert abs(np.linalg.norm(moved.amplitudes) - 1.0) <= TOL
            if n >= 2:
                i, j = (int(q) for q in rng.choice(n, size=2, replace=False))
                total = sum(o.probability for o in project_bell(moved, (i, j)))
                assert abs(total - 1.0) <= TOL
