"""qdleak: exact simulation of bidirectional quantum dialogues and an
audit of what their public transcripts leak to a passive observer.

The package has four layers: :mod:`qdleak.qstate` (state-vector engine),
:mod:`qdleak.protocols` (protocol runs, decoding, transcript production),
:mod:`qdleak.leakage` (the observer's posterior and leakage accounting),
and :mod:`qdleak.report`/:mod:`qdleak.cli` (documents and the command-line
front end).  Everything is deterministic given a seed; see
:func:`qdleak.qstate.make_rng`.
"""

import os

# The state vectors are small, so numpy's BLAS gains nothing from helper
# threads, which spin and burn CPU.  Pin one thread unless the user chose
# otherwise; this has to run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .qstate import (
    ATOL,
    BellLabel,
    BellOutcome,
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
from .protocols import (
    Protocol,
    RunRecord,
    SecretAssignment,
    Transcript,
    TranscriptError,
    all_secret_assignments,
    deduce_ghz_from_bells,
    ghz_after_ops,
    jz_decode,
    jz_secrets,
    mxn_decode,
    mxn_secrets,
    nba_decode,
    nba_secrets,
    otp_secrets,
    run_jz,
    run_mxn,
    run_nba,
)
from .leakage import (
    CosetLeakage,
    LeakageReport,
    Posterior,
    eve_posterior,
    jz_otp_equivalence,
    leakage_report,
    nba_xor_constraint,
    otp_reuse_posterior,
    shannon_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "BellLabel",
    "BellOutcome",
    "CosetLeakage",
    "GhzLabel",
    "LeakageReport",
    "PauliOp",
    "Posterior",
    "Protocol",
    "RunRecord",
    "SecretAssignment",
    "StateVector",
    "Transcript",
    "TranscriptError",
    "all_ghz_labels",
    "all_secret_assignments",
    "apply_pauli",
    "bell_state",
    "deduce_ghz_from_bells",
    "equal_up_to_phase",
    "eve_posterior",
    "ghz_after_ops",
    "ghz_label_of",
    "ghz_state",
    "jz_decode",
    "jz_otp_equivalence",
    "jz_secrets",
    "ket",
    "leakage_report",
    "make_rng",
    "mxn_decode",
    "mxn_secrets",
    "nba_decode",
    "nba_secrets",
    "nba_xor_constraint",
    "otp_reuse_posterior",
    "otp_secrets",
    "project_bell",
    "run_jz",
    "run_mxn",
    "run_nba",
    "shannon_entropy",
    "tensor",
]
