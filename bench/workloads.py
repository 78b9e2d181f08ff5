"""The three benchmark workloads: inputs made from a seed, the operations
that hand them to qdleak, and the plain form of every output.

An operation is one call into the program: one ``qdleak analyze`` (audit),
one dialogue (dialogues) or one posterior (eavesdrop).  Each call looks its
entry point up as a module attribute at call time, so the tracer can patch
it.  ``plain`` turns a raw output into a string; the checks and the output
digest read only that string, never the program's objects.

The module expects ``src`` to be importable already (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from qdleak import cli, leakage, protocols, qstate

WORKLOADS = ("audit", "dialogues", "eavesdrop")

MXN_PARTIES = (3, 4, 5, 6)
BELL_TEXTS = ("phi+", "phi-", "psi+", "psi-")
KET_TEXTS = ("0", "1", "+", "-")
# Seeds of the generator handed to run_mxn, per assignment, in dialogues.
DIALOGUE_RUNS_PER_ASSIGNMENT = 2
# Transcripts per protocol kind in one eavesdrop round.
EAVESDROP_SAMPLES = 4
# Transcripts one analyze job enumerates; an mxn job at N parties has 4^N.
AUDIT_TRANSCRIPTS = {"nba": 16, "jz": 8, "otp": 4}


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``key`` names it stably (digests are taken in key order), ``facts`` is
    what the checks need to know about the inputs (true secrets, protocol,
    party count), and ``transcripts`` is how many transcripts it handles.
    """

    key: str
    call: Callable[[], Any]
    transcripts: int
    facts: dict = field(default_factory=dict)


def _assignments(protocol: str, parties: int | None = None) -> list[list[str]]:
    """Every secret assignment as per-party bit strings, lexicographic."""
    if protocol == "nba":
        pairs = ["00", "01", "10", "11"]
        return [[a, b] for a in pairs for b in pairs]
    if protocol in ("jz", "otp"):
        return [[a, b] for a in "01" for b in "01"]
    return [
        [a, *rest]
        for a in ("00", "01", "10", "11")
        for rest in itertools.product("01", repeat=parties - 1)
    ]


# --- audit -----------------------------------------------------------------


def _analyze(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def audit_ops(seed: int) -> list[Op]:
    """Every analyze job in both formats, in a seeded order."""
    jobs = [("nba", None), ("jz", None), ("otp", None)]
    jobs += [("mxn", n) for n in MXN_PARTIES]
    ops = []
    for protocol, parties in jobs:
        for fmt in ("text", "json"):
            argv = ["analyze", "--protocol", protocol]
            if parties is not None:
                argv += ["--parties", str(parties)]
            argv += ["--format", fmt]
            ops.append(
                Op(
                    key=f"{protocol}{parties or ''}-{fmt}",
                    call=lambda argv=argv: _analyze(argv),
                    transcripts=AUDIT_TRANSCRIPTS.get(protocol) or 4**parties,
                    facts={"protocol": protocol, "parties": parties, "format": fmt},
                )
            )
    random.Random(seed).shuffle(ops)
    return ops


def _audit_plain(raw: tuple[int, str]) -> str:
    code, out = raw
    return f"exit {code}\n{out}"


# --- dialogues -------------------------------------------------------------


def _secrets(protocol: str, parties: list[str]):
    if protocol == "nba":
        return protocols.nba_secrets(*parties)
    if protocol == "jz":
        return protocols.jz_secrets(int(parties[0]), int(parties[1]))
    if protocol == "otp":
        return protocols.otp_secrets(int(parties[0]), int(parties[1]))
    return protocols.mxn_secrets(parties[0], [int(b) for b in parties[1:]])


def _dialogue_call(protocol: str, secrets, initial: str | None, rng_seed: int | None):
    if protocol == "nba":
        label = qstate.BellLabel.from_text(initial)
        return lambda: protocols.run_nba(secrets, label)
    if protocol == "jz":
        return lambda: protocols.run_jz(secrets, initial)
    return lambda: protocols.run_mxn(secrets, qstate.make_rng(rng_seed))


def dialogue_ops(seed: int) -> list[Op]:
    """run_mxn over every assignment at N=3..6 with seeded generators, plus
    every NBA assignment x initial Bell label and JZ assignment x initial
    ket, in a seeded order."""
    rnd = random.Random(seed)
    cases = []
    for parties in _assignments("nba"):
        cases += [("nba", parties, initial, None) for initial in BELL_TEXTS]
    for parties in _assignments("jz"):
        cases += [("jz", parties, initial, None) for initial in KET_TEXTS]
    for n in MXN_PARTIES:
        for parties in _assignments("mxn", n):
            for _ in range(DIALOGUE_RUNS_PER_ASSIGNMENT):
                cases.append(("mxn", parties, None, rnd.getrandbits(32)))
    ops = []
    for protocol, parties, initial, rng_seed in cases:
        secrets = _secrets(protocol, parties)
        ops.append(
            Op(
                key=f"{protocol}-{'.'.join(parties)}-{initial or rng_seed}",
                call=_dialogue_call(protocol, secrets, initial, rng_seed),
                transcripts=1,
                facts={"protocol": protocol, "secrets": parties, "initial": initial},
            )
        )
    rnd.shuffle(ops)
    return ops


def _label_text(label) -> str:
    return label.text if isinstance(label, qstate.BellLabel) else str(label)


def _dialogue_plain(record) -> str:
    doc = {
        "transcript": [_label_text(x) for x in record.transcript.announced],
        "decoded": [
            {str(j): "".join(map(str, bits)) for j, bits in sorted(d.items())}
            for d in record.decoded
        ],
    }
    return json.dumps(doc, sort_keys=True)


# --- eavesdrop -------------------------------------------------------------


def _sample_transcript(protocol: str, parties: list[str], rnd: random.Random):
    """A transcript the given secrets produce, made with seeded public
    choices (initial label, key bit, generator seed)."""
    if protocol == "otp":
        key = rnd.getrandbits(1)
        cipher = (str(int(parties[0]) ^ key), str(int(parties[1]) ^ key))
        return protocols.Transcript(protocols.Protocol.OTP, cipher)
    initial = rnd.choice(BELL_TEXTS if protocol == "nba" else KET_TEXTS)
    rng_seed = rnd.getrandbits(32)
    run = _dialogue_call(protocol, _secrets(protocol, parties), initial, rng_seed)
    return run().transcript


def eavesdrop_ops(seed: int) -> list[Op]:
    """eve_posterior on transcripts of seeded runs: EAVESDROP_SAMPLES each
    of nba, jz, otp and mxn at N=3..6, in a seeded order."""
    rnd = random.Random(seed)
    kinds = [("nba", None), ("jz", None), ("otp", None)]
    kinds += [("mxn", n) for n in MXN_PARTIES]
    ops = []
    for protocol, n in kinds:
        choices = _assignments(protocol, n)
        for i in range(EAVESDROP_SAMPLES):
            parties = rnd.choice(choices)
            transcript = _sample_transcript(protocol, parties, rnd)
            announced = [_label_text(x) for x in transcript.announced]
            ops.append(
                Op(
                    key=f"{protocol}{n or ''}-{i}",
                    call=lambda t=transcript: leakage.eve_posterior(t),
                    transcripts=1,
                    facts={
                        "protocol": protocol,
                        "parties": n,
                        "secrets": parties,
                        "announced": announced,
                    },
                )
            )
    rnd.shuffle(ops)
    # Making the transcripts ran the protocols and filled the program's
    # caches; empty them so that set-up starts cold, as on the other
    # workloads.
    clear_caches()
    return ops


def _posterior_plain(posterior) -> str:
    return json.dumps(
        [
            [["".join(map(str, bits)) for bits in s.full_bits], p]
            for s, p in posterior.hypotheses
        ]
    )


# --- shared ------------------------------------------------------------------

MAKE_OPS = {"audit": audit_ops, "dialogues": dialogue_ops, "eavesdrop": eavesdrop_ops}
PLAIN = {"audit": _audit_plain, "dialogues": _dialogue_plain, "eavesdrop": _posterior_plain}


def warm_up_ops(workload: str) -> list[Op]:
    """Operations that fill the program's caches before timing, fixed so
    that set-up does the same work for every seed: the smallest analyze of
    every kind in both formats (audit); one all-zero dialogue per protocol
    and party count (dialogues); one posterior per protocol and party count
    on an all-phi+ / all-0 transcript, which every kind can announce
    (eavesdrop)."""
    if workload == "audit":
        return [op for op in audit_ops(0) if op.facts["parties"] in (None, 3)]
    ops = []
    if workload == "dialogues":
        cases = [("nba", ["00", "00"], "phi+"), ("jz", ["0", "0"], "0")]
        cases += [("mxn", ["00"] + ["0"] * (n - 1), None) for n in MXN_PARTIES]
        for protocol, parties, initial in cases:
            call = _dialogue_call(protocol, _secrets(protocol, parties), initial, 0)
            ops.append(Op(f"warm-{protocol}{len(parties)}", call, 1))
        return ops
    P, bell = protocols.Protocol, qstate.BellLabel.PHI_PLUS
    transcripts = [
        protocols.Transcript(P.NBA, (bell, bell)),
        protocols.Transcript(P.JZ, ("0", "0")),
        protocols.Transcript(P.OTP, ("0", "0")),
    ]
    transcripts += [protocols.Transcript(P.MXN, (bell,) * n) for n in MXN_PARTIES]
    for t in transcripts:
        key = f"warm-{t.protocol.text}{len(t.announced)}"
        ops.append(Op(key, lambda t=t: leakage.eve_posterior(t), 1))
    return ops


def output_digest(workload: str, ops: list[Op], raws: list) -> str:
    """sha256 over every operation's plain output, in key order, so that the
    seeded order of a round does not change it."""
    digest = hashlib.sha256()
    plain = PLAIN[workload]
    for key, text in sorted((op.key, plain(raw)) for op, raw in zip(ops, raws)):
        digest.update(f"{key}\0{text}\0".encode())
    return digest.hexdigest()


def clear_caches() -> None:
    """Empty every ``lru_cache`` in qdleak's modules."""
    for name, module in list(sys.modules.items()):
        if name == "qdleak" or name.startswith("qdleak."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def warm_up(workload: str) -> None:
    for op in warm_up_ops(workload):
        op.call()
