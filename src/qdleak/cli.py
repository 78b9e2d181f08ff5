"""Command-line interface.

Three subcommands:

* ``run``: execute one protocol dialogue and show the transcript plus what
  each party decodes.
* ``analyze``: enumerate every reachable transcript and report the
  eavesdropper's per-transcript posterior and the leakage totals.
* ``table1``: print the coding-operation table for the Bell-pair dialogue
  with initial state psi+.

Exit codes: 0 on success, 1 on inconsistent/corrupted protocol data or
when the reader closes stdout early (``| head``, which ends quietly:
:func:`closed_stdout`), 2 on usage errors.  Output is deterministic: the
same command line (including ``--seed``, default 0) produces
byte-identical output.  Diagnostics go to stderr, results to stdout.

:func:`main` parses with one parser per process, built on its first call:
``parse_args`` leaves a parser unchanged, so a process that calls ``main``
many times builds the argparse tree once.  :func:`build_parser` returns a
fresh parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import report as report_mod
from .leakage import leakage_report
from .protocols import (
    ANNOUNCED_SYMBOLS,
    ANNOUNCED_TEXTS,
    MXN_PARTIES,
    Protocol,
    SecretAssignment,
    TranscriptError,
    run_jz,
    run_mxn,
    run_nba,
)
from .qstate import make_rng


class UsageError(Exception):
    pass


_MXN_RANGE = f"{MXN_PARTIES[0]}..{MXN_PARTIES[-1]}"


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the three subcommands.  :func:`main` does not call
    this per command line; it reuses the one :func:`_parser` holds."""
    parser = argparse.ArgumentParser(
        prog="qdleak",
        description="Simulate bidirectional quantum dialogues and audit "
        "what their public transcripts leak.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one dialogue")
    run.add_argument("--protocol", required=True, choices=["nba", "jz", "mxn"])
    run.add_argument("--alice", help="party 0 bits (2 for nba/mxn, 1 for jz)")
    run.add_argument("--bob", help="party 1 bits (nba: 2, jz: 1)")
    run.add_argument(
        "--others", help="mxn: comma-separated single bits for parties 1..N-1"
    )
    run.add_argument("--parties", type=int, help=f"mxn: total party count, {_MXN_RANGE}")
    run.add_argument(
        "--initial", help="nba: phi+/phi-/psi+/psi-; jz: 0/1/+/-"
    )
    run.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    run.add_argument("--format", choices=["text", "json"], default="text")
    run.add_argument("--verbose", action="store_true", help="show encodings")

    analyze = sub.add_parser("analyze", help="audit transcript leakage")
    analyze.add_argument(
        "--protocol", required=True, choices=["nba", "jz", "mxn", "otp"]
    )
    analyze.add_argument("--parties", type=int, help=f"mxn: total party count, {_MXN_RANGE}")
    analyze.add_argument("--format", choices=["text", "json"], default="text")

    sub.add_parser("table1", help="coding table for the Bell-pair dialogue")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import,
    so ``import qdleak.cli`` does not pay for it."""
    return build_parser()


def _reject(condition: bool, message: str) -> None:
    if condition:
        raise UsageError(message)


def _check_parties(protocol: Protocol, parties: int | None) -> None:
    if protocol is Protocol.MXN:
        _reject(parties is None, "--parties is required for mxn")
        _reject(
            parties not in MXN_PARTIES,
            f"--parties must be in {_MXN_RANGE}, got {parties}",
        )
    else:
        _reject(parties is not None, f"--parties does not apply to {protocol.text}")


def _cmd_run(args: argparse.Namespace) -> int:
    protocol = Protocol(args.protocol)
    mxn = protocol is Protocol.MXN
    _reject(args.seed < 0, f"--seed must be non-negative, got {args.seed}")
    flags = {"alice": True, "bob": not mxn, "others": mxn, "initial": not mxn}
    for flag, wanted in flags.items():
        given = getattr(args, flag) is not None
        _reject(given and not wanted, f"--{flag} does not apply to {protocol.text}")
        _reject(wanted and not given, f"--{flag} is required for {protocol.text}")
    _check_parties(protocol, args.parties)
    if mxn:
        others, wanted = args.others.split(","), args.parties - 1
        _reject(len(others) != wanted, f"--others needs {wanted} comma-separated bits")
    else:
        others = [args.bob]
    try:
        secrets = SecretAssignment(protocol, args.alice, others)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if mxn:
        record = run_mxn(secrets, make_rng(args.seed))
    else:
        texts = ANNOUNCED_TEXTS[protocol]
        _reject(args.initial not in texts, f"--initial must be one of {'/'.join(texts)}")
        initial = ANNOUNCED_SYMBOLS[protocol][texts.index(args.initial)]
        record = (run_nba if protocol is Protocol.NBA else run_jz)(secrets, initial)

    # The seed only matters where sampling happens; elsewhere it would be
    # noise in otherwise deterministic output.
    shown_seed = args.seed if mxn else None
    if args.format == "json":
        doc = report_mod.run_document(record, seed=shown_seed)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(report_mod.run_text(record, seed=shown_seed, verbose=args.verbose))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    protocol = Protocol(args.protocol)
    _check_parties(protocol, args.parties)
    rep = leakage_report(protocol, args.parties)
    if args.format == "json":
        print(report_mod.leakage_json(rep))
    else:
        print(report_mod.leakage_text(rep))
    return 0


def closed_stdout() -> int:
    """The exit code after the reader closed stdout: fd 1 now points at
    os.devnull, so the interpreter's last flush of stdout cannot fail
    again, and the code is 1, Python's own convention."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "analyze":
            code = _cmd_analyze(args)
        else:
            print(report_mod.operation_table_text())
            code = 0
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return closed_stdout()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TranscriptError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
