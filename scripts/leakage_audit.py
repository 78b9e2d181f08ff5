#!/usr/bin/env python3
"""Audit every supported protocol and print a leakage summary table.

Usage:
    python scripts/leakage_audit.py [--json]

For each protocol (and each MXN party count) this enumerates all reachable
transcripts exactly and reports total, secure, and leaked bits, plus the
per-transcript entropy (constant across transcripts for all of these
protocols, which the table makes visible).
"""

import argparse
import sys
import textwrap

from qdleak.cli import closed_stdout
from qdleak.leakage import leakage_report
from qdleak.protocols import MXN_PARTIES, Protocol
from qdleak.report import leakage_json


def audit_rows():
    for protocol in (Protocol.NBA, Protocol.JZ, Protocol.OTP):
        yield leakage_report(protocol)
    for parties in MXN_PARTIES:
        yield leakage_report(Protocol.MXN, parties)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit full reports as JSON")
    args = parser.parse_args()
    try:
        print_audit(args.json)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        return closed_stdout()


def print_audit(as_json: bool) -> None:
    if as_json:
        # json.dumps(docs, indent=2, sort_keys=True) of the reports'
        # documents: each one's leakage_json, one level deeper in a list
        docs = (textwrap.indent(leakage_json(rep), "  ") for rep in audit_rows())
        print("[\n" + ",\n".join(docs) + "\n]")
        return

    header = f"{'protocol':<10}{'parties':>8}{'total':>7}{'secure':>9}{'leaked':>9}{'transcripts':>13}{'entropy/t':>11}"
    print(header)
    print("-" * len(header))
    for rep in audit_rows():
        entropies = {round(c.entropy_bits, 9) for c in rep.cosets}
        shown = f"{entropies.pop():.3f}" if len(entropies) == 1 else "varies"
        print(
            f"{rep.protocol.text:<10}"
            f"{rep.parties if rep.parties is not None else '-':>8}"
            f"{rep.total_bits:>7}"
            f"{rep.secure_bits:>9.3f}"
            f"{rep.leaked_bits:>9.3f}"
            f"{len(rep.entries):>13}"
            f"{shown:>11}"
        )


if __name__ == "__main__":
    raise SystemExit(main())
