#!/usr/bin/env python3
"""Run one qdleak benchmark workload and print its metrics.

    python3 bench/run.py --workload audit|dialogues|eavesdrop \\
        --seed N --seconds S --trace 0|1

qdleak is pure Python, so nothing is built: the package is imported from
``src`` of the checkout this script sits in, and the run stops with exit
code 1 when that source is missing.  Inputs come from ``--seed`` only.
One caller, one thread, a closed loop: each operation starts when the
previous one has returned.  The run repeats whole rounds of the same
operations until ``--seconds`` have passed, checks every output (see
``checks.py``) and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics instead; its
spans go to ``.bench_out/``.  The names and units of both kinds of metric
are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIGESTS = BENCH / "reference_digests.json"
SPEC = ROOT / "BENCHMARK.json"
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 7
SHOWN_ERRORS = 10
# One thread: keep numpy's BLAS from starting helper threads, here and in
# the set-up interpreters, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure qdleak
    really comes from there, not from an installed copy."""
    if not (SRC / "qdleak" / "__init__.py").is_file():
        sys.exit(f"error: no qdleak source under {SRC}")
    sys.path.insert(0, str(SRC))
    import qdleak

    if Path(qdleak.__file__).resolve().parent != (SRC / "qdleak").resolve():
        sys.exit(f"error: qdleak was imported from {qdleak.__file__}, not {SRC}")


class Verifier:
    """Checks each operation's output once per distinct output.

    The first output of an operation is checked in full; a later output is
    compared with it, and must be identical, since every round runs the
    same inputs.  A verdict is kept per operation, so an operation counts
    as failed in every round or in none.
    """

    def __init__(self, workload: str) -> None:
        import checks
        import workloads
        from qdleak.report import LEAKAGE_SCHEMA

        self.plain = workloads.PLAIN[workload]
        self.rerun = workload == "dialogues"
        self.check = {
            "audit": lambda facts, text: checks.audit_errors(facts, text, LEAKAGE_SCHEMA),
            "dialogues": checks.dialogue_errors,
            "eavesdrop": checks.eavesdrop_errors,
        }[workload]
        self.seen: dict[str, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _errors(self, op, raw) -> list[str]:
        if isinstance(raw, Exception):
            return [f"{op.key}: raised {type(raw).__name__}: {raw}"]
        text = self.plain(raw)
        if op.key in self.seen:
            first, errors = self.seen[op.key]
            return errors if text == first else [f"{op.key}: output differs between rounds"]
        try:
            errors = self.check(op.facts, text)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errors = [f"{op.key}: malformed output ({type(exc).__name__}: {exc})"]
        if self.rerun and self.plain(op.call()) != text:
            errors.append(f"{op.key}: a re-run with the same seed gave another output")
        self.seen[op.key] = (text, errors)
        return errors

    def round(self, ops, raws) -> None:
        for op, raw in zip(ops, raws):
            errors = self._errors(op, raw)
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors += errors[: SHOWN_ERRORS - len(self.errors)]


def settle() -> None:
    """Collect garbage and freeze what is left (modules, caches, inputs),
    so that the collection before each timed operation scans only what
    the rounds have made since."""
    gc.collect()
    gc.freeze()


def timed_pass(ops, recorder=None) -> tuple[list, list[float]]:
    """Run every operation once, back to back; only the operations are timed.

    A full collection, untimed, before each operation starts every one
    from the same heap.  Otherwise garbage left by the operation before it
    would trigger a collection charged to it, and that depends on the
    seeded order of the round.
    """
    raws, durations = [], []
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            if recorder is None:
                raw = op.call()
            else:
                recorder.op += 1
                raw = recorder.span("bench.op", op.call)
        except Exception as exc:  # a raising operation is a failed operation
            raw = exc
        durations.append(time.perf_counter() - start)
        raws.append(raw)
    return raws, durations


def setup_seconds(workload: str) -> float:
    """Median time for a fresh interpreter to import qdleak and finish the
    workload's warm-up operations."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spec_metrics(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metrics listed in BENCHMARK.json."""
    return json.loads(SPEC.read_text())[kind]


def digest_line(workload: str, seed: int, digest: str) -> str:
    reference = {}
    if REFERENCE_DIGESTS.is_file():
        reference = json.loads(REFERENCE_DIGESTS.read_text()).get(workload, {})
    want = reference.get(str(seed))
    status = (
        "no reference for this seed"
        if want is None
        else "matches the reference" if want == digest else "DIFFERS from the reference"
    )
    return f"digest {workload} seed {seed} sha256 {digest} ({status})"


def run_untraced(workload: str, ops, seconds: int, seed: int, verifier: Verifier):
    import workloads

    setup_s = setup_seconds(workload)
    workloads.warm_up(workload)
    settle()
    per_round = sum(op.transcripts for op in ops)
    rounds: list[list[float]] = []  # per round, each operation's duration
    peak_rss_mb = digest = None
    deadline = time.perf_counter() + seconds
    while True:
        raws, times = timed_pass(ops)
        if peak_rss_mb is None:
            # Read before any output is checked, so the checks' own memory
            # does not count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            digest = workloads.output_digest(workload, ops, raws)
        rounds.append(times)
        verifier.round(ops, raws)
        del raws
        if time.perf_counter() >= deadline:
            break
    # Each operation costs its median time over the rounds, so a burst of
    # load from outside that hits one round does not count.
    op_s = [statistics.median(op_times) for op_times in zip(*rounds)]
    values = {
        "transcripts_per_s": per_round / sum(op_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec_metrics("end_to_end")}
    notes = [f"{len(rounds)} rounds of {len(ops)} operations", digest_line(workload, seed, digest)]
    return metrics, notes, True


def run_traced(workload: str, ops, seconds: int, seed: int, verifier: Verifier):
    import tracer
    import workloads

    recorder = tracer.Recorder()
    recorder.install()
    try:
        timed_pass(workloads.warm_up_ops(workload), recorder)
    finally:
        recorder.uninstall()
    setup = tracer.Aggregate(recorder.spans, recorder.states_built)
    settle()
    per_round = sum(op.transcripts for op in ops)
    rounds, untraced_tps, traced_tps, stdout_bytes = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        raws, times = timed_pass(ops)
        untraced_tps.append(per_round / sum(times))
        verifier.round(ops, raws)
        mark, built = len(recorder.spans), recorder.states_built
        recorder.install()
        try:
            raws, times = timed_pass(ops, recorder)
        finally:
            recorder.uninstall()
        traced_tps.append(per_round / sum(times))
        rounds.append(
            tracer.Aggregate(recorder.spans[mark:], recorder.states_built - built)
        )
        if workload == "audit":
            stdout_bytes = sum(len(out.encode()) for _, out in raws)
        verifier.round(ops, raws)
        del raws
        if time.perf_counter() >= deadline:
            break
    # Every round runs the same inputs, so the call structure must repeat.
    steady = all(
        r.calls == rounds[0].calls and r.states_built == rounds[0].states_built
        for r in rounds
    )
    values = tracer.span_metrics(setup, rounds)
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.transcripts_per_s"] = statistics.median(traced_tps)
    values["trace.overhead_transcripts_per_s"] = values[
        "trace.transcripts_per_s"
    ] - statistics.median(untraced_tps)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec_metrics("per_layer")}
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    recorder.write(spans)
    notes = [
        f"{len(rounds)} untraced and {len(rounds)} traced rounds of {len(ops)} operations",
        f"{len(recorder.spans)} spans written to {spans.relative_to(ROOT)}",
    ]
    if not steady:
        notes.append("ERROR: call counts differ between traced rounds")
    return metrics, notes, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["audit", "dialogues", "eavesdrop"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    ops = workloads.MAKE_OPS[args.workload](args.seed)
    verifier = Verifier(args.workload)
    if args.trace:
        metrics, notes, ok = run_traced(args.workload, ops, args.seconds, args.seed, verifier)
    else:
        metrics, notes, ok = run_untraced(args.workload, ops, args.seconds, args.seed, verifier)

    print(f"workload {args.workload} seed {args.seed}: " + "; ".join(notes[:1]))
    for note in notes[1:]:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"attempted {verifier.attempted}, failed {verifier.failed}")
    for error in verifier.errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": ok and verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
