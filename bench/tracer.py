"""Span recorder for the traced run, patched in from outside the program.

Each traced function is replaced, in every qdleak module namespace that
holds it (the place its callers look it up, e.g. ``protocols.project_bell``
and ``leakage.paired_bell_distribution``), by a wrapper that records a span:
operation id, span id, parent span id, name, start, end and one extra
count.  ``StateVector.__init__`` gets a counter instead of a span.  Spans
stay in memory until the run ends.  ``uninstall`` puts every original back,
so untraced passes run the program unmodified.

qstate functions are leaves: nothing they call is traced.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

TRACED = (
    "qstate.project_bell",
    "qstate.apply_pauli",
    "qstate.ghz_label_of",
    "qstate.tensor",
    "protocols.run_nba",
    "protocols.run_jz",
    "protocols.run_mxn",
    "protocols.nba_final_label",
    "protocols.nba_decode",
    "protocols.jz_outcome_label",
    "protocols.mxn_encoded_state",
    "protocols.mxn_decode",
    "protocols.deduce_ghz_from_bells",
    "protocols.ghz_after_ops",
    "protocols.all_secret_assignments",
    "protocols.paired_bell_distribution",
    "protocols.paired_bell_probability",
    "leakage.leakage_report",
    "leakage.eve_posterior",
    "report.leakage_document",
    "report.leakage_text",
    "cli.main",
)
LAYERS = ("qstate", "protocols", "leakage", "report", "cli")


def _extra(name: str, result) -> int:
    """The per-call count a ratio needs: branches kept by a Bell
    projection, and whether a branch probability came out nonzero."""
    if name == "qstate.project_bell":
        return len(result)
    if name == "protocols.paired_bell_probability":
        return int(result > 0)
    return 0


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end, extra)
        self.states_built = 0
        self.op = 0
        self._stack = [0]
        self._next = 1
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        self.spans.append((self.op, sid, parent, name, start, end, _extra(name, result)))
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "qdleak" or name.startswith("qdleak.")
        }
        for target in TRACED:
            module, attr = target.split(".")
            original = getattr(modules[f"qdleak.{module}"], attr)
            wrapper = self._wrap(target, original)
            for mod in modules.values():
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
        state_cls = modules["qdleak.qstate"].StateVector
        init = state_cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.states_built += 1
            init(obj, *args, **kwargs)

        self._saved.append((state_cls, "__init__", init))
        state_cls.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class Aggregate:
    """Per-function calls, total time, self time and extra counts over a
    slice of the recorded spans, plus the StateVector count for it."""

    def __init__(self, spans: list[tuple], states_built: int) -> None:
        child = defaultdict(float)
        for _, _, parent, _, start, end, _ in spans:
            child[parent] += end - start
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        for _, sid, _, name, start, end, extra in spans:
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - child[sid]
            self.extra[name] += extra
        self.states_built = states_built

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))


def span_metrics(setup: Aggregate, rounds: list[Aggregate]) -> dict[str, float]:
    """The span-derived per-layer values for a cold set-up plus one warm
    round: counts from set-up plus the first traced round (all rounds have
    the same counts), times from set-up plus the median round."""
    values: dict[str, float] = {}
    for name in TRACED:
        values[f"{name}.calls"] = setup.calls[name] + rounds[0].calls[name]
        for quantity, table in (("s", "total_s"), ("self_s", "self_s")):
            values[f"{name}.{quantity}"] = getattr(setup, table)[name] + median(
                [getattr(r, table)[name] for r in rounds]
            )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = setup.layer_self_s(layer) + median(
            [r.layer_self_s(layer) for r in rounds]
        )
    pb, pbp = "qstate.project_bell", "protocols.paired_bell_probability"
    kept = setup.extra[pb] + rounds[0].extra[pb]
    nonzero = setup.extra[pbp] + rounds[0].extra[pbp]
    values[f"{pb}.kept_ratio"] = kept / max(1, 4 * values[f"{pb}.calls"])
    values[f"{pbp}.nonzero_ratio"] = nonzero / max(1, values[f"{pbp}.calls"])
    values["qstate.StateVector.built"] = setup.states_built + rounds[0].states_built
    return values
