"""Spans and counts recorded at the module-level bindings the program's callers use.

Each wrapped binding records calls, self time (its time minus the time of
wrapped calls made inside it), exceptions by type, and, for every call, the
nearest wrapped caller.  Spans live in memory and are read out when the run
ends.

``layer_metrics`` reads two caller edges and one exception count; the edge
and exception counters keep every pair so that a run can be inspected when
debugging.

Blind spot: a call made inside a module through a name the tracer does not
replace bypasses it, for example ``fock.coherent_fock`` calling
``poisson_tail``, or ``rates.key_rate`` calling ``binary_entropy``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name).  Span names say which layer owns the code,
# so one function reached through several modules' bindings is one span.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("cli", "optimize_mu", "optimize.optimize_mu"),
    ("cli", "sweep", "optimize.sweep"),
    ("cli", "find_crossover", "optimize.find_crossover"),
    ("cli", "ecs_misaligned_stats", "rates.ecs_misaligned_stats"),
    ("cli", "key_rate", "rates.key_rate"),
    ("cli", "bell_state_stats", "rates.bell_state_stats"),
    ("cli", "plob_bound", "rates.plob_bound"),
    ("cli", "channel_efficiency", "rates.channel_efficiency"),
    ("optimize", "optimize_mu", "optimize.optimize_mu"),
    ("optimize", "sweep", "optimize.sweep"),
    ("optimize", "find_crossover", "optimize.find_crossover"),
    ("optimize", "ecs_misaligned_stats", "rates.ecs_misaligned_stats"),
    ("optimize", "key_rate", "rates.key_rate"),
    ("optimize", "bell_state_stats", "rates.bell_state_stats"),
    ("optimize", "plob_bound", "rates.plob_bound"),
    ("optimize", "channel_efficiency", "rates.channel_efficiency"),
    ("rates", "ecs_misaligned_stats", "rates.ecs_misaligned_stats"),
    ("rates", "key_rate", "rates.key_rate"),
    ("rates", "bell_state_stats", "rates.bell_state_stats"),
    ("rates", "plob_bound", "rates.plob_bound"),
    ("rates", "channel_efficiency", "rates.channel_efficiency"),
    ("rates", "DetectorStats", "params.DetectorStats"),
    ("oracle", "oracle_stats", "oracle.oracle_stats"),
    ("oracle", "ecs_misaligned_stats", "rates.ecs_misaligned_stats"),
    ("oracle", "DetectorStats", "params.DetectorStats"),
    ("oracle", "beamsplitter_apply", "fock.beamsplitter_apply"),
    ("oracle", "threshold_detect", "fock.threshold_detect"),
    ("oracle", "mode_product", "fock.mode_product"),
    ("oracle", "coherent_fock", "fock.coherent_fock"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0
    useful_rows: int = 0


class Tracer:
    """Wraps bindings while installed; spans accumulate across installs."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.edges: Counter[tuple[str | None, str]] = Counter()
        self.errors: Counter[tuple[str, str]] = Counter()
        # Open spans: (name, [time spent in wrapped callees]).
        self._stack: list[tuple[str, list[float]]] = []

    def _wrap(self, func, name: str):
        stats = self.spans.setdefault(name, SpanStats())

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            self.edges[parent, name] += 1
            inner = [0.0]
            self._stack.append((name, inner))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - inner[0]
                if self._stack:
                    self._stack[-1][1][0] += elapsed
            if name == "optimize.sweep":
                stats.rows += len(result)
                stats.useful_rows += sum(
                    1 for row in result if row.rate_ecs is not None and row.rate_ecs > 0.0
                )
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict[str, object]):
        """Replace every binding in ``BINDINGS``; restore them on exit."""
        saved = []
        try:
            for module_name, attr, span in BINDINGS:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return span.calls if span else 0

    def self_s(self, name: str) -> float:
        span = self.spans.get(name)
        return span.self_s if span else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics that come from spans and counts."""
        searches = self.calls("optimize.optimize_mu")
        sweep_span = self.spans.get("optimize.sweep")
        rows = sweep_span.rows if sweep_span else 0
        values: dict[str, float] = {
            "optimize.optimize_mu.calls": searches,
            "optimize.optimize_mu.self_s": self.self_s("optimize.optimize_mu"),
            "optimize.evals_per_search": (
                self.edges["optimize.optimize_mu", "rates.ecs_misaligned_stats"] / searches
                if searches else 0.0
            ),
            "optimize.crossover_optimize_calls": self.edges[
                "optimize.find_crossover", "optimize.optimize_mu"
            ],
            "optimize.useful_row_frac": sweep_span.useful_rows / rows if rows else 0.0,
            "params.DetectorStats.constructions": self.calls("params.DetectorStats"),
            "oracle.cutoff_errors": self.errors["oracle.oracle_stats", "CutoffError"],
        }
        for name in ("rates.ecs_misaligned_stats", "rates.key_rate", "oracle.oracle_stats",
                     "fock.beamsplitter_apply"):
            values[f"{name}.calls"] = self.calls(name)
            values[f"{name}.self_s"] = self.self_s(name)
        for name in ("rates.bell_state_stats", "rates.plob_bound", "rates.channel_efficiency",
                     "fock.threshold_detect", "fock.mode_product", "fock.coherent_fock"):
            values[f"{name}.calls"] = self.calls(name)
        return values
