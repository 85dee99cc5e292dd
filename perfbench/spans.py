"""Spans around the calls into each hyplq module, recorded from outside.

The package is not edited: `Tracer.install` replaces module attributes with
timing wrappers under the names the callers look them up by (cli imports
`solve_ocp` by name, so the wrapper goes on `hyplq.cli.solve_ocp`; ocp calls
its own `assemble_kkt`, so that one goes on `hyplq.ocp.assemble_kkt`), and
`uninstall` puts the originals back.  Spans are kept in memory; the caller
writes them out when the run ends.

A span's parent is the span open in the calling context.  The thread pool of
`sweep` is replaced by a subclass that opens one member span per task, child
of the pool span, and runs the task in the submitter's context, so spans
from pool threads keep their sweep member as parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import os
import statistics
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

# (module, attribute, layer).  The layer is the module that defines the
# function; geometry's domain parser is folded into the cli config stage.
WRAPS = (
    ("hyplq.cli", "main", "cli"),
    ("hyplq.cli", "run_experiment", "cli"),
    ("hyplq.cli", "plan_from_config", "cli"),
    ("hyplq.cli", "domain_from_config", "cli"),
    ("hyplq.cli", "write_table", "cli"),
    ("hyplq.cli", "write_field_csv", "cli"),
    ("hyplq.cli", "read_table", "cli"),
    ("hyplq.cli", "read_field_csv", "cli"),
    ("hyplq.cli", "emit_plot", "cli"),
    ("hyplq.cli", "solve_ocp", "ocp"),
    ("hyplq.ocp", "assemble_kkt", "ocp"),
    ("hyplq.cli", "weighted_spacetime_norms", "analysis"),
    ("hyplq.cli", "time_sliced_l2", "analysis"),
    ("hyplq.cli", "fit_decay_rate", "analysis"),
    ("hyplq.cli", "localization_certificate", "analysis"),
    ("hyplq.cli", "certify_rates", "domain_check"),
    ("hyplq.cli", "check_condition_ii", "domain_check"),
    ("hyplq.cli", "guaranteed_decay", "domain_check"),
    ("hyplq.cli", "transport_variable", "semigroup"),
    ("hyplq.cli", "continuity_damped", "semigroup"),
    ("hyplq.cli", "wave_damped", "semigroup"),
    ("hyplq.cli", "transport_damped", "semigroup"),
    ("hyplq.cli", "transport_free", "semigroup"),
    ("hyplq.semigroup", "flow_backward", "characteristics"),
    ("hyplq.semigroup", "flow_forward", "characteristics"),
    ("hyplq.semigroup", "path_integral", "characteristics"),
)

POOL = "hyplq.cli.ThreadPoolExecutor"
MEMBER = "hyplq.cli.sweep_member"


def _note_kkt(attrs, args, result):
    K, _ = result
    attrs["unknowns"] = int(K.shape[0])
    attrs["nnz"] = int(K.nnz)


def _note_residual(attrs, args, result):
    attrs["residual"] = float(result.residual)


def _note_bytes(attrs, args, result):
    attrs["bytes"] = os.path.getsize(args[0])


def _note_certified(attrs, args, result):
    attrs["certified"] = result is not None


_NOTES = {
    "hyplq.ocp.assemble_kkt": _note_kkt,
    "hyplq.cli.solve_ocp": _note_residual,
    "hyplq.cli.write_table": _note_bytes,
    "hyplq.cli.certify_rates": _note_certified,
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `install` swaps in the wrappers, `uninstall` removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._patches: list = []

    def begin(self, name: str, layer: str, parent: Optional[int] = None, **attrs) -> Span:
        span = Span(
            next(self._ids),
            name,
            layer,
            perf_counter(),
            self._current.get() if parent is None else parent,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()

    def call(self, name, layer, fn, args, kwargs, parent=None):
        """Run fn(*args, **kwargs) inside a span that is current meanwhile."""
        span = self.begin(name, layer, parent)
        token = self._current.set(span.id)
        try:
            result = fn(*args, **kwargs)
            note = _NOTES.get(name)
            if note is not None:
                note(span.attrs, args, result)
            return result
        finally:
            self._current.reset(token)
            self.end(span)

    def _wrapper(self, name, layer, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, layer, original, args, kwargs)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, layer in WRAPS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrapper(f"{modname}.{attr}", layer, original))
        cli = importlib.import_module("hyplq.cli")
        self._patches.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = _traced_pool(self)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _traced_pool(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._span = tracer.begin(POOL, "cli", workers=self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return super().submit(
                ctx.run, tracer.call, MEMBER, "cli", fn, args, kwargs, self._span.id
            )

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            if wait and not self._span.end:
                tracer.end(self._span)

    return TracedPool


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children of one span can overlap (pool members run side by side), so
    the covered part is the length of the union of their intervals.
    """
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(kids.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


PROPAGATORS = tuple(
    f"hyplq.cli.{n}"
    for n in ("transport_variable", "continuity_damped", "wave_damped", "transport_damped", "transport_free")
)


UNITS = {
    "ocp.solves": "count",
    "ocp.unknowns": "count",
    "ocp.kkt_nnz": "count",
    "ocp.assemble_s": "s",
    "ocp.solve_self_s": "s",
    "ocp.unknowns_per_s": "1/s",
    "ocp.residual_max": "1",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.read_s": "s",
    "cli.plot_s": "s",
    "cli.bytes_written": "B",
    "cli.write_mb_per_s": "MB/s",
    "cli.pool_busy_ratio": "ratio",
    "cli.self_s": "s",
    "analysis.calls": "count",
    "analysis.norms_s": "s",
    "analysis.fit_s": "s",
    "characteristics.flow_calls": "count",
    "characteristics.flow_s": "s",
    "characteristics.path_integral_calls": "count",
    "characteristics.path_integral_s": "s",
    "semigroup.levels": "count",
    "semigroup.transport_variable_s": "s",
    "semigroup.continuity_s": "s",
    "semigroup.wave_s": "s",
    "semigroup.level_p50_s": "s",
    "domain_check.layouts": "count",
    "domain_check.certify_s": "s",
    "domain_check.certified_ratio": "ratio",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times of one traced cycle."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_s(*names):
        return sum(own[s.id] for s in named(*names))

    def total_attr(key, *names):
        return sum(s.attrs.get(key, 0) for s in named(*names))

    kkt = "hyplq.ocp.assemble_kkt"
    solves = named("hyplq.cli.solve_ocp")
    unknowns = total_attr("unknowns", kkt)
    solve_wall = sum(s.duration for s in solves)
    write_s = self_s("hyplq.cli.write_table", "hyplq.cli.write_field_csv")
    written = total_attr("bytes", "hyplq.cli.write_table")
    pools = named(POOL)
    pool_capacity = sum(s.attrs["workers"] * s.duration for s in pools)
    analysis = (
        "hyplq.cli.weighted_spacetime_norms",
        "hyplq.cli.time_sliced_l2",
        "hyplq.cli.fit_decay_rate",
        "hyplq.cli.localization_certificate",
    )
    flows = ("hyplq.semigroup.flow_backward", "hyplq.semigroup.flow_forward")
    integrals = ("hyplq.semigroup.path_integral",)
    levels = named(*PROPAGATORS)
    layouts = named("hyplq.cli.certify_rates")
    return {
        "ocp.solves": len(solves),
        "ocp.unknowns": unknowns,
        "ocp.kkt_nnz": total_attr("nnz", kkt),
        "ocp.assemble_s": self_s(kkt),
        "ocp.solve_self_s": self_s("hyplq.cli.solve_ocp"),
        "ocp.unknowns_per_s": unknowns / solve_wall if solve_wall > 0 else 0.0,
        "ocp.residual_max": max((s.attrs.get("residual", 0.0) for s in solves), default=0.0),
        "cli.config_s": self_s("hyplq.cli.plan_from_config", "hyplq.cli.domain_from_config"),
        "cli.write_s": write_s,
        "cli.read_s": self_s("hyplq.cli.read_table", "hyplq.cli.read_field_csv"),
        "cli.plot_s": self_s("hyplq.cli.emit_plot"),
        "cli.bytes_written": written,
        "cli.write_mb_per_s": written / 1e6 / write_s if write_s > 0 else 0.0,
        "cli.pool_busy_ratio": (
            sum(s.duration for s in named(MEMBER)) / pool_capacity if pool_capacity > 0 else 0.0
        ),
        "cli.self_s": self_s("hyplq.cli.main", "hyplq.cli.run_experiment", POOL, MEMBER),
        "analysis.calls": len(named(*analysis)),
        "analysis.norms_s": self_s(*analysis[:2]),
        "analysis.fit_s": self_s(*analysis[2:]),
        "characteristics.flow_calls": len(named(*flows)),
        "characteristics.flow_s": self_s(*flows),
        "characteristics.path_integral_calls": len(named(*integrals)),
        "characteristics.path_integral_s": self_s(*integrals),
        "semigroup.levels": len(levels),
        "semigroup.transport_variable_s": self_s("hyplq.cli.transport_variable"),
        "semigroup.continuity_s": self_s("hyplq.cli.continuity_damped"),
        "semigroup.wave_s": self_s("hyplq.cli.wave_damped"),
        "semigroup.level_p50_s": (
            statistics.median(s.duration for s in levels) if levels else 0.0
        ),
        "domain_check.layouts": len(layouts),
        "domain_check.certify_s": self_s(
            "hyplq.cli.certify_rates", "hyplq.cli.check_condition_ii", "hyplq.cli.guaranteed_decay"
        ),
        "domain_check.certified_ratio": (
            sum(1 for s in layouts if s.attrs.get("certified")) / len(layouts) if layouts else 0.0
        ),
    }
