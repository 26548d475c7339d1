"""In-memory span recording around calls into the simulator's layers.

The wrappers are installed on the simulator's classes (and, for module
functions, on the name the caller resolves) before any processor is built.
They are passive: arguments, return values and exceptions pass through
untouched, so a traced run's statistics are bit-identical to an untraced
run's.

Two kinds of span:

* *coarse* spans (one per sweep, spec, trace synthesis, cache write or
  report) are kept individually as ``(name, start, end, parent, spec)``;
* *fine* spans (per-cycle and per-instruction calls such as
  ``FetchUnit.fetch``) are aggregated per spec into ``[calls, total_s,
  self_s]``, because keeping millions of them would cost more memory and
  time than the work they measure.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Optional, Tuple

#: aggregate row of one span name: [calls, total seconds, self seconds]
Aggregate = List[float]


class SpanRecorder:
    """Span stack, coarse span list and per-spec aggregates of one process."""

    def __init__(self) -> None:
        #: open spans: [child seconds, coarse span id or None]
        self.stack: List[list] = []
        #: coarse spans: (name, start, end, parent id or None, spec id)
        self.spans: List[Tuple[str, float, float, Optional[int], str]] = []
        #: phase -> spec id -> span name -> aggregate
        self.phases: Dict[str, Dict[str, Dict[str, Aggregate]]] = {}
        self.phase = "sweep"
        self.spec = "-"
        self.agg: Dict[str, Aggregate] = self._agg_for(self.spec)
        self.clock0 = time.perf_counter()

    def _agg_for(self, spec: str) -> Dict[str, Aggregate]:
        return self.phases.setdefault(self.phase, {}).setdefault(spec, {})

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.spec = "-"
        self.agg = self._agg_for(self.spec)

    def set_spec(self, spec: str) -> None:
        self.spec = spec
        self.agg = self._agg_for(spec)

    def fine(self, name: str, fn):
        """Wrap ``fn`` so each call adds to the current spec's aggregate."""
        stack = self.stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                row = recorder.agg.get(name)
                if row is None:
                    row = recorder.agg[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[0]

        return wrapper

    def coarse(self, name: str, fn, spec_of=None):
        """Wrap ``fn`` so each call is kept as one span.

        ``spec_of(args, kwargs)``, when given, names the spec the call
        works on; it becomes the current spec for the call's fine spans.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spec = spec_of(args, kwargs) if spec_of is not None else None
            with recorder.span(name, spec):
                return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, spec: Optional[str] = None) -> "_Span":
        return _Span(self, name, spec)

    def export(self) -> dict:
        """The run's spans as plain data (times relative to ``clock0``)."""
        return {
            "spans": [
                {
                    "name": name,
                    "start": start - self.clock0,
                    "end": end - self.clock0,
                    "parent": parent,
                    "spec": spec,
                }
                for name, start, end, parent, spec in self.spans
            ],
            "aggregates": self.phases,
        }


class _Span:
    """A coarse span as a context manager."""

    def __init__(self, recorder: SpanRecorder, name: str, spec: Optional[str]) -> None:
        self.recorder = recorder
        self.name = name
        self.spec = spec

    def __enter__(self) -> "_Span":
        rec = self.recorder
        parent = next((f[1] for f in reversed(rec.stack) if f[1] is not None), None)
        self.index = len(rec.spans)
        rec.spans.append((self.name, 0.0, 0.0, parent, self.spec or rec.spec))
        self.frame = [0.0, self.index]
        rec.stack.append(self.frame)
        self.previous_spec = rec.spec
        if self.spec is not None:
            rec.set_spec(self.spec)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        rec = self.recorder
        elapsed = end - self.start
        rec.stack.pop()
        if rec.stack:
            rec.stack[-1][0] += elapsed
        name, _, _, parent, spec = rec.spans[self.index]
        rec.spans[self.index] = (name, self.start, end, parent, spec)
        row = rec.agg.get(self.name)
        if row is None:
            row = rec.agg[self.name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - self.frame[0]
        if self.spec is not None:
            rec.set_spec(self.previous_spec)
        return False


def _subclasses(cls) -> list:
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(s for s in _subclasses(sub) if s not in seen)
    return seen


def _wrap_methods(recorder: SpanRecorder, base, methods, layer: str) -> None:
    """Wrap each of ``methods`` on ``base`` and every loaded subclass that
    defines its own version."""
    for cls in _subclasses(base):
        for method in methods:
            fn = cls.__dict__.get(method)
            if fn is not None:
                setattr(cls, method, recorder.fine(f"{layer}.{method}", fn))


def _patch(owner, attr: str, wrap) -> None:
    """Replace ``owner.attr`` by ``wrap(owner.attr)``.  A name the program
    no longer has is skipped: its layer then reads zero (or n/a) instead of
    failing the run."""
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, wrap(fn))


def _trace_key(args, kwargs) -> str:
    profile = args[0] if args else kwargs.get("profile")
    seed = args[2] if len(args) > 2 else kwargs.get("seed")
    return f"{getattr(profile, 'name', profile)}/seed{seed}"


def _run_key(args, kwargs) -> str:
    trace = args[0] if args else kwargs.get("trace")
    return f"{getattr(trace, 'name', trace)}/{kwargs.get('label', '')}"


def install_sweep_spans(recorder: SpanRecorder) -> None:
    """Coarse spans of the sweep engine: runner, cache writes, pool waits."""
    from repro.experiments.backends.pool import ProcessPoolBackend
    from repro.experiments.sweep import ResultCache, SweepRunner

    _patch(SweepRunner, "run", lambda fn: recorder.coarse("experiments.runner", fn))
    _patch(ResultCache, "put", lambda fn: recorder.coarse("experiments.cache_put", fn))
    _patch(ProcessPoolBackend, "drain",
           lambda fn: recorder.coarse("experiments.pool_drain", fn))


def install_simulation_spans(recorder: SpanRecorder) -> None:
    """Spans of every simulation layer.  Call before any processor is built."""
    import repro.core.instability  # noqa: F401  (loads every controller class)
    from repro.clusters.steering import ProducerSteering
    from repro.core.controller import ReconfigurationController
    from repro.experiments import sweep
    from repro.frontend.fetch import FetchUnit
    from repro.interconnect.network import Network
    from repro.memory.hierarchy import MemorySystem

    # module functions: patch the name the sweep's spec execution resolves
    _patch(sweep, "generate_trace", lambda fn: recorder.coarse(
        "workloads.generate_trace", fn, spec_of=_trace_key))
    _patch(sweep, "run_trace", lambda fn: recorder.coarse(
        "pipeline.run_trace", fn, spec_of=_run_key))
    _patch(FetchUnit, "fetch", lambda fn: recorder.fine("frontend.fetch", fn))
    _patch(ProducerSteering, "choose", lambda fn: recorder.fine("clusters.choose", fn))
    _patch(Network, "transfer", lambda fn: recorder.fine("interconnect.transfer", fn))
    _wrap_methods(
        recorder,
        MemorySystem,
        ("dispatch", "address_ready", "commit", "tick", "drain_completions"),
        "memory",
    )
    _wrap_methods(
        recorder,
        ReconfigurationController,
        ("on_commit", "on_dispatch", "on_interval"),
        "core",
    )
