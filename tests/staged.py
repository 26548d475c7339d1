"""The staged reference loop, swapped in for the fused one.

Every production run goes through :class:`repro.pipeline.fused.FusedCore`.
:func:`staged_loop` replaces it, for the duration of a ``with`` block,
with :class:`StagedCore`: the same ``advance`` contract met by calling
``processor.step()`` one cycle at a time.  Inside the block,
``ClusteredProcessor.run()`` and ``run_trace``'s warmup leg — and so
``simulate()`` and every in-process backend — execute the staged loop,
while run()'s fault finalize and invariant check still run unchanged.
Tests hold the two loops to bit-identical results this way.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional
from unittest import mock

from repro.errors import SimulationError
from repro.experiments import runner
from repro.pipeline import processor as processor_module


class StagedCore:
    """Drop-in for ``FusedCore`` that steps the staged pipeline."""

    #: cycles stepped by every instance since the last :func:`staged_loop`
    steps = 0

    def __init__(self, processor) -> None:
        self.p = processor

    def advance(self, target_committed: int, max_cycles: Optional[int] = None) -> None:
        p = self.p
        while not p.finished and p.stats.committed < target_committed:
            p.step()
            StagedCore.steps += 1
            if max_cycles is not None and p.cycle > max_cycles:
                raise SimulationError(
                    f"pipeline wedged: {p.stats.committed} committed in "
                    f"{p.cycle} cycles"
                )


@contextlib.contextmanager
def staged_loop() -> Iterator[type]:
    """Run every in-process simulation in the block through ``step()``."""
    StagedCore.steps = 0
    with mock.patch.object(processor_module, "FusedCore", StagedCore), \
            mock.patch.object(runner, "FusedCore", StagedCore):
        yield StagedCore
