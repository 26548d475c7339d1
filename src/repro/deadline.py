"""Cooperative per-run deadlines.

A sweep run's ``timeout`` is a monotonic deadline held in a context
variable: :func:`scope` sets it around one run, and the long loops call
:func:`poll`, which raises :class:`~repro.errors.RunTimeout` once the
deadline has passed.  A context variable is per thread, so a run gets a
real timeout on any thread and any backend, and nothing is raised
asynchronously.  This is the only module that reads host time on the
simulator's behalf; with no deadline set, :func:`poll` never does.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from .errors import RunTimeout

__all__ = ["POLL_PERIOD", "poll", "scope"]

#: loop iterations between polls in the cycle loops
POLL_PERIOD = 1024

_DEADLINE: ContextVar[Optional[float]] = ContextVar("repro_deadline", default=None)


@contextmanager
def scope(timeout: Optional[float]) -> Iterator[None]:
    """Run the body under a deadline ``timeout`` seconds from now
    (``None``: no deadline)."""
    token = _DEADLINE.set(None if timeout is None else time.monotonic() + timeout)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def poll() -> None:
    """Raise :class:`RunTimeout` if the current deadline has passed."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise RunTimeout("run deadline passed")
