"""In-process serial backend — the determinism oracle.

Runs one spec per :meth:`drain` call, inline, on the calling thread: no
pool, no pickling, the same deadline-polled timeouts as every worker.
Every other backend must be bit-identical to this one (the conformance
suite enforces it).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..sweep import execute_spec
from .base import Completion, ExecutionBackend


class SerialBackend(ExecutionBackend):
    kind = "serial"

    def __init__(self, timeout: Optional[float] = None) -> None:
        self.timeout = timeout
        self._queue: Deque[Tuple[int, object]] = deque()
        self._executed = 0

    def submit(self, index: int, spec: object, solo: bool = False) -> None:
        self._queue.append((index, spec))

    def drain(self) -> List[Completion]:
        if not self._queue:
            return []
        index, spec = self._queue.popleft()
        record = execute_spec(spec, self.timeout)
        self._executed += 1
        return [Completion(index, spec, record, worker="serial/0")]

    def cancel(self) -> List[Tuple[int, object]]:
        dropped = list(self._queue)
        self._queue.clear()
        return dropped

    def stats(self):
        return {"kind": self.kind, "workers": 1, "executed": self._executed}
