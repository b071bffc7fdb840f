"""Asynchronous update queues (§3.2 step 3).

AvgPipe sends each pipeline's local update to the reference process
through a message queue "in an asynchronous manner" so inter-process
communication never blocks the pipeline.  In the real system the effect
of asynchrony is *staleness*: the reference weights a pipeline dilutes
against may lag by a bounded number of iterations.  :class:`MessageQueue`
models exactly that — messages become visible ``delay`` ticks after being
posted — so the statistical-efficiency experiments can measure the cost
of asynchrony (the async-reference ablation) with deterministic replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generic, Iterable, TypeVar

T = TypeVar("T")

__all__ = ["MessageQueue"]


@dataclass
class _Envelope(Generic[T]):
    payload: T
    visible_at: int


class MessageQueue(Generic[T]):
    """FIFO queue whose messages appear ``delay`` ticks after posting.

    ``delay=0`` is a synchronous queue (visible the same tick).  The clock
    is advanced explicitly by the training loop via :meth:`tick`, keeping
    runs reproducible.
    """

    def __init__(self, delay: int = 0, name: str = "queue") -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay
        self.name = name
        self._now = 0
        self._pending: deque[_Envelope[T]] = deque()

    def put(self, payload: T) -> None:
        self._pending.append(_Envelope(payload, self._now + self.delay))

    def tick(self) -> None:
        self._now += 1

    @property
    def now(self) -> int:
        return self._now

    def clear(self) -> int:
        """Drop every pending message; returns how many were discarded.

        Used by elastic resize (repro.resilience): in-flight updates were
        computed under the old pipeline count's normalization and must not
        leak into the resized round.
        """
        dropped = len(self._pending)
        self._pending.clear()
        return dropped

    def pending(self) -> list[tuple[int, T]]:
        """Every in-flight message as ``(visible_at, payload)``, FIFO order."""
        return [(env.visible_at, env.payload) for env in self._pending]

    def restore(self, now: int, pending: Iterable[tuple[int, T]]) -> None:
        """Reset the clock to ``now`` and the in-flight messages to
        ``pending`` (the output of :meth:`pending`; checkpoint restore)."""
        self._now = now
        self._pending = deque(_Envelope(payload, visible_at) for visible_at, payload in pending)

    def drain(self) -> list[T]:
        """Pop every message visible at the current tick (FIFO order)."""
        out: list[T] = []
        while self._pending and self._pending[0].visible_at <= self._now:
            out.append(self._pending.popleft().payload)
        return out

    def __len__(self) -> int:
        return len(self._pending)
