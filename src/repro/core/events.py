"""The event order of the MinTotal DBP model and the one loop that runs it.

Ties at one instant resolve **departures first, then arrivals**, with
arrivals in trace order.  Items departing at ``t`` free capacity that
same-instant arrivals may use, as the paper's adversarial constructions
require, and their "groups arrive one after another" orderings are
expressed by trace order at equal times.

:class:`EventLoop` is the only implementation of that order.  Before each
stream arrival it drains every departure due by then from its heap;
departures tied in time leave in trace order.  Every driver runs on it:
:func:`~repro.core.simulator.simulate`,
:func:`~repro.core.streaming.simulate_stream` (plain, checkpointed,
resumed and repacking) and :func:`~repro.cloud.faults.simulate_faulty_stream`,
whose failure clock and delayed re-admissions join as extra
:class:`EventSource` streams.  At one instant the loop runs departures,
then the extra sources in the order given, then the stream arrival.

:func:`iter_events` (lazy, O(active) memory, arrival-sorted input) and
:func:`compile_events` (any order, stable-sorted, materialized) expose the
same order as :class:`Event` records.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple

from .numeric import Num
from .item import Item, check_fits
from .resources import Size
from .validation import TraceValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .checkpoint import StreamCheckpoint
    from .simulator import Simulator
    from .streaming import StreamRepacker

__all__ = [
    "EventKind",
    "Event",
    "EventLoop",
    "EventOrderError",
    "EventSource",
    "iter_events",
    "compile_events",
    "event_times",
]


class EventOrderError(TraceValidationError):
    """Raised when a streamed trace's arrivals are not non-decreasing."""


class EventKind(enum.IntEnum):
    """Event kinds; the integer values encode the same-time ordering."""

    DEPARTURE = 0
    ARRIVAL = 1


@dataclass(frozen=True, slots=True)
class Event:
    """A single arrival or departure event."""

    time: Num
    kind: EventKind
    item: Item
    seq: int  # stable tiebreaker: trace position of the item

    @property
    def sort_key(self) -> tuple:
        return (self.time, int(self.kind), self.seq)


class EventSource(NamedTuple):
    """An extra timed event stream merged into an :class:`EventLoop`.

    ``next_time`` reports the instant of the source's next event (``None``
    when it has none) and ``fire`` processes that event.  A source that
    does not ``sustain`` the run (a failure clock) only fires while some
    departure, sustaining source or stream arrival is still to come.
    """

    next_time: Callable[[], Num | None]
    fire: Callable[[], None]
    sustains: bool = True


class EventLoop:
    """The departures-first event loop every simulation driver runs.

    It owns the heap of pending ``(departure, seq, key)`` entries, the
    count of stream items consumed, the count of events processed, the
    last arrival time, and one hook chain run after each arrival and
    departure: the ``repacker``, then a checkpoint to ``on_checkpoint``
    every ``checkpoint_every`` events.  Stream items must fit ``limit``
    when one is given.  :meth:`arrive` and :meth:`depart` drive ``sim``;
    subclasses override them to keep extra books or to record events.
    """

    def __init__(
        self,
        sim: "Simulator | None" = None,
        *,
        limit: Size | None = None,
        repacker: "StreamRepacker | None" = None,
        checkpoint_every: int | None = None,
        on_checkpoint: "Callable[[StreamCheckpoint], None] | None" = None,
        sources: tuple[EventSource, ...] = (),
    ) -> None:
        self.sim = sim
        self.limit = limit
        self.repacker = repacker
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self.sources = sources
        # The merge state; a resumed run restores it from its checkpoint.
        self.pending: list[tuple[Num, int, Any]] = []
        self.consumed = 0
        self.events = 0
        self.last_arrival: Num | None = None

    def run(self, arrivals: Iterable[tuple[int, Any]]) -> None:
        """Push every stream arrival, then drain what is left."""
        for seq, item in arrivals:
            self.push(seq, item)
        self.drain(None)

    def push(self, seq: int, item: Any) -> None:
        """Take one stream arrival: validate it, drain up to it, place it."""
        if self.limit is not None:
            check_fits(item, self.limit)
        if self.last_arrival is not None and item.arrival < self.last_arrival:
            raise EventOrderError(
                f"item {item.item_id!r} arrives at {item.arrival}, before the "
                f"previous arrival at {self.last_arrival}; streamed items must "
                "have non-decreasing arrival times — sort the trace or pass a "
                "sequence to simulate()/compile_events()",
                item_id=item.item_id,
            )
        self.last_arrival = item.arrival
        self.drain(item.arrival)
        self.consumed += 1
        self.arrive(seq, item)

    def drain(self, until: Num | None) -> None:
        """Process every event due at or before ``until`` (``None``: all)."""
        pending = self.pending
        if not self.sources:
            while pending and (until is None or pending[0][0] <= until):
                self.depart(*heapq.heappop(pending))
            return
        while True:
            when: Num | None = pending[0][0] if pending else None
            fire: Callable[[], None] | None = None
            sustained = when is not None
            for source in self.sources:
                time = source.next_time()
                if time is not None:
                    sustained = sustained or source.sustains
                    if when is None or time < when:
                        when, fire = time, source.fire
            if when is None or (not sustained if until is None else when > until):
                return
            if fire is None:
                self.depart(*heapq.heappop(pending))
            else:
                fire()

    def cancel(self, keys: set[Any]) -> None:
        """Drop the pending departures of items that left another way."""
        self.pending[:] = [entry for entry in self.pending if entry[2] not in keys]
        heapq.heapify(self.pending)

    def arrive(self, seq: int, item: Any) -> None:
        """Place ``item`` in the engine and schedule its departure."""
        sim = self.sim
        assert sim is not None
        sim.arrive(item.arrival, item.size, item_id=item.item_id, tag=item.tag)
        heapq.heappush(self.pending, (item.departure, seq, item.item_id))
        if self.repacker is not None:
            self.repacker.after_arrival(sim, item)
        self._after_event()

    def depart(self, time: Num, seq: int, key: Any) -> None:
        """Remove the departing item ``key`` from the engine."""
        sim = self.sim
        assert sim is not None
        sim.depart(key, time)
        if self.repacker is not None:
            self.repacker.after_departure(sim, key)
        self._after_event()

    def _after_event(self) -> None:
        self.events += 1
        if self.checkpoint_every is not None and self.events % self.checkpoint_every == 0:
            from .checkpoint import StreamCheckpoint

            assert self.on_checkpoint is not None and self.sim is not None
            state = None if self.repacker is None else self.repacker.checkpoint_state()
            self.on_checkpoint(
                StreamCheckpoint.capture(
                    self.sim, self.pending, self.consumed, self.events, self.last_arrival, state
                )
            )


class _EventRecorder(EventLoop):
    """The loop with the engine replaced by a buffer of :class:`Event` records."""

    def __init__(self) -> None:
        super().__init__()
        self.ready: list[Event] = []

    def arrive(self, seq: int, item: Item) -> None:
        heapq.heappush(self.pending, (item.departure, seq, item))
        self.ready.append(Event(time=item.arrival, kind=EventKind.ARRIVAL, item=item, seq=seq))

    def depart(self, time: Num, seq: int, key: Item) -> None:
        self.ready.append(Event(time=time, kind=EventKind.DEPARTURE, item=key, seq=seq))


def _recorded_events(arrivals: Iterable[tuple[int, Item]]) -> Iterator[Event]:
    recorder = _EventRecorder()
    for seq, item in arrivals:
        recorder.push(seq, item)
        yield from recorder.ready
        recorder.ready.clear()
    recorder.drain(None)
    yield from recorder.ready


def iter_events(items: Iterable[Item]) -> Iterator[Event]:
    """Lazily merge items (sorted by arrival) into the event stream.

    Accepts any iterable — including one-shot generators — whose arrival
    times are non-decreasing, and yields :class:`Event` objects in
    ``(time, kind, trace order)`` order with DEPARTURE < ARRIVAL, holding
    only the active items' departures in a heap (O(active) memory).  Raises
    :class:`EventOrderError` on an out-of-order arrival; unsorted traces
    must go through :func:`compile_events` instead.
    """
    return _recorded_events(enumerate(items))


def compile_events(items: Iterable[Item]) -> list[Event]:
    """Compile items into the sorted event sequence.

    Each item contributes one ARRIVAL at ``a(r)`` and one DEPARTURE at
    ``d(r)``.  The result is sorted by ``(time, kind, trace order)`` with
    DEPARTURE < ARRIVAL, so simultaneous departures are processed before
    simultaneous arrivals.

    Compatibility wrapper over the lazy merge: items are stable-sorted by
    arrival (keeping their original trace positions as tiebreakers), which
    reproduces the historical fully-materialized ordering exactly.  Code
    that can guarantee sorted arrivals should prefer :func:`iter_events`.
    """
    ordered = sorted(enumerate(items), key=lambda pair: pair[1].arrival)
    return list(_recorded_events(ordered))


def event_times(items: Iterable[Item]) -> list[Num]:
    """Sorted, de-duplicated list of all event times of a trace."""
    times = {it.arrival for it in items} | {it.departure for it in items}
    return sorted(times)
