"""Server fault injection and session recovery for streamed dispatch.

The MinTotal DBP model assumes rented servers never fail, but the cloud
substrate the paper targets — spot/preemptible VMs serving gaming
sessions — loses servers mid-session: the provider reclaims a spot
instance, or a host crashes.  Kamali & López-Ortiz's server-renting
analysis and the DVBP placement line both observe that *re-placement*
behaviour dominates real cost once bins can die; this module lets us
measure exactly that.

Three pieces:

* :class:`FaultInjector` — a deterministic, seeded failure process.
  Either a Poisson process of the given ``rate`` (failures per time unit)
  or an explicit ``schedule`` of failure times.  When a failure fires,
  the victim server is chosen by the failure ``model``: ``CRASH`` picks a
  uniformly random open server, ``SPOT`` revokes the most recently opened
  one (the youngest spot capacity is reclaimed first).  A failure that
  strikes an empty fleet is counted and otherwise ignored.
* A **recovery policy** — evicted sessions are re-dispatched through the
  same packing algorithm at the failure instant: ``RECONNECT`` resumes
  with the session's *remaining* duration (progress survives, as with
  server-side save state), ``RESTART`` replays the *full* duration from
  scratch (progress lost).  Each re-dispatch is a fresh arrival the
  algorithm places online, exactly like the original.
* :class:`FaultReport` — deterministic accounting: revocation schedule,
  evictions, lost and re-dispatched work.  Identical seeds produce
  byte-identical reports (``to_json``).

:func:`simulate_faulty_stream` runs the core
:class:`~repro.core.simulator.Simulator` in O(active sessions) memory on
the same :class:`~repro.core.events.EventLoop` as every other driver, with
the failure clock and the delayed re-admissions as two extra event
sources, so a zero-failure run matches the fault-free engine *to the
float*.  With ``record_induced=True`` it also returns the **induced
trace** — every served attempt as a plain item whose departure is its
natural end or its eviction instant — which replayed through
``simulate(..., indexed=False)`` must reproduce the faulty run's packing
bit for bit (the differential-test oracle).
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # runtime import would cycle: resilience wraps this package
    from ..resilience.retry import CircuitBreaker, RetryPolicy

from ..core.numeric import Num
from ..algorithms.base import PackingAlgorithm
from ..core.bin import Bin
from ..core.events import EventLoop, EventSource
from ..core.item import Item
from ..core.simulator import Simulator
from ..core.streaming import StreamSummary
from ..core.telemetry import SimulationObserver
from .dispatcher import ServerType, _BillingMeter

__all__ = [
    "SPOT",
    "CRASH",
    "RECONNECT",
    "RESTART",
    "FaultInjector",
    "FaultReport",
    "FaultyStreamResult",
    "FaultyDispatchReport",
    "simulate_faulty_stream",
    "dispatch_faulty_stream",
]

#: Failure models (victim selection).
SPOT = "spot"
CRASH = "crash"
_MODELS = (SPOT, CRASH)

#: Recovery policies for evicted sessions.
RECONNECT = "reconnect"
RESTART = "restart"
_RECOVERIES = (RECONNECT, RESTART)


@dataclass(frozen=True, slots=True)
class FaultInjector:
    """A deterministic, seeded server-failure process.

    Parameters
    ----------
    rate:
        Expected failures per time unit (a Poisson process on the run's
        time axis).  ``0`` — and no ``schedule`` — means no failures.
    schedule:
        Explicit failure times (non-decreasing, positive); overrides
        ``rate``.  Equal times are allowed and strike distinct victims.
    model:
        ``CRASH`` (uniformly random open server) or ``SPOT`` (most
        recently opened server — youngest spot capacity goes first).
    seed:
        Seeds both the Poisson gaps and the victim draws; equal seeds
        reproduce the exact same revocation schedule.
    """

    rate: float = 0.0
    schedule: tuple[Num, ...] | None = None
    model: str = CRASH
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"failure rate must be >= 0, got {self.rate}")
        if self.model not in _MODELS:
            raise ValueError(f"unknown failure model {self.model!r}; options: {_MODELS}")
        if self.schedule is not None:
            times = tuple(self.schedule)
            object.__setattr__(self, "schedule", times)
            if any(t <= 0 for t in times):
                raise ValueError(f"scheduled failure times must be positive: {times}")
            if any(b < a for a, b in zip(times, times[1:])):
                raise ValueError(f"failure schedule must be non-decreasing: {times}")

    def failure_times(self, rng: random.Random) -> Iterator[Num]:
        """Lazily yield failure instants (``rng`` drives the Poisson gaps)."""
        if self.schedule is not None:
            yield from self.schedule
            return
        if self.rate <= 0:
            return
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            yield t

    def pick_victim(self, rng: random.Random, open_bins: Sequence[Bin]) -> Bin:
        """Choose the server to revoke among ``open_bins`` (opening order)."""
        if self.model == SPOT:
            return open_bins[-1]
        return open_bins[rng.randrange(len(open_bins))]


@dataclass(frozen=True, slots=True)
class FaultReport:
    """Deterministic accounting of one faulty run.

    ``lost_work`` is elapsed session-time discarded by evictions (only
    ``RESTART`` loses progress); ``redispatch_work`` is the session-time
    scheduled anew at recovery (remaining duration under ``RECONNECT``,
    full duration under ``RESTART``).  ``revocations`` is the full
    ``(time, server index, sessions evicted)`` schedule.  Same injector
    seed ⇒ byte-identical :meth:`to_json` output.
    """

    model: str
    recovery: str
    seed: int
    rate: float
    num_failures: int
    num_idle_strikes: int
    sessions_evicted: int
    sessions_redispatched: int
    lost_work: Num
    redispatch_work: Num
    revocations: tuple[tuple[Num, int, int], ...]
    #: Re-dispatches whose re-admission was deferred by backoff/breaker.
    sessions_delayed: int = 0
    #: Total simulated time spent waiting between eviction and re-admission.
    total_retry_delay: Num = 0
    #: Evictions that found their recovery key's circuit open.
    breaker_trips: int = 0

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys — byte-stable per seed)."""
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True, slots=True)
class FaultyStreamResult:
    """Outcome of a faulty streamed run: engine summary + fault accounting.

    ``summary.num_items`` counts *admissions* — original sessions plus
    every recovery re-dispatch (each is a fresh online arrival).
    ``induced_items`` (with ``record_induced=True``) is the run's induced
    trace: one item per served attempt, arrival = admission time,
    departure = natural end or eviction instant, in admission order —
    replaying it through a fault-free simulation reproduces this packing.
    """

    summary: StreamSummary
    report: FaultReport
    induced_items: tuple[Item, ...] | None = None


@dataclass(frozen=True, slots=True)
class FaultyDispatchReport:
    """Billing view of a faulty streamed dispatch (cloud vocabulary)."""

    algorithm_name: str
    server_type: ServerType
    summary: StreamSummary
    report: FaultReport
    continuous_cost: Num
    billed_cost: Num
    num_servers_rented: int
    peak_concurrent_servers: int
    num_sessions: int


@dataclass(slots=True)
class _Attempt:
    """One service attempt of a session (original admission or re-dispatch)."""

    item_id: str
    orig_id: str
    size: Num
    tag: Any
    arrival: Num  # admission time
    departure: Num  # scheduled; eviction may end the attempt earlier
    full_length: Num
    attempt: int
    end: Num | None = field(default=None)


class _FaultyLoop(EventLoop):
    """The event loop plus attempt bookkeeping and the two fault sources."""

    def __init__(
        self,
        sim: Simulator,
        capacity: Num,
        injector: FaultInjector,
        recovery: str,
        retry_policy: "RetryPolicy | None",
        breaker: "CircuitBreaker | None",
        record_induced: bool,
    ) -> None:
        super().__init__(
            sim,
            limit=capacity,
            sources=(
                EventSource(lambda: self.next_fail, self._fail, sustains=False),
                EventSource(lambda: self.delayed[0][0] if self.delayed else None, self._readmit),
            ),
        )
        self.injector = injector
        self.recovery = recovery
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.rng = random.Random(injector.seed)
        self._fail_times = injector.failure_times(self.rng)
        self.next_fail: Num | None = next(self._fail_times, None)
        self.active: dict[str, _Attempt] = {}
        self.admissions = 0
        self.induced: list[_Attempt] | None = [] if record_induced else None
        self.delayed: list[tuple[Num, int, _Attempt]] = []  # backoff/breaker re-admissions
        self._delayed_seq = itertools.count()
        self.num_failures = 0
        self.idle_strikes = 0
        self.evicted_total = 0
        self.lost_work: Num = 0
        self.redispatch_work: Num = 0
        self.revocations: list[tuple[Num, int, int]] = []
        self.sessions_delayed = 0
        self.total_retry_delay: Num = 0
        self.breaker_trips = 0

    def recovery_key(self, attempt: _Attempt) -> str:
        # String tags group sessions into shared circuits (region
        # semantics); anything else isolates per original session.
        return attempt.tag if isinstance(attempt.tag, str) else attempt.orig_id

    def arrive(self, seq: int, item: _Attempt) -> None:
        # Departure ties break in admission order, re-dispatches included.
        super().arrive(self.admissions, item)
        self.admissions += 1
        self.active[item.item_id] = item
        if self.induced is not None:
            self.induced.append(item)

    def depart(self, time: Num, seq: int, key: str) -> None:
        attempt = self.active.pop(key)
        super().depart(time, seq, key)
        attempt.end = time
        if self.breaker is not None:
            self.breaker.record_success(self.recovery_key(attempt))

    def _readmit(self) -> None:
        admit_time, _, attempt = heapq.heappop(self.delayed)
        assert attempt.arrival == admit_time
        self.arrive(-1, attempt)

    def _fail(self) -> None:
        # All failures at this instant evict before any re-dispatch, so a
        # recovered session is never struck again at its admission time
        # (which would create a zero-length attempt).
        time, sim = self.next_fail, self.sim
        assert time is not None and sim is not None
        evicted: list[_Attempt] = []
        while self.next_fail == time:
            open_bins = list(sim.open_bins)
            if open_bins:
                victim = self.injector.pick_victim(self.rng, open_bins)
                views = sim.fail_bin(victim, time)
                self.num_failures += 1
                self.revocations.append((time, victim.index, len(views)))
                for view in views:
                    attempt = self.active.pop(view.item_id)
                    attempt.end = time
                    evicted.append(attempt)
            else:
                self.idle_strikes += 1
            self.next_fail = next(self._fail_times, None)
        self.cancel({old.item_id for old in evicted})
        self.evicted_total += len(evicted)
        for old in evicted:
            if self.recovery == RESTART:
                self.lost_work = self.lost_work + (time - old.arrival)
                remaining = old.full_length
            else:
                remaining = old.departure - time
            self.redispatch_work = self.redispatch_work + remaining
            key = self.recovery_key(old)
            admit_at = time
            if self.retry_policy is not None:
                admit_at = admit_at + self.retry_policy.delay(old.attempt + 1, key=key)
            if self.breaker is not None:
                if self.breaker.record_failure(key, time):
                    self.breaker_trips += 1
                blocked = self.breaker.blocked_until(key, time)
                if blocked > admit_at:
                    admit_at = blocked
            retry = _Attempt(
                f"{old.orig_id}~a{old.attempt + 1}", old.orig_id, old.size, old.tag,
                admit_at, admit_at + remaining, old.full_length, old.attempt + 1,
            )
            if admit_at > time:
                self.sessions_delayed += 1
                self.total_retry_delay = self.total_retry_delay + (admit_at - time)
                heapq.heappush(self.delayed, (admit_at, next(self._delayed_seq), retry))
            else:
                self.arrive(-1, retry)

    def report(self) -> FaultReport:
        return FaultReport(
            model=self.injector.model,
            recovery=self.recovery,
            seed=self.injector.seed,
            rate=self.injector.rate,
            num_failures=self.num_failures,
            num_idle_strikes=self.idle_strikes,
            sessions_evicted=self.evicted_total,
            sessions_redispatched=self.evicted_total,
            lost_work=self.lost_work,
            redispatch_work=self.redispatch_work,
            revocations=tuple(self.revocations),
            sessions_delayed=self.sessions_delayed,
            total_retry_delay=self.total_retry_delay,
            breaker_trips=self.breaker_trips,
        )


def simulate_faulty_stream(
    items: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    injector: FaultInjector,
    recovery: str = RECONNECT,
    capacity: Num = 1,
    cost_rate: Num = 1,
    strict: bool = True,
    indexed: bool = True,
    observers: Sequence[SimulationObserver] = (),
    record_induced: bool = False,
    retry_policy: "RetryPolicy | None" = None,
    breaker: "CircuitBreaker | None" = None,
) -> FaultyStreamResult:
    """Stream a trace through an algorithm while servers fail and recover.

    Event order extends the engine's rule: at one instant, departures are
    processed first, then failures (a session departing exactly when its
    server dies has already left), then deferred re-admissions, then
    stream arrivals.  All failures sharing one instant evict before any
    eviction is re-dispatched, so every attempt has strictly positive
    length.  Failures after the last departure or re-admission would
    strike an empty fleet; they never fire.  With no failures the run is
    event-for-event identical to
    :func:`~repro.core.streaming.simulate_stream`.

    ``retry_policy`` (a :class:`repro.resilience.RetryPolicy`) defers each
    re-dispatch by the seeded backoff for that session's attempt number on
    the *simulated* clock, instead of re-admitting at the failure instant;
    ``breaker`` (a :class:`repro.resilience.CircuitBreaker`) additionally
    holds re-admission until the session's recovery key cools down.  The
    key is the session ``tag`` when it is a string (sessions sharing a
    tag share a circuit — region semantics) and the original session id
    otherwise; a natural departure records success and closes the
    circuit.  Both default to ``None``, which preserves the legacy
    re-admit-immediately behaviour byte for byte.
    """
    if recovery not in _RECOVERIES:
        raise ValueError(f"unknown recovery policy {recovery!r}; options: {_RECOVERIES}")
    sim = Simulator(
        algorithm,
        capacity=capacity,
        cost_rate=cost_rate,
        strict=strict,
        indexed=indexed,
        record=False,
        observers=observers,
    )
    loop = _FaultyLoop(sim, capacity, injector, recovery, retry_policy, breaker, record_induced)
    loop.run(
        (seq, _Attempt(it.item_id, it.item_id, it.size, it.tag, it.arrival, it.departure, it.length, 0))
        for seq, it in enumerate(items)
    )
    induced_items: tuple[Item, ...] | None = None
    if loop.induced is not None:
        finished: list[Item] = []
        for a in loop.induced:
            assert a.end is not None  # the loop drained every attempt
            finished.append(Item(a.arrival, a.end, a.size, a.item_id, a.tag))
        induced_items = tuple(finished)
    return FaultyStreamResult(
        summary=sim.finish_summary(), report=loop.report(), induced_items=induced_items
    )


def dispatch_faulty_stream(
    sessions: Iterable[Item],
    algorithm: PackingAlgorithm,
    *,
    injector: FaultInjector,
    recovery: str = RECONNECT,
    server_type: ServerType | None = None,
    observers: Sequence[SimulationObserver] = (),
    retry_policy: "RetryPolicy | None" = None,
    breaker: "CircuitBreaker | None" = None,
) -> FaultyDispatchReport:
    """Serve a session stream on failure-prone servers and settle the bill.

    The billing meter settles each server when it releases *or fails* —
    a revoked server is billed up to the revocation instant (the
    spot-market rule), so every rented server is billed exactly once.
    ``observers`` attach additional observers after the internal meter,
    as in :func:`repro.cloud.dispatcher.dispatch_stream`.
    ``retry_policy``/``breaker`` defer re-admissions as in
    :func:`simulate_faulty_stream`.
    """
    server_type = server_type or ServerType()
    meter = _BillingMeter(server_type.billed_model())
    result = simulate_faulty_stream(
        sessions,
        algorithm,
        injector=injector,
        recovery=recovery,
        capacity=server_type.gpu_capacity,
        cost_rate=server_type.rate,
        observers=(meter, *observers),
        retry_policy=retry_policy,
        breaker=breaker,
    )
    summary = result.summary
    return FaultyDispatchReport(
        algorithm_name=algorithm.name,
        server_type=server_type,
        summary=summary,
        report=result.report,
        continuous_cost=summary.total_cost,
        billed_cost=meter.billed,
        num_servers_rented=summary.num_bins_used,
        peak_concurrent_servers=summary.peak_open_bins,
        num_sessions=summary.num_items,
    )
