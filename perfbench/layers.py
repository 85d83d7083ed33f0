"""The traced run: spans around public calls into each layer of ``repro``.

Nothing inside the program is changed.  :func:`instrumented` replaces, for
the duration of one pass, the public functions and methods each layer
exposes with thin wrappers that record a span (layer, start, end, parent
span, request number) into flat in-memory arrays.  The spans are written
once, when the benchmark ends, and reduced to per-layer counts and self
times: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from harness import PullClock

#: Observer classes whose hooks are timed, by the key used in metric names.
OBSERVER_KEYS = ("billing_meter", "metrics_observer", "flight_observer")
OBSERVER_HOOKS = ("on_arrival", "on_departure", "on_migration", "on_server_failure")


class SpanRecorder:
    """Spans in five parallel arrays; ``parent`` is -1 for a root span."""

    def __init__(self, clock: PullClock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        #: Side counters the wrappers keep (bytes encoded, failures, ...).
        self.counters: dict[str, int] = {}

    def code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``after(args, result, error)`` runs once the span has closed, so
        its own cost lands in the parent span, not in ``name``.
        """
        code = self.code_of(name)
        now = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            n = len(rec.code)
            rec.code.append(code)
            rec.parent.append(rec.current)
            rec.request.append(rec.clock.pulls)
            rec.end.append(0)
            rec.current = n
            rec.start.append(now())
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                rec.end[n] = now()
                rec.current = rec.parent[n]
                if after is not None:
                    after(args, result, error)

        return wrapper

    # ------------------------------------------------------------- reduction

    def reduce(self) -> tuple[dict[str, int], dict[str, float], int]:
        """Per-layer call counts, self seconds, and nesting violations.

        A violation is a child span not inside its parent's interval, or a
        span whose children cover more time than the span itself.
        """
        import numpy as np

        code = np.frombuffer(self.code, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_cover = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(code)
        )
        self_ns = dur - child_cover
        p = parent[has_parent]
        outside = (start[has_parent] < start[p]) | (end[has_parent] > end[p])
        violations = int(outside.sum()) + int((self_ns < 0).sum()) + int((dur < 0).sum())
        calls = {name: int((code == i).sum()) for i, name in enumerate(self.names)}
        self_s = {
            name: float(self_ns[code == i].sum()) / 1e9
            for i, name in enumerate(self.names)
        }
        return calls, self_s, violations

    def write(self, path: Path) -> None:
        """Write every span, linked by parent, as one NumPy archive."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            code=np.frombuffer(self.code, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


@contextmanager
def instrumented(rec: SpanRecorder) -> Iterator[None]:
    """Wrap each layer's public entry points for the duration of the block."""
    from repro.algorithms.best_fit import BestFit
    from repro.algorithms.first_fit import FirstFit
    from repro.cloud import dispatcher
    from repro.core import streaming
    from repro.core.bin_index import OpenBinIndex
    from repro.core.checkpoint import StreamCheckpoint
    from repro.core.simulator import Simulator
    from repro.obs.flight import FlightObserver
    from repro.obs.observer import MetricsObserver
    from repro.renting.repack import BoundedRepacker
    from repro.resilience import store, supervisor

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def method(owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        raw = _lookup(owner, attr)
        if isinstance(raw, classmethod):
            patch(owner, attr, classmethod(rec.wrap(name, raw.__func__, after)))
        else:
            patch(owner, attr, rec.wrap(name, raw, after))

    def count_bytes(args: Any, result: Any, error: Any) -> None:
        if result is not None:
            # to_json output is ASCII (json.dumps escapes the rest).
            rec.count("checkpoint.bytes", len(result))

    def count_failure(args: Any, result: Any, error: Any) -> None:
        if error is not None:
            rec.count("checkpoint.restore.failures")

    def repacker_hook(name: str) -> Callable:
        raw = _lookup(BoundedRepacker, name)
        inner = rec.wrap("renting.hook", raw)

        def hook(self: Any, *args: Any) -> Any:
            emptied, moved = self.bins_emptied, self.migrations_done
            try:
                return inner(self, *args)
            finally:
                if self.bins_emptied != emptied:
                    rec.count("renting.useful_calls")
                    rec.count("renting.bins_emptied", self.bins_emptied - emptied)
                    rec.count("renting.migrations", self.migrations_done - moved)

        return hook

    # The supervisor, the dispatcher and the streaming driver hold direct
    # references to each other's entry points, so each name is patched
    # where it is looked up.
    supervised = rec.wrap("supervisor", supervisor.supervised_dispatch_stream)
    dispatch = rec.wrap("streaming", dispatcher.dispatch_stream)
    simulate = rec.wrap("streaming", streaming.simulate_stream)
    patch(supervisor, "supervised_dispatch_stream", supervised)
    patch(supervisor, "dispatch_stream", dispatch)
    patch(dispatcher, "dispatch_stream", dispatch)
    patch(dispatcher, "simulate_stream", simulate)
    patch(streaming, "simulate_stream", simulate)

    for attr in ("arrive", "depart", "migrate"):
        method(Simulator, attr, f"simulator.{attr}")
    for algorithm in (FirstFit, BestFit):
        for attr in ("choose_bin_indexed", "choose_bin"):
            method(algorithm, attr, "algorithms.choose_bin")
    for attr in ("first_fit", "best_fit"):
        method(OpenBinIndex, attr, "bin_index.query")
    for attr in ("add", "update", "discard"):
        method(OpenBinIndex, attr, "bin_index.maintain")
    for key, cls in zip(
        OBSERVER_KEYS, (dispatcher._BillingMeter, MetricsObserver, FlightObserver)
    ):
        for attr in OBSERVER_HOOKS:
            method(cls, attr, f"obs.hook.{key}")
    method(StreamCheckpoint, "capture", "checkpoint.capture")
    method(StreamCheckpoint, "to_json", "checkpoint.encode", count_bytes)
    method(StreamCheckpoint, "from_json", "checkpoint.decode")
    method(StreamCheckpoint, "restore", "checkpoint.restore", count_failure)
    method(store.CheckpointStore, "save", "store.save")
    method(store.CheckpointStore, "load", "store.load")
    for attr in ("after_arrival", "after_departure"):
        patch(BoundedRepacker, attr, repacker_hook(attr))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_ABSENT = object()


def _lookup(owner: type, attr: str) -> Any:
    """The raw class attribute (a ``classmethod`` stays unbound)."""
    for klass in owner.__mro__:
        if attr in klass.__dict__:
            return klass.__dict__[attr]
    raise AttributeError(f"{owner.__name__} has no attribute {attr!r}")
