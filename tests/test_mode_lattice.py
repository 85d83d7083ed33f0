"""Mode lattice: every combination of run modes agrees with the plain run.

Each example draws a trace, an algorithm, a driver and a subset of the
modes that driver composes with, then asserts the run's summary — and its
billed cost when a billing meter is attached — equals the plain streamed
run's.  The modes are all meant to be invisible to the packing:

* ``record=True`` history (the :func:`simulate` driver);
* ``indexed=False`` (the list-scan oracle);
* a checkpoint taken after a random event, round-tripped through JSON, then
  resumed with a fresh copy of the stream;
* ``BoundedRepacker(0)``, which never earns budget and so never migrates;
* :func:`simulate_faulty_stream` with no failures;
* a per-minute billing meter plus a :class:`MetricsObserver`.

Times are integers, so every bin's usage time and the total are exact
whatever the summation order.  Sizes are multiples of 0.05, which binary
floats do not represent exactly: a bin level re-summed in another order can
disagree with the engine's by an ulp, which is what a checkpoint restore
must not trip over.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import BestFit, FirstFit, Item, ModifiedFirstFit, NextFit, simulate
from repro.cloud.dispatcher import _BillingMeter
from repro.cloud.faults import FaultInjector, simulate_faulty_stream
from repro.core.checkpoint import StreamCheckpoint
from repro.core.cost import ContinuousCost
from repro.core.streaming import simulate_stream
from repro.obs.observer import MetricsObserver
from repro.renting import BoundedRepacker

ALGORITHMS = {"FF": FirstFit, "BF": BestFit, "NF": NextFit, "MFF": ModifiedFirstFit}

#: The modes each driver composes with.
DRIVER_MODES = {
    "stream": ("scan", "checkpoint", "repacker", "billing"),
    "record": ("scan", "repacker", "billing"),
    "faulty": ("scan", "billing"),
}


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    arrival = 0
    items = []
    for i in range(n):
        arrival += draw(st.integers(min_value=0, max_value=3))
        duration = draw(st.integers(min_value=1, max_value=12))
        size = round(0.05 * draw(st.integers(min_value=1, max_value=20)), 2)
        items.append(Item(arrival=arrival, departure=arrival + duration, size=size, item_id=f"m{i}"))
    return items


@st.composite
def cells(draw):
    driver = draw(st.sampled_from(sorted(DRIVER_MODES)))
    modes = draw(st.sets(st.sampled_from(DRIVER_MODES[driver])))
    return driver, frozenset(modes)


def _observers(modes):
    if "billing" not in modes:
        return None, ()
    meter = _BillingMeter(ContinuousCost(rate=1))
    return meter, (meter, MetricsObserver())


def _aggregates(summary):
    return (summary.num_items, summary.num_bins_used, summary.peak_open_bins, summary.total_cost)


def _run(driver, modes, items, algo_name, checkpoint_at):
    algo = ALGORITHMS[algo_name]
    meter, observers = _observers(modes)
    common = {"indexed": "scan" not in modes, "observers": observers}
    repacker = BoundedRepacker(0) if "repacker" in modes else None
    if driver == "record":
        result = simulate(items, algo(), repacker=repacker, **common)
        got = (len(result.items), result.num_bins_used, result.max_bins_used, result.total_cost())
        return got, meter
    if driver == "faulty":
        faulty = simulate_faulty_stream(iter(items), algo(), injector=FaultInjector(), **common)
        return _aggregates(faulty.summary), meter
    if "checkpoint" not in modes:
        summary = simulate_stream(iter(items), algo(), repacker=repacker, **common)
        return _aggregates(summary), meter
    sink = []
    simulate_stream(
        iter(items),
        algo(),
        repacker=repacker,
        checkpoint_every=1,
        on_checkpoint=sink.append,
        **common,
    )
    snapshot = StreamCheckpoint.from_json(sink[checkpoint_at % len(sink)].to_json())
    meter, observers = _observers(modes)
    summary = simulate_stream(
        iter(items),
        algo(),
        indexed=common["indexed"],
        observers=observers,
        repacker=BoundedRepacker(0) if repacker is not None else None,
        resume_from=snapshot,
    )
    return _aggregates(summary), meter


#: Five FF sessions.  After the sixth event the only open bin is exactly
#: full (saved level 1.0), but re-adding its items in restore order leaves
#: a residual just under 0.05 for the last 0.05 item.
RESUM_DRIFT = [
    Item(arrival=a, departure=d, size=s, item_id=f"drift{i}")
    for i, (a, d, s) in enumerate(
        [(4, 14, 0.05), (8, 18, 0.45), (9, 18, 0.35), (11, 18, 0.15), (14, 19, 0.05)]
    )
]


@settings(max_examples=300, deadline=None)
@example(
    items=RESUM_DRIFT,
    algo_name="FF",
    cell=("stream", frozenset({"checkpoint"})),
    checkpoint_at=5,
)
@given(
    items=traces(),
    algo_name=st.sampled_from(sorted(ALGORITHMS)),
    cell=cells(),
    checkpoint_at=st.integers(min_value=0, max_value=10_000),
)
def test_every_mode_combination_matches_the_plain_run(items, algo_name, cell, checkpoint_at):
    driver, modes = cell
    plain = _aggregates(simulate_stream(iter(items), ALGORITHMS[algo_name]()))
    got, meter = _run(driver, modes, items, algo_name, checkpoint_at)
    assert got == plain, (driver, sorted(modes))
    if meter is not None:
        assert meter.billed == plain[-1]
