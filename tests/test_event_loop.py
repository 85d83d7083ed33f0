"""The one event loop: boundary validation and the same-instant source order.

Every driver validates incoming items with the same boundary check, and
the faulty driver's extra event sources keep one order at every instant —
departures, then failures, then deferred re-admissions, then stream
arrivals — whether or not stream arrivals are still to come.
"""

import pytest

from repro import FirstFit, make_items
from repro.cloud.faults import FaultInjector, simulate_faulty_stream
from repro.core.resources import Resources
from repro.core.validation import ResourceDimensionError
from repro.resilience import RetryPolicy


def test_faulty_stream_rejects_scalar_items_on_a_vector_capacity():
    items = make_items([(0, 5, 0.5)])
    with pytest.raises(ResourceDimensionError):
        simulate_faulty_stream(
            iter(items), FirstFit(), injector=FaultInjector(), capacity=Resources(1, 1)
        )


@pytest.mark.parametrize("trailing_arrival", [False, True])
def test_failure_precedes_a_same_instant_readmission(trailing_arrival):
    # The failure at 2 evicts the session; its retry waits 3 and lands at 5,
    # the instant of the second failure.  The failure runs first and finds
    # an empty fleet, so the retry is never struck into a zero-length
    # attempt — with or without a later stream arrival keeping the stream open.
    triples = [(0, 10, 0.5)] + ([(20, 21, 0.5)] if trailing_arrival else [])
    result = simulate_faulty_stream(
        iter(make_items(triples)),
        FirstFit(),
        injector=FaultInjector(schedule=(2.0, 5.0)),
        retry_policy=RetryPolicy(base_delay=3.0, jitter=0.0),
        record_induced=True,
    )
    assert (result.report.num_failures, result.report.num_idle_strikes) == (1, 1)
    spans = [(item.arrival, item.departure) for item in result.induced_items]
    assert spans[:2] == [(0, 2.0), (5.0, 13.0)]
