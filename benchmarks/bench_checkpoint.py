"""Checkpoint ledger: capture, encode, decode and restore cost of one snapshot.

Replays the ``durable-dispatch`` trace shape through the public API — a
12-hour cloud-gaming window (``DiurnalPattern(base_rate=3.6, amplitude=18,
peak_time=360)``, seed 0) dispatched with Best Fit, a ``MetricsObserver``
and a ``FlightObserver``, checkpointing every 256 events — and measures
the snapshot at generation 50 (~600 open servers, ~1,200 active
sessions):

* the median of ``--repeats`` timings of ``StreamCheckpoint.capture``,
  ``to_json``, ``from_json`` and ``restore``;
* the exact payload bytes of that snapshot, and the total payload bytes
  over every generation of the run.

The byte counts are deterministic work counters: ``tests/test_bench_checkpoint.py``
recomputes them and requires them to equal the committed ledger, so CI
gates the payload size without timing noise.  Timings are never taken
under ``tracemalloc``.  Record one side of a comparison with::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py --label change --write

and the other by pointing ``PYTHONPATH`` at a checkout of the parent
commit's ``src`` with ``--label parent``.  Each label's entry in
``BENCH_checkpoint.json`` is replaced; the other labels are kept.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro import BestFit, SimulationObserver
from repro.cloud import dispatch_stream
from repro.core.checkpoint import StreamCheckpoint
from repro.obs import MetricsObserver
from repro.obs.flight import FlightObserver, FlightRecorder
from repro.workloads import DiurnalPattern, generate_gaming_trace

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_checkpoint.json"
HORIZON = 720.0
SCALE = 18.0
SEED = 0
CHECKPOINT_EVERY = 256
GENERATION = 50
DEFAULT_REPEATS = 7

WORKLOAD = {
    "trace": "generate_gaming_trace",
    "horizon": HORIZON,
    "pattern": {"base_rate": 0.2 * SCALE, "amplitude": SCALE, "peak_time": HORIZON / 2},
    "seed": SEED,
    "algorithm": "best-fit",
    "observers": ["MetricsObserver", "FlightObserver"],
    "checkpoint_every": CHECKPOINT_EVERY,
    "generation": GENERATION,
}


def sessions() -> list:
    pattern = DiurnalPattern(
        base_rate=0.2 * SCALE, amplitude=SCALE, peak_time=HORIZON / 2
    )
    return list(generate_gaming_trace(pattern=pattern, horizon=HORIZON, seed=SEED))


def _observers() -> tuple:
    return (MetricsObserver(), FlightObserver(FlightRecorder()))


def checkpoints(items: list) -> list[StreamCheckpoint]:
    """Every checkpoint of one uninterrupted dispatch, in generation order."""
    sink: list[StreamCheckpoint] = []
    dispatch_stream(
        iter(items),
        BestFit(),
        observers=_observers(),
        checkpoint_every=CHECKPOINT_EVERY,
        on_checkpoint=sink.append,
    )
    return sink


def payload_bytes(sink: list[StreamCheckpoint]) -> dict[str, int]:
    """Exact encoded size of the measured generation and of the whole run."""
    sizes = [len(checkpoint.to_json().encode("utf-8")) for checkpoint in sink]
    return {
        "generations": len(sizes),
        "generation_bytes": sizes[GENERATION],
        "total_bytes": sum(sizes),
    }


def _median_s(run, repeats: int, setup=lambda: ()) -> float:
    samples = []
    for _ in range(repeats):
        args = setup()
        t0 = time.perf_counter()
        run(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _restore_args(checkpoint: StreamCheckpoint) -> tuple:
    # Fresh algorithm and observers for every restore, built untimed.  The
    # first observer slot belongs to ``dispatch_stream``'s billing meter; a
    # base ``SimulationObserver`` stands in for it (its restore is a no-op).
    return (BestFit(), (SimulationObserver(), *_observers()))


def time_phases(checkpoint: StreamCheckpoint, repeats: int) -> dict[str, float]:
    """Median seconds of capture, encode, decode and restore of one snapshot."""
    text = checkpoint.to_json()

    def restore(algorithm, observers):
        return checkpoint.restore(algorithm, observers=observers)

    def live_simulator() -> tuple:
        # ``capture`` needs a live simulator: rebuild one from the snapshot
        # (untimed); capturing it walks the same bins and sessions.
        return restore(*_restore_args(checkpoint))

    def capture(sim, pending):
        return StreamCheckpoint.capture(
            sim,
            pending,
            checkpoint.items_consumed,
            checkpoint.events_processed,
            checkpoint.last_arrival,
            checkpoint.repacker_state,
        )

    return {
        "capture_s": _median_s(capture, repeats, live_simulator),
        "to_json_s": _median_s(checkpoint.to_json, repeats),
        "from_json_s": _median_s(lambda: StreamCheckpoint.from_json(text), repeats),
        "restore_s": _median_s(restore, repeats, lambda: _restore_args(checkpoint)),
    }


def measure(repeats: int = DEFAULT_REPEATS) -> dict:
    sink = checkpoints(sessions())
    snapshot = sink[GENERATION]
    counts = payload_bytes(sink)
    # As in perfbench set-up: keep the collector from rescanning the ~100
    # held snapshots inside the timed calls.
    gc.collect()
    gc.freeze()
    return {
        "open_bins": len(snapshot.bins),
        "active_sessions": len(snapshot.active),
        **counts,
        "repeats": repeats,
        "median_s": {k: round(v, 6) for k, v in time_phases(snapshot, repeats).items()},
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--label", default="change", help="ledger entry to record (e.g. parent, change)"
    )
    parser.add_argument(
        "--write", action="store_true", help=f"record into {OUTPUT.name}"
    )
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    row = measure(args.repeats)
    print(json.dumps({args.label: row}, indent=2))
    if args.write:
        ledger = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
        ledger["workload"] = WORKLOAD
        ledger.setdefault("runs", {})[args.label] = row
        OUTPUT.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
