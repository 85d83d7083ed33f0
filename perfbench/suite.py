"""The four workloads: inputs from a seed, one served pass, output checks.

Each workload is a closed-loop trace replay in one process and one thread:
the engine pulls the next request as soon as it has finished with the last
one.  Simulated time is trace time; every timing here is host time.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from harness import PullClock

PINS = Path(__file__).resolve().parent / "pins.json"

#: The seed whose full-run summaries are pinned in ``pins.json``.
PINNED_SEED = 0


@dataclass
class Served:
    """One pass over a workload's inputs."""

    output: Any
    attempted: int
    #: Requests the run placed; the rest count as failed.
    placed: int
    #: Host seconds spent serving ``served_requests`` (recovery excluded).
    serve_s: float
    served_requests: int
    steps_ns: Any  # int64 array of pull-to-pull intervals
    recovery_s: float | None = None
    notes: list[str] = field(default_factory=list)
    #: Which of the workload's input traces the pass served.
    trace: int = 0


def steps_between(stamps: Any, end_ns: int | None = None) -> Any:
    """Successive pull-to-pull intervals; ``end_ns`` cuts the last step."""
    import numpy as np

    points = np.frombuffer(stamps, dtype=np.int64)
    if end_ns is not None:
        points = np.append(points, end_ns)
    return np.diff(points)


class Workload:
    name = ""
    why = ""
    #: Independent input traces a run serves in turn, one per pass.
    traces = 1

    def generate(self, seed: int, workdir: Path) -> list:
        """The inputs for ``seed`` (part of the timed set-up)."""
        raise NotImplementedError

    def serve(self, items: list, clock: PullClock, workdir: Path) -> Served:
        raise NotImplementedError

    def reference(self, items: list) -> Any:
        """Oracle data for :meth:`problems`, computed outside any timing."""
        return None

    def problems(self, served: Served, ref: Any, seed: int) -> list[str]:
        """Everything wrong with one pass's output (empty when correct).

        Not called for a pass that produced no output: its unplaced
        requests already count as failed.
        """
        raise NotImplementedError

    def corrupt(self, output: Any) -> Any:
        """A wrong copy of ``output``, to show that the checks catch it."""
        raise NotImplementedError


# ---------------------------------------------------------------- scalar FF


def _ff_shape() -> dict:
    from repro.workloads import Clipped, Exponential

    return {
        "arrival_rate": 100.0,
        "duration": Clipped(Exponential(100.0), 20.0, 200.0),
    }


class _PlainStream(Workload):
    """First Fit through plain ``simulate_stream``, checked by the list scan."""

    oracle_prefix = 0

    def serve(self, items: list, clock: PullClock, workdir: Path) -> Served:
        from repro.algorithms.first_fit import FirstFit
        from repro.core import streaming

        t0 = time.perf_counter_ns()
        summary = streaming.simulate_stream(clock.attempt(items), FirstFit())
        t1 = time.perf_counter_ns()
        return Served(
            output=summary,
            attempted=len(items),
            placed=summary.num_items,
            serve_s=(t1 - t0) / 1e9,
            served_requests=len(items),
            steps_ns=steps_between(clock.segments[0]),
        )

    def reference(self, items: list) -> Any:
        from repro.algorithms.first_fit import FirstFit
        from repro.core.streaming import simulate_stream

        prefix = items[: self.oracle_prefix]
        indexed = simulate_stream(iter(prefix), FirstFit())
        scan = simulate_stream(iter(prefix), FirstFit(), indexed=False)
        volume = [0.0] * len(_components(items[0].size))
        for item in items:
            span = item.departure - item.arrival
            for d, v in enumerate(_components(item.size)):
                volume[d] += v * span
        return {"prefix_indexed": indexed, "prefix_scan": scan, "volume": volume}

    def problems(self, served: Served, ref: Any, seed: int) -> list[str]:
        out = served.output
        found = []
        if ref["prefix_indexed"] != ref["prefix_scan"]:
            found.append(
                f"indexed and list-scan summaries differ on the first "
                f"{self.oracle_prefix} requests: {ref['prefix_indexed']} != "
                f"{ref['prefix_scan']}"
            )
        if out.num_items != served.attempted:
            found.append(f"summary counts {out.num_items} of {served.attempted} requests")
        worst = max(ref["volume"])
        if not out.total_bin_time >= worst * (1 - 1e-9):
            found.append(
                f"bin time {out.total_bin_time} is below the volume bound {worst}"
            )
        if not out.num_bins_used >= out.peak_open_bins > 0:
            found.append(f"bins used {out.num_bins_used} < peak {out.peak_open_bins}")
        if seed == PINNED_SEED:
            pinned = json.loads(PINS.read_text())[self.name]
            got = summary_pin(out)
            if got != pinned:
                found.append(f"summary {got} differs from the pinned {pinned}")
        return found


    def corrupt(self, output: Any) -> Any:
        return dataclasses.replace(output, total_bin_time=output.total_bin_time / 2)


def summary_pin(summary: Any) -> dict:
    return {
        "num_items": summary.num_items,
        "num_bins_used": summary.num_bins_used,
        "peak_open_bins": summary.peak_open_bins,
        "total_bin_time": repr(float(summary.total_bin_time)),
    }


def _components(size: Any) -> tuple:
    return tuple(size.values) if hasattr(size, "values") else (size,)


class ScanFF(_PlainStream):
    name = "scan-ff"
    why = (
        "scalar First Fit over ~7k open bins (8x more opened over the run): "
        "fit queries and index upkeep dominate; no checkpoints, observers or repacker"
    )
    n_items = 100_000
    oracle_prefix = 2_000

    def generate(self, seed: int, workdir: Path) -> list:
        from repro.workloads import Uniform, stream_trace

        return list(
            stream_trace(
                **_ff_shape(),
                size=Uniform(0.3, 0.9),
                n_items=self.n_items,
                seed=seed,
                name="scan-ff",
            )
        )


class VectorFF(_PlainStream):
    name = "vector-ff"
    why = (
        "4-D correlated First Fit on the scan-ff session shape: the NumPy "
        "candidate sweep and exact Resources arithmetic replace the scalar tree"
    )
    horizon = 500.0
    oracle_prefix = 1_000

    def generate(self, seed: int, workdir: Path) -> list:
        from repro.workloads import Uniform, generate_vector_trace

        return list(
            generate_vector_trace(
                **_ff_shape(),
                horizon=self.horizon,
                sizes=[Uniform(0.3, 0.9)] * 4,
                correlation=0.5,
                seed=seed,
                name="vector-ff",
            )
        )


# ---------------------------------------------------------------- durable


class DurableDispatch(Workload):
    name = "durable-dispatch"
    why = (
        "Best Fit on a 12-hour cloud-gaming window served the production way: "
        "supervised, checkpointed to disk, observed, one crash injected mid-run"
    )
    #: Diurnal intensity scale; with the 12-hour window centred on the
    #: evening peak this gives ~13k sessions and ~640 servers open at peak.
    scale = 18.0
    horizon = 720.0
    #: The injected crash: about half-way through the ~102 generations.
    crash_generation = 50

    def generate(self, seed: int, workdir: Path) -> list:
        from repro.workloads import DiurnalPattern, generate_gaming_trace

        workdir.mkdir(parents=True, exist_ok=True)
        pattern = DiurnalPattern(
            base_rate=0.2 * self.scale,
            amplitude=1.0 * self.scale,
            peak_time=self.horizon / 2,
        )
        return list(
            generate_gaming_trace(pattern=pattern, horizon=self.horizon, seed=seed)
        )

    def serve(self, items: list, clock: PullClock, workdir: Path) -> Served:
        import numpy as np
        from repro.algorithms.best_fit import BestFit
        from repro.obs.flight import FlightObserver, FlightRecorder
        from repro.obs.observer import MetricsObserver
        from repro.resilience import supervisor
        from repro.resilience.chaos import InjectedCrash
        from repro.resilience.store import CheckpointStore

        store_dir = workdir / f"store-{len(list(workdir.glob('store-*')))}"
        store = CheckpointStore(store_dir)
        flight = FlightRecorder(path=store_dir / "flight.jsonl")
        consumed: dict[int, int] = {}
        crash: dict[str, int] = {}

        def hook(generation: int, checkpoint: Any) -> None:
            consumed[generation] = checkpoint.items_consumed
            if generation == self.crash_generation and "ns" not in crash:
                crash["ns"] = time.perf_counter_ns()
                crash["placed"] = checkpoint.items_consumed
                if clock.on_exhausted is not None:
                    # The last arrival this attempt will see.
                    clock.on_exhausted()
                raise InjectedCrash(f"benchmark kill at generation {generation}")

        notes: list[str] = []
        t0 = time.perf_counter_ns()
        try:
            result = supervisor.supervised_dispatch_stream(
                lambda: clock.attempt(items),
                BestFit,
                store=store,
                observer_factory=lambda: (MetricsObserver(), FlightObserver(flight)),
                checkpoint_hook=hook,
                flight=flight,
            )
        except supervisor.RecoveryExhaustedError as exc:
            result = None
            notes.append(f"recovery exhausted: {exc}")
        t1 = time.perf_counter_ns()
        if "ns" not in crash:
            raise RuntimeError(
                f"the run ended before generation {self.crash_generation}; "
                "the injected crash never fired"
            )
        first, *later = clock.segments
        steps = steps_between(first, crash["ns"])
        if result is None:
            placed = crash["placed"]
            recovery_ns = t1 - crash["ns"]
        else:
            placed = len(items)
            resumed = later[-1]
            skip = consumed[result.stats.resumed_generations[-1]]
            recovery_ns = resumed[skip] - crash["ns"]
            steps = np.concatenate([steps, steps_between(resumed[skip:])])
        return Served(
            output=result,
            attempted=len(items),
            placed=placed,
            # Only the pre-crash interval: the same requests are served in
            # it whether or not recovery succeeds.
            serve_s=(crash["ns"] - t0) / 1e9,
            served_requests=crash["placed"],
            steps_ns=steps,
            recovery_s=recovery_ns / 1e9,
            notes=notes,
        )

    def reference(self, items: list) -> Any:
        from repro.algorithms.best_fit import BestFit
        from repro.cloud.dispatcher import dispatch_stream

        return dispatch_stream(iter(items), BestFit())

    def problems(self, served: Served, ref: Any, seed: int) -> list[str]:
        got = served.output.report
        fields = (
            "summary",
            "billed_cost",
            "continuous_cost",
            "num_servers_rented",
            "peak_concurrent_servers",
            "num_sessions",
        )
        return [
            f"resumed {name} {getattr(got, name)!r} != uninterrupted {getattr(ref, name)!r}"
            for name in fields
            if getattr(got, name) != getattr(ref, name)
        ]


# -------------------------------------------------------------- migrating


class MigratingDispatch(Workload):
    name = "migrating-dispatch"
    why = (
        "First Fit plus BoundedRepacker(1) over ~50-70 open servers: "
        "evacuation planning dominates and migrations write the index twice"
    )
    #: ~47 servers open on average, ~70 at peak.  At rate 100 (~110 at
    #: peak) one run serves too little simulated time: throughput then
    #: differed by ~20% between seeds, so the figure was not steady.
    arrival_rate = 50.0
    n_items = 3_000
    #: Planning cost rises steeply with load, and one 3,000-session trace
    #: realises its mean load only to within ~3% (seed 304 ran ~20%
    #: slower than seed 203 in every pass).  Each pass therefore serves
    #: another trace, so a run averages over several.
    traces = 4

    def generate(self, seed: int, workdir: Path) -> list:
        from repro.workloads import Clipped, Exponential, Uniform, stream_trace

        return list(
            stream_trace(
                arrival_rate=self.arrival_rate,
                duration=Clipped(Exponential(4.0), 1.0, 20.0),
                size=Uniform(0.05, 0.5),
                n_items=self.n_items,
                seed=seed,
                name="migrating",
            )
        )

    def serve(self, items: list, clock: PullClock, workdir: Path) -> Served:
        from repro.algorithms.first_fit import FirstFit
        from repro.cloud import dispatcher
        from repro.obs.observer import MetricsObserver
        from repro.renting.repack import BoundedRepacker

        observer = MetricsObserver()
        repacker = BoundedRepacker(1)
        t0 = time.perf_counter_ns()
        report = dispatcher.dispatch_stream(
            clock.attempt(items),
            FirstFit(),
            # Per-minute billing with no quantum: billed cost must then
            # equal the integral of the open-server count exactly.
            server_type=dispatcher.ServerType(billing_quantum=None),
            observers=(observer,),
            repacker=repacker,
        )
        t1 = time.perf_counter_ns()
        return Served(
            output=(report, observer, repacker),
            attempted=len(items),
            placed=report.num_sessions,
            serve_s=(t1 - t0) / 1e9,
            served_requests=len(items),
            steps_ns=steps_between(clock.segments[0]),
        )

    def problems(self, served: Served, ref: Any, seed: int) -> list[str]:
        report, observer, repacker = served.output
        found = []
        if report.billed_cost != report.summary.total_cost:
            found.append(
                f"billed {report.billed_cost!r} != integral of open-server time "
                f"{report.summary.total_cost!r}"
            )
        opened = observer.registry["dbp_bins_opened_total"].value
        if opened != report.num_servers_rented:
            found.append(
                f"registry counts {opened} servers opened, report rented "
                f"{report.num_servers_rented}"
            )
        if report.num_sessions != served.attempted:
            found.append(f"served {report.num_sessions} of {served.attempted} sessions")
        if repacker.migrations_done == 0:
            found.append("the repacker never migrated; the workload misses its layer")
        return found

    def corrupt(self, output: Any) -> Any:
        report, observer, repacker = output
        return dataclasses.replace(report, billed_cost=report.billed_cost + 1), observer, repacker


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ScanFF(), DurableDispatch(), MigratingDispatch(), VectorFF())
}

