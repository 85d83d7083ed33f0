#!/usr/bin/env python3
"""Benchmark of the MinTotal dynamic bin packing engine.

One workload, one seed::

    python3 perfbench/run.py --workload scan-ff --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` makes one untraced pass, one traced pass (spans around the
public calls into every layer, see ``layers.py``) and one memory-only pass
under ``tracemalloc``, and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  The
full record (all metrics, notes, provenance) is written to
``.perfbench-out/``.

All four workloads, with every metric in one table::

    python3 perfbench/run.py --all --seed 0 --seconds 10 [--trace 1]

The self-test (a held-out seed on every workload, and a deliberately
broken output check that must show up as failed requests)::

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    OUT,
    SRC,
    PullClock,
    provenance,
    read_status_kb,
    reset_peak_rss,
)
from layers import OBSERVER_KEYS  # noqa: E402
from suite import WORKLOADS  # noqa: E402

#: Metrics of a ``--trace 0`` run that every workload reports (name, unit).
END_TO_END = (
    ("items_per_s", "1/s"),
    ("step_p50_us", "us"),
    ("step_p90_us", "us"),
    ("mem_peak_mb", "MB"),
    ("setup_s", "s"),
)
#: Reported but not gated.  On durable-dispatch checkpoint stalls take
#: ~0.7% of the steps, so p99 sits at the edge of the stall band and moved
#: by 25-100% between seeds; p99.9 needs at least 10,000 steps in a run;
#: recovery needs a crash; the failed fraction is zero wherever nothing
#: fails.
REPORTED = (
    ("step_p99_us", "us"),
    ("step_p999_us", "us"),
    ("recovery_s", "s"),
    ("failed_frac", "ratio"),
)

#: Metrics of a ``--trace 1`` run (name, unit); every workload reports all.
PER_LAYER = (
    ("workloads.generate_s", "s"),
    ("streaming.self_s", "s"),
    ("supervisor.self_s", "s"),
    ("simulator.arrive.calls", "count"),
    ("simulator.arrive.self_s", "s"),
    ("simulator.depart.calls", "count"),
    ("simulator.depart.self_s", "s"),
    ("simulator.migrate.calls", "count"),
    ("simulator.migrate.self_s", "s"),
    ("algorithms.choose_bin.calls", "count"),
    ("algorithms.choose_bin.self_s", "s"),
    ("bin_index.query.calls", "count"),
    ("bin_index.query_s", "s"),
    ("bin_index.maintain.calls", "count"),
    ("bin_index.maintain_s", "s"),
    ("bin_index.mem_kb", "kB"),
    ("obs.hook.calls", "count"),
    ("obs.hook_s", "s"),
    *(
        metric
        for key in OBSERVER_KEYS
        for metric in ((f"obs.hook.calls.{key}", "count"), (f"obs.hook_s.{key}", "s"))
    ),
    ("checkpoint.capture.calls", "count"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.decode_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.restore.failures", "count"),
    ("store.save.calls", "count"),
    ("store.save_s", "s"),
    ("store.load.calls", "count"),
    ("store.load_s", "s"),
    ("supervisor.restarts", "count"),
    ("renting.hook.calls", "count"),
    ("renting.hook_s", "s"),
    ("renting.migrations", "count"),
    ("renting.bins_emptied", "count"),
    ("renting.useful_ratio", "ratio"),
    ("trace.items_per_s", "1/s"),
    ("trace.items_per_s_ratio", "ratio"),
    ("trace.spans", "count"),
)

#: Used by the self-test only, never to set or check bounds.
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 3
P999_MIN_STEPS = 10_000


# --------------------------------------------------------------------- set-up


def setup(name: str, seed: int, workdir: Path) -> tuple[list[list], float]:
    """Import ``repro``, generate the input traces, create the store directory.

    A workload with ``traces = k`` serves k traces, seeded ``k*seed`` to
    ``k*seed + k - 1``, so seeds never share a trace.
    """
    t0 = time.perf_counter()
    import repro  # noqa: F401

    workload = WORKLOADS[name]
    traces = [
        workload.generate(seed * workload.traces + i, workdir)
        for i in range(workload.traces)
    ]
    return traces, time.perf_counter() - t0


def settle() -> None:
    """Collect set-up garbage and exempt the inputs from later collections.

    The engine streams its requests; only the benchmark holds the whole
    trace in memory.  Freezing it keeps the collector from rescanning the
    inputs during the timed passes, which would add pauses no real caller
    pays.
    """
    gc.collect()
    gc.freeze()


def setup_probe(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ accounting


def account(workload, served_runs, refs, seed: int, break_check: bool):
    """(attempted, failed, problems) over all passes, outside any timing."""
    attempted = failed = 0
    problems: list[str] = []
    for served in served_runs:
        if break_check and served.output is not None:
            served = dataclasses.replace(served, output=workload.corrupt(served.output))
        found = (
            workload.problems(served, refs[served.trace], seed)
            if served.output is not None
            else []
        )
        attempted += served.attempted
        failed += served.attempted if found else served.attempted - served.placed
        problems += found
    return attempted, failed, problems


def run_passes(workload, traces, workdir: Path, seconds: float) -> list:
    """Serve the traces in turn, one per pass, until ``seconds`` have passed."""
    served_runs = []
    start = time.perf_counter()
    while not served_runs or time.perf_counter() - start < seconds:
        trace = len(served_runs) % len(traces)
        served = workload.serve(traces[trace], PullClock(), workdir)
        served.trace = trace
        served_runs.append(served)
        gc.collect()
    return served_runs


def step_metrics(served_runs) -> dict[str, float]:
    import numpy as np

    steps = np.concatenate([s.steps_ns for s in served_runs]) / 1e3
    p50, p90, p99, p999 = np.percentile(steps, [50, 90, 99, 99.9]).tolist()
    out = {"step_p50_us": p50, "step_p90_us": p90, "step_p99_us": p99, "steps": len(steps)}
    if len(steps) >= P999_MIN_STEPS:
        out["step_p999_us"] = p999
    return out


# ---------------------------------------------------------------------- runs


def run_end_to_end(name: str, seed: int, seconds: float, break_check: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        traces, first_setup = setup(name, seed, workdir)
        setup_samples = [first_setup] + [
            setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        settle()
        baseline_kb = read_status_kb("VmRSS")
        reset_peak_rss()
        served_runs = run_passes(workload, traces, workdir, seconds)
        peak_kb = read_status_kb("VmHWM")
        refs = [workload.reference(trace) for trace in traces]
        attempted, failed, problems = account(workload, served_runs, refs, seed, break_check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steps = step_metrics(served_runs)
    metrics = {
        "items_per_s": statistics.median(
            s.served_requests / s.serve_s for s in served_runs
        ),
        "step_p50_us": steps["step_p50_us"],
        "step_p90_us": steps["step_p90_us"],
        "mem_peak_mb": (peak_kb - baseline_kb) / 1024,
        "setup_s": statistics.median(setup_samples),
    }
    reported = {"step_p99_us": steps["step_p99_us"], "failed_frac": failed / attempted}
    if "step_p999_us" in steps:
        reported["step_p999_us"] = steps["step_p999_us"]
    recoveries = [s.recovery_s for s in served_runs if s.recovery_s is not None]
    if recoveries:
        reported["recovery_s"] = statistics.median(recoveries)
    notes = sorted({note for s in served_runs for note in s.notes})
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "passes": len(served_runs),
        "requests_per_pass": round(statistics.mean(len(trace) for trace in traces)),
        "steps": steps["steps"],
        "setup_samples_s": setup_samples,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reported": reported,
        "problems": problems,
        "notes": notes,
    }


def run_traced(name: str, seed: int, break_check: bool) -> dict:
    import tracemalloc

    from layers import SpanRecorder, instrumented

    workload = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    rec = SpanRecorder(PullClock())
    import repro  # noqa: F401  (imported first: the span below times generation)

    try:
        traces, _ = rec.wrap("workloads.generate", setup)(name, seed, workdir)
        items = traces[0]
        settle()
        plain = workload.serve(items, PullClock(), workdir)

        rec.clock = traced_clock = PullClock()
        with instrumented(rec):
            traced = rec.wrap("run", workload.serve)(items, traced_clock, workdir)

        memory: dict[str, int] = {}
        clock = PullClock()

        def snapshot() -> None:
            stats = tracemalloc.take_snapshot().statistics("filename")
            memory["bin_index"] = sum(
                s.size
                for s in stats
                if s.traceback[0].filename.endswith(os.path.join("core", "bin_index.py"))
            )

        clock.on_exhausted = snapshot
        tracemalloc.start()
        try:
            in_memory = workload.serve(items, clock, workdir)
        finally:
            tracemalloc.stop()
        ref = workload.reference(items)
        attempted, failed, problems = account(
            workload, (plain, traced, in_memory), [ref], seed, break_check
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls, self_s, violations = rec.reduce()
    rec.write(OUT / f"spans-{name}-s{seed}.npz")
    counters = rec.counters

    def c(span: str) -> int:
        return calls.get(span, 0)

    def s(span: str) -> float:
        return self_s.get(span, 0.0)

    plain_ips = plain.served_requests / plain.serve_s
    traced_ips = traced.served_requests / traced.serve_s
    hook_calls = c("renting.hook")
    metrics = {
        "workloads.generate_s": s("workloads.generate"),
        "streaming.self_s": s("streaming"),
        "supervisor.self_s": s("supervisor"),
        "bin_index.query.calls": c("bin_index.query"),
        "bin_index.query_s": s("bin_index.query"),
        "bin_index.maintain.calls": c("bin_index.maintain"),
        "bin_index.maintain_s": s("bin_index.maintain"),
        "bin_index.mem_kb": memory.get("bin_index", 0) / 1024,
        "obs.hook.calls": sum(c(f"obs.hook.{k}") for k in OBSERVER_KEYS),
        "obs.hook_s": sum(s(f"obs.hook.{k}") for k in OBSERVER_KEYS),
        "checkpoint.capture.calls": c("checkpoint.capture"),
        "checkpoint.capture_s": s("checkpoint.capture"),
        "checkpoint.encode_s": s("checkpoint.encode"),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "checkpoint.decode_s": s("checkpoint.decode"),
        "checkpoint.restore_s": s("checkpoint.restore"),
        "checkpoint.restore.failures": counters.get("checkpoint.restore.failures", 0),
        "store.save.calls": c("store.save"),
        "store.save_s": s("store.save"),
        "store.load.calls": c("store.load"),
        "store.load_s": s("store.load"),
        "supervisor.restarts": len(traced_clock.segments) - 1,
        "renting.hook.calls": hook_calls,
        "renting.hook_s": s("renting.hook"),
        "renting.migrations": counters.get("renting.migrations", 0),
        "renting.bins_emptied": counters.get("renting.bins_emptied", 0),
        "renting.useful_ratio": (
            counters.get("renting.useful_calls", 0) / hook_calls if hook_calls else 0.0
        ),
        "trace.items_per_s": traced_ips,
        "trace.items_per_s_ratio": traced_ips / plain_ips,
        "trace.spans": len(rec.code),
    }
    for op in ("arrive", "depart", "migrate"):
        metrics[f"simulator.{op}.calls"] = c(f"simulator.{op}")
        metrics[f"simulator.{op}.self_s"] = s(f"simulator.{op}")
    metrics["algorithms.choose_bin.calls"] = c("algorithms.choose_bin")
    metrics["algorithms.choose_bin.self_s"] = s("algorithms.choose_bin")
    for key in OBSERVER_KEYS:
        metrics[f"obs.hook.calls.{key}"] = c(f"obs.hook.{key}")
        metrics[f"obs.hook_s.{key}"] = s(f"obs.hook.{key}")
    if violations:
        problems.append(f"{violations} spans lie outside their parent span")
    notes = sorted({note for p in (plain, traced, in_memory) for note in p.notes})
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "passes": 3,
        "requests_per_pass": len(items),
        "untraced_items_per_s": plain_ips,
        "traced_wall_s": traced.serve_s,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name, _ in PER_LAYER},
        "reported": {},
        "problems": problems,
        "notes": notes,
    }


# -------------------------------------------------------------------- output


def emit(record: dict) -> None:
    units = dict(END_TO_END + REPORTED + PER_LAYER)
    record["provenance"] = provenance()
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{record['workload']}-s{record['seed']}-t{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['passes']} passes of {record['requests_per_pass']} requests"
    )
    for name, value in {**record["metrics"], **record["reported"]}.items():
        print(f"#   {name:<34} {value:>16.6g} {units[name]}")
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    for note in record["notes"]:
        print(f"# note: {note}")
    prov = record["provenance"]
    print(
        f"# {prov['cores']} cores ({prov['cpu_model']}), Python {prov['python']}, "
        f"NumPy {prov['numpy']}, commit {prov['git_commit'] or 'unknown'}, "
        f"source {prov['source_sha256'][:12]}"
    )
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()
                },
            }
        )
    )


def run_all(seed: int, seconds: float, trace: int) -> list[dict]:
    """Each workload in its own interpreter; returns their full records."""
    records = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed ({proc.returncode}):\n{proc.stderr}")
        path = OUT / f"result-{name}-s{seed}-t{trace}.json"
        records.append(json.loads(path.read_text()))
    names = [n for n, _ in (PER_LAYER if trace else END_TO_END + REPORTED)]
    units = dict(END_TO_END + REPORTED + PER_LAYER)
    width = 20
    print(f"{'metric':<34} {'unit':<6}" + "".join(f"{r['workload']:>{width}}" for r in records))
    for name in names:
        cells = []
        for r in records:
            value = {**r["metrics"], **r["reported"]}.get(name)
            cells.append(f"{'-' if value is None else format(value, '.6g'):>{width}}")
        print(f"{name:<34} {units[name]:<6}" + "".join(cells))
    print(f"{'correct':<41}" + "".join(f"{str(r['correct']):>{width}}" for r in records))
    for r in records:
        for note in r["problems"] + r["notes"]:
            print(f"{r['workload']}: {note}")
    return records


def self_test(seconds: float) -> int:
    """Held-out seed on every workload, then a check broken on purpose."""
    ok = True
    print(f"== held-out seed {HELD_OUT_SEED}")
    for record in run_all(HELD_OUT_SEED, seconds, 0):
        if not record["correct"]:
            ok = False
            print(f"FAIL: {record['workload']} output check failed on the held-out seed")
    print("== broken output check on migrating-dispatch")
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", "migrating-dispatch", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--break-check"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    if result["correct"] or result["failed"] != result["attempted"]:
        ok = False
        print("FAIL: a broken check did not count its requests as failed")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--break-check", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.self_test:
        return self_test(args.seconds)
    if args.all:
        run_all(args.seed, args.seconds, args.trace)
        return 0
    if args.workload is None:
        parser.error("give --workload, --all or --self-test")
    if args.setup_probe:
        workdir = OUT / f"probe-{args.workload}-{os.getpid()}"
        try:
            _, elapsed = setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(repr(elapsed))
        return 0
    if args.trace:
        record = run_traced(args.workload, args.seed, args.break_check)
    else:
        record = run_end_to_end(args.workload, args.seed, args.seconds, args.break_check)
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
