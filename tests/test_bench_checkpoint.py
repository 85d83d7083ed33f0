"""Exact gate on the checkpoint ledger's work counters.

``BENCH_checkpoint.json`` records, besides timings, the exact payload bytes
of the measured snapshot and of every snapshot of the run.  Those counts
are deterministic, so this test recomputes them with the benchmark's own
code and requires them to equal the committed ``change`` entry: a payload
layout change that is not re-recorded in the ledger fails here, with no
timing noise.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_checkpoint", ROOT / "benchmarks" / "bench_checkpoint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payload_bytes_equal_committed_ledger():
    bench = _bench_module()
    ledger = json.loads((ROOT / "BENCH_checkpoint.json").read_text())
    committed = ledger["runs"]["change"]
    assert ledger["workload"] == bench.WORKLOAD
    sink = bench.checkpoints(bench.sessions())
    snapshot = sink[bench.GENERATION]
    assert (len(snapshot.bins), len(snapshot.active)) == (
        committed["open_bins"],
        committed["active_sessions"],
    )
    recomputed = bench.payload_bytes(sink)
    assert recomputed == {key: committed[key] for key in recomputed}
