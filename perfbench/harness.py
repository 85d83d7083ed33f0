"""Measurement primitives shared by every workload.

Everything here is stdlib-only so that importing it costs nothing that the
set-up timing should see: ``repro`` and NumPy are imported inside the timed
set-up, never at module import.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


class PullClock:
    """Stamps every pull the engine makes on the request stream.

    Each call to :meth:`attempt` wraps a fresh pass over the inputs (a
    supervised run re-creates its stream on every restart) and records one
    host-time stamp per pulled request plus one for the pull that finds the
    stream exhausted.  The interval between successive stamps is one step:
    the request's placement plus every departure, hook, checkpoint and
    migration due before the next pull.
    """

    def __init__(self) -> None:
        self.segments: list[array] = []
        self.pulls = 0
        self.on_exhausted: Callable[[], None] | None = None

    def attempt(self, items: Iterable) -> Iterator:
        stamps = array("q")
        self.segments.append(stamps)
        return self._pull(items, stamps)

    def _pull(self, items: Iterable, stamps: array) -> Iterator:
        now = time.perf_counter_ns
        append = stamps.append
        for item in items:
            append(now())
            self.pulls += 1
            yield item
        append(now())
        if self.on_exhausted is not None:
            self.on_exhausted()


def read_status_kb(field: str) -> int:
    """A ``VmRSS``/``VmHWM``-style field of ``/proc/self/status``, in kB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field} field")


def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark to the current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def provenance() -> dict:
    """Where a result came from: machine, interpreter, libraries and source."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }
