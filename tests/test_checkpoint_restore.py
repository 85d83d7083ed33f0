"""StreamCheckpoint.restore on real traces, and its validation of the bins it
rebuilds.

Cloud-gaming sizes such as 0.15 and 0.35 are not exact binary fractions, so
a bin's level re-summed in restore order can differ by an ulp from the level
the engine saved.  Restore must keep the saved level and must not re-check
each item against the re-summed one.
"""

import dataclasses

import pytest

from repro import BestFit, FirstFit
from repro.cloud import dispatch_stream
from repro.core.checkpoint import StreamCheckpoint
from repro.core.validation import CheckpointFormatError
from repro.workloads import generate_gaming_trace


def _sessions():
    trace = generate_gaming_trace(horizon=240.0, seed=0)
    assert len(trace.items) == 160
    return trace.items


@pytest.mark.parametrize("algo_factory", [FirstFit, BestFit])
def test_every_generation_of_a_gaming_dispatch_resumes_exactly(algo_factory):
    base = dispatch_stream(iter(_sessions()), algo_factory())
    sink = []
    checkpointed = dispatch_stream(
        iter(_sessions()), algo_factory(), checkpoint_every=64, on_checkpoint=sink.append
    )
    assert checkpointed == base
    assert len(sink) == 5
    for checkpoint in sink:
        snapshot = StreamCheckpoint.from_json(checkpoint.to_json())
        resumed = dispatch_stream(iter(_sessions()), algo_factory(), resume_from=snapshot)
        assert resumed == base


def _middle_checkpoint():
    sink = []
    dispatch_stream(iter(_sessions()), FirstFit(), checkpoint_every=64, on_checkpoint=sink.append)
    return sink[2]


def _resume(checkpoint):
    return dispatch_stream(iter(_sessions()), FirstFit(), resume_from=checkpoint)


def test_overfull_bin_is_a_format_error():
    checkpoint = _middle_checkpoint()
    bins = list(checkpoint.bins)
    bins[0] = {**bins[0], "level": bins[0]["capacity"] * 2}
    with pytest.raises(CheckpointFormatError, match="bin"):
        _resume(dataclasses.replace(checkpoint, bins=tuple(bins)))


def test_bin_without_items_is_a_format_error():
    checkpoint = _middle_checkpoint()
    emptied = checkpoint.bins[0]["index"]
    active = tuple(entry for entry in checkpoint.active if entry["bin"] != emptied)
    with pytest.raises(CheckpointFormatError, match=f"bin {emptied}"):
        _resume(dataclasses.replace(checkpoint, active=active))
