"""Checkpoint/resume for streamed runs: an interrupted run, resumed from a
snapshot plus a fresh copy of the same source stream, must produce the exact
same StreamSummary as the uninterrupted run — same floats, not just close.
"""

import base64
import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from repro import BestFit, FirstFit, NextFit, Resources, TelemetryCollector, make_items
from repro.cloud import dispatch_stream
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CHECKPOINT_VERSION,
    CheckpointError,
    StreamCheckpoint,
)
from repro.core.item import Item
from repro.core.validation import CheckpointFormatError, CheckpointSchemaError
from repro.core.streaming import simulate_stream
from repro.workloads import Clipped, Exponential, Uniform, stream_trace


def _workload(n_items=600, seed=3):
    return stream_trace(
        arrival_rate=5.0,
        duration=Clipped(Exponential(5.0), 1.0, 15.0),
        size=Uniform(0.1, 0.6),
        n_items=n_items,
        seed=seed,
    )


def _collect_checkpoints(algo_factory, every=53, **kw):
    sink = []
    summary = simulate_stream(
        _workload(**kw), algo_factory(), checkpoint_every=every, on_checkpoint=sink.append
    )
    return summary, sink


class TestCheckpointedPathExactness:
    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit, NextFit])
    def test_checkpointed_run_equals_fast_path(self, algo_factory):
        base = simulate_stream(_workload(), algo_factory())
        summary, sink = _collect_checkpoints(algo_factory)
        assert summary == base  # frozen dataclass: float-exact equality
        assert sink, "expected at least one checkpoint"


class TestResume:
    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit])
    def test_resume_mid_run_reproduces_summary(self, algo_factory):
        base = simulate_stream(_workload(), algo_factory())
        _, sink = _collect_checkpoints(algo_factory)
        middle = sink[len(sink) // 2]
        resumed = simulate_stream(_workload(), algo_factory(), resume_from=middle)
        assert resumed == base

    @pytest.mark.parametrize("algo_factory", [FirstFit, BestFit, NextFit])
    def test_resume_from_json_roundtrip(self, algo_factory):
        base = simulate_stream(_workload(), algo_factory())
        _, sink = _collect_checkpoints(algo_factory)
        snap = StreamCheckpoint.from_json(sink[len(sink) // 2].to_json())
        resumed = simulate_stream(_workload(), algo_factory(), resume_from=snap)
        assert resumed == base

    def test_interrupted_run_resumes(self):
        """Simulate a crash: stop consuming mid-stream, resume from the last
        shipped snapshot with a fresh copy of the same stream."""
        base = simulate_stream(_workload(), FirstFit())
        sink = []

        class Interrupted(RuntimeError):
            pass

        def ship(cp):
            sink.append(cp)
            if len(sink) == 4:
                raise Interrupted()

        with pytest.raises(Interrupted):
            simulate_stream(
                _workload(), FirstFit(), checkpoint_every=101, on_checkpoint=ship
            )
        resumed = simulate_stream(_workload(), FirstFit(), resume_from=sink[-1])
        assert resumed == base

    def test_resume_with_observers(self):
        full = TelemetryCollector()
        base = simulate_stream(_workload(), FirstFit(), observers=(full,))
        sink = []
        first = TelemetryCollector()
        simulate_stream(
            _workload(),
            FirstFit(),
            observers=(first,),
            checkpoint_every=97,
            on_checkpoint=sink.append,
        )
        fresh = TelemetryCollector()
        resumed = simulate_stream(
            _workload(), FirstFit(), observers=(fresh,), resume_from=sink[len(sink) // 2]
        )
        assert resumed == base
        assert fresh.bins_opened == full.bins_opened
        assert fresh.bins_closed == full.bins_closed
        assert fresh.num_arrivals == full.num_arrivals
        assert fresh.open_bins_series == full.open_bins_series

    def test_dispatch_stream_resume_bills_identically(self):
        base = dispatch_stream(_workload(), FirstFit())
        sink = []
        dispatch_stream(
            _workload(), FirstFit(), checkpoint_every=83, on_checkpoint=sink.append
        )
        resumed = dispatch_stream(
            _workload(), FirstFit(), resume_from=sink[len(sink) // 2]
        )
        assert resumed.summary == base.summary
        assert resumed.billed_cost == base.billed_cost
        assert resumed.num_servers_rented == base.num_servers_rented


class TestCheckpointErrors:
    def test_checkpoint_every_requires_sink(self):
        with pytest.raises(ValueError, match="together"):
            simulate_stream(_workload(), FirstFit(), checkpoint_every=10)

    def test_checkpoint_every_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            simulate_stream(
                _workload(), FirstFit(), checkpoint_every=0, on_checkpoint=lambda c: None
            )

    def test_wrong_algorithm_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        with pytest.raises(CheckpointError, match="algorithm"):
            simulate_stream(_workload(), BestFit(), resume_from=sink[0])

    def test_truncated_source_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        short = iter(make_items([(0, 1, 0.5)]))
        with pytest.raises(CheckpointError, match="same stream"):
            simulate_stream(short, FirstFit(), resume_from=sink[-1])

    def test_observer_count_mismatch_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        with pytest.raises(CheckpointError, match="observers"):
            simulate_stream(
                _workload(),
                FirstFit(),
                observers=(TelemetryCollector(),),
                resume_from=sink[0],
            )

    def test_version_mismatch_rejected(self):
        _, sink = _collect_checkpoints(FirstFit)
        import dataclasses

        stale = dataclasses.replace(sink[0], version=CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            simulate_stream(_workload(), FirstFit(), resume_from=stale)


class TestTypedPayloadErrors:
    """Satellites: malformed payloads and schema stamps are typed errors."""

    def _json(self):
        _, sink = _collect_checkpoints(FirstFit, n_items=120)
        return sink[0].to_json()

    def test_payload_carries_schema_stamp(self):
        payload = json.loads(self._json())
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION

    def test_invalid_json_is_format_error(self):
        with pytest.raises(CheckpointFormatError, match="unreadable"):
            StreamCheckpoint.from_json("{not json at all")

    def test_non_object_json_is_format_error(self):
        with pytest.raises(CheckpointFormatError):
            StreamCheckpoint.from_json("[1, 2, 3]")

    def test_missing_field_is_format_error(self):
        payload = json.loads(self._json())
        del payload["bins"]
        with pytest.raises(CheckpointFormatError):
            StreamCheckpoint.from_json(json.dumps(payload))

    def test_missing_schema_stamp_is_schema_error(self):
        payload = json.loads(self._json())
        del payload["schema_version"]
        with pytest.raises(CheckpointSchemaError, match="no schema_version"):
            StreamCheckpoint.from_json(json.dumps(payload))

    def test_wrong_schema_version_is_schema_error(self):
        payload = json.loads(self._json())
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(CheckpointSchemaError) as excinfo:
            StreamCheckpoint.from_json(json.dumps(payload))
        assert excinfo.value.expected == CHECKPOINT_SCHEMA_VERSION
        assert excinfo.value.got == CHECKPOINT_SCHEMA_VERSION + 1

    def test_schema_error_is_a_format_error(self):
        # Callers catching the broad typed error also see schema mismatches.
        assert issubclass(CheckpointSchemaError, CheckpointFormatError)

    def test_fraction_state_roundtrips_exactly(self):
        items = [
            Item(
                arrival=Fraction(i, 3),
                departure=Fraction(i, 3) + Fraction(7, 2),
                size=Fraction(1 + (i % 3), 5),
                item_id=f"q{i}",
            )
            for i in range(90)
        ]
        base = simulate_stream(iter(items), FirstFit(), capacity=Fraction(1))
        sink = []
        simulate_stream(
            iter(items),
            FirstFit(),
            capacity=Fraction(1),
            checkpoint_every=25,
            on_checkpoint=sink.append,
        )
        snap = StreamCheckpoint.from_json(sink[-1].to_json())
        resumed = simulate_stream(
            iter(items), FirstFit(), capacity=Fraction(1), resume_from=snap
        )
        assert resumed == base
        assert isinstance(resumed.total_cost, Fraction)


def _cells(checkpoint):
    """Every bins/active cell as (field, row, key, type, repr): -0.0 != 0.0."""
    return [
        (field, n, key, type(value), repr(value))
        for field in ("bins", "active")
        for n, row in enumerate(getattr(checkpoint, field))
        for key, value in row.items()
    ]


def _assert_exact_roundtrip(checkpoint):
    back = StreamCheckpoint.from_json(checkpoint.to_json())
    assert back == checkpoint
    assert _cells(back) == _cells(checkpoint)
    return back


def _bin_row(index, level, label=None, opened_at=0.0, capacity=1.0):
    return {
        "index": index,
        "capacity": capacity,
        "label": label,
        "opened_at": opened_at,
        "level": level,
    }


def _item_row(item_id, bin, size=0.25, arrival=0.0, tag=None, departure=9.0, seq=0):
    return {
        "item_id": item_id,
        "size": size,
        "arrival": arrival,
        "tag": tag,
        "departure": departure,
        "seq": seq,
        "bin": bin,
    }


class TestColumnarPayload:
    """Schema 3: ``bins``/``active`` travel as columns; float columns packed."""

    def _checkpoint(self):
        _, sink = _collect_checkpoints(FirstFit, n_items=120)
        return sink[0]

    def _payload(self):
        return json.loads(self._checkpoint().to_json())

    def _rejects(self, payload, match=None):
        with pytest.raises(CheckpointFormatError, match=match) as excinfo:
            StreamCheckpoint.from_json(json.dumps(payload))
        assert type(excinfo.value) is CheckpointFormatError
        return excinfo.value

    def test_rows_travel_as_columns_with_packed_floats(self):
        checkpoint = self._checkpoint()
        payload = json.loads(checkpoint.to_json())
        assert list(payload["bins"]) == sorted(checkpoint.bins[0])
        assert list(payload["active"]) == sorted(checkpoint.active[0])
        # Integer columns stay plain lists; exact-float columns are packed.
        assert payload["bins"]["index"] == [b["index"] for b in checkpoint.bins]
        packed = base64.b64decode(payload["active"]["departure"]["__f64__"])
        assert len(packed) == 8 * len(checkpoint.active)

    def test_to_json_is_byte_identical_across_calls(self):
        checkpoint = self._checkpoint()
        assert checkpoint.to_json() == checkpoint.to_json()
        assert StreamCheckpoint.from_json(checkpoint.to_json()).to_json() == (
            checkpoint.to_json()
        )

    def test_ragged_columns_are_format_errors(self):
        payload = self._payload()
        payload["bins"]["index"] = payload["bins"]["index"][:-1]
        self._rejects(payload, match="one length")

    def test_ragged_packed_column_is_format_error(self):
        payload = self._payload()
        column = base64.b64decode(payload["active"]["departure"]["__f64__"])
        payload["active"]["departure"]["__f64__"] = base64.b64encode(
            column[:-8]
        ).decode("ascii")
        self._rejects(payload, match="one length")

    def test_missing_column_is_format_error(self):
        payload = self._payload()
        del payload["active"]["seq"]
        self._rejects(payload, match="missing \\['seq'\\]")

    def test_extra_column_is_format_error(self):
        payload = self._payload()
        payload["bins"]["colour"] = [None] * len(payload["bins"]["index"])
        self._rejects(payload, match="unexpected \\['colour'\\]")

    @pytest.mark.parametrize("field", ["bins", "active"])
    @pytest.mark.parametrize(
        # The last value is the schema-2 row layout under a schema-3 stamp.
        "value", [[], [1, 2], "rows", None, 3, [{"index": 0, "level": 0.5}]]
    )
    def test_non_object_rows_field_is_format_error(self, field, value):
        payload = self._payload()
        payload[field] = value
        self._rejects(payload, match="column object")

    def test_f64_not_base64_is_format_error(self):
        payload = self._payload()
        payload["active"]["departure"]["__f64__"] = "not*base64!"
        self._rejects(payload, match="not base64")

    def test_f64_non_ascii_is_format_error(self):
        payload = self._payload()
        payload["active"]["departure"]["__f64__"] = "\u00e9\u00e9\u00e9\u00e9"
        self._rejects(payload, match="not base64")

    def test_f64_partial_double_is_format_error(self):
        payload = self._payload()
        payload["active"]["departure"]["__f64__"] = base64.b64encode(
            bytes(12)
        ).decode("ascii")
        self._rejects(payload, match="whole number of doubles")

    def test_f64_non_string_is_format_error(self):
        payload = self._payload()
        payload["active"]["departure"]["__f64__"] = [1.0, 2.0]
        self._rejects(payload, match="base64 string")

    @pytest.mark.parametrize(
        "tag",
        [
            {"__fraction__": [1, 0]},
            {"__fraction__": [1]},
            {"__resources__": 5},
            {"__resources__": ["a"]},
        ],
    )
    def test_malformed_type_tag_is_format_error(self, tag):
        payload = self._payload()
        payload["capacity"] = tag
        self._rejects(payload, match="malformed type tag")

    def test_schema_2_row_layout_is_schema_error(self):
        checkpoint = self._checkpoint()
        payload = json.loads(checkpoint.to_json())
        payload["bins"] = [dict(row) for row in checkpoint.bins]
        payload["active"] = [dict(row) for row in checkpoint.active]
        payload["schema_version"] = 2
        with pytest.raises(CheckpointSchemaError) as excinfo:
            StreamCheckpoint.from_json(json.dumps(payload))
        assert excinfo.value.expected == CHECKPOINT_SCHEMA_VERSION == 3
        assert excinfo.value.got == 2


class TestExactTypeRoundTrip:
    """Every cell comes back with the same value *and* the same ``type()``."""

    def _hand_built(self, bins, active):
        _, sink = _collect_checkpoints(FirstFit, n_items=120)
        return replace(sink[0], bins=tuple(bins), active=tuple(active))

    def test_mixed_int_float_column_stays_a_list(self):
        checkpoint = self._hand_built(
            [_bin_row(0, 0.5, opened_at=0)],
            [
                _item_row("a", 0, arrival=0, seq=0),
                _item_row("b", 0, arrival=0.5, seq=1),
            ],
        )
        payload = json.loads(checkpoint.to_json())
        assert payload["active"]["arrival"] == [0, 0.5]
        assert payload["bins"]["opened_at"] == [0]
        back = _assert_exact_roundtrip(checkpoint)
        assert type(back.active[0]["arrival"]) is int
        assert type(back.active[1]["arrival"]) is float

    def test_none_and_str_tags_and_labels(self):
        checkpoint = self._hand_built(
            [_bin_row(0, 0.25, label=None), _bin_row(1, 0.5, label="large")],
            [
                _item_row("a", 0, tag=None, seq=0),
                _item_row("b", 1, tag="eu-west", seq=1),
                _item_row("c", 1, tag=None, seq=2),
            ],
        )
        back = _assert_exact_roundtrip(checkpoint)
        assert [b["label"] for b in back.bins] == [None, "large"]
        assert [a["tag"] for a in back.active] == [None, "eu-west", None]

    def test_negative_zero_and_infinity_survive_packing(self):
        checkpoint = self._hand_built(
            [_bin_row(0, 0.5, opened_at=-0.0), _bin_row(1, 0.25, opened_at=3.0)],
            [
                _item_row("a", 0, departure=math.inf, seq=0),
                _item_row("b", 1, departure=-0.0, seq=1),
                _item_row("c", 0, departure=0.1 + 0.2, seq=2),
            ],
        )
        payload = json.loads(checkpoint.to_json())
        assert "__f64__" in payload["bins"]["opened_at"]
        assert "__f64__" in payload["active"]["departure"]
        back = _assert_exact_roundtrip(checkpoint)
        assert math.copysign(1.0, back.bins[0]["opened_at"]) == -1.0
        assert back.active[0]["departure"] == math.inf
        assert back.active[2]["departure"] == 0.1 + 0.2

    def test_fraction_sizes_and_levels(self):
        items = [
            Item(
                arrival=Fraction(i, 3),
                departure=Fraction(i, 3) + Fraction(7, 2),
                size=Fraction(1 + (i % 3), 5),
                item_id=f"q{i}",
            )
            for i in range(60)
        ]
        sink = []
        simulate_stream(
            iter(items),
            FirstFit(),
            capacity=Fraction(1),
            checkpoint_every=25,
            on_checkpoint=sink.append,
        )
        checkpoint = sink[-1]
        assert checkpoint.active
        back = _assert_exact_roundtrip(checkpoint)
        for row in back.active:
            assert type(row["size"]) is Fraction
            assert type(row["departure"]) is Fraction
        for row in back.bins:
            assert type(row["level"]) is Fraction
            assert type(row["capacity"]) is Fraction

    def test_resources_sizes_capacities_and_levels(self):
        items = [
            Item(
                arrival=float(i),
                departure=float(i) + 6.5,
                size=Resources(0.1 + 0.05 * (i % 5), 0.3 - 0.04 * (i % 4)),
                item_id=f"v{i}",
            )
            for i in range(60)
        ]
        sink = []
        simulate_stream(
            iter(items),
            BestFit(),
            capacity=Resources(1, 1),
            checkpoint_every=30,
            on_checkpoint=sink.append,
        )
        checkpoint = sink[len(sink) // 2]
        assert checkpoint.active
        back = _assert_exact_roundtrip(checkpoint)
        for row in back.active:
            assert type(row["size"]) is Resources
        for row in back.bins:
            assert type(row["level"]) is Resources
            assert type(row["capacity"]) is Resources
