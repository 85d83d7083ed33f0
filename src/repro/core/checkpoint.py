"""Checkpoint/resume for streamed simulations.

A million-item streamed run (:func:`repro.core.streaming.simulate_stream`)
used to be all-or-nothing: any interruption — a preempted worker, a crash,
a deploy — threw the whole pass away.  This module makes the streaming
engine restartable: at any event boundary the complete engine state fits
in O(active sessions) space — open bins (index, capacity, label, opening
time, exact level), active items with their pending departure times and
source positions, the aggregate counters, observer state, and any mutable
algorithm state — and a :class:`StreamCheckpoint` captures it as a
JSON-serializable snapshot.

Resuming replays nothing: the caller re-creates the *same* source stream
(same generator, same seed), :func:`repro.core.streaming.simulate_stream`
skips the already-consumed prefix, reconstructs the engine from the
snapshot, and continues.  The resumed run is **exact**: every float is
restored bit for bit (bin levels are stored rather than re-summed, since
float addition is order-sensitive), so the final
:class:`~repro.core.streaming.StreamSummary` equals the uninterrupted
run's — asserted by the differential tests.

Scope: checkpoints cover the ``record=False`` streaming mode only (the
full-history mode would need the entire trace anyway), and values must be
JSON-representable — ``float``/``int`` times and sizes, JSON-able bin
labels and item tags.  Algorithms restore via
:meth:`~repro.algorithms.base.PackingAlgorithm.restore_state`; the stock
family (FF/BF/MFF/MBF, Next Fit) is exact.

Wire format (schema 3).  :meth:`StreamCheckpoint.to_json` writes the open
bins and the active items *column-wise*: ``bins`` and ``active`` are each
one JSON object with one list per field, in capture order
(``{"index": [...], "capacity": [...], ...}``), so a field name is written
once per snapshot instead of once per row.  A column whose values are all
exactly ``float`` is packed as ``{"__f64__": "<base64>"}`` — the
little-endian IEEE-754 doubles of the column, bit for bit (``-0.0``,
``inf`` and every ulp survive by construction, and no ``float.__repr__``
runs).  Every other column (ints, ``Fraction``, ``Resources``, strings,
``None``, mixed types) stays a plain JSON list.  :meth:`~StreamCheckpoint.from_json`
rebuilds the same tuples of per-row dicts, so the in-memory checkpoint is
the same for either direction; a payload of any other schema version is
refused with :class:`~repro.core.validation.CheckpointSchemaError`.
"""

from __future__ import annotations

import base64
import heapq
import json
import struct
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .numeric import Num
from .bin import Bin
from .resources import Resources, Size, size_fits
from .simulator import Simulator, _ActiveItem
from .telemetry import SimulationObserver
from .validation import CheckpointFormatError, CheckpointSchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..algorithms.base import PackingAlgorithm

#: One ``(departure, seq, item_id)`` entry of the streaming departure heap.
PendingEntry = tuple[Num, int, str]

__all__ = [
    "CheckpointError",
    "StreamCheckpoint",
    "CHECKPOINT_VERSION",
    "CHECKPOINT_SCHEMA_VERSION",
]

#: Bumped whenever the snapshot layout changes incompatibly.
CHECKPOINT_VERSION = 1

#: Version stamp of the *JSON payload* layout (field encoding, type tags).
#: Distinct from :data:`CHECKPOINT_VERSION`, which versions the captured
#: engine state: a payload written under a different schema fails loudly in
#: :meth:`StreamCheckpoint.from_json` with a typed
#: :class:`~repro.core.validation.CheckpointSchemaError` instead of
#: mis-restoring.  Bumped to 2 when ``schema_version`` stamping and exact
#: ``Fraction`` tagging were added, and to 3 when ``bins``/``active``
#: became column objects with ``__f64__``-packed float columns.
CHECKPOINT_SCHEMA_VERSION = 3

#: Row keys of the two per-row fields, in capture order; each is written
#: as one column.
_COLUMNS: dict[str, tuple[str, ...]] = {
    "bins": ("index", "capacity", "label", "opened_at", "level"),
    "active": ("item_id", "size", "arrival", "tag", "departure", "seq", "bin"),
}


class CheckpointError(RuntimeError):
    """Raised for unusable checkpoints (mismatched run, truncated source)."""


@dataclass(frozen=True, slots=True)
class StreamCheckpoint:
    """Complete engine state of a streamed run at one event boundary.

    Build one with :meth:`capture` (normally done for you by
    ``simulate_stream(..., checkpoint_every=N, on_checkpoint=sink)``),
    persist it with :meth:`to_json`, and hand it back to
    ``simulate_stream(..., resume_from=...)`` together with a fresh
    instance of the same source stream.
    """

    algorithm_name: str
    capacity: Size
    cost_rate: Num
    #: Items pulled from the source stream so far; the resume skips these.
    items_consumed: int
    #: Arrival + departure events processed so far.
    events_processed: int
    #: Last arrival time seen (stream-order validation resumes from here).
    last_arrival: Num | None
    now: Num | None
    auto_id: int
    bins_opened: int
    peak_open: int
    items_arrived: int
    closed_bin_time: Num
    #: Open bins in opening order: (index, capacity, label, opened_at, level).
    bins: tuple[dict[str, Any], ...]
    #: Active items: (item_id, size, arrival, tag, departure, seq, bin).
    active: tuple[dict[str, Any], ...]
    #: Per-observer ``checkpoint_state()`` payloads, positionally aligned.
    observers: tuple[Any, ...]
    algorithm_state: Any = None
    #: ``checkpoint_state()`` of the bounded-migration repacker, if one was
    #: driving the run (``None`` otherwise).  Migrated item→bin membership
    #: itself needs no extra state: ``active`` already records the *current*
    #: bin of every item.
    repacker_state: Any = None
    version: int = CHECKPOINT_VERSION

    # ---------------------------------------------------------------- capture

    @classmethod
    def capture(
        cls,
        sim: Simulator,
        pending: Sequence[PendingEntry],
        items_consumed: int,
        events_processed: int,
        last_arrival: Num | None,
        repacker_state: Any = None,
    ) -> "StreamCheckpoint":
        """Snapshot a live streaming simulator at an event boundary.

        ``pending`` is the streaming driver's departure heap of
        ``(departure, seq, item_id)`` entries for every active item.
        """
        if sim._record:
            raise CheckpointError(
                "checkpoints cover streaming (record=False) simulations only"
            )
        departure_of = {item_id: (dep, seq) for dep, seq, item_id in pending}
        active: list[dict[str, Any]] = []
        for item_id, record in sim._active.items():
            dep, seq = departure_of[item_id]
            view = record.view
            active.append(
                {
                    "item_id": item_id,
                    "size": view.size,
                    "arrival": view.arrival,
                    "tag": view.tag,
                    "departure": dep,
                    "seq": seq,
                    "bin": record.bin.index,
                }
            )
        bins = tuple(
            {
                "index": b.index,
                "capacity": b.capacity,
                "label": b.label,
                "opened_at": b.opened_at,
                "level": b.level,
            }
            for b in sim._bins  # iteration is opening order
        )
        return cls(
            algorithm_name=sim.algorithm.name,
            capacity=sim.capacity,
            cost_rate=sim.cost_rate,
            items_consumed=items_consumed,
            events_processed=events_processed,
            last_arrival=last_arrival,
            now=sim._now,
            auto_id=sim._auto_id,
            bins_opened=sim._bins_opened,
            peak_open=sim._peak_open,
            items_arrived=sim._items_arrived,
            closed_bin_time=sim._closed_bin_time,
            bins=bins,
            active=tuple(active),
            observers=tuple(o.checkpoint_state() for o in sim.observers),
            algorithm_state=sim.algorithm.checkpoint_state(),
            repacker_state=repacker_state,
        )

    # ---------------------------------------------------------------- restore

    def restore(
        self,
        algorithm: "PackingAlgorithm",
        *,
        strict: bool = True,
        indexed: bool = True,
        observers: Sequence[SimulationObserver] = (),
    ) -> tuple[Simulator, list[PendingEntry]]:
        """Reconstruct the simulator and the pending-departure heap.

        ``algorithm`` must be a fresh instance of the checkpointed
        algorithm (matched by registry name); ``observers`` must be fresh
        instances positionally matching the checkpointed ones — their
        state is restored via ``restore_state``.  A bin that restores empty
        or over capacity raises :class:`~repro.core.validation.CheckpointFormatError`.
        """
        from ..algorithms.base import Arrival

        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} is not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if algorithm.name != self.algorithm_name:
            raise CheckpointError(
                f"checkpoint was taken with algorithm "
                f"{self.algorithm_name!r}, cannot resume with {algorithm.name!r}"
            )
        if len(observers) != len(self.observers):
            raise CheckpointError(
                f"checkpoint has state for {len(self.observers)} observers, "
                f"got {len(observers)}"
            )
        sim = Simulator(
            algorithm,
            capacity=self.capacity,
            cost_rate=self.cost_rate,
            strict=strict,
            indexed=indexed,
            record=False,
            observers=observers,
        )
        bins_by_index: dict[int, Bin] = {
            state["index"]: Bin(
                index=state["index"],
                capacity=state["capacity"],
                label=state["label"],
                record_log=False,
            )
            for state in self.bins
        }
        pending: list[PendingEntry] = []
        for entry in self.active:
            target = bins_by_index[entry["bin"]]
            view = Arrival(
                item_id=entry["item_id"],
                size=entry["size"],
                arrival=entry["arrival"],
                tag=entry["tag"],
            )
            # No per-item fit check: it would compare against a re-summed
            # float level, which can differ from the saved one by an ulp.
            target._contents[view.item_id] = view
            sim._active[entry["item_id"]] = _ActiveItem(view=view, bin=target)
            pending.append((entry["departure"], entry["seq"], entry["item_id"]))
        heapq.heapify(pending)
        for state in self.bins:  # opening order: index insertion order matters
            target = bins_by_index[state["index"]]
            target.opened_at = state["opened_at"]
            # Exact level, not the re-added sum: float addition is
            # order-sensitive and fit decisions compare residuals exactly.
            target._level = state["level"]
            if target.is_empty or not size_fits(target.level, target.capacity):
                raise CheckpointFormatError(
                    f"bin {target.index} restores with {target.num_items} items "
                    f"at level {target.level}, capacity {target.capacity}"
                )
            sim._bins.add(target)
        sim._now = self.now
        sim._auto_id = self.auto_id
        sim._bins_opened = self.bins_opened
        sim._peak_open = self.peak_open
        sim._items_arrived = self.items_arrived
        sim._closed_bin_time = self.closed_bin_time
        for observer, state in zip(observers, self.observers):
            if state is not None:
                observer.restore_state(state)
        algorithm.restore_state(self.algorithm_state, bins_by_index)
        return sim, pending

    # ---------------------------------------------------------- serialization

    def to_json(self) -> str:
        """Serialize to JSON (floats round-trip exactly).

        The payload is stamped with :data:`CHECKPOINT_SCHEMA_VERSION` so a
        layout change fails loudly on restore.  ``bins`` and ``active`` are
        written as column objects, one list per row key in capture order;
        a column of exact-``float`` values is packed as
        ``{"__f64__": "<base64 of little-endian doubles>"}``.  Vector
        sizes/capacities/levels are tagged as ``{"__resources__": [...]}``
        and exact rationals as ``{"__fraction__": [num, den]}`` so
        :meth:`from_json` restores :class:`~repro.core.resources.Resources`
        and :class:`~fractions.Fraction` values bit for bit.
        """
        # A shallow field mapping: json.dumps only reads the values, so the
        # rows need no deep copy.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, columns in _COLUMNS.items():
            payload[name] = _to_columns(payload[name], columns)
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION
        return json.dumps(payload, sort_keys=True, default=_encode_json)

    @classmethod
    def from_json(cls, text: str) -> "StreamCheckpoint":
        """Parse a :meth:`to_json` payload.

        Malformed or truncated input — including ragged, missing or extra
        columns and undecodable ``__f64__`` columns — raises a typed
        :class:`~repro.core.validation.CheckpointFormatError`; a payload
        written under a different schema version raises
        :class:`~repro.core.validation.CheckpointSchemaError`.  Neither
        leaks bare ``json.JSONDecodeError``/``KeyError``/``TypeError``.
        """
        try:
            payload = json.loads(text, object_hook=_decode_json)
        except CheckpointFormatError:
            raise
        except json.JSONDecodeError as exc:
            raise CheckpointFormatError(f"not valid JSON ({exc})") from exc
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            # A type tag whose content does not build its value.
            raise CheckpointFormatError(f"malformed type tag ({exc})") from exc
        if not isinstance(payload, dict):
            raise CheckpointFormatError(
                f"expected a JSON object, got {type(payload).__name__}"
            )
        schema = payload.pop("schema_version", None)
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointSchemaError(
                expected=CHECKPOINT_SCHEMA_VERSION, got=schema
            )
        try:
            for name, columns in _COLUMNS.items():
                payload[name] = _from_columns(name, payload[name], columns)
            payload["observers"] = tuple(payload["observers"])
            return cls(**payload)
        except (KeyError, TypeError) as exc:
            raise CheckpointFormatError(
                f"missing or malformed checkpoint fields ({exc})"
            ) from exc


def _to_columns(
    rows: Sequence[dict[str, Any]], columns: tuple[str, ...]
) -> dict[str, Any]:
    table: dict[str, Any] = {}
    for key in columns:
        values = [row[key] for row in rows]
        if values and set(map(type, values)) == {float}:
            packed = struct.pack(f"<{len(values)}d", *values)
            table[key] = {"__f64__": base64.b64encode(packed).decode("ascii")}
        else:
            table[key] = values
    return table


def _from_columns(
    name: str, table: Any, columns: tuple[str, ...]
) -> tuple[dict[str, Any], ...]:
    if not isinstance(table, dict):
        raise CheckpointFormatError(
            f"{name!r} must be a column object, got {type(table).__name__}"
        )
    if set(table) != set(columns):
        missing = sorted(set(columns) - set(table))
        extra = sorted(set(table) - set(columns))
        raise CheckpointFormatError(
            f"{name!r} columns: missing {missing}, unexpected {extra}"
        )
    values = [table[key] for key in columns]
    if not all(isinstance(column, list) for column in values):
        raise CheckpointFormatError(f"{name!r} columns must be lists")
    lengths = {key: len(column) for key, column in zip(columns, values)}
    if len(set(lengths.values())) != 1:
        raise CheckpointFormatError(
            f"{name!r} columns must be lists of one length, got {lengths}"
        )
    return tuple(dict(zip(columns, row)) for row in zip(*values))


def _encode_json(obj: Any) -> Any:
    if isinstance(obj, Resources):
        return {"__resources__": list(obj.values)}
    if isinstance(obj, Fraction):
        return {"__fraction__": [obj.numerator, obj.denominator]}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _decode_json(obj: dict[str, Any]) -> Any:
    if len(obj) == 1 and "__f64__" in obj:
        return _unpack_f64(obj["__f64__"])
    if len(obj) == 1 and "__resources__" in obj:
        return Resources(*obj["__resources__"])
    if len(obj) == 1 and "__fraction__" in obj:
        num, den = obj["__fraction__"]
        return Fraction(num, den)
    return obj


def _unpack_f64(text: Any) -> list[float]:
    if not isinstance(text, str):
        raise CheckpointFormatError(
            f"__f64__ column must be a base64 string, got {type(text).__name__}"
        )
    try:
        packed = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise CheckpointFormatError(f"__f64__ column is not base64 ({exc})") from exc
    if len(packed) % 8:
        raise CheckpointFormatError(
            f"__f64__ column holds {len(packed)} bytes, not a whole number of doubles"
        )
    return list(struct.unpack(f"<{len(packed) // 8}d", packed))
