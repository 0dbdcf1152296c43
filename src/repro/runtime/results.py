"""Run artefacts: delivery logs and result-table formatting.

The :class:`DeliveryLog` is the ground truth the correctness checkers
work from: per-process delivery sequences and, through its
:class:`~repro.net.message.MessageCatalog`, the run's one
:class:`~repro.clocks.latency.MessageRecord` per message — its cast
message, stamps and deliverers.

:func:`format_table` renders aligned text tables in the style of the
paper's Figure 1; the claims table (``python -m repro.cli paper``)
uses it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.clocks.latency import MessageRecord
from repro.core.interfaces import AppMessage
from repro.net.message import MessageCatalog


class CastMap(Mapping):
    """mid → cast message, read through a record table.

    A view, not a second table: it holds nothing of its own, and skips
    the entries a hand-fed log made for deliveries of uncast mids.
    """

    __slots__ = ("_records",)

    def __init__(self, records: Dict[str, MessageRecord]) -> None:
        self._records = records

    def __getitem__(self, mid: str) -> AppMessage:
        msg = self._records[mid].msg
        if msg is None:
            raise KeyError(mid)
        return msg

    def __iter__(self) -> Iterator[str]:
        return (mid for mid, rec in self._records.items()
                if rec.msg is not None)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class DeliveryLog:
    """Per-process A-Deliver sequences for a run.

    The log owns what is per *process*: each pid's delivered messages,
    in order.  What is per *message* is its catalog's record table
    (:attr:`record_map`): a built system makes the log's catalog its
    simulation's, so the table every cast interns into, the one the
    meter reads and the log's are one dict.  A message's deliverers are
    its record's ``delivery_time`` keys, and that map is shared between
    records and never changed in place (see :mod:`repro.clocks.latency`).

    A standalone ``DeliveryLog()`` is fed by hand: :meth:`record_cast`
    interns into its catalog and :meth:`record_delivery` writes the
    delivery.
    """

    def __init__(self) -> None:
        self.catalog = MessageCatalog()
        self._records = self.catalog.record_map
        self._sequences: Dict[int, List[AppMessage]] = {}
        #: pid -> (predecessor map, successor map) of its last delivery.
        self._last: Dict[int, Tuple[dict, dict]] = {}

    # ------------------------------------------------------------------
    def record_cast(self, msg: AppMessage) -> None:
        """Remember a cast message (destination sets feed the checkers).

        For logs fed by hand: a built system records its casts with
        ``System.record_cast``.
        """
        self.catalog.intern(msg)

    def record_delivery(self, pid: int, msg: AppMessage) -> None:
        """Append ``msg`` to ``pid``'s delivery sequence and write it to
        the message's record.

        For logs fed by hand (tests, replayed foreign logs), which have
        no clock: every delivery is at 0.0, one instant, so the
        successor map is memoised per pid on its predecessor alone.  A
        mid that was never cast gets an entry with no message, which
        :func:`~repro.checkers.properties.check_all` reports.  A built
        system writes its log from the endpoints' delivery callbacks.
        """
        sequence = self._sequences.get(pid)
        if sequence is None:
            sequence = self._sequences[pid] = []
        sequence.append(msg)
        rec = self._records.get(msg.mid)
        if rec is None:
            rec = self._records[msg.mid] = MessageRecord(None)
        before = rec.delivery_time
        last = self._last.get(pid)
        if last is not None and last[0] is before:
            rec.delivery_time = last[1]
        else:
            rec.delivery_time = after = {**before, pid: 0.0}
            self._last[pid] = (before, after)

    # ------------------------------------------------------------------
    def sequence(self, pid: int) -> List[str]:
        """Message ids delivered by ``pid``, in delivery order."""
        return [m.mid for m in self._sequences.get(pid, [])]

    def processes(self) -> List[int]:
        """Pids that delivered at least one message."""
        return sorted(self._sequences)

    # Live indexes, read in place by the checkers: do not mutate.
    @property
    def cast_map(self) -> CastMap:
        """All cast messages, by id, in cast order (a view)."""
        return CastMap(self._records)

    @property
    def sequences(self) -> Dict[int, List[AppMessage]]:
        """Delivered messages by pid, in delivery order."""
        return self._sequences

    @property
    def record_map(self) -> Dict[str, MessageRecord]:
        """The catalog's table: mid -> record (message, stamps,
        deliverers)."""
        return self._records

    def deliveries_of(self, mid: str) -> List[int]:
        """Pids that delivered ``mid``, in first-delivery order."""
        rec = self._records.get(mid)
        return list(rec.delivery_time) if rec is not None else []

    def delivery_count(self) -> int:
        """Total number of delivery events in the run."""
        return sum(len(seq) for seq in self._sequences.values())


@dataclass
class Row:
    """One line of a result table."""

    label: str
    values: Sequence


def format_table(
    title: str, headers: Sequence[str], rows: List[Row],
    note: Optional[str] = None,
) -> str:
    """Render an aligned text table (Figure 1 style)."""
    all_rows = [[row.label] + [_fmt(v) for v in row.values] for row in rows]
    widths = [len(h) for h in headers]
    for cells in all_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in all_rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)))
    if note:
        lines.extend(["", note])
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
