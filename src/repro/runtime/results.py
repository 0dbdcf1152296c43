"""Run artefacts: delivery logs and result-table formatting.

The :class:`DeliveryLog` is the ground truth the correctness checkers
work from: per-process delivery sequences, every cast message's
destination set and, through the run's
:class:`~repro.clocks.latency.MessageRecord` table, each message's
deliverers.

:func:`format_table` renders aligned text tables in the style of the
paper's Figure 1; the claims table (``python -m repro.cli paper``)
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.clocks.latency import DeliveryMaps, MessageRecord
from repro.core.interfaces import AppMessage


class DeliveryLog:
    """Per-process A-Deliver sequences for a run.

    The log owns what is per *process*: each pid's delivered messages,
    in order.  What is per *message* it reads from tables it shares:

    * the cast map, mid → cast message.  A built system's cast map *is*
      its :class:`~repro.net.message.MessageCatalog` table
      (:attr:`MessageCatalog.by_mid
      <repro.net.message.MessageCatalog.by_mid>`), filled by the
      catalog's ``intern`` at each cast, so the run keeps one mid-keyed
      map of messages, not two;
    * the :class:`~repro.clocks.latency.MessageRecord` table: a built
      system hands its :class:`~repro.clocks.latency.LatencyMeter`'s
      table to its log.  A message's deliverers are its record's
      ``delivery_time`` keys, and that map is shared between records
      and never changed in place (see
      :class:`~repro.clocks.latency.DeliveryMaps`).

    A standalone ``DeliveryLog()`` owns a cast map and a record table
    of its own, filled by :meth:`record_cast` and
    :meth:`record_delivery`.
    """

    def __init__(self,
                 records: Optional[Dict[str, MessageRecord]] = None,
                 cast: Optional[Dict[str, AppMessage]] = None) -> None:
        self._sequences: Dict[int, List[AppMessage]] = {}
        self._cast: Dict[str, AppMessage] = {} if cast is None else cast
        self._records: Dict[str, MessageRecord] = (
            {} if records is None else records)
        self._maps = DeliveryMaps()

    # ------------------------------------------------------------------
    def record_cast(self, msg: AppMessage) -> None:
        """Remember a cast message (destination sets feed the checkers).

        For standalone logs: a built system's catalog fills its log's
        cast map at each cast.
        """
        self._cast[msg.mid] = msg

    def record_delivery(self, pid: int, msg: AppMessage) -> None:
        """Append ``msg`` to ``pid``'s delivery sequence.

        For logs fed by hand (tests, replayed foreign logs), which have
        no clock: their records' delivery times read 0.0.  A built
        system writes its log from the endpoints' delivery callbacks.
        """
        sequence = self._sequences.get(pid)
        if sequence is None:
            sequence = self._sequences[pid] = []
        sequence.append(msg)
        rec = self._records.get(msg.mid)
        if rec is None:
            rec = self._records[msg.mid] = MessageRecord(msg.mid)
        rec.delivery_time = self._maps.after(rec.delivery_time, pid, 0.0)

    # ------------------------------------------------------------------
    def sequence(self, pid: int) -> List[str]:
        """Message ids delivered by ``pid``, in delivery order."""
        return [m.mid for m in self._sequences.get(pid, [])]

    def processes(self) -> List[int]:
        """Pids that delivered at least one message."""
        return sorted(self._sequences)

    # Live indexes, read in place by the checkers: do not mutate.
    @property
    def cast_map(self) -> Dict[str, AppMessage]:
        """All cast messages, by id."""
        return self._cast

    @property
    def sequences(self) -> Dict[int, List[AppMessage]]:
        """Delivered messages by pid, in delivery order."""
        return self._sequences

    @property
    def record_map(self) -> Dict[str, MessageRecord]:
        """The per-message records, by id (deliverers and stamps)."""
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
