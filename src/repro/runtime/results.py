"""Run artefacts: delivery logs and result-table formatting.

The :class:`DeliveryLog` is the ground truth the correctness checkers
work from: per-process delivery sequences, each message's deliverers
and every cast message's destination set.

:func:`format_table` renders experiment results the way the paper's
Figure 1 does — one row per algorithm, aligned columns — so benchmark
output can be eyeballed against the paper directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.interfaces import AppMessage


class DeliveryLog:
    """Per-process A-Deliver sequences for a run."""

    def __init__(self) -> None:
        self._sequences: Dict[int, List[AppMessage]] = {}
        self._cast: Dict[str, AppMessage] = {}
        self._delivered_by: Dict[str, Dict[int, None]] = {}

    # ------------------------------------------------------------------
    def record_cast(self, msg: AppMessage) -> None:
        """Remember a cast message (destination sets feed the checkers)."""
        self._cast[msg.mid] = msg

    def record_delivery(self, pid: int, msg: AppMessage) -> None:
        """Append ``msg`` to ``pid``'s delivery sequence."""
        sequence = self._sequences.get(pid)
        if sequence is None:
            sequence = self._sequences[pid] = []
        sequence.append(msg)
        deliverers = self._delivered_by.get(msg.mid)
        if deliverers is None:
            deliverers = self._delivered_by[msg.mid] = {}
        deliverers[pid] = None

    # ------------------------------------------------------------------
    def sequence(self, pid: int) -> List[str]:
        """Message ids delivered by ``pid``, in delivery order."""
        return [m.mid for m in self._sequences.get(pid, [])]

    def delivered_messages(self, pid: int) -> List[AppMessage]:
        """Messages delivered by ``pid``, in delivery order."""
        return list(self._sequences.get(pid, []))

    def processes(self) -> List[int]:
        """Pids that delivered at least one message."""
        return sorted(self._sequences)

    def cast_messages(self) -> Dict[str, AppMessage]:
        """All cast messages, by id (a copy; mutate freely)."""
        return dict(self._cast)

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
    def delivered_by(self) -> Dict[str, Dict[int, None]]:
        """Deliverers by message id, as insertion-ordered key sets."""
        return self._delivered_by

    def deliveries_of(self, mid: str) -> List[int]:
        """Pids that delivered ``mid``, in first-delivery order."""
        return list(self._delivered_by.get(mid, ()))

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
