"""Debugging tools: render a message trace as a readable timeline.

Protocol debugging in a discrete-event simulator lives or dies on being
able to *see* a run.  :func:`render_timeline` turns a
:class:`MessageTrace` (build the system with ``trace=True``) into a
per-process lane diagram:

::

    t=0.000    p0 >> p3   amc.rmc.data         (inter)
    t=1.000    p3 <<       amc.rmc.data from p0
    ...

and :func:`render_hop_diagram` compresses a single message's causal
story — who forwarded what to whom, at which Lamport timestamps — which
is exactly the view used to debug latency-degree measurements.
:func:`render_waits` answers the other question a stalled run raises —
what is each process's next A-Delivery waiting on *right now*.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.trace import MessageTrace, TraceEvent


def render_timeline(
    trace: MessageTrace,
    start: float = 0.0,
    end: Optional[float] = None,
    kinds_prefix: Optional[str] = None,
    limit: int = 200,
) -> str:
    """A chronological send/deliver listing.

    Args:
        trace: The (enabled) message trace of a run.
        start: Hide events before this virtual time.
        end: Hide events after this virtual time.
        kinds_prefix: Keep only kinds starting with this prefix
            (e.g. ``"amc.ts"``).
        limit: Hard cap on rendered lines (traces get large).
    """
    if not trace.enabled:
        raise ValueError("timeline rendering needs a system built with "
                         "trace=True")
    lines: List[str] = []
    shown = 0
    for event in trace.events:
        if event.time < start or (end is not None and event.time > end):
            continue
        if kinds_prefix and not event.msg.kind.startswith(kinds_prefix):
            continue
        if shown >= limit:
            lines.append(f"... ({len(trace.events)} events total, "
                         f"{limit} shown)")
            break
        lines.append(_format_event(event))
        shown += 1
    return "\n".join(lines) if lines else "(no events in range)"


def _format_event(event: TraceEvent) -> str:
    msg = event.msg
    scope = "inter" if msg.inter_group else "intra"
    if event.event == "send":
        return (f"t={event.time:10.3f}  p{msg.src} >> p{msg.dst}  "
                f"{msg.kind:24s} ts={msg.send_lamport} ({scope})")
    return (f"t={event.time:10.3f}  p{msg.dst} << p{msg.src}  "
            f"{msg.kind:24s} ts={msg.send_lamport} ({scope})")


def render_hop_diagram(trace: MessageTrace, needle: str,
                       limit: int = 100) -> str:
    """The causal story of one application message.

    Filters the trace to events whose payload mentions ``needle`` (a
    message id appearing in payload reprs) and prints them with Lamport
    timestamps, making each inter-group hop visible as a +1 step.
    """
    if not trace.enabled:
        raise ValueError("hop diagrams need a system built with trace=True")
    lines: List[str] = []
    for event in trace.events:
        if needle not in repr(event.msg.payload):
            continue
        if len(lines) >= limit:
            lines.append(f"... (more than {limit} matching events)")
            break
        lines.append(_format_event(event))
    if not lines:
        return f"(no events mention {needle!r})"
    return "\n".join(lines)


def lane_summary(trace: MessageTrace) -> str:
    """Per-process traffic summary: sends, receives, inter-group share."""
    if not trace.enabled:
        raise ValueError("lane summaries need a system built with "
                         "trace=True")
    sends: dict = {}
    recvs: dict = {}
    inter: dict = {}
    for event in trace.events:
        if event.event == "send":
            sends[event.msg.src] = sends.get(event.msg.src, 0) + 1
            if event.msg.inter_group:
                inter[event.msg.src] = inter.get(event.msg.src, 0) + 1
        else:
            recvs[event.msg.dst] = recvs.get(event.msg.dst, 0) + 1
    pids = sorted(set(sends) | set(recvs))
    lines = ["pid   sent  recv  inter-sent"]
    for pid in pids:
        lines.append(f"p{pid:<4d} {sends.get(pid, 0):5d} "
                     f"{recvs.get(pid, 0):5d} {inter.get(pid, 0):6d}")
    return "\n".join(lines)


def render_waits(endpoints: Dict[int, object]) -> str:
    """Per process: what its next A-Delivery is blocked on.

    ``endpoints`` is ``system.endpoints``.  A1 and its variants name the
    minimal s3 message and its blocker, A2 the head round and the
    bundles it misses; protocols without a ``blocked_on()`` are skipped.
    Needs no trace — it reads the endpoints' live state, so call it
    mid-run (``system.run(until=t)``) or on a run that did not drain.
    """
    lines: List[str] = []
    for pid in sorted(endpoints):
        endpoint = endpoints[pid]
        blocked_on = getattr(endpoint, "blocked_on", None)
        if blocked_on is None:
            continue
        wait = blocked_on()
        lines.append(f"p{pid:<4d} " + (
            endpoint.NOTHING_WAITS if wait is None else wait.describe()))
    return "\n".join(lines) if lines else "(no endpoint reports waits)"
