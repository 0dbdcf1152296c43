"""Debugging tool: what each process's next A-Delivery waits on.

:func:`render_waits` answers the question a stalled run raises: what
is each process's next A-Delivery waiting on *right now*.
"""

from __future__ import annotations

from typing import Dict, List


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
