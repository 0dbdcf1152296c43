"""Debugging and inspection tools (timelines, hop diagrams, waits)."""

from repro.tools.timeline import (
    lane_summary,
    render_hop_diagram,
    render_timeline,
    render_waits,
)

__all__ = ["lane_summary", "render_hop_diagram", "render_timeline",
           "render_waits"]
