"""Debugging and measurement tools: delivery waits, bench pairs."""

from repro.tools.waits import render_waits

__all__ = ["render_waits"]
