"""The ``--live`` in-place progress table.

A :class:`LiveView` is one of the hub's snapshot consumers. On a TTY it
redraws itself in place with ANSI cursor movement (one table, updated on
every bus event, throttled to ``interval_s``).
On a dumb stream (CI logs, pipes) it degrades to a compact one-line
summary printed at a slower cadence, so logs stay readable instead of
scrolling a table per heartbeat.

Rendering is wall-clock-throttled *display*, not data: the hub keeps
full state regardless of what the view managed to draw.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

#: Rows shown before the table truncates (in-flight runs first).
MAX_ROWS = 24

_PHASE_GLYPH = {
    "pending": ".",
    "build": "b",
    "run": ">",
    "drain": "d",
    "finished": "=",
}


def _fmt_eta(eta) -> str:
    if eta is None:
        return "-"
    eta = float(eta)
    if eta >= 90:
        return f"{eta / 60:.1f}m"
    return f"{eta:.0f}s"


class LiveView:
    """Renders hub snapshots onto a terminal (or a log-friendly stream)."""

    def __init__(
        self,
        stream=None,
        interval_s: float = 0.2,
        plain_interval_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self._stream = stream
        self.interval_s = interval_s
        self.plain_interval_s = plain_interval_s
        self.clock = clock
        self.renders = 0
        self._lines_drawn = 0
        self._last_render = 0.0

    @property
    def stream(self):
        return self._stream if self._stream is not None else sys.stderr

    def _isatty(self) -> bool:
        try:
            return bool(self.stream.isatty())
        except Exception:
            return False

    # ------------------------------------------------------------------ #

    def update(self, snap: Dict[str, object]) -> None:
        """Redraw, unless the last draw is younger than the stream's gap."""
        now = self.clock()
        min_gap = self.interval_s if self._isatty() else self.plain_interval_s
        if now - self._last_render >= min_gap:
            self._draw(snap, now)

    def close(self, snap: Dict[str, object]) -> None:
        """Final draw; leaves the cursor below the table."""
        self._draw(snap, self.clock())
        if self._isatty() and self._lines_drawn:
            self.stream.write("\n")
            self.stream.flush()
        self._lines_drawn = 0

    def _draw(self, snap: Dict[str, object], now: float) -> None:
        self._last_render = now
        self.renders += 1
        if self._isatty():
            self._render_table(snap)
        else:
            self._render_plain(snap)

    # ------------------------------------------------------------------ #

    def _rows(self, snap: Dict[str, object]) -> List[Dict[str, object]]:
        runs = list((snap.get("runs") or {}).values())
        order = {"run": 0, "drain": 0, "build": 1, "pending": 2, "finished": 3}
        runs.sort(
            key=lambda st: (order.get(st.get("phase"), 2), st.get("label") or "")
        )
        return runs[:MAX_ROWS]

    def _format_row(self, st: Dict[str, object], now: float) -> str:
        glyph = _PHASE_GLYPH.get(st.get("phase"), "?")
        label = (st.get("label") or st.get("run") or "")[:44]
        progress = st.get("progress")
        pct = f"{progress * 100:3.0f}%" if progress is not None else "   -"
        cycle = st.get("cycle") or 0
        target = st.get("target_cycles") or 0
        pkts = f"{st.get('injected') or 0}/{st.get('ejected') or 0}"
        cps = st.get("cycles_per_sec")
        cps_s = f"{cps:,.0f}" if cps else "-"
        eta = _fmt_eta(st.get("eta_s")) if st.get("phase") != "finished" else ""
        beat = st.get("last_ts")
        if st.get("stalled"):
            age = f"STALL {now - beat:.0f}s" if beat else "STALL"
        elif beat and st.get("phase") not in ("pending", "finished"):
            age = f"{max(0.0, now - beat):.0f}s"
        else:
            age = ""
        return (
            f" {glyph} {label:<44} {pct} {cycle:>8}/{target:<8} "
            f"{pkts:>13} {cps_s:>9} {eta:>6} {age}"
        )

    def _render_table(self, snap: Dict[str, object]) -> None:
        stream = self.stream
        now = float(snap.get("ts") or time.time())
        header = (
            f"live: {snap.get('done', 0)}/{snap.get('total', 0)} done, "
            f"{snap.get('inflight', 0)} running, "
            f"{snap.get('stalled', 0)} stalled, "
            f"{snap.get('heartbeats', 0)} heartbeats"
        )
        cols = (
            f"   {'spec':<44} {'prog':>4} {'cycle':>8}/{'target':<8} "
            f"{'pkts in/out':>13} {'cyc/s':>9} {'eta':>6} beat"
        )
        lines = [header, cols]
        lines += [self._format_row(st, now) for st in self._rows(snap)]
        if self._lines_drawn:
            stream.write(f"\x1b[{self._lines_drawn}F")  # cursor to block top
        for line in lines:
            stream.write("\x1b[2K" + line + "\n")
        # Shrinking table: blank any leftover rows, then hop back up.
        extra = self._lines_drawn - len(lines)
        if extra > 0:
            for _ in range(extra):
                stream.write("\x1b[2K\n")
            stream.write(f"\x1b[{extra}F")
        stream.flush()
        self._lines_drawn = len(lines)

    def _render_plain(self, snap: Dict[str, object]) -> None:
        """Single-line summary for non-TTY streams (CI logs)."""
        active = [
            st
            for st in (snap.get("runs") or {}).values()
            if st.get("phase") in ("run", "drain", "build")
        ]
        detail = ""
        if active:
            st = max(active, key=lambda s: s.get("cycle") or 0)
            progress = st.get("progress")
            pct = f" {progress * 100:.0f}%" if progress is not None else ""
            eta = st.get("eta_s")
            eta_s = f" eta {_fmt_eta(eta)}" if eta else ""
            detail = f" ({st.get('label')}{pct}{eta_s})"
        self.stream.write(
            f"live: {snap.get('done', 0)}/{snap.get('total', 0)} done, "
            f"{snap.get('inflight', 0)} running{detail}, "
            f"{snap.get('stalled', 0)} stalled\n"
        )
        self.stream.flush()
