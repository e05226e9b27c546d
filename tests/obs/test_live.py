"""The --live progress view: TTY table vs plain-stream fallback."""

import io

from repro.obs import LiveView


class FakeTty(io.StringIO):
    def isatty(self):
        return True


def snap(done=0, total=2, runs=None, **over):
    base = {
        "ts": 1700000000.0,
        "total": total,
        "done": done,
        "inflight": len(runs or {}),
        "stalled": 0,
        "heartbeats": 3,
        "runs": runs or {},
    }
    base.update(over)
    return base


def run_state(phase="run", **over):
    st = {
        "run": "ab12cd34ef56",
        "label": "own256/UN@0.03x1200",
        "phase": phase,
        "cycle": 600,
        "target_cycles": 1200,
        "progress": 0.5,
        "injected": 500,
        "ejected": 450,
        "cycles_per_sec": 400.0,
        "eta_s": 1.5,
        "stalled": False,
        "last_ts": 1700000000.0,
    }
    st.update(over)
    return st


class ManualClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestTtyTable:
    def test_table_rendered_in_place(self):
        stream = FakeTty()
        view = LiveView(stream=stream, clock=ManualClock())
        view.update(snap(runs={"ab12cd34ef56": run_state()}))
        out = stream.getvalue()
        assert "live: 0/2 done" in out
        assert "own256/UN@0.03x1200" in out
        assert " 50%" in out
        # First draw never moves the cursor up; subsequent draws do.
        assert "\x1b[" in out  # line-clear codes
        assert "F" not in out.split("own256")[0].split("\x1b[")[1]

    def test_redraw_moves_cursor_up(self):
        stream = FakeTty()
        clock = ManualClock()
        view = LiveView(stream=stream, clock=clock)
        view.update(snap(runs={"ab12cd34ef56": run_state()}))
        clock.t += 10
        view.update(snap(done=1, runs={"ab12cd34ef56": run_state("finished")}))
        assert "\x1b[3F" in stream.getvalue()  # header + cols + 1 row

    def test_throttling_skips_fast_redraw(self):
        stream = FakeTty()
        clock = ManualClock()
        view = LiveView(stream=stream, interval_s=0.2, clock=clock)
        view.update(snap())
        clock.t += 0.01
        view.update(snap(done=1))
        assert view.renders == 1
        clock.t += 1.0
        view.update(snap(done=1))
        assert view.renders == 2

    def test_stalled_run_marked(self):
        stream = FakeTty()
        view = LiveView(stream=stream, clock=ManualClock())
        state = run_state(stalled=True, last_ts=1699999990.0)
        view.update(snap(stalled=1, runs={"ab12cd34ef56": state}))
        assert "STALL" in stream.getvalue()

    def test_close_leaves_cursor_below_table(self):
        stream = FakeTty()
        view = LiveView(stream=stream, clock=ManualClock())
        view.update(snap())
        view.close(snap(done=2))
        assert stream.getvalue().endswith("\n")


class TestPlainStream:
    def test_single_line_summary(self):
        stream = io.StringIO()
        view = LiveView(stream=stream, clock=ManualClock())
        view.update(snap(runs={"ab12cd34ef56": run_state()}))
        out = stream.getvalue()
        assert out.count("\n") == 1
        assert "live: 0/2 done, 1 running" in out
        assert "own256/UN@0.03x1200" in out
        assert "\x1b[" not in out  # no ANSI on dumb streams

    def test_slower_cadence_than_tty(self):
        stream = io.StringIO()
        clock = ManualClock()
        view = LiveView(
            stream=stream, interval_s=0.2, plain_interval_s=5.0, clock=clock
        )
        view.update(snap())
        clock.t += 1.0  # beyond the TTY interval, below the plain one
        view.update(snap(done=1))
        assert view.renders == 1
