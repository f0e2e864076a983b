# simlint-path: src/repro/lint/perf/fixture_tap.py
"""An engine tap for the SIM014 good twin: its hook fires from fire()."""


class FixtureTap:
    def fire(self, time: float, priority: int, callback, args: tuple) -> None:
        callback(*args)
        self.on_fired(callback)

    def on_fired(self, callback: object) -> None:
        """Fired by the tap's own fire(), through self."""
