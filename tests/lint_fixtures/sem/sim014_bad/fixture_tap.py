# simlint-path: src/repro/lint/perf/fixture_tap.py
"""An engine tap for the SIM014 bad twin: repro.lint.perf holds taps,
so its on_* methods are protocol too."""


class FixtureTap:
    def fire(self, time: float, priority: int, callback, args: tuple) -> None:
        callback(*args)

    def on_settled(self) -> None:  # EXPECT: SIM014
        """Defined, but nothing fires it."""
