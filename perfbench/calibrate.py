"""Host-speed calibration of the timed loops.

The host the benchmark was built on is a shared two-vCPU VM whose speed
drifts by up to 2x, over seconds and over minutes: a corpus pass took
0.8 s or 1.7 s with nothing changed, and whole runs of the same code spread
by 25-30% (interquartile range over median).  No run length averages that
out.  So each timed loop also runs a fixed calibration unit, every
``INTERVAL_S``: ``ast.unparse`` of a fixed syntax tree, pure-Python
standard-library code that no change to this repository touches, with the
cyclic garbage collector paused so the program's heap does not bill it.
An operation's latency is scaled by ``REFERENCE_S`` over the median
duration of the ``WINDOW`` calibration units nearest to it in time.  The
operation timings therefore read as seconds on a host on which the unit
takes ``REFERENCE_S``: a change that makes the program slower scales them
up, a busier host does not.  Measured on that host over 200 s of corpus
parsing, scaled 20-second windows spread 0.015 where raw ones spread 0.32.
"""

from __future__ import annotations

import ast
import bisect
import gc
import time

#: Seconds between calibration units; one unit takes about 2 ms.
INTERVAL_S = 0.05
#: Calibration units whose median scales an operation.
WINDOW = 5
#: Nominal duration of one unit: about its median on the host above.
REFERENCE_S = 0.002


def _source() -> str:
    """A fixed module: eight functions with nested control flow,
    comprehensions, calls, literals and f-strings."""
    lines = []
    for index in range(8):
        lines += [
            f"def f{index}(items, limit={index}, *args, key=None, **kwargs):",
            '    """Docstring."""',
            "    total = {'a': [1, 2.5, 'x'], 'b': (None, True)}",
            "    for position, item in enumerate(items):",
            "        if item > limit and not key or position % 3 == 1:",
            "            total[item] = [x * 2 for x in range(item) if x]",
            "        elif item is None:",
            "            continue",
            "        else:",
            "            yield f'{item!r:>10} {position}'",
            "    try:",
            "        return sorted(total, key=lambda k: (k, -limit))[::2]",
            "    except (KeyError, ValueError) as exc:",
            "        raise RuntimeError(str(exc)) from exc",
            "",
        ]
    return "\n".join(lines)


class Calibrator:
    """Runs the calibration unit between operations and scales their times."""

    def __init__(self) -> None:
        self.tree = ast.parse(_source())
        #: Midpoint and duration of each unit, in time order.
        self.mids: list[float] = []
        self.durations: list[float] = []
        for _ in range(3):
            ast.unparse(self.tree)  # warm up
        self.last = float("-inf")
        self.probe()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= INTERVAL_S

    def tick(self) -> None:
        """Run a unit when ``INTERVAL_S`` has passed since the last one."""
        if self.due():
            self.probe()

    def probe(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            ast.unparse(self.tree)
            self.last = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.mids.append((started + self.last) / 2)
        self.durations.append(self.last - started)

    def unit_at(self, moment: float) -> float:
        """Median duration of the ``WINDOW`` units nearest ``moment``."""
        count = len(self.mids)
        start = bisect.bisect_left(self.mids, moment) - WINDOW // 2
        start = max(0, min(start, count - WINDOW))
        window = sorted(self.durations[start:start + WINDOW])
        return window[len(window) // 2]

    def scale(self, duration: float, start: float) -> float:
        """``duration`` (which began at ``start``) at the reference speed."""
        return duration * REFERENCE_S / self.unit_at(start + duration / 2)

    @property
    def median_unit_s(self) -> float:
        ordered = sorted(self.durations)
        return ordered[len(ordered) // 2]


def scale_just_ended(duration: float, start: float) -> float:
    """``duration``, which began at ``start`` and ended just now, at the
    reference speed; ``WINDOW`` units run now stand in for the host's speed
    during it (the speed holds for seconds, set-up takes about one)."""
    calibrator = Calibrator()
    for _ in range(WINDOW - 1):
        calibrator.probe()
    return calibrator.scale(duration, start)
