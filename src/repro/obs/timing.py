"""Wall-clock primitives — the only module that may call ``perf_counter``.

The layering table's ``timing`` row (``tests/test_layering.py``)
confines every reference to ``perf_counter`` to ``repro/obs/``;
everything else in the codebase times itself through the
:class:`Stopwatch`, :func:`time_best`, and ``obs.span`` helpers so that
timings land in the metrics tree instead of ad-hoc local variables.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Stopwatch", "now", "time_best"]


def now() -> float:
    """Monotonic high-resolution timestamp in seconds."""
    return time.perf_counter()


class Stopwatch:
    """A started-on-construction elapsed-time meter.

    Two method calls replace the ``t0 = perf_counter(); ...; perf_counter()
    - t0`` idiom: construct (or :meth:`restart`) at the start of the
    region, read :meth:`elapsed` at the end.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def restart(self) -> None:
        """Reset the origin to now."""
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`restart`."""
        return time.perf_counter() - self._t0


def time_best(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``.

    The minimum over repeats filters scheduler noise; this is the house
    measurement idiom for calibration and benchmarks.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
