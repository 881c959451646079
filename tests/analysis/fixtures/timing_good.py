"""timing fixture: timing through the repro.obs helpers (clean)."""

import time

from repro import obs
from repro.obs import Stopwatch, time_best

sw = Stopwatch()
work = sum(range(100))
elapsed = sw.elapsed()

with obs.span("fixture.region") as sp:
    more = sum(range(10))
duration = sp.seconds

best = time_best(lambda: sum(range(100)), repeats=2)

deadline = time.monotonic() + 5.0  # deadline arithmetic is not timing
