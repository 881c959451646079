"""timing fixture: bare perf_counter timing outside repro/obs, every spelling."""

import time
from time import perf_counter
from time import perf_counter as clock

t0 = time.perf_counter()
work = sum(range(100))
elapsed = time.perf_counter() - t0
t_bare = perf_counter()
t_ns = time.perf_counter_ns()
t_alias = clock()
tick = time.perf_counter
