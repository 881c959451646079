"""A hand-rolled seqlock retry loop that blocks (the shm read-loop guard flags it)."""

import time

_SEQLOCK_MAX_TRIES = 200_000


def read_row(ver, arr, u):
    for attempt in range(_SEQLOCK_MAX_TRIES):
        v0 = int(ver[u])
        if v0 & 1:
            _spin(attempt)
            continue
        row = fetch(arr, u)  # transitively blocking callee
        time.sleep(0.01)  # direct blocking call inside the retry loop
        if int(ver[u]) == v0:
            return row
        _spin(attempt)


def fetch(arr, u):
    return work_q.get()  # a queue get can park the reader forever
