"""blocking_coroutine fixture: blocking calls inside coroutines.

Walked under a pretend ``src/repro/distributed/`` path, never imported.
Four findings: module-alias time.sleep, from-import sleep alias, sync
queue get, raw socket recv.
"""

import queue
import time
from time import sleep as snooze

inbox_queue = queue.Queue()


async def tick_loop() -> None:
    time.sleep(0.05)  # finding: blocks the loop


async def drain(sock) -> bytes:
    item = inbox_queue.get(block=True)  # finding: sync queue get
    data = sock.recv(4096)  # finding: raw socket recv
    snooze(1)  # finding: from-import alias of time.sleep
    return item, data
