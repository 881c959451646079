"""blocking_coroutine fixture: the loop-safe coroutine idiom (clean).

Walked under a pretend ``src/repro/distributed/`` path, never imported.
Awaited asyncio primitives, ``_nowait`` variants, ``dict.get`` on plain
names, sync helpers, and nested defs are all allowed.
"""

import asyncio
import queue
import time

inbox = asyncio.Queue()
backlog_queue = queue.Queue()


def sync_helper() -> None:
    time.sleep(0.01)  # plain function: only coroutines are guarded


async def pump(reader, writers: dict):
    await asyncio.sleep(0.01)  # awaited: the loop keeps scheduling
    item = await inbox.get()  # awaited asyncio.Queue
    try:
        extra = backlog_queue.get_nowait()  # non-blocking variant
    except queue.Empty:
        extra = None
    writer = writers.get(0)  # dict.get on a plain name stays clean
    data = await reader.readexactly(4)  # asyncio streams, not socket.recv

    def executor_target() -> None:
        time.sleep(0.2)  # nested def runs off-loop (executor target)

    return item, extra, writer, data, executor_target
