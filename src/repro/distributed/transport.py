"""Transports for the actor tier: loopback, TCP and Unix-domain streams.

The lock-step :class:`~repro.distributed.simulator.SyncNetwork` delivers
messages by list-append; the actor tier instead sends *frames* through a
:class:`Transport`, so the same protocol code runs deterministically
in-process (:class:`LoopbackTransport`) and over real sockets
(:class:`TcpTransport` / :class:`UdsTransport`).  All three share one
contract:

* every frame is :mod:`~repro.distributed.codec` bytes — byte and
  link-unit accounting lands in a :class:`~repro.distributed.metrics.WireStats`
  with the same ruler the simulator uses;
* the fault plane's :func:`repro.faults.on_wire_send` is consulted per
  frame *before* transmission, so ``lsa.drop``/``lsa.delay`` plans
  behave identically on loopback and sockets (delays are measured in
  transport rounds — virtual time — released by :meth:`Transport.tick`);
* delivery order between a fixed (src, dst) pair is FIFO; the loopback
  transport is additionally globally deterministic (single process, no
  scheduler races), which is what the convergence property suite runs on.

The stream transports are hub-and-spoke: one asyncio server routes
length-prefixed frames between per-endpoint client connections.  All
endpoints live in the calling process (the tier is an actor
architecture, not a deployment), so :meth:`Transport.pending` can count
in-flight frames exactly — the quiescence detector depends on it.

No blocking primitive (``time.sleep``, sync queue ``get``, raw
``socket.recv``) appears in this module's coroutines — only ``asyncio``
awaitables; the layering table's ``blocking_coroutine`` row
(``tests/test_layering.py``) guards the package.
"""

from __future__ import annotations

import asyncio
import os
import struct
import tempfile
from collections import deque

from .. import faults
from ..errors import ProtocolError
from . import codec
from .metrics import WireStats

__all__ = [
    "LoopbackTransport",
    "TcpTransport",
    "Transport",
    "UdsTransport",
    "make_transport",
]

_HEADER = struct.Struct(">II")  # frame: payload length, destination id


class Transport:
    """Common frame plumbing: codec accounting, fault verdicts, delay queue.

    Subclasses implement :meth:`_transmit` (move encoded bytes toward
    *dst*'s inbox) and may extend :meth:`start`/:meth:`close`/:meth:`_drain`.
    """

    def __init__(self) -> None:
        self.stats = WireStats()
        self._round = 0
        self._inboxes: "dict[int, deque]" = {}
        # (release round, insertion index, dst, bytes): index keeps the
        # release order deterministic among frames maturing together.
        self._delayed: "list[tuple[int, int, int, bytes]]" = []
        self._delay_counter = 0

    # -- lifecycle ----------------------------------------------------- #

    def register(self, endpoint: int) -> None:
        """Declare *endpoint* before :meth:`start`; creates its inbox."""
        if endpoint in self._inboxes:
            raise ProtocolError(f"endpoint {endpoint} registered twice")
        self._inboxes[int(endpoint)] = deque()

    def endpoints(self) -> "tuple[int, ...]":
        return tuple(sorted(self._inboxes))

    async def start(self) -> None:
        """Bring up transport machinery (servers, connections)."""

    async def close(self) -> None:
        """Tear down transport machinery."""

    # -- data path ----------------------------------------------------- #

    async def send(self, src: int, dst: int, message) -> None:
        """Frame *message* toward *dst*, subject to the fault plane."""
        if dst not in self._inboxes:
            raise ProtocolError(f"send to unregistered endpoint {dst}")
        data = codec.encode(message)
        verdict, amount = ("send", 0.0)
        if faults.active:
            verdict, amount = faults.on_wire_send(codec.kind_of(message))
        if verdict == "drop":
            self.stats.record_dropped()
            return
        if verdict == "delay":
            self.stats.record_delayed()
            release = self._round + max(1, int(amount))
            self._delayed.append((release, self._delay_counter, dst, data))
            self._delay_counter += 1
            return
        self.stats.record_send(len(data), codec.link_units(message))
        await self._transmit(src, dst, data)

    async def recv_all(self, endpoint: int) -> list:
        """Drain and return *endpoint*'s currently-delivered messages."""
        inbox = self._inboxes[endpoint]
        out = list(inbox)
        inbox.clear()
        return out

    async def tick(self) -> None:
        """Advance one transport round: release matured delays, settle."""
        self._round += 1
        self.stats.record_round()
        due = sorted(d for d in self._delayed if d[0] <= self._round)
        self._delayed = [d for d in self._delayed if d[0] > self._round]
        for _release, _idx, dst, data in due:
            # A delayed frame is counted when it finally transmits.
            self.stats.record_send(len(data), codec.link_units(codec.decode(data)))
            await self._transmit(-1, dst, data)
        await self._drain()

    def pending(self) -> int:
        """Frames accepted but not yet readable from any inbox."""
        return len(self._delayed) + self._in_flight()

    # -- subclass surface ---------------------------------------------- #

    async def _transmit(self, src: int, dst: int, data: bytes) -> None:
        raise NotImplementedError

    async def _drain(self) -> None:
        """Let in-flight frames settle into inboxes (no-op on loopback)."""

    def _in_flight(self) -> int:
        return 0


class LoopbackTransport(Transport):
    """In-process transport: encode → decode → inbox, zero scheduling.

    Every frame still round-trips through the codec (a loopback run
    exercises exactly the bytes a socket run would carry), but delivery
    is an immediate append — the transport the deterministic convergence
    suite and the wire benchmark run on.
    """

    async def _transmit(self, src: int, dst: int, data: bytes) -> None:
        self._inboxes[dst].append(codec.decode(data))


class _StreamTransport(Transport):
    """Hub-and-spoke asyncio streams: one router, one connection per endpoint.

    Frames are ``>II``-prefixed (payload length, destination id).  Each
    endpoint's first frame registers its id with the router; thereafter
    the router forwards every frame to the destination's connection and
    a per-endpoint reader task decodes arrivals into the local inbox.
    """

    def __init__(self) -> None:
        super().__init__()
        self._server: "asyncio.AbstractServer | None" = None
        self._writers: "dict[int, asyncio.StreamWriter]" = {}  # client side
        self._route: "dict[int, asyncio.StreamWriter]" = {}  # router side
        self._readers: "list[asyncio.Task]" = []
        self._router_tasks: "set[asyncio.Task]" = set()
        self._sent = 0
        self._delivered = 0

    # subclasses provide the listening socket
    async def _serve(self, handler) -> "asyncio.AbstractServer":
        raise NotImplementedError

    async def _connect(self) -> "tuple[asyncio.StreamReader, asyncio.StreamWriter]":
        raise NotImplementedError

    async def start(self) -> None:
        self._server = await self._serve(self._route_connection)
        for endpoint in self.endpoints():
            reader, writer = await self._connect()
            writer.write(_HEADER.pack(0, endpoint))  # registration frame
            await writer.drain()
            self._writers[endpoint] = writer
            task = asyncio.ensure_future(self._pump_inbox(endpoint, reader))
            self._readers.append(task)
        # Barrier: a frame sent before the router has processed its
        # destination's registration would be dropped on the floor and
        # wedge the exact in-flight accounting — wait them all in.
        for _ in range(400):
            if len(self._route) == len(self._inboxes):
                return
            await asyncio.sleep(0.005)
        raise ProtocolError(
            f"router registered {len(self._route)}/{len(self._inboxes)} endpoints"
        )

    async def _route_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._router_tasks.add(task)
        try:
            head = await reader.readexactly(_HEADER.size)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        length, endpoint = _HEADER.unpack(head)
        if length:  # registration frames carry no payload
            writer.close()
            return
        self._route[endpoint] = writer
        try:
            while True:
                head = await reader.readexactly(_HEADER.size)
                length, dst = _HEADER.unpack(head)
                payload = await reader.readexactly(length) if length else b""
                out = self._route.get(dst)
                if out is not None:
                    out.write(_HEADER.pack(length, dst) + payload)
                    await out.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            pass  # transport shutdown; the server's done-callback must not re-raise

    async def _pump_inbox(self, endpoint: int, reader) -> None:
        try:
            while True:
                head = await reader.readexactly(_HEADER.size)
                length, _dst = _HEADER.unpack(head)
                payload = await reader.readexactly(length) if length else b""
                self._inboxes[endpoint].append(codec.decode(payload))
                self._delivered += 1
        except (asyncio.IncompleteReadError, ConnectionError):
            pass

    async def _transmit(self, src: int, dst: int, data: bytes) -> None:
        # Delayed releases carry src=-1; any connection may carry them.
        writer = self._writers.get(src) or next(iter(self._writers.values()))
        writer.write(_HEADER.pack(len(data), dst) + data)
        await writer.drain()
        self._sent += 1

    def _in_flight(self) -> int:
        return self._sent - self._delivered

    async def _drain(self) -> None:
        # All endpoints share this process: in-flight counts are exact,
        # so settle until the router and inbox pumps catch up.
        for _ in range(400):
            if not self._in_flight():
                return
            await asyncio.sleep(0.005)
        raise ProtocolError(
            f"stream transport failed to settle: {self._in_flight()} frames in flight"
        )

    async def close(self) -> None:
        for task in (*self._readers, *self._router_tasks):
            task.cancel()
        await asyncio.gather(
            *self._readers, *self._router_tasks, return_exceptions=True
        )
        for writer in self._writers.values():
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._writers.clear()
        self._route.clear()
        self._readers.clear()
        self._router_tasks.clear()


class TcpTransport(_StreamTransport):
    """Stream transport over a localhost TCP socket (ephemeral port)."""

    def __init__(self, host: str = "127.0.0.1") -> None:
        super().__init__()
        self.host = host
        self.port: "int | None" = None

    async def _serve(self, handler):
        server = await asyncio.start_server(handler, self.host, 0)
        self.port = server.sockets[0].getsockname()[1]
        return server

    async def _connect(self):
        return await asyncio.open_connection(self.host, self.port)


class UdsTransport(_StreamTransport):
    """Stream transport over a Unix-domain socket in a private tempdir."""

    def __init__(self, path: "str | None" = None) -> None:
        super().__init__()
        self._tmpdir: "str | None" = None
        if path is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-uds-")
            path = os.path.join(self._tmpdir, "wire.sock")
        self.path = path

    async def _serve(self, handler):
        return await asyncio.start_unix_server(handler, self.path)

    async def _connect(self):
        return await asyncio.open_unix_connection(self.path)

    async def close(self) -> None:
        await super().close()
        try:
            os.unlink(self.path)
        except OSError:
            pass
        if self._tmpdir is not None:
            try:
                os.rmdir(self._tmpdir)
            except OSError:
                pass


def make_transport(name: str) -> Transport:
    """The transport the CLI's ``--transport {loop,tcp,uds}`` names."""
    if name == "loop":
        return LoopbackTransport()
    if name == "tcp":
        return TcpTransport()
    if name == "uds":
        return UdsTransport()
    raise ProtocolError(f"unknown transport {name!r} (want loop, tcp or uds)")
