"""Real socket transport: the same wire frames and handlers over TCP.

Client side, ``RealNetwork`` keeps a pool of idle connections per
destination. A request takes an idle connection, or opens one when none is
idle (a timer thread's ``ANNOUNCE`` and the client's request may each hold
their own), and returns it only after a whole reply has arrived; any failure
closes it instead, so a late reply is never read as the answer to a later
request. ``post`` sets the frame's ``NO_REPLY`` bit and returns once the
frame is sent. Server side, each node runs one thread: a ``selectors`` loop
that accepts connections, buffers each one's bytes without blocking, and
handles every complete frame in arrival order, so handlers are serialized
per node and one peer's half-sent frame stalls no other. ``wire`` alone knows
the frame layout: its ``frame_len`` and ``wants_reply`` read the header.
Client-side latency estimates come from PING round trips smoothed with
alpha = 0.5.

Time is the wall clock. Modelled costs (server compute charged through
``ctx.consume``, the client's cache bookkeeping) go to ``WallClock.charge``,
which returns at once: real work already takes real time. Only ``advance``
waits, and only the client's reroute backoff calls it.
"""

from __future__ import annotations

import selectors
import socket
import sys
import threading
import time

from .directory import DIRECTORY_ADDR, ServerInfo
from .errors import ConnectionFailed, MessageDropped, ProtocolError, Unreachable
from .netsim import HandlerContext, NetProfile
from .wire import (Announce, HEADER_LEN, Ping, Pong, WireMessage, decode_frame, encode_frame,
                   frame_len, wants_reply)

RTT_SMOOTH_ALPHA = 0.5
RECV_BYTES = 1 << 16     # a listener's read per readiness event


class WallClock:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timers: list[threading.Timer] = []
        self._stopped = False

    @property
    def now(self) -> float:
        return time.monotonic()

    def advance(self, dt: float) -> None:
        time.sleep(max(0.0, dt))

    def advance_to(self, t: float) -> None:
        time.sleep(max(0.0, t - self.now))

    def charge(self, dt: float) -> None:
        """Modelled work time costs nothing here: real work already spent
        real time."""

    def schedule(self, t: float, fn) -> None:
        timer = threading.Timer(max(0.0, t - self.now), fn)
        timer.daemon = True
        with self._lock:
            if self._stopped:
                return
            self._timers = [tm for tm in self._timers if tm.is_alive()]
            self._timers.append(timer)
            timer.start()

    def stop(self) -> None:
        """Cancel every pending timer, wait for any that is running, and
        refuse new ones."""
        with self._lock:
            self._stopped = True
        for timer in self._timers:
            timer.cancel()
            timer.join()


def _recv_exact(conn: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            raise ConnectionFailed("peer closed the connection")
        buf += chunk
    return buf


def _recv_frame(conn: socket.socket) -> WireMessage:
    head = _recv_exact(conn, HEADER_LEN)
    rest = _recv_exact(conn, frame_len(head) - HEADER_LEN)
    msg, _ = decode_frame(head + rest)
    return msg


class RealNetwork:
    """Duck-typed drop-in for SimNetwork over loopback/LAN TCP."""

    measures_rtt = True   # clients ping candidates during routing

    def __init__(self, timeout_s: float = 5.0):
        self.clock = WallClock()
        self.timeout_s = timeout_s
        self._addrs: dict[str, tuple[str, int]] = {}
        self._listeners: dict[str, "_Listener"] = {}
        self._rtt_ms: dict[str, float] = {}
        self._idle: dict[str, list[socket.socket]] = {}   # pooled connections per destination
        self._pool_lock = threading.Lock()
        self._closed = False
        self._ctx = HandlerContext(self)   # what every listener hands its handler

    def register(self, name: str, handler, host: str = "127.0.0.1",
                 port: int = 0) -> tuple[str, int]:
        lst = _Listener(self, name, handler, host, port)
        self._listeners[name] = lst
        self._addrs[name] = lst.bound
        with self._pool_lock:
            stale = self._idle.pop(name, [])
        for conn in stale:
            conn.close()
        lst.start()
        return lst.bound

    def online(self, name: str, t: float | None = None) -> bool:
        return name in self._addrs

    def profile_of(self, name: str) -> NetProfile:
        return NetProfile(rtt_ms=self._rtt_ms.get(name, 1.0))

    def shutdown(self) -> None:
        self.clock.stop()
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()
        for lst in self._listeners.values():
            lst.stop()

    # -- traffic ----------------------------------------------------------------

    def _connect(self, dst: str) -> socket.socket:
        addr = self._addrs.get(dst)
        if addr is None:
            raise ConnectionFailed(f"unknown endpoint {dst}")
        try:
            conn = socket.create_connection(addr, timeout=self.timeout_s)
        except OSError as e:
            raise ConnectionFailed(f"{dst}: {e}") from e
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _exchange(self, dst: str, frame: bytes, reply: bool) -> WireMessage | None:
        """Send ``frame`` on a pooled connection to ``dst`` and, with
        ``reply``, read the answer. The connection goes back to the pool only
        after a whole exchange; on any failure it is closed."""
        with self._pool_lock:
            idle = self._idle.get(dst)
            conn = idle.pop() if idle else None
        if conn is None:
            conn = self._connect(dst)
        try:
            conn.sendall(frame)
            answer = _recv_frame(conn) if reply else None
        except socket.timeout as e:
            conn.close()
            raise MessageDropped(f"no reply from {dst}") from e
        except OSError as e:
            conn.close()
            raise ConnectionFailed(f"{dst}: {e}") from e
        except BaseException:
            conn.close()
            raise
        with self._pool_lock:
            pooled = not self._closed
            if pooled:
                self._idle.setdefault(dst, []).append(conn)
        if not pooled:
            conn.close()
        return answer

    def rpc(self, src: str, dst: str, msg: WireMessage) -> WireMessage:
        return self._exchange(dst, encode_frame(msg), reply=True)

    def post(self, src: str, dst: str, msg: WireMessage) -> bool:
        """Send without waiting: the frame asks for no reply."""
        self._exchange(dst, encode_frame(msg, reply=False), reply=False)
        return True

    def ping(self, src: str, dst: str) -> float:
        t0 = time.monotonic()
        try:
            reply = self.rpc(src, dst, WireMessage(Ping()))
        except (ConnectionFailed, MessageDropped) as e:
            raise Unreachable(str(e)) from e
        if not isinstance(reply.payload, Pong):
            raise Unreachable(f"{dst} answered {reply.kind.name}")
        rtt = (time.monotonic() - t0) * 1000.0
        prev = self._rtt_ms.get(dst)
        self._rtt_ms[dst] = rtt if prev is None else (
            RTT_SMOOTH_ALPHA * rtt + (1 - RTT_SMOOTH_ALPHA) * prev)
        return self._rtt_ms[dst]

    def total_bytes(self) -> int:
        """Frames the listeners received and the replies they wrote."""
        return sum(l.bytes_seen for l in self._listeners.values())


class _Listener:
    """One node's server: a thread running a selector loop over the listening
    socket, a wake-up socket and every accepted connection."""

    def __init__(self, net: RealNetwork, name: str, handler, host: str, port: int):
        self.net = net
        self.name = name
        self.handler = handler
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(32)
        self._sock.setblocking(False)
        self.bound = self._sock.getsockname()
        self._wake_r, self._wake_w = socket.socketpair()
        self.bytes_seen = 0

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name=f"swarmpipe-{self.name}")
        self._thread.start()

    def stop(self) -> None:
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass   # the loop has already ended and closed its end
        self._thread.join()
        self._wake_w.close()

    def _serve(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._sock, selectors.EVENT_READ)
        sel.register(self._wake_r, selectors.EVENT_READ)
        try:
            while True:
                for key, _ in sel.select():
                    sock = key.fileobj
                    if sock is self._wake_r:
                        return
                    if sock is self._sock:
                        self._accept(sel)
                    elif not self._receive(sock, key.data):
                        sel.unregister(sock)
                        sock.close()
        finally:
            # however the loop ends, peers see EOF rather than a timeout
            for key in list(sel.get_map().values()):
                key.fileobj.close()
            sel.close()

    def _accept(self, sel: selectors.BaseSelector) -> None:
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return   # the peer gave up before the accept
        # reads happen only when the selector reports data; the timeout
        # bounds a reply's send to a peer that stopped reading
        conn.settimeout(self.net.timeout_s)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sel.register(conn, selectors.EVENT_READ, bytearray())

    def _receive(self, conn: socket.socket, buf: bytearray) -> bool:
        """Read what has arrived on ``conn`` and handle every complete frame
        in ``buf``; False when the connection is to be closed (EOF, reset, a
        malformed frame, a handler error, a failed reply)."""
        try:
            chunk = conn.recv(RECV_BYTES)
        except OSError:
            return False
        if not chunk:
            return False
        buf += chunk
        while len(buf) >= HEADER_LEN:
            try:
                end = frame_len(buf)   # refuses a bad magic before any length is waited for
                if len(buf) < end:
                    break
                frame = bytes(buf[:end])
                del buf[:end]
                msg, _ = decode_frame(frame)
            except ProtocolError:
                return False
            try:
                reply = self.handler.handle(msg, self.net._ctx)
            except Exception:
                # a request the handler cannot serve costs its connection,
                # not the node; the error is reported as a thread's would be
                threading.excepthook(threading.ExceptHookArgs(
                    (*sys.exc_info(), threading.current_thread())))
                return False
            out = b""
            if reply is not None and wants_reply(frame):
                reply.session_id = msg.session_id
                out = encode_frame(reply)
            self.bytes_seen += end + len(out)
            if out:
                try:
                    conn.sendall(out)
                except OSError:
                    return False   # the peer reset, went away or stopped reading
        return True


class DirectoryClient:
    """Snapshot view of a remote directory (the ANNOUNCE dump convention)."""

    def __init__(self, net: RealNetwork, client_name: str = "client"):
        self.net = net
        self.client_name = client_name

    def snapshot(self) -> list[ServerInfo]:
        reply = self.net.rpc(self.client_name, DIRECTORY_ADDR, WireMessage(Announce({})))
        if not isinstance(reply.payload, Announce):
            raise ProtocolError(f"directory answered {reply.kind.name}")
        return [ServerInfo.from_dict(d) for d in reply.payload.record["servers"]]
