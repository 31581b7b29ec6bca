"""Real socket transport: the same wire frames and handlers over TCP.

One listener thread per node, one worker thread per accepted connection;
handler execution is serialized per node with a lock (sessions stay isolated,
and node-level concurrency is not what this artifact benchmarks). Client-side
latency estimates come from PING round trips smoothed with alpha = 0.5.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

from .directory import DirectoryBoard, DirectoryHandler, ServerInfo
from .errors import ConnectionFailed, MessageDropped, ProtocolError, Unreachable
from .netsim import HandlerContext, NetProfile
from .wire import (Announce, HEADER_LEN, Ping, Pong, TRAILER_LEN, WireMessage,
                   decode_frame, encode_frame, framed_nbytes)

RTT_SMOOTH_ALPHA = 0.5


class WallClock:
    @property
    def now(self) -> float:
        return time.monotonic()

    def advance(self, dt: float) -> None:
        time.sleep(max(0.0, dt))

    def advance_to(self, t: float) -> None:
        time.sleep(max(0.0, t - self.now))

    def next_event_time(self):
        return None

    def schedule(self, t: float, fn) -> None:
        timer = threading.Timer(max(0.0, t - self.now), fn)
        timer.daemon = True
        timer.start()


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
    plen = int.from_bytes(head[21:29], "little")
    rest = _recv_exact(conn, plen + TRAILER_LEN)
    msg, _ = decode_frame(head + rest)
    return msg


class _HandlerCtx(HandlerContext):
    def consume(self, seconds: float) -> None:
        pass   # real compute spends real time


class RealNetwork:
    """Duck-typed drop-in for SimNetwork over loopback/LAN TCP."""

    measures_rtt = True   # clients ping candidates during routing

    def __init__(self, timeout_s: float = 5.0):
        self.clock = WallClock()
        self.timeout_s = timeout_s
        self._addrs: dict[str, tuple[str, int]] = {}
        self._listeners: dict[str, "_Listener"] = {}
        self._rtt_ms: dict[str, float] = {}

    def register(self, name: str, handler, host: str = "127.0.0.1", port: int = 0,
                 **_ignored) -> tuple[str, int]:
        lst = _Listener(self, name, handler, host, port)
        self._listeners[name] = lst
        self._addrs[name] = lst.bound
        lst.start()
        return lst.bound

    def attach(self, name: str, host: str, port: int) -> None:
        """Point a logical name at a remote node we did not start."""
        self._addrs[name] = (host, port)

    def online(self, name: str, t: float | None = None) -> bool:
        return name in self._addrs

    def profile_of(self, name: str) -> NetProfile:
        return NetProfile(rtt_ms=self._rtt_ms.get(name, 1.0))

    def shutdown(self) -> None:
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
        return conn

    def rpc(self, src: str, dst: str, msg: WireMessage) -> WireMessage:
        with self._connect(dst) as conn:
            conn.sendall(encode_frame(msg))
            try:
                return _recv_frame(conn)
            except socket.timeout as e:
                raise MessageDropped(f"no reply from {dst}") from e

    def post(self, src: str, dst: str, msg: WireMessage) -> bool:
        with self._connect(dst) as conn:
            conn.sendall(encode_frame(msg))
        return True

    def ping(self, src: str, dst: str, deadline_s: float = 5.0) -> float:
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
        return sum(l.bytes_seen for l in self._listeners.values())


class _Listener:
    def __init__(self, net: RealNetwork, name: str, handler, host: str, port: int):
        self.net = net
        self.name = name
        self.handler = handler
        self._lock = threading.Lock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(32)
        self.bound = self._sock.getsockname()
        self._stop = threading.Event()
        self.bytes_seen = 0

    def start(self) -> None:
        t = threading.Thread(target=self._accept_loop, daemon=True,
                             name=f"swarmpipe-{self.name}")
        t.start()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        conn.settimeout(self.net.timeout_s)
        with conn:
            while not self._stop.is_set():
                try:
                    msg = _recv_frame(conn)
                except (ConnectionFailed, ProtocolError, OSError):
                    return   # bad, closed or reset stream: drop the connection
                with self._lock:
                    reply = self.handler.handle(msg, _HandlerCtx(self.net, "peer", self.name))
                frame = b""
                if reply is not None:
                    reply.session_id = msg.session_id
                    frame = encode_frame(reply)
                with self._lock:
                    self.bytes_seen += framed_nbytes(msg) + len(frame)
                try:
                    conn.sendall(frame)
                except OSError:
                    return   # the peer reset or went away before the reply


class DirectoryClient:
    """Snapshot view of a remote directory (the ANNOUNCE dump convention)."""

    def __init__(self, net: RealNetwork, name: str = "directory",
                 client_name: str = "client"):
        self.net = net
        self.name = name
        self.client_name = client_name

    def snapshot(self) -> list[ServerInfo]:
        reply = self.net.rpc(self.client_name, self.name, WireMessage(Announce({})))
        if not isinstance(reply.payload, Announce):
            raise ProtocolError(f"directory answered {reply.kind.name}")
        return [ServerInfo.from_dict(d) for d in reply.payload.record["servers"]]
