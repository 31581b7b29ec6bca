"""Real TCP transport smoke tests (loopback)."""

import socket
import struct
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from swarmpipe.client import FinetuneSession, SwarmClient
from swarmpipe.directory import DirectoryBoard, DirectoryHandler
from swarmpipe.errors import ConnectionFailed, MessageDropped, ProtocolError
from swarmpipe.model import ModelConfig, init_model, reference_generate
from swarmpipe.realnet import DirectoryClient, RealNetwork, _recv_frame
from swarmpipe.server import BlockServer, RealServerEngine, ServerCfg
from swarmpipe.swarm import stage_intervals
from swarmpipe.wire import (FRAME_OVERHEAD, MAGIC, MAX_FRAME_LEN, Close, Error, HiddenBlob, Kind,
                            OpenSession, Ping, Pong, Step, WireMessage, encode_frame, fnv1a64,
                            framed_nbytes)


@pytest.fixture()
def tcp_swarm():
    cfg = ModelConfig(seed=1)
    net = RealNetwork(timeout_s=5.0)
    board = DirectoryBoard(cfg.n_blocks, lambda: net.clock.now)
    net.register("directory", DirectoryHandler(board))
    blocks = init_model(cfg)[0]
    for si, (a, b) in enumerate(stage_intervals(cfg.n_blocks, 2)):
        srv = BlockServer(ServerCfg(f"s{si}", b - a, a),
                          RealServerEngine(cfg, blocks), net, board)
        net.register(f"s{si}", srv)
        srv.start_timers()
    time.sleep(0.2)   # announcements over real sockets
    yield cfg, net
    net.shutdown()


def test_generation_over_tcp_matches_oracle(tcp_swarm):
    cfg, net = tcp_swarm
    client = SwarmClient("cli", cfg, net, DirectoryClient(net, client_name="cli"))
    res = client.generate([9, 8, 7], 12)
    assert res.tokens == reference_generate(cfg, [9, 8, 7], 12)


def test_generation_over_tcp_never_sleeps(tcp_swarm, monkeypatch):
    """Modelled costs are charged, not slept: the client's per-step cache
    bookkeeping and the servers' compute take no wall time on TCP."""
    cfg, net = tcp_swarm
    client = SwarmClient("cli", cfg, net, DirectoryClient(net, client_name="cli"))
    sleeps = []
    monkeypatch.setattr("swarmpipe.realnet.time.sleep", sleeps.append)
    res = client.generate([9, 8, 7], 12)
    assert res.tokens == reference_generate(cfg, [9, 8, 7], 12)
    assert sleeps == []


def test_directory_dump_over_tcp(tcp_swarm):
    cfg, net = tcp_swarm
    view = DirectoryClient(net, client_name="probe")
    recs = sorted(r.server_id for r in view.snapshot())
    assert recs == ["s0", "s1"]


def test_ping_smooths_rtt(tcp_swarm):
    cfg, net = tcp_swarm
    first = net.ping("cli", "s0")
    second = net.ping("cli", "s0")
    assert first > 0 and second > 0
    assert net.profile_of("s0").rtt_ms == second


def test_finetune_step_over_tcp(tcp_swarm):
    cfg, net = tcp_swarm
    client = SwarmClient("cli2", cfg, net, DirectoryClient(net, client_name="cli2"))
    ft = FinetuneSession(client, n_labels=4, prompt_len=2, lr=0.3, init_seed=0)
    rng = np.random.default_rng(0)
    batch = rng.integers(0, 256, (4, 4))
    loss0 = ft.step(batch, (batch[:, -1] % 4).astype(np.intp))
    assert np.isfinite(loss0)


def test_unknown_endpoint_is_connection_error(tcp_swarm):
    cfg, net = tcp_swarm
    with pytest.raises(ConnectionFailed):
        net.rpc("cli", "nope", WireMessage(Ping()))


def test_corrupt_frame_rejected_by_peer(tcp_swarm):
    """A tampered payload fails the frame checksum server-side; the connection
    just closes without a reply."""
    cfg, net = tcp_swarm
    raw = bytearray(encode_frame(WireMessage(Ping(), 5)))
    host, port = net._addrs["s0"]
    with socket.create_connection((host, port), timeout=2.0) as conn:
        # corrupt the trailer checksum
        raw[-1] ^= 0xFF
        conn.sendall(bytes(raw))
        conn.settimeout(1.0)
        try:
            got = conn.recv(64)
        except socket.timeout:
            got = b""
        assert got == b""


def test_total_bytes_counts_request_and_reply(tcp_swarm):
    cfg, net = tcp_swarm
    before = net.total_bytes()
    net.ping("cli", "s0")
    assert net.total_bytes() - before == (framed_nbytes(WireMessage(Ping()))
                                          + framed_nbytes(WireMessage(Pong()))) == 74


def test_peer_reset_closes_the_stream_quietly(tcp_swarm):
    """A peer that resets mid-frame ends its connection; the listener thread
    raises nothing (the suite turns thread exceptions into errors) and keeps
    serving."""
    cfg, net = tcp_swarm
    raw = encode_frame(WireMessage(Ping(), 5))
    with socket.create_connection(net._addrs["s0"], timeout=2.0) as conn:
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.sendall(raw[:10])
    time.sleep(0.2)
    assert net.ping("cli", "s0") > 0


@pytest.mark.parametrize("kind", [99, Kind.STEP], ids=["unknown-kind", "empty-step"])
def test_malformed_frame_closes_only_its_connection(tcp_swarm, kind):
    """A frame whose checksum holds but whose kind or payload does not parse
    ends that connection; the node raises nothing and keeps serving."""
    cfg, net = tcp_swarm
    frame = (MAGIC + bytes([kind]) + bytes(16) + bytes(8)
             + fnv1a64(b"").to_bytes(8, "little"))
    with socket.create_connection(net._addrs["s0"], timeout=2.0) as conn:
        conn.sendall(frame)
        assert conn.recv(64) == b""
    assert net.ping("cli", "s0") > 0


def test_bad_magic_header_closes_the_connection_at_once(tcp_swarm):
    """A header without the magic is refused as soon as it arrives, whatever
    length it claims (here 2^40 bytes, which the node would otherwise wait
    for); the node keeps serving."""
    cfg, net = tcp_swarm
    head = struct.pack("<4sB16sQ", b"XXXX", Kind.PING, bytes(16), 1 << 40)
    assert len(head) == 29
    with socket.create_connection(net._addrs["s0"], timeout=2.0) as conn:
        conn.sendall(head)
        conn.settimeout(1.0)
        assert conn.recv(64) == b""
    assert net.ping("cli", "s0") > 0


def test_header_over_the_frame_cap_closes_the_connection_at_once(tcp_swarm):
    """A header that claims a frame one byte longer than ``MAX_FRAME_LEN``
    is refused as soon as it arrives, before any of the claimed bytes; the
    node keeps serving."""
    cfg, net = tcp_swarm
    plen = MAX_FRAME_LEN - FRAME_OVERHEAD + 1
    head = struct.pack("<4sB16sQ", MAGIC, Kind.PING, bytes(16), plen)
    with socket.create_connection(net._addrs["s0"], timeout=2.0) as conn:
        conn.sendall(head)
        conn.settimeout(1.0)
        assert conn.recv(64) == b""
    assert net.ping("cli", "s0") > 0


def test_handler_error_closes_only_its_connection(tcp_swarm, monkeypatch):
    """A handler that raises on a well-formed STEP has the error reported
    through ``threading.excepthook``; the request's connection closes, and
    the node keeps serving."""
    cfg, net = tcp_swarm
    reported = []
    monkeypatch.setattr(threading, "excepthook", lambda args: reported.append(args.exc_type))

    def fail(*args):
        raise ValueError("engine failure")

    monkeypatch.setattr(RealServerEngine, "run_cached", fail)
    net.rpc("cli", "s0", WireMessage(OpenSession(0, 1), 9))
    x = HiddenBlob.from_array(np.zeros((1, cfg.hidden_dim), np.float32))
    with pytest.raises(ConnectionFailed):
        net.rpc("cli", "s0", WireMessage(Step(0, x), 9))
    assert reported == [ValueError]
    assert net.ping("cli", "s0") > 0


def test_misshaped_step_is_refused_on_a_pooled_connection(tcp_swarm, opened):
    """A STEP whose activations have one column too many gets a protocol
    error; the connection stays pooled and no handler error is raised."""
    cfg, net = tcp_swarm
    net.rpc("cli", "s0", WireMessage(OpenSession(0, 1), 9))
    bad = HiddenBlob.from_array(np.zeros((1, cfg.hidden_dim + 1), np.float32))
    reply = net.rpc("cli", "s0", WireMessage(Step(0, bad), 9))
    assert isinstance(reply.payload, Error) and reply.payload.code == "protocol"
    assert net.ping("cli", "s0") > 0
    assert opened.count("s0") == 1 and len(net._idle["s0"]) == 1


def test_post_counts_the_request_frame_only(tcp_swarm):
    """A posted frame asks for no reply, so the listener writes none and
    counts the request alone, as ``SimNetwork.post`` does."""
    cfg, net = tcp_swarm
    close = WireMessage(Close(), 7)
    before = net.total_bytes()
    assert net.post("cli", "s0", close)
    net.ping("cli", "s0")    # the same pooled connection: handled after the CLOSE
    assert framed_nbytes(close) == 37
    assert net.total_bytes() - before == 37 + 74


@pytest.fixture()
def opened(monkeypatch) -> list[str]:
    """The destination of every connection ``RealNetwork`` opens."""
    dsts = []
    connect = RealNetwork._connect
    monkeypatch.setattr(RealNetwork, "_connect",
                        lambda self, dst: dsts.append(dst) or connect(self, dst))
    return dsts


def test_generate_connects_once_per_peer(tcp_swarm, opened):
    cfg, net = tcp_swarm
    client = SwarmClient("cli", cfg, net, DirectoryClient(net, client_name="cli"))
    assert client.generate([9, 8, 7], 12).tokens == reference_generate(cfg, [9, 8, 7], 12)
    assert {"s0", "s1"} <= set(opened)
    assert max(Counter(opened).values()) == 1


class _SlowFirstReply:
    """Answers its first request only after the client's timeout."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.calls = 0
        self.late_sent = threading.Event()

    def handle(self, msg, ctx):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.delay_s)
            self.late_sent.set()
            return WireMessage(Error("late", "the answer to the first request"))
        return WireMessage(Pong())


def test_late_reply_is_never_read_by_the_next_request():
    net = RealNetwork(timeout_s=0.2)
    slow = _SlowFirstReply(0.4)
    net.register("slow", slow)
    try:
        with pytest.raises(MessageDropped):
            net.rpc("cli", "slow", WireMessage(Ping()))
        assert slow.late_sent.wait(2.0)
        reply = net.rpc("cli", "slow", WireMessage(Ping()))
        assert isinstance(reply.payload, Pong)
    finally:
        net.shutdown()


class _Echo:
    def handle(self, msg, ctx):
        return WireMessage(Pong())


def test_threads_sharing_the_pool_each_read_their_own_replies(opened):
    """More threads than cores post and call one node through one pool, with
    a short switch interval: every reply carries its own request's session
    id, no connection is opened beyond one per thread, and the node counts
    every frame once."""
    net = RealNetwork(timeout_s=5.0)
    net.register("echo", _Echo())
    n_threads, rounds = 6, 40
    wrong = []

    def work(t):
        for i in range(rounds):
            sid = t * rounds + i + 1
            net.post("cli", "echo", WireMessage(Close(), sid))
            if net.rpc("cli", "echo", WireMessage(Ping(), sid)).session_id != sid:
                wrong.append(sid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30.0)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert wrong == []
        assert 1 <= len(opened) <= n_threads
        want = n_threads * rounds * (37 + 74)
        deadline = time.monotonic() + 2.0
        while net.total_bytes() < want and time.monotonic() < deadline:
            time.sleep(0.01)
        assert net.total_bytes() == want
    finally:
        net.shutdown()


def test_half_sent_frame_does_not_stall_the_node(tcp_swarm):
    """The node buffers a peer's partial frame and serves others meanwhile;
    the frame is answered once its last byte arrives."""
    cfg, net = tcp_swarm
    raw = encode_frame(WireMessage(Ping(), 5))
    with socket.create_connection(net._addrs["s0"], timeout=2.0) as stalled:
        stalled.sendall(raw[:10])
        time.sleep(0.05)
        t0 = time.monotonic()
        assert net.ping("cli", "s0") > 0
        assert time.monotonic() - t0 < 1.0
        stalled.sendall(raw[10:])
        reply = _recv_frame(stalled)
        assert isinstance(reply.payload, Pong) and reply.session_id == 5


def test_reply_with_a_broken_checksum_fails_the_connection():
    """A raw peer answers a PING with a PONG whose last checksum byte is
    flipped. The caller gets ``ConnectionFailed``, as for a lost
    connection, and the connection is closed, not pooled."""
    net = RealNetwork(timeout_s=2.0)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(2.0)

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(2.0)
                frame = bytearray(encode_frame(WireMessage(Pong(), _recv_frame(conn).session_id)))
                frame[-1] ^= 0xFF
                conn.sendall(frame)
                conn.recv(1)    # returns once the client closes its end

        peer = threading.Thread(target=answer, daemon=True)
        peer.start()
        net._addrs["raw"] = listener.getsockname()
        try:
            with pytest.raises(ConnectionFailed):
                net.rpc("cli", "raw", WireMessage(Ping(), 3))
            assert not net._idle.get("raw")
        finally:
            peer.join(5.0)
            net.shutdown()
    assert not peer.is_alive()


def test_shutdown_stops_every_thread():
    """Announce timers stop re-arming and listeners leave ``accept``: after
    shutdown the process has the threads it had before the swarm."""
    before = threading.active_count()
    cfg = ModelConfig(seed=1)
    net = RealNetwork(timeout_s=5.0)
    board = DirectoryBoard(cfg.n_blocks, lambda: net.clock.now)
    net.register("directory", DirectoryHandler(board))
    blocks = init_model(cfg)[0]
    for si, (a, b) in enumerate(stage_intervals(cfg.n_blocks, 4)):
        srv = BlockServer(ServerCfg(f"s{si}", b - a, a), RealServerEngine(cfg, blocks),
                          net, board)
        net.register(f"s{si}", srv)
        srv.start_timers()
    time.sleep(0.2)
    client = SwarmClient("cli", cfg, net, DirectoryClient(net, client_name="cli"))
    assert client.generate([9, 8, 7], 4).tokens == reference_generate(cfg, [9, 8, 7], 4)
    assert threading.active_count() > before
    net.shutdown()
    deadline = time.monotonic() + 5.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before
