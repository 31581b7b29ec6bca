"""Real TCP transport smoke tests (loopback)."""

import socket
import struct
import time

import numpy as np
import pytest

from swarmpipe.client import FinetuneSession, SwarmClient
from swarmpipe.directory import DirectoryBoard, DirectoryHandler
from swarmpipe.errors import ConnectionFailed, ProtocolError
from swarmpipe.model import ModelConfig, init_model, reference_generate
from swarmpipe.realnet import DirectoryClient, RealNetwork
from swarmpipe.server import BlockServer, RealServerEngine, ServerCfg
from swarmpipe.swarm import stage_intervals
from swarmpipe.wire import Ping, Pong, WireMessage, encode_frame, framed_nbytes


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
