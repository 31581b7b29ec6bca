"""Directory board: announce/TTL semantics, load vectors, ban lists."""

from dataclasses import asdict

import pytest

from swarmpipe.directory import (ANNOUNCE_PERIOD_S, BAN_COOLDOWN_S, BanList,
                                 DirectoryBoard, DirectoryHandler, ServerInfo, TTL_S,
                                 block_load)
from swarmpipe.errors import ProtocolError
from swarmpipe.wire import Announce, Error, Ping, WireMessage, encode_frame, framed_nbytes


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture()
def clock():
    return _FakeClock()


@pytest.fixture()
def board(clock):
    return DirectoryBoard(8, clock)


def _info(sid="a", start=0, end=4, thr=10.0, state="online"):
    return ServerInfo(sid, sid, start, end, thr, state)


class TestServerInfo:
    def test_to_dict_is_asdict(self):
        """The record's dict has asdict's keys, in its order, and values, so
        an ANNOUNCE frame keeps its size (149 bytes for this record)."""
        info = ServerInfo("s0a", "s0a", 0, 2, 123.456, "joining", 7.25)
        d = info.to_dict()
        assert d == asdict(info) and list(d) == list(asdict(info))
        msg = WireMessage(Announce(d))
        assert framed_nbytes(msg) == len(encode_frame(msg)) == 149
        assert framed_nbytes(WireMessage(Announce.fixed(d))) == 149
        assert ServerInfo.from_dict(d) == info


class TestAnnounce:
    def test_announce_then_read(self, board):
        board.announce(_info())
        assert [r.server_id for r in board.snapshot()] == ["a"]

    def test_ttl_expiry(self, board, clock):
        board.announce(_info())
        clock.t = TTL_S - 1
        assert board.snapshot()
        clock.t = TTL_S + 0.1
        assert board.snapshot() == []

    def test_refresh_resets_ttl(self, board, clock):
        board.announce(_info())
        clock.t = ANNOUNCE_PERIOD_S
        board.announce(_info())
        clock.t = ANNOUNCE_PERIOD_S + TTL_S - 1
        assert board.snapshot()

    def test_interval_out_of_range_rejected(self, board):
        with pytest.raises(ProtocolError):
            board.announce(_info(start=6, end=10))
        with pytest.raises(ProtocolError):
            board.announce(_info(start=3, end=3))

    def test_nonpositive_throughput_rejected(self, board):
        with pytest.raises(ProtocolError):
            board.announce(_info(thr=0.0))

    def test_upsert_replaces(self, board):
        board.announce(_info(start=0, end=4))
        board.announce(_info(start=2, end=6))
        (rec,) = board.snapshot()
        assert (rec.start, rec.end) == (2, 6)


class TestBlockLoad:
    def test_empty_directory_all_zero(self):
        assert block_load([], 4) == [0.0] * 4

    def test_single_server_full_span(self):
        assert block_load([_info(start=0, end=4)], 4) == [10.0] * 4

    def test_overlapping_servers_sum(self):
        snap = [_info("a", 0, 2, 10.0), _info("b", 1, 3, 5.0)]
        assert block_load(snap, 3) == [10.0, 15.0, 5.0]

    def test_same_interval_adds(self, board):
        board.announce(_info("a", 0, 4, 10.0))
        board.announce(_info("b", 0, 4, 7.0))
        assert block_load(board.snapshot(), 8)[0] == 17.0

    def test_joining_counts_toward_load(self):
        snap = [_info("a", 0, 2, 10.0, state="joining")]
        assert block_load(snap, 2) == [10.0, 10.0]

    def test_additivity_of_merge(self):
        a = [_info("a", 0, 3, 4.0)]
        b = [_info("b", 2, 5, 6.0)]
        merged = block_load(a + b, 6)
        split = [x + y for x, y in zip(block_load(a, 6), block_load(b, 6))]
        assert merged == split


class TestBanList:
    def test_ban_and_expiry(self, clock):
        bans = BanList(clock)
        bans.ban("x")
        assert bans.is_banned("x")
        clock.t = BAN_COOLDOWN_S - 1
        assert bans.is_banned("x")
        clock.t = BAN_COOLDOWN_S
        assert not bans.is_banned("x")

    def test_ban_unknown_id_noop(self, clock):
        bans = BanList(clock)
        assert not bans.is_banned("never-seen")
        bans.unban("never-seen")

    def test_unban(self, clock):
        bans = BanList(clock)
        bans.ban("x")
        bans.unban("x")
        assert not bans.is_banned("x")


class TestHandler:
    def test_announce_upserts(self, board):
        h = DirectoryHandler(board)
        reply = h.handle(WireMessage(Announce(_info().to_dict())), None)
        assert isinstance(reply.payload, Announce)
        assert board.snapshot()

    def test_empty_announce_dumps(self, board):
        h = DirectoryHandler(board)
        board.announce(_info())
        reply = h.handle(WireMessage(Announce({})), None)
        dump = reply.payload.record
        assert dump["n_blocks"] == 8
        assert dump["servers"][0]["server_id"] == "a"
        # the board's own dump lists the record too
        assert board.dump()["servers"]

    def test_offline_record_withdraws(self, board):
        h = DirectoryHandler(board)
        h.handle(WireMessage(Announce(_info().to_dict())), None)
        rec = _info(state="offline").to_dict()
        h.handle(WireMessage(Announce(rec)), None)
        assert board.snapshot() == []

    def test_wrong_kind_errors(self, board):
        h = DirectoryHandler(board)
        reply = h.handle(WireMessage(Ping()), None)
        assert isinstance(reply.payload, Error)

    def test_bad_record_rejected(self, board):
        h = DirectoryHandler(board)
        reply = h.handle(WireMessage(Announce({"server_id": "x"})), None)
        assert isinstance(reply.payload, Error)
