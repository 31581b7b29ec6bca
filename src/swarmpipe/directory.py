"""Swarm directory: the announcement board servers publish to and clients
route from, plus per-client ban lists.

One authoritative in-memory board per simulation (one directory process in
real-transport mode). Records carry a TTL of three announce periods; a server
that stops refreshing disappears from reads within one TTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ProtocolError
from .wire import Announce, Error, WireMessage

ANNOUNCE_PERIOD_S = 10.0
TTL_S = 3 * ANNOUNCE_PERIOD_S
DIRECTORY_ADDR = "directory"   # the node name the directory is registered under
BAN_COOLDOWN_S = 15.0          # virtual seconds a client's ban lasts

STATE_JOINING = "joining"
STATE_ONLINE = "online"
STATE_OFFLINE = "offline"


@dataclass
class ServerInfo:
    """One directory record: what a server serves and how fast."""

    server_id: str
    address: str
    start: int                    # block interval [start, end)
    end: int
    throughput: float             # tokens/second
    state: str = STATE_ONLINE
    announced_at: float = 0.0

    def to_dict(self) -> dict:
        # the fields are flat values, so ``dataclasses.asdict``'s deep copy
        # of each one buys nothing
        return {"server_id": self.server_id, "address": self.address, "start": self.start,
                "end": self.end, "throughput": self.throughput, "state": self.state,
                "announced_at": self.announced_at}

    @classmethod
    def from_dict(cls, d: dict) -> "ServerInfo":
        return cls(**d)


class DirectoryBoard:
    """TTL'd upsert board keyed by server id."""

    def __init__(self, n_blocks: int, now: Callable[[], float]):
        self.n_blocks = n_blocks
        self._now = now
        self._records: dict[str, ServerInfo] = {}

    def announce(self, info: ServerInfo) -> None:
        if not (0 <= info.start < info.end <= self.n_blocks):
            raise ProtocolError(
                f"interval [{info.start}, {info.end}) outside [0, {self.n_blocks})")
        if info.state in (STATE_ONLINE, STATE_JOINING) and info.throughput <= 0:
            raise ProtocolError("announced throughput must be > 0")
        info.announced_at = self._now()
        self._records[info.server_id] = info

    def withdraw(self, server_id: str) -> None:
        self._records.pop(server_id, None)

    def snapshot(self) -> list[ServerInfo]:
        """Live records only: fresh and not offline."""
        now = self._now()
        return [r for r in self._records.values()
                if r.state != STATE_OFFLINE and now - r.announced_at < TTL_S]

    def get(self, server_id: str) -> ServerInfo | None:
        for r in self.snapshot():
            if r.server_id == server_id:
                return r
        return None

    def dump(self) -> dict:
        """Every live record, by server id: the directory's read reply."""
        recs = sorted(self.snapshot(), key=lambda r: r.server_id)
        return {"n_blocks": self.n_blocks, "t": self._now(),
                "servers": [r.to_dict() for r in recs]}


def coverage(spans: Iterable[tuple[int, int, float]], n_blocks: int) -> list[float]:
    """Per-block total throughput of the (start, end, throughput) spans that
    contain the block, summed in the order given."""
    t = [0.0] * n_blocks
    for start, end, throughput in spans:
        for i in range(start, min(end, n_blocks)):
            t[i] += throughput
    return t


def block_load(snapshot: list[ServerInfo], n_blocks: int) -> list[float]:
    """t_i per block: total throughput of online-or-joining servers whose
    interval contains block i."""
    return coverage(((r.start, r.end, r.throughput)
                     for r in sorted(snapshot, key=lambda r: r.server_id)
                     if r.state != STATE_OFFLINE), n_blocks)


class BanList:
    """Client-local bans; a banned server is excluded from that client's
    routing for ``BAN_COOLDOWN_S``."""

    def __init__(self, now: Callable[[], float]):
        self._now = now
        self._expires: dict[str, float] = {}

    def ban(self, server_id: str) -> None:
        self._expires[server_id] = self._now() + BAN_COOLDOWN_S

    def unban(self, server_id: str) -> None:
        self._expires.pop(server_id, None)

    def is_banned(self, server_id: str) -> bool:
        exp = self._expires.get(server_id)
        if exp is None:
            return False
        if self._now() >= exp:
            del self._expires[server_id]
            return False
        return True


class DirectoryHandler:
    """Wire endpoint wrapping a board. ANNOUNCE with a record upserts it;
    ANNOUNCE with an empty record returns the full dump (the read path for
    real-transport mode, documented in docs/wire.md)."""

    def __init__(self, board: DirectoryBoard):
        self.board = board

    def handle(self, msg: WireMessage, net) -> WireMessage:
        if not isinstance(msg.payload, Announce):
            return WireMessage(Error("protocol", f"directory cannot serve {msg.kind.name}"))
        rec = msg.payload.record
        if not rec:
            return WireMessage(Announce(self.board.dump()))
        try:
            if rec.get("state") == STATE_OFFLINE:
                self.board.withdraw(rec["server_id"])
            else:
                self.board.announce(ServerInfo.from_dict(rec))
        except (ProtocolError, KeyError, TypeError) as e:
            return WireMessage(Error("rejected", str(e)))
        return WireMessage(Announce({"ok": True}))
