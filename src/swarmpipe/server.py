"""Block server: serves a contiguous span of transformer blocks, runs
restorable inference sessions, reorders beam caches, answers stateless
training passes, and periodically re-balances its block assignment.

Two payload engines sit behind the same protocol handler:

* ``RealServerEngine`` computes actual activations with the toy model, so
  distributed outputs can be checked against the single-process oracle.
* ``TimedServerEngine`` keeps no state and computes nothing: a session's
  width and length live only in its ``SessionState``. Wire sizes and virtual
  compute times are identical to the real engine, which is what the
  benchmark experiments measure; correctness suites always run the real
  engine.

Virtual compute costs, charged to the server's network clock
(``net.clock.charge``): a single-position step costs ``1 /
compute_tokens_per_s`` per block (the server's configured rate); batched
passes (prefill, restore, stateless forward) add ``BATCH_S_PER_ROW`` per row
per block; backward costs twice its forward. Both engines reply to a
stateless forward in the encoding the request asks for, so their wire bytes
match too.

A ``Step`` is refused by the rules in ``_step_refusal``, written once. On the
shape-only engine ``step_lease`` and ``book_steps`` let the simulator book a
run of single-row Steps in bulk (``SimNetwork.run_ahead``): the lease checks
the run's first Step by those rules and bounds the run by ``max_seq_len`` and
the crash hook, the one per-message rule of ``handle``.

Each store is bounded where it grows: ``_open`` forgets abandoned sessions,
at most once per session TTL, and ``_forward`` drops the oldest entry of
``replay`` and ``forward_records`` past their caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as M
from .balancer import RebalanceConfig, measure_throughput, propose_rebalance
from .directory import ANNOUNCE_PERIOD_S, DIRECTORY_ADDR, DirectoryBoard, ServerInfo
from .errors import ProtocolError
from .netsim import SimNetwork, SimulatedCrash
from .wire import (Announce, Backward, Close, Error, Forward, HiddenBlob,
                   OpenSession, Ping, Pong, Reorder, Restore, Step, StepResult,
                   WireMessage, fnv1a64)  # noqa: F401  (fnv1a64: tracers patch it here by name)

SESSION_TTL_S = 300.0
REPLAY_CAP = 4096           # training replies kept for resends, one per session
FORWARD_RECORDS_CAP = 1024  # sessions whose training forwards are kept for their backward
BATCH_S_PER_ROW = 0.0005    # virtual seconds per block per row of a batched pass
REBALANCE_PERIOD_S = 60.0   # virtual seconds between a server's rebalance checks


@dataclass
class ServerCfg:
    server_id: str
    capacity: int
    start: int = 0
    compute_tokens_per_s: float = 100.0
    net_tokens_per_s: float = 1e6
    session_ttl_s: float = SESSION_TTL_S
    rebalance: RebalanceConfig = field(default_factory=RebalanceConfig)
    crash_after_messages: int | None = None   # failure injection

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ProtocolError("capacity must be >= 1")
        if self.compute_tokens_per_s <= 0:
            raise ProtocolError("compute rate must be > 0")
        # virtual seconds of one single-position block forward (100 tokens/s -> 10 ms)
        self.step_s_per_block = 1.0 / self.compute_tokens_per_s

    def stage_seconds(self, n_blocks: int, rows: int, single_position: bool) -> float:
        if single_position:
            return n_blocks * self.step_s_per_block
        return n_blocks * (self.step_s_per_block + BATCH_S_PER_ROW * rows)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

class RealServerEngine:
    """Numpy-backed payload engine over the deterministic toy model."""

    def __init__(self, config: M.ModelConfig, blocks: list[M.BlockParams] | None = None):
        self.config = config
        self.blocks = blocks if blocks is not None else M.init_blocks(config)

    def make_caches(self, start: int, end: int, width: int) -> list[M.KVCache]:
        return [M.KVCache.empty(self.config, width) for _ in range(start, end)]

    def run_cached(self, start: int, end: int, caches: list[M.KVCache],
                   blob: HiddenBlob, width: int, n_new: int, quantized: bool) -> HiddenBlob:
        x = blob.array().reshape(width, n_new, self.config.hidden_dim)
        for bi, cache in zip(range(start, end), caches):
            x, k_new, v_new = M.block_forward_batched(
                self.blocks[bi], x, cache.keys, cache.values)
            cache.append(k_new, v_new)
        return HiddenBlob.from_array(x.reshape(width * n_new, -1), quantized)

    def reorder(self, caches: list[M.KVCache], parents_zero_based: list[int]) -> None:
        for c in caches:
            c.gather(parents_zero_based)

    def forward(self, start: int, end: int, blob: HiddenBlob, batch: int, tokens: int,
                micro_batch_tokens: int, record: list | None,
                quantized: bool = False) -> HiddenBlob:
        x = blob.array().reshape(batch, tokens, self.config.hidden_dim)
        no_history = np.zeros((batch, 0, self.config.n_heads, self.config.head_dim), np.float32)
        outs = []
        for chunk in _micro_batches(batch, tokens, micro_batch_tokens):
            xc = x[chunk]
            past = no_history[chunk]    # read only, so one view serves as keys and values
            if record is not None:
                per_block = []
            for bi in range(start, end):
                if record is not None:
                    per_block.append(xc)
                xc, _, _ = M.block_forward_batched(self.blocks[bi], xc, past, past)
            if record is not None:
                record.append((chunk, per_block))
            outs.append(xc)
        y = np.concatenate(outs, axis=0)
        return HiddenBlob.from_array(y.reshape(batch * tokens, -1), quantized)

    def backward(self, start: int, end: int, blob: HiddenBlob, batch: int, tokens: int,
                 record: list) -> HiddenBlob:
        g = blob.array().reshape(batch, tokens, self.config.hidden_dim)
        grads = []
        for chunk, per_block in record:
            gc = g[chunk]
            for offset, bi in enumerate(reversed(range(start, end))):
                xin = per_block[len(per_block) - 1 - offset]
                gc = M.block_backward(self.blocks[bi], xin, gc, self.config.n_heads)
            grads.append(gc)
        out = np.concatenate(grads, axis=0)
        return HiddenBlob.from_array(out.reshape(batch * tokens, -1))


class TimedServerEngine:
    """Shape-only engine: same protocol, no arithmetic and no cache; a
    session's width and length live in its ``SessionState`` alone. Outputs
    are synthetic blobs of the right size."""

    def __init__(self, config: M.ModelConfig):
        self.config = config

    def make_caches(self, start: int, end: int, width: int) -> None:
        return None

    def run_cached(self, start: int, end: int, caches: None,
                   blob: HiddenBlob, width: int, n_new: int, quantized: bool) -> HiddenBlob:
        return self.output(width * n_new, quantized)

    def output(self, rows: int, quantized: bool) -> HiddenBlob:
        """What a cached pass over ``rows`` rows answers."""
        return HiddenBlob.shape_only(rows, self.config.hidden_dim, quantized)

    def reorder(self, caches: None, parents_zero_based: list[int]) -> None:
        """Nothing to gather: ``_reorder`` checks the indices and the width."""

    def forward(self, start: int, end: int, blob: HiddenBlob, batch: int, tokens: int,
                micro_batch_tokens: int, record: list | None,
                quantized: bool = False) -> HiddenBlob:
        if record is not None:
            record.append((batch, tokens))
        return HiddenBlob.shape_only(batch * tokens, self.config.hidden_dim, quantized)

    def backward(self, start: int, end: int, blob: HiddenBlob, batch: int, tokens: int,
                 record: list) -> HiddenBlob:
        return HiddenBlob.shape_only(batch * tokens, self.config.hidden_dim)


def _micro_batches(batch: int, tokens: int, micro_batch_tokens: int):
    """Split sequence indices into chunks of at most micro_batch_tokens total
    tokens (whole sequences; a single long sequence runs unsplit)."""
    per_chunk = max(1, micro_batch_tokens // max(tokens, 1))
    for lo in range(0, batch, per_chunk):
        yield slice(lo, min(lo + per_chunk, batch))


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

@dataclass
class SessionState:
    start: int
    end: int
    width: int
    quantized: bool
    caches: object
    positions: int
    last_activity: float


MICRO_BATCH_TOKENS = 1024


class BlockServer:
    """Protocol handler for one server node."""

    def __init__(self, cfg: ServerCfg, engine, net: SimNetwork,
                 board: DirectoryBoard):
        self.cfg = cfg
        self.engine = engine
        self.net = net
        self.board = board
        self.n_blocks = engine.config.n_blocks
        self.start = cfg.start
        self.end = min(cfg.start + cfg.capacity, self.n_blocks)
        self.sessions: dict[int, SessionState] = {}
        # session -> (req_id, {(start, end): the recorded inputs of a training FORWARD})
        self.forward_records: dict[int, tuple[int, dict[tuple[int, int], list]]] = {}
        # session -> ((req_id, start, end), reply)
        self.replay: dict[int, tuple[tuple[int, int, int], WireMessage]] = {}
        self.handled = 0
        self._swept_at = 0.0        # clock time of _open's last sweep of stale sessions
        self.block_moves = 0
        self._timers_started = False
        # (start, end) -> the ANNOUNCE of that interval
        self._announcement: tuple[tuple[int, int], WireMessage] | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def server_id(self) -> str:
        return self.cfg.server_id

    def self_measure(self) -> float:
        """Benchmark the compute rate (a 32-forward burst of one block in
        virtual time) and take the narrower of it and the network rate."""
        burst_s = 32 * self.cfg.step_s_per_block
        return measure_throughput(self.cfg.net_tokens_per_s, 32.0 / burst_s)

    def announce(self) -> None:
        """Post this server's record to the directory. The message is built
        once per interval and resent unchanged until the server moves."""
        if self._announcement is None or self._announcement[0] != (self.start, self.end):
            rec = ServerInfo(self.server_id, self.server_id, self.start, self.end,
                             self.self_measure()).to_dict()
            self._announcement = ((self.start, self.end), WireMessage(Announce.fixed(rec)))
        try:
            self.net.post(self.server_id, DIRECTORY_ADDR, self._announcement[1])
        except Exception:
            pass

    def start_timers(self, balancer: bool = False) -> None:
        if self._timers_started:
            return
        self._timers_started = True
        self.announce()
        self._every(ANNOUNCE_PERIOD_S, ANNOUNCE_PERIOD_S, "announce")
        if balancer:
            self._every(REBALANCE_PERIOD_S * (1.0 + self._phase()), REBALANCE_PERIOD_S,
                        "balance_once")

    def _phase(self) -> float:
        # servers do not share a clock: spread periodic work deterministically
        # so concurrent movers see each other's committed intentions
        h = M._splitmix64(sum(self.server_id.encode()), 1)[0]
        return float(h % 10_000) / 10_000.0

    def _every(self, first_s: float, period_s: float, method: str) -> None:
        """Call ``method`` ``first_s`` from now and every ``period_s`` after,
        skipping ticks while this server is offline. The method is looked up
        at each tick, so a patched one is the one called."""
        def tick() -> None:
            if self.net.online(self.server_id):
                getattr(self, method)()
            self.net.clock.schedule(self.net.clock.now + period_s, tick)
        self.net.clock.schedule(self.net.clock.now + first_s, tick)

    def balance_once(self) -> bool:
        """One rebalance check; commits and loads blocks when worthwhile
        (loading is instantaneous in virtual time)."""
        snap = self.board.snapshot()
        move = propose_rebalance(self.server_id, snap, self.n_blocks, self.cfg.rebalance)
        if move is None:
            return False
        self.start, self.end = move
        self.sessions.clear()       # block replacement resets attention caches
        self.block_moves += 1
        self.announce()
        return True

    # -- protocol ------------------------------------------------------------

    def handle(self, msg: WireMessage, net) -> WireMessage:   # net is self.net
        self.handled += 1
        if self.cfg.crash_after_messages is not None and self.handled > self.cfg.crash_after_messages:
            raise SimulatedCrash(self.server_id)
        route = self._ROUTES.get(type(msg.payload))
        if route is None:
            return WireMessage(Error("protocol", f"unsupported kind {msg.kind.name}"))
        return route(self, msg.session_id, msg.payload)

    def _session(self, sid: int) -> SessionState | None:
        s = self.sessions.get(sid)
        if s is None:
            return None
        if self.net.clock.now - s.last_activity > self.cfg.session_ttl_s:
            del self.sessions[sid]
            return None
        return s

    def _not_serving(self, start: int, end: int) -> WireMessage | None:
        """The refusal for blocks [start, end) this server does not hold."""
        if not (self.start <= start and end <= self.end and start < end):
            return WireMessage(Error(
                "not_serving", f"serves [{self.start}, {self.end}), asked [{start}, {end})"))
        return None

    def _misshaped(self, blob: HiddenBlob, rows: int) -> WireMessage | None:
        """The refusal for activations that are not ``rows`` x ``hidden_dim``,
        the shape the message's own fields declare."""
        cols = self.engine.config.hidden_dim
        if blob.rows != rows or blob.cols != cols:
            return WireMessage(Error(
                "protocol", f"blob is {blob.rows}x{blob.cols}, message declares {rows}x{cols}"))
        return None

    def _ping(self, sid: int, p: Ping) -> WireMessage:
        return WireMessage(Pong())

    def _close(self, sid: int, p: Close) -> WireMessage:
        self.sessions.pop(sid, None)
        return WireMessage(Pong())

    def _open(self, sid: int, p: OpenSession) -> WireMessage:
        refusal = self._not_serving(p.start, p.end)
        if refusal is not None:
            return refusal
        now, ttl = self.net.clock.now, self.cfg.session_ttl_s
        if now - self._swept_at > ttl:      # forget abandoned sessions, once per TTL
            self._swept_at = now
            for k in [k for k, s in self.sessions.items() if now - s.last_activity > ttl]:
                del self.sessions[k]
        self.sessions[sid] = SessionState(
            p.start, p.end, p.width, p.quantized,
            self.engine.make_caches(p.start, p.end, p.width), 0, now)
        return WireMessage(Pong())

    def _step_refusal(self, s: SessionState | None, p: Step) -> WireMessage | None:
        """The refusal of ``p`` on session ``s`` (None: no such session), or
        None when it may step."""
        if s is None:
            return WireMessage(Error("expired", "no such session"))
        if p.position_offset != s.positions:
            return WireMessage(Error(
                "desync", f"at position {s.positions}, step claims {p.position_offset}"))
        if p.width != s.width:
            return WireMessage(Error("desync", f"width {s.width} != {p.width}"))
        config = self.engine.config
        if p.position_offset + p.n_new > config.max_seq_len:
            return WireMessage(Error("capacity", "sequence exceeds max_seq_len"))
        rows = p.width * p.n_new
        if p.blob.rows != rows or p.blob.cols != config.hidden_dim:
            return self._misshaped(p.blob, rows)
        return None

    def _step(self, sid: int, p: Step) -> WireMessage:
        s = self._session(sid)
        refusal = self._step_refusal(s, p)
        if refusal is not None:
            return refusal
        n_blocks = s.end - s.start
        self.net.clock.charge(self.cfg.stage_seconds(n_blocks, p.width * p.n_new, p.n_new == 1))
        out = self.engine.run_cached(s.start, s.end, s.caches, p.blob,
                                     p.width, p.n_new, s.quantized)
        s.positions += p.n_new
        s.last_activity = self.net.clock.now
        return WireMessage(StepResult(out))

    # -- the run-ahead's view of ``_step`` (see ``SimNetwork.run_ahead``) ----

    def step_lease(self, sid: int, p: Step):
        """A lease on a run of single-position Steps like ``p`` to session
        ``sid``, each at the next position: (session, reply, seconds each
        step charges, session TTL, most steps before ``max_seq_len`` or the
        crash hook). None when the next Step must go through ``handle``: an
        engine that computes, a refusal, or the crash due at it.
        ``_step`` refuses none of the run's later steps, since each moves the
        step's offset and the session's positions together; the caller
        checks the TTL at each step's arrival."""
        s = self.sessions.get(sid)
        if (p.n_new != 1 or not isinstance(self.engine, TimedServerEngine)
                or self._step_refusal(s, p) is not None):
            return None
        # handle crashes past crash_after_messages
        most = self.engine.config.max_seq_len - s.positions
        if self.cfg.crash_after_messages is not None:
            most = min(most, self.cfg.crash_after_messages - self.handled)
        if most < 1:
            return None
        reply = WireMessage(StepResult(self.engine.output(p.width, s.quantized)))
        return (s, reply, self.cfg.stage_seconds(s.end - s.start, p.width, True),
                self.cfg.session_ttl_s, most)

    def book_steps(self, s: SessionState, k: int, last_activity: float) -> None:
        """Book ``k`` steps of a ``step_lease``, the last one's compute
        ending at ``last_activity``, as ``handle`` and ``_step`` would."""
        self.handled += k
        s.positions += k
        s.last_activity = last_activity

    def _restore(self, sid: int, p: Restore) -> WireMessage:
        s = self._session(sid)
        if s is None:
            return WireMessage(Error("expired", "no such session"))
        if p.t > self.engine.config.max_seq_len:
            return WireMessage(Error("capacity", "history exceeds max_seq_len"))
        refusal = self._misshaped(p.blob, p.width * p.t)
        if refusal is not None:
            return refusal
        s.caches = self.engine.make_caches(s.start, s.end, p.width)
        s.width = p.width
        s.positions = 0
        if p.t > 0:
            n_blocks = s.end - s.start
            self.net.clock.charge(self.cfg.stage_seconds(n_blocks, p.width * p.t, False))
            out = self.engine.run_cached(s.start, s.end, s.caches, p.blob,
                                         p.width, p.t, s.quantized)
            s.positions = p.t
        else:
            out = HiddenBlob.shape_only(0, self.engine.config.hidden_dim)
        s.last_activity = self.net.clock.now
        if not p.want_outputs:
            out = HiddenBlob.shape_only(0, self.engine.config.hidden_dim)
        return WireMessage(StepResult(out))

    def _reorder(self, sid: int, p: Reorder) -> WireMessage:
        s = self._session(sid)
        if s is None:
            return WireMessage(Error("expired", "no such session"))
        if not p.indices or any(i < 1 or i > s.width for i in p.indices):
            return WireMessage(Error("bad_index",
                                     f"indices must be in [1, {s.width}]"))
        self.engine.reorder(s.caches, [i - 1 for i in p.indices])
        s.width = len(p.indices)
        s.last_activity = self.net.clock.now
        return WireMessage(Pong())

    def _forward(self, sid: int, p: Forward) -> WireMessage:
        # a rerouted step may ask this server for another interval under the
        # same req_id; only the same interval is a resend
        request = (p.req_id, p.start, p.end)
        hit = self.replay.get(sid)
        if hit is not None and hit[0] == request:
            return hit[1]
        rows = p.batch * p.tokens
        refusal = self._not_serving(p.start, p.end) or self._misshaped(p.blob, rows)
        if refusal is not None:
            return refusal
        self.net.clock.charge(self.cfg.stage_seconds(p.end - p.start, rows, False))
        record: list | None = [] if p.record else None
        out = self.engine.forward(p.start, p.end, p.blob, p.batch, p.tokens,
                                  MICRO_BATCH_TOKENS, record, p.quantize_reply)
        if p.record:
            # one outstanding training pass per client session
            held = self.forward_records.get(sid)
            if held is None or held[0] != p.req_id:
                self.forward_records.pop(sid, None)
                held = self.forward_records[sid] = (p.req_id, {})
                while len(self.forward_records) > FORWARD_RECORDS_CAP:
                    del self.forward_records[next(iter(self.forward_records))]
            held[1][(p.start, p.end)] = record
        reply = WireMessage(StepResult(out))
        self.replay[sid] = (request, reply)
        while len(self.replay) > REPLAY_CAP:
            del self.replay[next(iter(self.replay))]
        return reply

    def _backward(self, sid: int, p: Backward) -> WireMessage:
        rows = p.batch * p.tokens
        refusal = self._not_serving(p.start, p.end) or self._misshaped(p.blob, rows)
        if refusal is not None:
            return refusal
        held = self.forward_records.get(sid)
        record = (held[1].get((p.start, p.end))
                  if held is not None and held[0] == p.req_id else None)
        if record is None:
            return WireMessage(Error("no_record",
                                     "no matching forward; repeat the pass"))
        self.net.clock.charge(2 * self.cfg.stage_seconds(p.end - p.start, rows, False))
        out = self.engine.backward(p.start, p.end, p.blob, p.batch, p.tokens, record)
        return WireMessage(StepResult(out))

    # the handler of each payload type; any other gets a protocol error
    _ROUTES = {Ping: _ping, OpenSession: _open, Step: _step, Restore: _restore,
               Reorder: _reorder, Close: _close, Forward: _forward, Backward: _backward}
