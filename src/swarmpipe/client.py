"""Inference and fine-tuning client.

Implements the three generation strategies over a chain of block servers:

* ``DUAL_CACHE`` — servers keep attention caches; the client additionally
  keeps, per pipeline stage, every activation it sent there. When a stage
  fails mid-step the client bans it, routes a replacement chain for the
  missing blocks, replays the stage history in one batched restore, and
  resumes the interrupted step at that stage.
* ``RESTART`` — server caches only; any failure restarts generation from
  scratch.
* ``CACHELESS`` — no caches anywhere; every step resends the whole sequence
  and a failure retries only the current step.

All strategies produce the same tokens as the single-process oracle; the
differences are cost and failure behavior, which the counters expose.
Dual-cache, restart and beam search run one decode loop (``_decode``); every
step and beam reorder walks the stages through one recovery path (``_walk``).
Every stage RPC is one ``_call_stage``, and whether a failure bans its
server is decided in ``_ban_if``. On the shape-only engine, ``_run_ahead``
books uninterrupted runs of the decode loop's ``Step`` RPCs in bulk
(``SimNetwork.run_ahead``), with the same virtual outcome. A
``_Stage`` is an open session with its history. Opening a chain, replacing a
stage and repeating a cache-less step each give up after ``MAX_REROUTES``
failures.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import model as M
from .directory import BanList, DirectoryBoard, STATE_ONLINE
from .errors import (BudgetExhausted, CapacityError, ConfigurationError, ConnectionFailed,
                     MessageDropped, NoRouteError, SwarmUnavailableError)
from .netsim import SimNetwork
from .router import Chain, Hop, RoutingGraph, ServerRoute
from .wire import (Backward, Close, Error, Forward, HiddenBlob, OpenSession, Pong,
                   Reorder, Restore, Step, StepResult, WireMessage)

MAX_REROUTES = 10          # routing attempts before a chain counts as unavailable
REROUTE_BACKOFF_S = 2.0    # virtual seconds a client waits when no chain exists
CACHE_OVERHEAD_S = 0.005   # client bookkeeping per stage per step that keeps history
MAX_PASS_RETRIES = 50      # fine-tune passes tried before giving up

# the reply each stage request expects (see ``SwarmClient._call_stage``)
_REPLY = {OpenSession: Pong, Reorder: Pong, Step: StepResult, Restore: StepResult,
          Forward: StepResult, Backward: StepResult}
# the rows of the ``StepResult`` blob a request declares; its columns are hidden_dim
_REPLY_ROWS = {Step: lambda p: p.width * p.n_new,
               Restore: lambda p: p.width * p.t if p.want_outputs else 0,
               Forward: lambda p: p.batch * p.tokens,
               Backward: lambda p: p.batch * p.tokens}


class Strategy(enum.Enum):
    DUAL_CACHE = "dual-cache"
    RESTART = "restart"
    CACHELESS = "cacheless"


@dataclass
class RunCounters:
    """Payload-level accounting for one generation run."""

    step_activation_bytes: int = 0          # request-side activation bytes
    per_step_bytes: list[int] = field(default_factory=list)
    restore_events: list[tuple[int, int, int, int]] = field(default_factory=list)
    messages: int = 0
    recoveries: int = 0
    reroutes: int = 0
    restarts: int = 0
    retries: int = 0

    @property
    def restore_bytes(self) -> int:
        return sum(e[3] for e in self.restore_events)


@dataclass
class GenerateResult:
    tokens: list[int]
    counters: RunCounters
    elapsed_s: float
    beams: list[tuple[list[int], float]] | None = None


@dataclass
class RestartProgress:
    attempts: int
    elapsed_s: float
    mean_attempt_s: float
    remaining_s: float | None


class _StageFailure(Exception):
    def __init__(self, server_id: str, ban: bool, reason: str, dropped: bool = False):
        super().__init__(f"{server_id}: {reason}")
        self.server_id = server_id
        self.ban = ban              # False: a live server lost state; rebuild or repeat there
        self.dropped = dropped      # a lost message: the server may well be alive


# ---------------------------------------------------------------------------
# client payload engines
# ---------------------------------------------------------------------------

class RealClientEngine:
    """Owns embeddings and token choice; mirrors the local oracle exactly."""

    def __init__(self, config: M.ModelConfig, client_params: M.ClientParams | None = None):
        self.config = config
        self.params = client_params or M.init_client_params(config)

    def embed_array(self, tokens) -> np.ndarray:
        return M.embed(self.params, tokens)

    def pick(self, final_rows: np.ndarray, mode: str, rng) -> int:
        logits = M.logits_for(self.params, final_rows[-1])
        if mode == "greedy":
            return M.greedy_pick(logits)
        return M.sample_pick(logits, rng)

    def logits(self, rows: np.ndarray) -> np.ndarray:
        return M.logits_for(self.params, rows)


class TimedClientEngine:
    """Shape-only client side for benchmark runs: byte-exact payload sizes,
    deterministic dummy tokens, no arithmetic."""

    def __init__(self, config: M.ModelConfig):
        self.config = config

    def embed_array(self, tokens: list[int]) -> None:
        return None

    def pick(self, final_rows, mode: str, rng) -> int:
        return 0


# ---------------------------------------------------------------------------
# per-stage state
# ---------------------------------------------------------------------------

@dataclass
class _Stage:
    """An open session on one hop, and every row the client sent it.

    ``history`` holds ``[width, n, d]`` arrays whose slots are in the
    session's current slot order, so along axis 1 they are each slot's whole
    input sequence: the state a replacement must rebuild. The timed engine
    sends no rows and keeps none."""

    hop: Hop
    session_id: int
    history: list[np.ndarray] = field(default_factory=list)
    rows_sent: int = 0             # positions processed at this stage

    def record(self, rows: np.ndarray | None, width: int, n_new: int) -> None:
        """Keep a copy of the rows sent."""
        if rows is not None:
            self.history.append(rows.reshape(width, n_new, -1).copy())

    def reorder(self, parents0: list[int]) -> None:
        """Follow a beam reorder: new slot i holds old slot ``parents0[i]``."""
        if self.history:
            self.history = [np.concatenate(self.history, axis=1)[parents0]]

    def lineage(self) -> np.ndarray | None:
        """Every slot's input sequence, ``[width, rows_sent, d]``; None when
        nothing was recorded (the timed engine)."""
        return np.concatenate(self.history, axis=1) if self.history else None


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------

class SwarmClient:
    def __init__(self, name: str, config: M.ModelConfig, net: SimNetwork,
                 directory: DirectoryBoard, engine=None):
        self.name = name
        self.config = config
        self.net = net
        self.directory = directory
        self.engine = engine or RealClientEngine(config)
        self.graph = RoutingGraph(config.n_blocks)
        self.bans = BanList(lambda: net.clock.now)
        self._sid_counter = 0
        self._sid_base = M._splitmix64(zlib.crc32(name.encode()), 1)[0].item() << 64

    # -- plumbing -------------------------------------------------------------

    @property
    def clock(self):
        return self.net.clock

    def _new_sid(self) -> int:
        self._sid_counter += 1
        return (self._sid_base | self._sid_counter) & ((1 << 128) - 1)

    def refresh_routes(self) -> None:
        routes = []
        measures = getattr(self.net, "measures_rtt", False)
        for rec in self.directory.snapshot():
            if rec.state != STATE_ONLINE or self.bans.is_banned(rec.server_id):
                continue
            if measures and rec.server_id not in self.graph.servers:
                try:   # real transport: ping new candidates during routing
                    self.net.ping(self.name, rec.address)
                except Exception:
                    continue
            rtt = self.net.profile_of(rec.address).rtt_ms
            routes.append(ServerRoute(rec.server_id, rec.start, rec.end,
                                      rec.throughput, rtt))
        self.graph.sync(routes)

    def _call_stage(self, server_id: str, session_id: int, payload):
        """One stage RPC; returns the reply's payload, of the type ``_REPLY``
        expects. A message that got no reply raises a banning
        ``_StageFailure``. An ``Error`` reply raises what its code means:
        ``capacity`` a ``CapacityError``; ``expired``, ``desync`` and
        ``no_record`` (a live server lost the state: rebuild it or repeat the
        pass there) a ``_StageFailure`` without a ban; any other code a
        banning one. A reply of any other type, or a ``StepResult`` whose
        blob is not the shape ``_REPLY_ROWS`` declares, is a banning failure
        too, raised before the caller books anything of the reply."""
        try:
            reply = self.net.rpc(self.name, server_id, WireMessage(payload, session_id))
        except (MessageDropped, ConnectionFailed) as e:
            raise _StageFailure(server_id, ban=True, reason=str(e),
                                dropped=isinstance(e, MessageDropped))
        res = reply.payload
        if isinstance(res, _REPLY[type(payload)]):
            if isinstance(res, StepResult):
                rows, cols = _REPLY_ROWS[type(payload)](payload), self.config.hidden_dim
                if (res.blob.rows, res.blob.cols) != (rows, cols):
                    raise _StageFailure(server_id, ban=True, reason=(
                        f"answered {res.blob.rows}x{res.blob.cols}, expected {rows}x{cols}"))
            return res
        if isinstance(res, Error):
            if res.code == "capacity":
                raise CapacityError(res.detail)
            lost_state = res.code in ("expired", "desync", "no_record")
            raise _StageFailure(server_id, ban=not lost_state, reason=res.code)
        raise _StageFailure(server_id, ban=True, reason=f"answered {reply.kind.name}")

    def _ban_if(self, f: _StageFailure) -> None:
        """Ban the failed server unless it is alive and only lost state."""
        if f.ban:
            self.bans.ban(f.server_id)

    def _blob_from_rows(self, rows: np.ndarray | None, width: int, n_new: int,
                        quantized: bool) -> HiddenBlob:
        if rows is None:
            return HiddenBlob.shape_only(width * n_new, self.config.hidden_dim, quantized)
        return HiddenBlob.from_array(rows.reshape(width * n_new, -1), quantized)

    def _result_rows(self, res: StepResult, width: int, n_new: int) -> np.ndarray | None:
        if res.blob.synthetic:
            return None
        return res.blob.array().reshape(width, n_new, self.config.hidden_dim)

    # -- chain management -----------------------------------------------------

    def _route_chain(self, start: int, end: int, deadline: float | None) -> Chain:
        for _ in range(MAX_REROUTES):
            self._check_deadline(deadline)
            self.refresh_routes()
            try:
                return self.graph.find_best_chain(start, end)
            except NoRouteError:
                self.clock.advance(REROUTE_BACKOFF_S)
        raise SwarmUnavailableError(f"no chain for [{start}, {end}) after "
                                    f"{MAX_REROUTES} reroutes")

    def _reply_quantized(self, hop: Hop, quantized: bool) -> bool:
        # only stage-to-stage boundaries carry coded activations; the final
        # stage's output feeds the client's head and stays exact
        return quantized and hop.end < self.config.n_blocks

    def _request_quantized(self, hop: Hop, quantized: bool) -> bool:
        # the first stage receives client-computed embeddings, also exact
        return quantized and hop.start > 0

    def _open_session(self, stage: _Stage, width: int, quantized: bool) -> _Stage:
        """Open a fresh session for ``stage``."""
        hop = stage.hop
        stage.session_id = self._new_sid()
        self._call_stage(hop.server_id, stage.session_id, OpenSession(
            hop.start, hop.end, width, self._reply_quantized(hop, quantized)))
        return stage

    def _rebuild(self, stage: _Stage, hist: np.ndarray | None, width: int, quantized: bool,
                 counters: RunCounters, want_outputs: bool = False):
        """Open a fresh session for ``stage`` and replay ``hist``, its
        ``[width, rows_sent, d]`` history from ``_Stage.lineage`` (None on
        the timed engine), there in one batched restore; returns the
        restore's outputs if asked for."""
        t = stage.rows_sent
        self._open_session(stage, width, quantized)
        wire_q = self._request_quantized(stage.hop, quantized)
        blob = (self._blob_from_rows(hist, width, t, wire_q) if t > 0
                else HiddenBlob.shape_only(0, self.config.hidden_dim))
        res = self._call_stage(stage.hop.server_id, stage.session_id,
                               Restore(t, blob, width, want_outputs))
        counters.messages += 1
        counters.restore_events.append(
            (stage.hop.start, stage.hop.end, t, width * t * self.config.hidden_dim * 4))
        if want_outputs and t > 0:
            return self._result_rows(res, width, t)
        return None

    def _open_chain(self, quantized: bool, deadline: float | None) -> list[_Stage]:
        """Route a full chain and open width-1 sessions along it; an open
        failure closes the hops already open and costs a ban and a fresh
        route, at most ``MAX_REROUTES`` times."""
        for _ in range(MAX_REROUTES):
            chain = self._route_chain(0, self.config.n_blocks, deadline)
            stages: list[_Stage] = []
            try:
                for hop in chain.hops:
                    stages.append(self._open_session(_Stage(hop, 0), 1, quantized))
                return stages
            except _StageFailure as f:
                self._close_stages(stages)
                self._ban_if(f)
        raise SwarmUnavailableError(f"opening a chain failed {MAX_REROUTES} times")

    def _start_run(self, prefix: list[int], n_new: int, deadline_s: float | None):
        """Argument check shared by every generation entry point."""
        if not prefix:
            raise ConfigurationError("prefix must be non-empty")
        if len(prefix) + n_new > self.config.max_seq_len:
            raise CapacityError("prefix + n_new exceeds max_seq_len")
        started = self.clock.now
        deadline = started + deadline_s if deadline_s is not None else None
        return started, deadline, RunCounters()

    def _close_stages(self, stages: list[_Stage]) -> None:
        for s in stages:
            try:
                self.net.post(self.name, s.hop.server_id, WireMessage(Close(), s.session_id))
            except Exception:
                pass

    def _check_deadline(self, deadline: float | None) -> None:
        if deadline is not None and self.net.clock.now >= deadline:
            raise BudgetExhausted(f"simulated deadline reached at {self.clock.now:.1f}s")

    # -- the decode loop ----------------------------------------------------------

    def _step_stage(self, stage: _Stage, rows: np.ndarray | None, width: int, n_new: int,
                    quantized: bool, counters: RunCounters, record: bool):
        """Send ``stage`` its next ``Step`` and return the rows it answers
        (None on the timed engine)."""
        hop = stage.hop
        wire_q = self._request_quantized(hop, quantized)
        blob = self._blob_from_rows(rows, width, n_new, wire_q)
        res = self._call_stage(hop.server_id, stage.session_id,
                               Step(stage.rows_sent, blob, width, n_new))
        counters.messages += 1
        counters.step_activation_bytes += width * n_new * self.config.hidden_dim * 4
        if record and rows is not None:
            stage.record(rows, width, n_new)
        stage.rows_sent += n_new
        return self._result_rows(res, width, n_new)

    def _reorder_stage(self, stage: _Stage, parents0: list[int], counters: RunCounters):
        self._call_stage(stage.hop.server_id, stage.session_id,
                         Reorder([p + 1 for p in parents0]))
        counters.messages += 1
        stage.reorder(parents0)
        return parents0

    def _replace_failed_stage(self, failed: _Stage, width: int, quantized: bool,
                              counters: RunCounters, deadline: float | None) -> list[_Stage]:
        """Ban the failed server, route replacements for its blocks, and
        rebuild their state from the client-side cache. As in ``_open_chain``,
        a replacement that fails closes the ones already rebuilt."""
        self.bans.ban(failed.hop.server_id)
        counters.recoveries += 1
        hist = failed.lineage()
        t = failed.rows_sent

        for _ in range(MAX_REROUTES):
            self._check_deadline(deadline)
            counters.reroutes += 1
            seg = self._route_chain(failed.hop.start, failed.hop.end, deadline)
            new_stages: list[_Stage] = []
            try:
                inputs = hist          # [width, t, d] or None (timed)
                for n, hop in enumerate(seg.hops):
                    stage = _Stage(hop, 0, rows_sent=t)
                    if t > 0:
                        stage.record(inputs, width, t)
                    inputs = self._rebuild(stage, inputs, width, quantized, counters,
                                           want_outputs=n < len(seg.hops) - 1 and t > 0)
                    new_stages.append(stage)
                return new_stages
            except _StageFailure as f2:
                self._close_stages(new_stages)
                self._ban_if(f2)
        raise SwarmUnavailableError("replacements kept failing")

    def _walk(self, stages: list[_Stage], op, x, width: int, quantized: bool,
              counters: RunCounters, deadline: float | None, recover: bool = True,
              first: int = 0):
        """Apply ``op(stage, x)`` to every stage in order from ``first``,
        each result the next stage's ``x``, and return the last result.
        ``width`` is the stages' width before ``op``. A stage that fails is
        rebuilt in place (``expired``/``desync``: a live server lost the
        session) or replaced from its history, and ``op`` repeats there;
        ``stages`` is updated in place. Without ``recover`` the failure
        propagates."""
        idx = first
        while idx < len(stages):
            self._check_deadline(deadline)
            stage = stages[idx]
            try:
                x = op(stage, x)
                idx += 1
            except _StageFailure as f:
                if not recover:
                    raise
                if not f.ban:       # expired/desync: rebuild on the live server
                    counters.recoveries += 1
                    hist = stage.lineage()
                    try:
                        self._rebuild(stage, hist, width, quantized, counters)
                        continue
                    except _StageFailure:
                        pass
                stages[idx:idx + 1] = self._replace_failed_stage(
                    stage, width, quantized, counters, deadline)
        return x

    def _decode(self, prefix: list[int], n_new: int, choose, quantized: bool,
                counters: RunCounters, deadline: float | None, recover: bool = True) -> None:
        """Open a chain, step it ``n_new`` times and close it, whether or not
        the run finishes. ``choose(out)`` gets the final stage's rows
        ``[width, n, d]`` (None on the timed engine) and returns the beam
        parents to reorder every stage by (None for one sequence) and the
        next token of every slot; no reorder follows the last step, whose
        sessions close next. With ``recover`` every stage keeps its history,
        which charges ``CACHE_OVERHEAD_S`` per stage per step to the clock:
        virtual time on the simulator, nothing on the TCP wall clock.

        On the shape-only engine over the simulator, single-row steps (width
        1, one new position) go through ``_run_ahead`` first, which books
        them in bulk up to the next interruption; the step it stopped at
        goes on below from the stage it stopped at."""
        feed, width, n_in = list(prefix), 1, len(prefix)   # input tokens, slot-major
        ahead = isinstance(self.engine, TimedClientEngine) and isinstance(self.net, SimNetwork)

        def step(stage, rows):      # reads the current width and n_in
            return self._step_stage(stage, rows, width, n_in, quantized, counters, recover)

        def reorder(stage, parents):
            return self._reorder_stage(stage, parents, counters)

        stages = self._open_chain(quantized, deadline)
        try:
            i = 0
            while i < n_new:
                first = 0
                if ahead and width == n_in == 1:
                    done, first = self._run_ahead(stages, n_new - i, choose, quantized,
                                                  counters, deadline, recover)
                    i += done
                    if i == n_new:
                        break
                out = self._walk(stages, step, self.engine.embed_array(feed), width,
                                 quantized, counters, deadline, recover, first)
                counters.per_step_bytes.append(width * n_in * self.config.hidden_dim * 4
                                               * len(stages))
                if recover:
                    self.clock.charge(CACHE_OVERHEAD_S * len(stages))
                parents, feed = choose(out)
                if parents is not None and i < n_new - 1:
                    self._walk(stages, reorder, parents, width, quantized, counters,
                               deadline, recover)
                width, n_in = len(feed), 1
                i += 1
        finally:
            self._close_stages(stages)

    def _run_ahead(self, stages: list[_Stage], steps: int, choose, quantized: bool,
                   counters: RunCounters, deadline: float | None, recover: bool):
        """Book up to ``steps`` width-1 shape-only decode steps through
        ``SimNetwork.run_ahead``, with what ``_step_stage`` and the decode
        loop book per stage and per step. Returns (steps done, stages of the
        next step done)."""
        d = self.config.hidden_dim
        calls = []
        for s in stages:
            blob = self._blob_from_rows(None, 1, 1, self._request_quantized(s.hop, quantized))
            calls.append((s.hop.server_id, WireMessage(Step(s.rows_sent, blob, 1, 1),
                                                       s.session_id)))
        done, partial = self.net.run_ahead(
            self.name, calls, CACHE_OVERHEAD_S * len(stages) if recover else 0.0, steps,
            deadline)
        sent = done * len(stages) + partial
        counters.messages += sent
        counters.step_activation_bytes += sent * d * 4
        for at, stage in enumerate(stages):
            stage.rows_sent += done + (at < partial)
        for _ in range(done):
            counters.per_step_bytes.append(d * 4 * len(stages))
            choose(None)
        return done, partial

    # -- public API -------------------------------------------------------------

    def generate(self, prefix: list[int], n_new: int, mode: str = "greedy",
                 strategy: Strategy = Strategy.DUAL_CACHE,
                 sample_seed: int | None = None, quantized: bool = False,
                 deadline_s: float | None = None, progress_probe=None,
                 teacher_tokens: list[int] | None = None) -> GenerateResult:
        """Generate ``n_new`` tokens after ``prefix`` through the swarm.
        Returns the full token sequence (prefix included) plus counters.

        With ``mode="sample"`` each attempt draws from a generator seeded by
        ``sample_seed``; ``sample_seed=None`` seeds each attempt, restarts
        included, from OS entropy.

        With ``teacher_tokens`` the context is forced to the given tokens
        while the model's own picks are still recorded in the result; this is
        the matched-context evaluation used to quantify codec effects without
        divergence amplification."""
        started, deadline, counters = self._start_run(prefix, n_new, deadline_s)
        if n_new == 0:
            return GenerateResult(list(prefix), counters, 0.0)
        if teacher_tokens is not None and strategy != Strategy.DUAL_CACHE:
            raise ConfigurationError("teacher forcing runs on the dual-cache path")
        if teacher_tokens is not None and len(teacher_tokens) < n_new:
            raise ConfigurationError("need one teacher token per step")
        chooser = partial(self._chooser, prefix, mode, sample_seed, teacher_tokens)
        try:
            if strategy == Strategy.CACHELESS:
                tokens = self._generate_cacheless(chooser, n_new, quantized, counters,
                                                  deadline)
            else:
                tokens = self._generate_cached(prefix, chooser, n_new, quantized, counters,
                                               deadline, strategy == Strategy.RESTART,
                                               progress_probe, started)
        except (BudgetExhausted, SwarmUnavailableError) as e:
            e.counters = counters      # partial accounting for the harness
            raise
        return GenerateResult(tokens, counters, self.clock.now - started)

    def _chooser(self, prefix, mode, sample_seed, teacher_tokens):
        """A fresh token list (the prefix) and the ``choose`` that appends the
        engine's pick to it and feeds back that pick or the teacher's token.
        Only sampling gets a generator, seeded by ``sample_seed``."""
        rng = np.random.Generator(np.random.PCG64(sample_seed)) if mode == "sample" else None
        tokens = list(prefix)

        def choose(out):
            tokens.append(self.engine.pick(out[0] if out is not None else None, mode, rng))
            feed = (tokens[-1] if teacher_tokens is None
                    else teacher_tokens[len(tokens) - len(prefix) - 1])
            return None, [feed]
        return tokens, choose

    def _generate_cached(self, prefix, chooser, n_new, quantized, counters, deadline,
                         restart: bool, progress_probe, started) -> list[int]:
        """Dual-cache recovers every failure inside ``_decode``; restart lets
        it end the attempt and starts over from the prefix."""
        attempts = 0
        while True:
            self._check_deadline(deadline)
            tokens, choose = chooser()
            try:
                self._decode(prefix, n_new, choose, quantized, counters, deadline,
                             recover=not restart)
                return tokens
            except _StageFailure as f:
                attempts += 1
                counters.restarts = attempts
                self._ban_if(f)
                if progress_probe is not None:
                    elapsed = self.clock.now - started
                    remaining = None if deadline is None else deadline - self.clock.now
                    if progress_probe(RestartProgress(attempts, elapsed,
                                                      elapsed / attempts, remaining)):
                        raise BudgetExhausted(
                            f"restart probe gave up after {attempts} attempts")

    def _generate_cacheless(self, chooser, n_new, quantized, counters, deadline) -> list[int]:
        """A lost ``Forward`` is resent to the same server; any other failure
        repeats the step on a new chain, at most ``MAX_REROUTES`` times."""
        chain = self._route_chain(0, self.config.n_blocks, deadline)
        tokens, choose = chooser()
        run_sid = self._new_sid()
        for step in range(n_new):
            rows = self.engine.embed_array(tokens)
            t = len(tokens)
            for _ in range(MAX_REROUTES):   # the whole step repeats on a new chain
                self._check_deadline(deadline)
                try:
                    current = rows
                    for si, hop in enumerate(chain.hops):
                        blob = self._blob_from_rows(current, 1, t,
                                                    self._request_quantized(hop, quantized))
                        fwd = Forward(step * 4096 + si, blob, 1, t, hop.start, hop.end,
                                      quantize_reply=self._reply_quantized(hop, quantized))
                        while True:
                            self._check_deadline(deadline)
                            try:
                                res = self._call_stage(hop.server_id, run_sid, fwd)
                                break
                            except _StageFailure as f:
                                if not f.dropped:
                                    raise
                                counters.retries += 1   # same server, same req_id
                        counters.messages += 1
                        counters.step_activation_bytes += t * self.config.hidden_dim * 4
                        current = self._result_rows(res, 1, t)
                    break
                except _StageFailure as f:
                    self._ban_if(f)
                    counters.recoveries += 1
                    chain = self._route_chain(0, self.config.n_blocks, deadline)
            else:
                raise SwarmUnavailableError(f"step {step} failed on {MAX_REROUTES} chains")
            counters.per_step_bytes.append(t * self.config.hidden_dim * 4
                                           * len(chain.hops))
            choose(current)
        return tokens

    # -- beam search ------------------------------------------------------------

    def beam_generate(self, prefix: list[int], n_new: int, k: int,
                      quantized: bool = False, deadline_s: float | None = None
                      ) -> GenerateResult:
        """Width-k distributed beam search: batched stepping plus per-step
        cache reordering on every stage. Matches the local beam oracle."""
        if k < 1:
            raise ConfigurationError("beam width must be >= 1")
        if n_new < 1:
            raise ConfigurationError("beam search needs n_new >= 1")
        if not isinstance(self.engine, RealClientEngine):
            raise ConfigurationError("beam search needs the real client engine")
        started, deadline, counters = self._start_run(prefix, n_new, deadline_s)
        hyps, scores = [list(prefix)], np.zeros(1)

        def choose(out):
            nonlocal hyps, scores
            logits = self.engine.logits(out[:, -1, :])
            parents, toks, scores = M.beam_select(scores, logits, k)
            hyps = [hyps[p] + [t] for p, t in zip(parents, toks)]
            return parents, toks

        self._decode(prefix, n_new, choose, quantized, counters, deadline)
        beams = [(h, float(s)) for h, s in zip(hyps, scores)]
        return GenerateResult(beams[0][0], counters, self.clock.now - started,
                              beams=beams)


# ---------------------------------------------------------------------------
# parameter-efficient fine-tuning
# ---------------------------------------------------------------------------

def _softmax64(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class FinetuneCounters:
    passes: int = 0
    repeats: int = 0
    messages: int = 0


class FinetuneSession:
    """Client-owned trainable parameters (soft prompt + classification head)
    trained through frozen remote blocks with plain SGD.

    Every optimizer step is one full forward/backward pass over the batch.
    Server state for training is just the forward record for the matching
    backward, so any failure discards the incomplete pass and repeats it from
    scratch; repeats are exact, which makes training trajectories identical
    across failure patterns.
    """

    def __init__(self, client: SwarmClient, n_labels: int, prompt_len: int = 4,
                 lr: float = 0.5, init_seed: int = 0):
        if not isinstance(client.engine, RealClientEngine):
            raise ConfigurationError("fine-tuning needs the real client engine")
        self.client = client
        self.config = client.config
        d = self.config.hidden_dim
        rng = np.random.Generator(np.random.PCG64(init_seed))
        a = 1.0 / np.sqrt(d)
        self.soft_prompt = rng.uniform(-a, a, (prompt_len, d)).astype(np.float32)
        self.head = rng.uniform(-a, a, (d, n_labels)).astype(np.float32)
        self.lr = lr
        self.loss_curve: list[float] = []
        self.counters = FinetuneCounters()
        self._sid = client._new_sid()
        self._req = 0

    def step(self, batch_tokens: np.ndarray, labels: np.ndarray) -> float:
        """One SGD step on (batch_tokens [B, T], labels [B]). Returns loss."""
        for _ in range(MAX_PASS_RETRIES):
            self._req += 1
            try:
                loss, g_prompt, g_head = self._one_pass(batch_tokens, labels, self._req)
                self.soft_prompt -= (self.lr * g_prompt).astype(np.float32)
                self.head -= (self.lr * g_head).astype(np.float32)
                self.loss_curve.append(loss)
                return loss
            except _StageFailure as f:
                self.counters.repeats += 1
                self.client._ban_if(f)
        raise SwarmUnavailableError("fine-tune pass kept failing")

    def _one_pass(self, batch_tokens: np.ndarray, labels: np.ndarray, req_id: int):
        client = self.client
        engine: RealClientEngine = client.engine
        B, T = batch_tokens.shape
        P = self.soft_prompt.shape[0]
        d = self.config.hidden_dim
        chain = client._route_chain(0, self.config.n_blocks, None)

        x = np.empty((B, P + T, d), np.float32)
        x[:, :P, :] = self.soft_prompt
        x[:, P:, :] = engine.embed_array(batch_tokens)

        h = x
        for hop in chain.hops:
            blob = client._blob_from_rows(h, B, P + T, False)
            reply = self._training_rpc(hop, Forward(req_id, blob, B, P + T, hop.start,
                                                    hop.end, record=True))
            h = client._result_rows(reply, B, P + T)

        # classification on the final position of each sequence
        h_last = h[:, -1, :].astype(np.float64)
        logits = h_last @ self.head.astype(np.float64)
        probs = _softmax64(logits)
        loss = float(-np.log(probs[np.arange(B), labels] + 1e-12).mean())

        dlogits = probs
        dlogits[np.arange(B), labels] -= 1.0
        dlogits /= B
        g_head = h_last.T @ dlogits
        g_h = np.zeros((B, P + T, d), np.float32)
        g_h[:, -1, :] = (dlogits @ self.head.T.astype(np.float64)).astype(np.float32)

        g = g_h
        for hop in reversed(chain.hops):
            blob = client._blob_from_rows(g, B, P + T, False)
            reply = self._training_rpc(hop, Backward(req_id, blob, B, P + T,
                                                     hop.start, hop.end))
            g = client._result_rows(reply, B, P + T)

        g_prompt = g[:, :P, :].sum(axis=0)
        self.counters.passes += 1
        return loss, g_prompt, g_head.astype(np.float32)

    def _training_rpc(self, hop: Hop, payload):
        reply = self.client._call_stage(hop.server_id, self._sid, payload)
        self.counters.messages += 1
        return reply
