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
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from .directory import BanList, DirectoryBoard, STATE_ONLINE
from .errors import (BudgetExhausted, CapacityError, ConfigurationError, ConnectionFailed,
                     MessageDropped, NoRouteError, SwarmUnavailableError)
from .netsim import SimNetwork
from .router import Chain, Hop, RoutingGraph, ServerRoute
from .wire import (Backward, Close, Error, Forward, HiddenBlob, OpenSession,
                   Reorder, Restore, Step, StepResult, WireMessage)


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
    def __init__(self, server_id: str, ban: bool, reason: str, recover_in_place: bool = False):
        super().__init__(f"{server_id}: {reason}")
        self.server_id = server_id
        self.ban = ban
        self.recover_in_place = recover_in_place


# ---------------------------------------------------------------------------
# client payload engines
# ---------------------------------------------------------------------------

class RealClientEngine:
    """Owns embeddings and token choice; mirrors the local oracle exactly."""

    def __init__(self, config: M.ModelConfig, client_params: M.ClientParams | None = None):
        self.config = config
        self.params = client_params or M.init_model(config)[1]

    def embed_array(self, tokens: list[int]) -> np.ndarray:
        return self.params.embedding[np.asarray(tokens, dtype=np.intp)].copy()

    def pick(self, final_rows: np.ndarray, mode: str, rng, top_k) -> int:
        logits = M.logits_for(self.params, final_rows[-1])
        if mode == "greedy":
            return M.greedy_pick(logits)
        return M.sample_pick(logits, rng, top_k)

    def logits(self, rows: np.ndarray) -> np.ndarray:
        return M.logits_for(self.params, rows)


class TimedClientEngine:
    """Shape-only client side for benchmark runs: byte-exact payload sizes,
    deterministic dummy tokens, no arithmetic."""

    def __init__(self, config: M.ModelConfig):
        self.config = config

    def embed_array(self, tokens: list[int]) -> None:
        return None

    def pick(self, final_rows, mode: str, rng, top_k) -> int:
        return 0


# ---------------------------------------------------------------------------
# per-stage state
# ---------------------------------------------------------------------------

@dataclass
class _HistoryItem:
    kind: str                      # "rows" | "reorder"
    width: int = 1
    n_new: int = 0
    rows: np.ndarray | None = None   # [width, n_new, d]; None for timed engine
    parents0: list[int] | None = None


@dataclass
class _Stage:
    hop: Hop
    session_id: int
    history: list[_HistoryItem] = field(default_factory=list)
    rows_sent: int = 0             # positions processed at this stage

    @property
    def server_id(self) -> str:
        return self.hop.server_id

    def record(self, rows: np.ndarray | None, width: int, n_new: int) -> None:
        self.history.append(_HistoryItem(
            "rows", width, n_new,
            rows.reshape(width, n_new, -1).copy() if rows is not None else None))

    def lineage_matrix(self, d: int, final_width: int) -> np.ndarray | None:
        """Per-slot input sequences after composing beam reorders: the exact
        state a replacement must rebuild. Shape [final_width, t, d]."""
        anc = list(range(final_width))
        collected: list[list[np.ndarray]] = [[] for _ in range(final_width)]
        timed = False
        for it in reversed(self.history):
            if it.kind == "reorder":
                anc = [it.parents0[a] for a in anc]
            else:
                if it.rows is None:
                    timed = True
                    continue
                for s in range(final_width):
                    collected[s].append(it.rows[anc[s]])
        if timed or not collected[0]:
            return None
        slots = [np.concatenate(list(reversed(ch)), axis=0) for ch in collected]
        return np.stack(slots)


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------

class _Inbox:
    """Client endpoint collecting relayed stage results."""

    def __init__(self) -> None:
        self.results: dict[tuple[int, int], StepResult] = {}

    def handle(self, msg: WireMessage, ctx) -> WireMessage:
        if isinstance(msg.payload, StepResult):
            self.results[(msg.session_id, msg.payload.position_offset)] = msg.payload
        return WireMessage(Close())


class SwarmClient:
    def __init__(self, name: str, config: M.ModelConfig, net: SimNetwork,
                 directory: DirectoryBoard, engine=None,
                 ban_cooldown_s: float = 15.0, reroute_backoff_s: float = 2.0,
                 max_reroutes: int = 10, cache_overhead_s: float = 0.005):
        self.name = name
        self.config = config
        self.net = net
        self.directory = directory
        self.engine = engine or RealClientEngine(config)
        self.graph = RoutingGraph(config.n_blocks)
        self.bans = BanList(lambda: net.clock.now, ban_cooldown_s)
        self.reroute_backoff_s = reroute_backoff_s
        self.max_reroutes = max_reroutes
        self.cache_overhead_s = cache_overhead_s
        self._sid_counter = 0
        self._sid_base = M._splitmix64(zlib.crc32(name.encode()), 1)[0].item() << 64
        self.inbox = _Inbox()
        net.register(name, self.inbox)

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

    def _rpc(self, dest: str, payload, sid: int = 0) -> WireMessage:
        return self.net.rpc(self.name, dest, WireMessage(payload, sid))

    def _call_stage(self, stage: _Stage, payload):
        """One stage RPC with failures mapped to _StageFailure."""
        try:
            reply = self._rpc(stage.server_id, payload, stage.session_id)
        except (MessageDropped, ConnectionFailed) as e:
            raise _StageFailure(stage.server_id, ban=True, reason=str(e))
        if isinstance(reply.payload, Error):
            err = reply.payload
            if err.code in ("expired", "desync"):
                raise _StageFailure(stage.server_id, ban=False, reason=err.code,
                                    recover_in_place=True)
            if err.code == "capacity":
                raise CapacityError(err.detail)
            raise _StageFailure(stage.server_id, ban=True, reason=err.code)
        return reply.payload

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
        for _ in range(self.max_reroutes):
            self._check_deadline(deadline)
            self.refresh_routes()
            try:
                return self.graph.find_best_chain(start, end)
            except NoRouteError:
                self.clock.advance(self.reroute_backoff_s)
        raise SwarmUnavailableError(f"no chain for [{start}, {end}) after "
                                    f"{self.max_reroutes} reroutes")

    def _reply_quantized(self, hop: Hop, quantized: bool) -> bool:
        # only stage-to-stage boundaries carry coded activations; the final
        # stage's output feeds the client's head and stays exact
        return quantized and hop.end < self.config.n_blocks

    def _request_quantized(self, hop: Hop, quantized: bool) -> bool:
        # the first stage receives client-computed embeddings, also exact
        return quantized and hop.start > 0

    def _ban(self, server_id: str) -> None:
        self.bans.ban(server_id)
        self.graph.apply_update("ban", server_id)

    def _open_session(self, stage: _Stage, width: int, quantized: bool,
                      relay_next: str | None = None) -> _Stage:
        """Open a fresh session for ``stage``; ``relay_next`` (the next hop,
        "" at the end of the chain) makes it a relay session."""
        stage.session_id = self._new_sid()
        self._call_stage(stage, OpenSession(
            stage.hop.start, stage.hop.end, width, self._reply_quantized(stage.hop, quantized),
            relay_next=relay_next or "", client_addr="" if relay_next is None else self.name))
        return stage

    def _rebuild(self, stage: _Stage, width: int, quantized: bool, counters: RunCounters,
                 want_outputs: bool = False, relay_next: str | None = None):
        """Open a fresh session for ``stage`` and replay its history there."""
        hist = stage.lineage_matrix(self.config.hidden_dim, width)
        self._open_session(stage, width, quantized, relay_next)
        return self._restore_stage(stage, hist, stage.rows_sent, width, quantized,
                                   counters, want_outputs)

    def _open_chain(self, quantized: bool, deadline: float | None,
                    relay: bool = False) -> tuple[Chain, list[_Stage]]:
        """Route a full chain and open width-1 sessions along it; an open
        failure costs a ban and a fresh route."""
        while True:
            chain = self._route_chain(0, self.config.n_blocks, deadline)
            nexts = [h.server_id for h in chain.hops[1:]] + [""]
            try:
                return chain, [self._open_session(_Stage(hop, 0), 1, quantized,
                                                  nxt if relay else None)
                               for hop, nxt in zip(chain.hops, nexts)]
            except _StageFailure as f:
                if f.ban:
                    self._ban(f.server_id)

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
                self.net.post(self.name, s.server_id, WireMessage(Close(), s.session_id))
            except Exception:
                pass

    def _check_deadline(self, deadline: float | None) -> None:
        if deadline is not None and self.clock.now >= deadline:
            raise BudgetExhausted(f"simulated deadline reached at {self.clock.now:.1f}s")

    # -- dual cache / restart core ---------------------------------------------

    def _step_one_stage(self, stage: _Stage, rows: np.ndarray | None, width: int,
                        n_new: int, quantized: bool, counters: RunCounters,
                        record_history: bool):
        blob = self._blob_from_rows(rows, width, n_new,
                                    self._request_quantized(stage.hop, quantized))
        res = self._call_stage(stage, Step(stage.rows_sent, blob, width, n_new))
        counters.messages += 1
        counters.step_activation_bytes += width * n_new * self.config.hidden_dim * 4
        if record_history:
            stage.record(rows, width, n_new)
        stage.rows_sent += n_new
        return self._result_rows(res, width, n_new)

    def _restore_stage(self, stage: _Stage, history_rows: np.ndarray | None,
                       t: int, width: int, quantized: bool, counters: RunCounters,
                       want_outputs: bool):
        wire_q = self._request_quantized(stage.hop, quantized)
        blob = (self._blob_from_rows(history_rows, width, t, wire_q) if t > 0
                else HiddenBlob.shape_only(0, self.config.hidden_dim))
        res = self._call_stage(stage, Restore(t, blob, width, want_outputs))
        counters.messages += 1
        counters.restore_events.append(
            (stage.hop.start, stage.hop.end, t, width * t * self.config.hidden_dim * 4))
        stage.rows_sent = t
        if want_outputs and t > 0:
            return self._result_rows(res, width, t)
        return None

    def _replace_failed_stage(self, stages: list[_Stage], idx: int, width: int,
                              quantized: bool, counters: RunCounters,
                              deadline: float | None) -> list[_Stage]:
        """Ban the failed server, route replacements for its blocks, and
        rebuild their state from the client-side cache."""
        failed = stages[idx]
        self._ban(failed.server_id)
        counters.recoveries += 1
        hist = failed.lineage_matrix(self.config.hidden_dim, width)
        t = failed.rows_sent

        for _ in range(self.max_reroutes):
            self._check_deadline(deadline)
            counters.reroutes += 1
            seg = self._route_chain(failed.hop.start, failed.hop.end, deadline)
            try:
                new_stages: list[_Stage] = []
                inputs = hist          # [width, t, d] or None (timed)
                for n, hop in enumerate(seg.hops):
                    stage = _Stage(hop, 0, rows_sent=t)
                    if t > 0:
                        stage.record(inputs, width, t)
                    inputs = self._rebuild(stage, width, quantized, counters,
                                           want_outputs=n < len(seg.hops) - 1 and t > 0)
                    new_stages.append(stage)
                return new_stages
            except _StageFailure as f2:
                if f2.ban:
                    self._ban(f2.server_id)
        raise SwarmUnavailableError("replacements kept failing")

    def _run_chain_step(self, stages: list[_Stage], rows, width: int, n_new: int,
                        quantized: bool, counters: RunCounters, dual: bool,
                        deadline: float | None):
        """Send one step through every stage, applying the recovery policy.
        Returns final-stage rows. Mutates ``stages`` on replacement."""
        idx = 0
        current = rows
        while idx < len(stages):
            self._check_deadline(deadline)
            stage = stages[idx]
            try:
                out = self._step_one_stage(stage, current, width, n_new, quantized,
                                           counters, record_history=dual)
                current = out
                idx += 1
            except _StageFailure as f:
                if not dual:
                    raise
                if f.recover_in_place:
                    # session lapsed or desynced on a live server: rebuild there
                    counters.recoveries += 1
                    try:
                        self._rebuild(stage, width, quantized, counters)
                        continue
                    except _StageFailure:
                        pass
                replacements = self._replace_failed_stage(
                    stages, idx, width, quantized, counters, deadline)
                stages[idx:idx + 1] = replacements
        return current

    # -- public API -------------------------------------------------------------

    def generate(self, prefix: list[int], n_new: int, mode: str = "greedy",
                 strategy: Strategy = Strategy.DUAL_CACHE,
                 sample_seed: int | None = None, top_k: int | None = None,
                 quantized: bool = False, deadline_s: float | None = None,
                 progress_probe=None,
                 teacher_tokens: list[int] | None = None) -> GenerateResult:
        """Generate ``n_new`` tokens after ``prefix`` through the swarm.
        Returns the full token sequence (prefix included) plus counters.

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
        try:
            if strategy == Strategy.CACHELESS:
                tokens = self._generate_cacheless(prefix, n_new, mode, sample_seed,
                                                  top_k, quantized, counters, deadline)
            elif strategy == Strategy.RESTART:
                tokens = self._generate_restart(prefix, n_new, mode, sample_seed, top_k,
                                                quantized, counters, deadline,
                                                progress_probe, started)
            else:
                tokens = self._generate_dual(prefix, n_new, mode, sample_seed, top_k,
                                             quantized, counters, deadline,
                                             teacher_tokens=teacher_tokens)
        except (BudgetExhausted, SwarmUnavailableError) as e:
            e.counters = counters      # partial accounting for the harness
            raise
        return GenerateResult(tokens, counters, self.clock.now - started)

    def _token_rng(self, sample_seed):
        return np.random.Generator(np.random.PCG64(sample_seed))

    def _generate_dual(self, prefix, n_new, mode, sample_seed, top_k, quantized,
                       counters, deadline, dual: bool = True,
                       teacher_tokens: list[int] | None = None) -> list[int]:
        _, stages = self._open_chain(quantized, deadline)
        rng = self._token_rng(sample_seed)
        tokens = list(prefix)
        rows = self.engine.embed_array(prefix)
        rows = rows.reshape(1, -1, self.config.hidden_dim) if rows is not None else None
        n_in = len(prefix)
        for _ in range(n_new):
            out = self._run_chain_step(stages, rows, 1, n_in, quantized, counters,
                                       dual, deadline)
            counters.per_step_bytes.append(n_in * self.config.hidden_dim * 4
                                           * len(stages))
            if dual and self.cache_overhead_s:
                self.clock.advance(self.cache_overhead_s * len(stages))
            tok = self.engine.pick(out[0] if out is not None else None, mode, rng, top_k)
            tokens.append(tok)
            feed = tok if teacher_tokens is None else teacher_tokens[len(tokens)
                                                                     - len(prefix) - 1]
            emb = self.engine.embed_array([feed])
            rows = (emb.reshape(1, 1, -1) if emb is not None else None)
            n_in = 1
        self._close_stages(stages)
        return tokens

    def _generate_restart(self, prefix, n_new, mode, sample_seed, top_k, quantized,
                          counters, deadline, progress_probe, started) -> list[int]:
        attempts = 0
        while True:
            self._check_deadline(deadline)
            try:
                return self._generate_dual(prefix, n_new, mode, sample_seed, top_k,
                                           quantized, counters, deadline, dual=False)
            except _StageFailure as f:
                attempts += 1
                counters.restarts = attempts
                if f.ban:
                    self._ban(f.server_id)
                if progress_probe is not None:
                    elapsed = self.clock.now - started
                    remaining = None if deadline is None else deadline - self.clock.now
                    if progress_probe(RestartProgress(attempts, elapsed,
                                                      elapsed / attempts, remaining)):
                        raise BudgetExhausted(
                            f"restart probe gave up after {attempts} attempts")

    def _generate_cacheless(self, prefix, n_new, mode, sample_seed, top_k, quantized,
                            counters, deadline) -> list[int]:
        chain = self._route_chain(0, self.config.n_blocks, deadline)
        rng = self._token_rng(sample_seed)
        tokens = list(prefix)
        run_sid = self._new_sid()
        for step in range(n_new):
            emb = self.engine.embed_array(tokens)
            rows = emb.reshape(len(tokens), -1) if emb is not None else None
            t = len(tokens)
            while True:   # whole step retries on reroute
                self._check_deadline(deadline)
                try:
                    current = rows
                    for si, hop in enumerate(chain.hops):
                        req_id = step * 4096 + si
                        wire_q = self._request_quantized(hop, quantized)
                        blob = (HiddenBlob.from_array(current, wire_q)
                                if current is not None
                                else HiddenBlob.shape_only(t, self.config.hidden_dim,
                                                           wire_q))
                        while True:
                            self._check_deadline(deadline)
                            try:
                                reply = self._rpc(
                                    hop.server_id,
                                    Forward(req_id, blob, 1, t,
                                            quantize_reply=self._reply_quantized(
                                                hop, quantized)),
                                    run_sid)
                                break
                            except MessageDropped:
                                counters.retries += 1   # same server, same req_id
                            except ConnectionFailed:
                                self._ban(hop.server_id)
                                raise _StageFailure(hop.server_id, True, "offline")
                        counters.messages += 1
                        counters.step_activation_bytes += t * self.config.hidden_dim * 4
                        if isinstance(reply.payload, Error):
                            raise _StageFailure(hop.server_id, True, reply.payload.code)
                        res = reply.payload
                        current = (res.blob.array() if not res.blob.synthetic else None)
                    break
                except _StageFailure:
                    counters.recoveries += 1
                    chain = self._route_chain(0, self.config.n_blocks, deadline)
            counters.per_step_bytes.append(t * self.config.hidden_dim * 4
                                           * len(chain.hops))
            tok = self.engine.pick(current[-1:] if current is not None else None,
                                   mode, rng, top_k)
            tokens.append(tok)
        return tokens

    # -- beam search ------------------------------------------------------------

    def beam_generate(self, prefix: list[int], n_new: int, k: int,
                      quantized: bool = False, deadline_s: float | None = None
                      ) -> GenerateResult:
        """Width-k distributed beam search: batched stepping plus per-step
        cache reordering on every stage. Matches the local beam oracle."""
        if k < 1:
            raise ConfigurationError("beam width must be >= 1")
        if not isinstance(self.engine, RealClientEngine):
            raise ConfigurationError("beam search needs the real client engine")
        started, deadline, counters = self._start_run(prefix, n_new, deadline_s)
        _, stages = self._open_chain(quantized, deadline)

        width = 1
        rows = self.engine.embed_array(prefix).reshape(1, -1, self.config.hidden_dim)
        out = self._run_chain_step(stages, rows, 1, len(prefix), quantized,
                                   counters, True, deadline)
        logits = self.engine.logits(out[:, -1, :])
        parents, toks, scores = M.beam_select(np.zeros(1), logits, k)
        self._broadcast_reorder(stages, parents, width, quantized, counters, deadline)
        width = k
        hyps = [list(prefix) + [t] for t in toks]

        for _ in range(n_new - 1):
            rows = np.stack([self.engine.embed_array([h[-1]]) for h in hyps])
            out = self._run_chain_step(stages, rows, width, 1, quantized,
                                       counters, True, deadline)
            logits = self.engine.logits(out[:, -1, :])
            parents, toks, scores = M.beam_select(scores, logits, k)
            self._broadcast_reorder(stages, parents, width, quantized, counters, deadline)
            hyps = [hyps[p] + [t] for p, t in zip(parents, toks)]
        self._close_stages(stages)
        beams = [(h, float(s)) for h, s in zip(hyps, scores)]
        return GenerateResult(beams[0][0], counters, self.clock.now - started,
                              beams=beams)

    def _broadcast_reorder(self, stages: list[_Stage], parents0: list[int],
                           width: int, quantized: bool, counters: RunCounters,
                           deadline) -> None:
        item = _HistoryItem("reorder", parents0=list(parents0))
        idx = 0
        while idx < len(stages):
            self._check_deadline(deadline)
            stage = stages[idx]
            try:
                self._call_stage(stage, Reorder([p + 1 for p in parents0]))
                counters.messages += 1
                stage.history.append(item)
                idx += 1
            except _StageFailure as f:
                # replacement rebuilds the post-reorder state: the pending
                # reorder joins the history before lineage composition
                stage.history.append(item)
                new_width = len(parents0)
                replacements = self._replace_failed_stage(
                    stages, idx, new_width, quantized, counters, deadline)
                stages[idx:idx + 1] = replacements
                idx += 1

    # -- relay mode ---------------------------------------------------------------

    def generate_relay(self, prefix: list[int], n_new: int, mode: str = "greedy",
                       sample_seed: int | None = None,
                       deadline_s: float | None = None) -> GenerateResult:
        """Direct server-to-server relay: each stage forwards activations to
        both the client and the next hop. Falls back to client-routed sends
        for the remainder of a step when a relay link fails."""
        started, deadline, counters = self._start_run(prefix, n_new, deadline_s)
        chain, stages = self._open_chain(False, deadline, relay=True)
        rng = self._token_rng(sample_seed)
        tokens = list(prefix)
        rows = self.engine.embed_array(prefix).reshape(1, -1, self.config.hidden_dim)
        n_in = len(prefix)
        step_budget_s = max(0.5, 8 * chain.cost_ms / 1000.0)

        for _ in range(n_new):
            out = self._relay_step(stages, rows, n_in, counters, deadline,
                                   step_budget_s)
            tok = self.engine.pick(out[0], mode, rng, None)
            tokens.append(tok)
            rows = self.engine.embed_array([tok]).reshape(1, 1, -1)
            n_in = 1
        self._close_stages(stages)
        return GenerateResult(tokens, counters, self.clock.now - started)

    def _relay_step(self, stages: list[_Stage], rows: np.ndarray, n_in: int,
                    counters: RunCounters, deadline, step_budget_s: float) -> np.ndarray:
        pos = stages[0].rows_sent
        blob = self._blob_from_rows(rows, 1, n_in, False)
        try:
            self.net.post(self.name, stages[0].server_id,
                          WireMessage(Step(pos, blob, 1, n_in), stages[0].session_id))
        except ConnectionFailed:
            pass   # recovered below like any missing result
        counters.messages += 1
        counters.step_activation_bytes += n_in * self.config.hidden_dim * 4
        wait_until = self.clock.now + step_budget_s

        results: list[np.ndarray | None] = [None] * len(stages)
        for i, stage in enumerate(stages):
            key = (stage.session_id, pos)
            while key not in self.inbox.results:
                nt = self.clock.next_event_time()
                if nt is None or nt > wait_until:
                    break
                self.clock.advance_to(nt)
            res = self.inbox.results.pop(key, None)
            if res is None:
                # relay broke at stage i: finish the step client-routed
                self.clock.advance_to(wait_until)
                inputs = rows if i == 0 else results[i - 1].reshape(1, n_in, -1)
                tail = stages[i:]
                out = self._run_chain_step(tail, inputs, 1, n_in, False,
                                           counters, True, deadline)
                stages[i:] = tail
                self._rewire_relay(stages, counters, deadline)
                return out
            results[i] = res.blob.array()
            stage.record(rows if i == 0 else results[i - 1], 1, n_in)
            stage.rows_sent += n_in
        return results[-1].reshape(1, n_in, -1)

    def _rewire_relay(self, stages: list[_Stage], counters: RunCounters,
                      deadline) -> None:
        """After replacements, re-open sessions so relay_next pointers follow
        the current chain order, preserving positions via restore."""
        for _ in range(self.max_reroutes):
            self._check_deadline(deadline)
            nexts = [s.server_id for s in stages[1:]] + [""]
            try:
                for n, (stage, nxt) in enumerate(zip(stages, nexts)):
                    self._rebuild(stage, 1, False, counters, relay_next=nxt)
                return
            except _StageFailure:
                stages[n:n + 1] = self._replace_failed_stage(stages, n, 1, False,
                                                             counters, deadline)
                # chain membership changed: rewire from the top
        raise SwarmUnavailableError("relay rewiring kept failing")


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
                 lr: float = 0.5, init_seed: int = 0, max_pass_retries: int = 50):
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
        self.max_pass_retries = max_pass_retries
        self.loss_curve: list[float] = []
        self.counters = FinetuneCounters()
        self._sid = client._new_sid()
        self._req = 0

    def step(self, batch_tokens: np.ndarray, labels: np.ndarray) -> float:
        """One SGD step on (batch_tokens [B, T], labels [B]). Returns loss."""
        for _ in range(self.max_pass_retries):
            self._req += 1
            try:
                loss, g_prompt, g_head = self._one_pass(batch_tokens, labels, self._req)
                self.soft_prompt -= (self.lr * g_prompt).astype(np.float32)
                self.head -= (self.lr * g_head).astype(np.float32)
                self.loss_curve.append(loss)
                return loss
            except (_StageFailure, MessageDropped, ConnectionFailed) as e:
                self.counters.repeats += 1
                sid = getattr(e, "server_id", None)
                if sid and getattr(e, "ban", True):
                    self.client._ban(sid)
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
        for b in range(B):
            x[:, P:, :][b] = engine.embed_array(list(batch_tokens[b]))

        h = x
        for hop in chain.hops:
            blob = HiddenBlob.from_array(h.reshape(B * (P + T), d))
            reply = self._training_rpc(hop.server_id,
                                       Forward(req_id, blob, B, P + T, record=True))
            h = reply.blob.array().reshape(B, P + T, d)

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
            blob = HiddenBlob.from_array(g.reshape(B * (P + T), d))
            reply = self._training_rpc(hop.server_id,
                                       Backward(req_id, blob, B, P + T))
            g = reply.blob.array().reshape(B, P + T, d)

        g_prompt = g[:, :P, :].sum(axis=0)
        self.counters.passes += 1
        return loss, g_prompt, g_head.astype(np.float32)

    def _training_rpc(self, dest: str, payload):
        client = self.client
        reply = client.net.rpc(client.name, dest, WireMessage(payload, self._sid))
        self.counters.messages += 1
        if isinstance(reply.payload, Error):
            raise _StageFailure(dest, ban=reply.payload.code not in ("no_record",),
                                reason=reply.payload.code)
        return reply.payload
