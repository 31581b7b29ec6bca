"""Span recorder for the traced benchmark run.

Every traced function is wrapped at the name its caller looks up, so the
program itself is unchanged: a module attribute when callers go through the
module (``M.block_forward_batched``), a class attribute for methods, and the
importing module's own binding where a function is imported by name
(``bench`` imports the balancer functions, which ``balancer`` itself calls
through its own globals, ``realnet`` imports the frame codec, ``server`` and
``wire`` look up ``fnv1a64``).

A span records its id, name, start, end, parent id, request id and thread.
Spans nest per thread; a span opened with no enclosing span on its thread is
a root. Roots on the client thread carry the id of the request in flight;
handler spans on TCP listener threads are roots tagged with the message's
session id. Calls, total and self time per span name are added up as spans
close; the spans themselves stay in memory, up to ``SPAN_LOG_LIMIT`` of them,
and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

SPAN_LOG_LIMIT = 100_000    # spans kept for the JSON lines; the sums cover all


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}    # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.log: list[tuple] = []
        self.dropped = 0                     # spans closed after the log was full
        self.request: int | None = None      # request in flight on the client thread
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, tag=None) -> list:
        """Open a span; returns the frame to pass to ``exit``."""
        stack = self._stack()
        if stack:
            parent_id, request = stack[-1][0], stack[-1][3]
        else:
            parent_id, request = None, tag if tag is not None else self.request
        # id, name, start, request, parent id, time covered by children
        frame = [next(self._ids), name, time.perf_counter(), request, parent_id, 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, name, start, request, parent_id, child_s = frame
        duration = end - start
        if stack:
            stack[-1][5] += duration
        with self._lock:
            row = self.stats.get(name)
            if row is None:
                row = self.stats[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_s
            if len(self.log) < SPAN_LOG_LIMIT:
                self.log.append((span_id, name, start, end, parent_id, request,
                                 threading.get_ident()))
            else:
                self.dropped += 1

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    # -- patching -------------------------------------------------------------

    def swap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; ``unpatch`` restores it."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def patch(self, owner, attr: str, name, tally=None, tag=None) -> None:
        """Wrap ``owner.attr`` in a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``tally(count, result, *args)`` adds to counters through
        ``count(key, n)`` after the call returns; ``tag(*args)`` gives the
        request id of a root span."""
        self.swap(owner, attr, lambda orig: self.wrap(orig, name, tally, tag))

    def wrap(self, orig, name, tally=None, tag=None):
        """``orig`` wrapped in a span; arguments as for ``patch``."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args)
            frame = tracer.enter(label, tag(*args) if tag else None)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if tally is not None:
                tally(tracer.count, result, *args)
            return result
        return wrapper

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the part covered by child spans on the same thread)."""
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.stats.items()}

    def write_jsonl(self, path: str) -> None:
        """The logged spans, times in seconds from the first span's start."""
        origin = min((span[2] for span in self.log), default=0.0)
        with open(path, "w") as f:
            for span_id, name, start, end, parent, request, thread in self.log:
                f.write(json.dumps({"id": span_id, "name": name, "start": start - origin,
                                    "end": end - origin, "parent": parent,
                                    "request": request, "thread": thread}) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every swarmpipe layer. Span names are
    ``<module>.<what>``; ``Tracer.unpatch`` undoes all of it."""
    from swarmpipe import (balancer, bench, directory, model, netsim, realnet, router, server,
                           swarm, wire)

    def rows(count, result, params, x, *rest):
        count("model.block_forward.rows", x.shape[0] * x.shape[1])

    def encoded(count, frame, msg):
        count("wire.encode_frame.bytes", len(frame))
        count("realnet.bytes_framed", wire.framed_nbytes(msg))

    def decoded(count, result, buf):
        count("wire.decode_frame.bytes", result[1])

    def checksummed(count, result, data):
        count("wire.checksum.bytes", len(data))

    kinds = {wire.Step: "step", wire.Restore: "restore", wire.Forward: "forward",
             wire.Backward: "backward", wire.Reorder: "reorder",
             wire.OpenSession: "open"}

    def handler_name(srv, msg, ctx):
        return "server." + kinds.get(type(msg.payload), "other")

    def handler_rows(count, reply, srv, msg, ctx):
        # rows times blocks that this server computed for the message
        p = msg.payload
        if isinstance(p, wire.Step):
            rows = p.width * p.n_new
        elif isinstance(p, wire.Restore):
            rows = p.width * p.t
            count("server.restore.rows", rows)
        elif isinstance(p, wire.Forward):
            rows = p.batch * p.tokens
        else:
            return
        count("server.block_rows", rows * (srv.end - srv.start))

    P = tracer.patch
    P(model, "block_forward_batched", "model.block_forward", tally=rows)
    P(model.KVCache, "append", "model.kv_append")
    P(model.KVCache, "gather", "model.kv_gather")
    P(model, "block_backward", "model.block_backward")
    P(wire, "quantize_hidden", "quantize.encode")
    P(wire, "dequantize_hidden", "quantize.decode")
    P(realnet, "encode_frame", "wire.encode_frame", tally=encoded)
    P(realnet, "decode_frame", "wire.decode_frame", tally=decoded)
    P(wire, "fnv1a64", "wire.checksum", tally=checksummed)
    P(server, "fnv1a64", "wire.checksum", tally=checksummed)
    P(netsim, "framed_nbytes", "wire.framed_nbytes")
    P(netsim.SimNetwork, "rpc", "netsim.rpc")
    P(netsim.SimNetwork, "post", "netsim.post")
    tracer.swap(netsim.VirtualClock, "schedule",
                lambda orig: lambda clock, t, fn: orig(clock, t, tracer.wrap(fn, "netsim.timer")))
    P(realnet.RealNetwork, "rpc", "realnet.rpc")
    P(realnet.RealNetwork, "_connect", "realnet.connect")
    P(realnet.WallClock, "advance", "realnet.clock_sleep")
    P(realnet.WallClock, "advance_to", "realnet.clock_sleep")
    P(directory.DirectoryBoard, "snapshot", "directory.snapshot")
    P(realnet.DirectoryClient, "snapshot", "directory.snapshot")
    P(directory.DirectoryBoard, "announce", "directory.announce")
    P(router.RoutingGraph, "sync", "router.sync")
    P(router.RoutingGraph, "find_best_chain", "router.find_best_chain")
    P(router.RoutingGraph, "apply_update", "router.apply_update")
    P(balancer, "choose_start", "balancer.choose_start")
    P(bench, "choose_start", "balancer.choose_start")
    P(bench, "propose_rebalance", "balancer.propose_rebalance")
    P(server, "propose_rebalance", "balancer.propose_rebalance")
    P(balancer, "greedy_join_assignment", "balancer.upper_bound")
    P(bench, "greedy_join_assignment", "balancer.upper_bound")
    P(bench, "optimal_assignment_bruteforce", "balancer.upper_bound")
    P(bench, "run_load_balance_experiment", "bench.churn_study")
    P(server.BlockServer, "handle", handler_name, tally=handler_rows,
      tag=lambda srv, msg, ctx: msg.session_id)
    P(server.BlockServer, "announce", "server.announce")
    P(swarm, "build_sim_swarm", "swarm.build")
