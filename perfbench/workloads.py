"""The three benchmark workloads, driven through swarmpipe's public API.

Each workload is a closed loop with one client: the next request is sent when
the previous one returns. The seed draws one fixed-size request set with
stratified lengths (one draw per quantile stratum, jittered by the seed), so
every seed gives a set of the same shape.

A workload object offers:

* ``setup()`` builds the system in its initial state and warms it up;
  returns (setup s, build s). Every set-up of one seed gives the same state.
* ``make_requests()`` draws the request set from the seed (untimed).
* ``run(req)`` sends one request; returns an ``Outcome``. Outcomes the
  workload expects (a grid cell hitting its budget) are part of the outcome;
  anything else raised propagates and counts as a failed request.
* ``check(outcome)`` compares the output with the oracle; returns the reason
  it fails, or "".
* ``virtual(outcomes)`` gives the deterministic metrics of those outcomes.
* ``close()`` releases what ``setup`` built.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from swarmpipe import bench, swarm
from swarmpipe.bench import ChurnStudySpec
from swarmpipe.client import FinetuneSession, Strategy, SwarmClient
from swarmpipe.directory import DirectoryBoard, DirectoryHandler
from swarmpipe.errors import BudgetExhausted, SwarmUnavailableError
from swarmpipe.model import ModelConfig, init_model, reference_beam, reference_generate
from swarmpipe.netsim import NetProfile
from swarmpipe.realnet import DirectoryClient, RealNetwork
from swarmpipe.server import BlockServer, RealServerEngine, ServerCfg

_MASK = (1 << 64) - 1


def mix(seed: int, *labels) -> int:
    """Stable 64-bit seed from the workload seed and labels: splitmix64 over
    the seed and a CRC-32 of the labels' canonical string. Python's hash() is
    salted per process, so it is never used."""
    z = (seed * 0x9E3779B97F4A7C15 + zlib.crc32("/".join(map(str, labels)).encode())) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def rng_for(seed: int, *labels) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix(seed, *labels)))


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """One point in each of n equal strata of [0, 1), jittered by the seed,
    in ascending order."""
    return (np.arange(n) + 0.5 + 0.2 * (rng.random(n) - 0.5)) / n


@dataclass
class Request:
    rid: int
    kind: str          # greedy | beam | quantized | finetune | cell | churn
    args: dict


@dataclass
class Outcome:
    request: Request
    wall_s: float = 0.0
    probe_s: float | None = None    # host speed around the request, if probed
    tokens: int = 0                 # tokens generated (0: none, or the request failed)
    output: object = None           # what the oracle check compares
    virtual: dict = field(default_factory=dict)   # deterministic per seed
    counters: dict = field(default_factory=dict)  # client recovery counters
    error: str = ""


class Workload:
    """Defaults for the optional parts of the workload interface."""

    host_scaled = True      # CPU-bound: times are scaled by the host-speed probe

    def close(self) -> None:
        pass

    def run_checks(self, outcomes: list[Outcome]) -> list[str]:
        """Checks over the whole run; one line per failure."""
        return []

    def reported_bytes(self) -> int:
        """Bytes the real transport reports having carried."""
        return 0


def _counters(c) -> dict:
    return {"recoveries": c.recoveries, "reroutes": c.reroutes, "retries": c.retries,
            "restarts": c.restarts, "restore_bytes": c.restore_bytes}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# sim_faults
# ---------------------------------------------------------------------------

SIM_FAILURE_PROB = 1e-2
SIM_REQUESTS = 30          # greedy requests
SIM_MIN_OUT, SIM_MAX_OUT = 16, 256   # output lengths, log-uniform between these
SIM_BEAMS = 2              # and width-4 beam searches
BEAM_WIDTH = 4
BEAM_MIN_OUT, BEAM_MAX_OUT = 16, 48
SIM_MIN_PREFIX, SIM_MAX_PREFIX = 3, 40


class SimServing(Workload):
    """Real numpy engine on SimNetwork, 4 stages x 2 replicas, dual-cache,
    with per-message drops."""

    def __init__(self, seed: int):
        self.seed = seed
        self.profile = NetProfile(failure_prob=SIM_FAILURE_PROB)
        self.cfg = ModelConfig(seed=mix(seed, "model") & 0x7FFFFFFF)
        self.swarm = None

    def setup(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        self.swarm = swarm.build_sim_swarm(self.cfg, n_stages=4, replicas=2,
                                           profile=self.profile, seed=mix(self.seed, "net"))
        build_s = time.perf_counter() - t0
        self.client = self.swarm.client("bench")
        self.client.generate([1, 2, 3], 8)
        return time.perf_counter() - t0, build_s

    def make_requests(self) -> list[Request]:
        rng = rng_for(self.seed, "sim")
        n_out = np.round(SIM_MIN_OUT * (SIM_MAX_OUT / SIM_MIN_OUT)
                         ** stratified(rng, SIM_REQUESTS))
        beam_out = np.round(BEAM_MIN_OUT + (BEAM_MAX_OUT - BEAM_MIN_OUT)
                            * stratified(rng, SIM_BEAMS))
        plens = np.round(SIM_MIN_PREFIX + (SIM_MAX_PREFIX - SIM_MIN_PREFIX)
                         * stratified(rng, SIM_REQUESTS + SIM_BEAMS))
        kinds = ["greedy"] * SIM_REQUESTS + ["beam"] * SIM_BEAMS
        lengths = n_out.tolist() + beam_out.tolist()
        reqs = []
        for i, plen in zip(rng.permutation(len(kinds)).tolist(),
                           plens[rng.permutation(len(kinds))].tolist()):
            prefix = rng.integers(0, self.cfg.vocab_size, int(plen)).tolist()
            n = int(lengths[i])
            reqs.append(Request(0, kinds[i], {"prefix": prefix, "n": n}))
        return reqs

    def run(self, req: Request) -> Outcome:
        net = self.swarm.net
        bytes0 = net.total_bytes()
        drops0 = sum(s.drops for s in net.links.values())
        a = req.args
        if req.kind == "beam":
            res = self.client.beam_generate(a["prefix"], a["n"], BEAM_WIDTH)
            output = [[h, s] for h, s in res.beams]
        else:
            res = self.client.generate(a["prefix"], a["n"])
            output = res.tokens
        counters = _counters(res.counters)
        virtual = dict(counters, elapsed_s=res.elapsed_s,
                       wire_bytes=net.total_bytes() - bytes0,
                       drops=sum(s.drops for s in net.links.values()) - drops0)
        return Outcome(req, tokens=a["n"], output=output, virtual=virtual, counters=counters)

    def check(self, o: Outcome) -> str:
        a = o.request.args
        if o.request.kind == "beam":
            want = reference_beam(self.cfg, a["prefix"], a["n"], BEAM_WIDTH)
            if [h for h, _ in o.output] != [h for h, _ in want]:
                return "beam hypotheses differ from reference_beam"
            if any(abs(s - w) > 1e-4 for (_, s), (_, w) in zip(o.output, want)):
                return "beam scores differ from reference_beam by more than 1e-4"
            return ""
        if o.output != reference_generate(self.cfg, a["prefix"], a["n"]):
            return "tokens differ from reference_generate"
        return ""

    def virtual(self, outcomes: list[Outcome]) -> dict:
        tokens = sum(o.tokens for o in outcomes)
        total = lambda key: sum(o.virtual[key] for o in outcomes)
        return {"tokens": tokens,
                "sim_steps_per_s": _ratio(tokens, total("elapsed_s")),
                "wire_bytes_per_token": _ratio(total("wire_bytes"), tokens),
                "recoveries_per_1k_tokens": 1000 * _ratio(total("recoveries"), tokens),
                "drops": total("drops")}


# ---------------------------------------------------------------------------
# tcp_mixed
# ---------------------------------------------------------------------------

TCP_STAGES = 4
TCP_GENERATE = 20          # half of them quantized
TCP_FINETUNE = 3
TCP_MIN_OUT, TCP_MAX_OUT = 4, 24
TCP_MIN_PREFIX, TCP_MAX_PREFIX = 3, 12
FINETUNE_BATCH = 4
FINETUNE_MIN_LEN, FINETUNE_MAX_LEN = 6, 12
QUANTIZED_MATCH_FLOOR = 0.9


class TcpMixed(Workload):
    """Real RealNetwork over loopback: a directory and 4 in-process block
    servers, one client reading the directory through DirectoryClient. Most
    of a request's time is WallClock.advance sleeping, which the host's speed
    does not change, so times are not host-scaled."""

    host_scaled = False

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = ModelConfig(seed=mix(seed, "model") & 0x7FFFFFFF)
        self.net = None

    def setup(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        net = RealNetwork(timeout_s=5.0)
        board = DirectoryBoard(self.cfg.n_blocks, lambda: net.clock.now)
        net.register("directory", DirectoryHandler(board))
        blocks = init_model(self.cfg)[0]
        for si, (a, b) in enumerate(swarm.stage_intervals(self.cfg.n_blocks, TCP_STAGES)):
            srv = BlockServer(ServerCfg(f"s{si}", b - a, a),
                              RealServerEngine(self.cfg, blocks), net, board)
            net.register(f"s{si}", srv)
            srv.start_timers()
        self.net = net
        build_s = time.perf_counter() - t0
        directory = DirectoryClient(net, client_name="bench")
        deadline = time.monotonic() + 10.0
        while len(directory.snapshot()) < TCP_STAGES:
            if time.monotonic() > deadline:
                raise RuntimeError("servers did not announce within 10 s")
            time.sleep(0.002)
        self.client = SwarmClient("bench", self.cfg, net, directory)
        self.client.generate([1, 2, 3], 2)
        self.finetune = FinetuneSession(self.client, n_labels=4, prompt_len=2, lr=0.05,
                                        init_seed=mix(self.seed, "finetune") & 0xFFFFFFFF)
        return time.perf_counter() - t0, build_s

    def close(self) -> None:
        if self.net is not None:
            self.net.shutdown()
            self.net = None

    def make_requests(self) -> list[Request]:
        rng = rng_for(self.seed, "tcp")
        u = stratified(rng, TCP_GENERATE)
        plens = np.round(TCP_MIN_PREFIX + (TCP_MAX_PREFIX - TCP_MIN_PREFIX)
                         * stratified(rng, TCP_GENERATE))[rng.permutation(TCP_GENERATE)]
        quantized_parity = int(rng.integers(0, 2))
        reqs = []
        for i, (ui, plen) in enumerate(zip(u, plens.tolist())):
            prefix = rng.integers(0, self.cfg.vocab_size, int(plen)).tolist()
            n = TCP_MIN_OUT + int(round((TCP_MAX_OUT - TCP_MIN_OUT) * ui))
            if i % 2 == quantized_parity:
                # teacher forcing needs the oracle continuation as input
                teacher = reference_generate(self.cfg, prefix, n)[len(prefix):]
                reqs.append(Request(0, "quantized", {"prefix": prefix, "n": n,
                                                     "teacher": teacher}))
            else:
                reqs.append(Request(0, "greedy", {"prefix": prefix, "n": n}))
        for ulen in stratified(rng, TCP_FINETUNE):
            seq_len = round(FINETUNE_MIN_LEN + (FINETUNE_MAX_LEN - FINETUNE_MIN_LEN) * ulen)
            batch = rng.integers(0, self.cfg.vocab_size, (FINETUNE_BATCH, seq_len))
            reqs.append(Request(0, "finetune", {"batch": batch}))
        return [reqs[i] for i in rng.permutation(len(reqs)).tolist()]

    def run(self, req: Request) -> Outcome:
        a = req.args
        if req.kind == "finetune":
            repeats = self.finetune.counters.repeats
            loss = self.finetune.step(a["batch"], (a["batch"][:, -1] % 4).astype(np.intp))
            retries = self.finetune.counters.repeats - repeats
            return Outcome(req, output=loss, counters={"retries": retries})
        res = self.client.generate(a["prefix"], a["n"], quantized=req.kind == "quantized",
                                   teacher_tokens=a.get("teacher"))
        virtual = {}
        if req.kind == "quantized":
            picks = res.tokens[len(a["prefix"]):]
            virtual["matched"] = sum(x == y for x, y in zip(picks, a["teacher"]))
        return Outcome(req, tokens=a["n"], output=res.tokens, virtual=virtual,
                       counters=_counters(res.counters))

    def check(self, o: Outcome) -> str:
        a = o.request.args
        if o.request.kind == "finetune":
            return "" if math.isfinite(o.output) else "fine-tune loss is not finite"
        if o.request.kind == "quantized":
            # the int8 codec may change a pick; the run-level match rate is gated
            ok = (len(o.output) == len(a["prefix"]) + a["n"]
                  and o.output[:len(a["prefix"])] == a["prefix"]
                  and all(0 <= t < self.cfg.vocab_size for t in o.output))
            return "" if ok else "quantized output is malformed"
        if o.output != reference_generate(self.cfg, a["prefix"], a["n"]):
            return "tokens differ from reference_generate"
        return ""

    def quantized_match_rate(self, outcomes: list[Outcome]) -> float:
        q = [o for o in outcomes if o.request.kind == "quantized" and not o.error]
        return _ratio(sum(o.virtual["matched"] for o in q), sum(o.tokens for o in q))

    def run_checks(self, outcomes: list[Outcome]) -> list[str]:
        rate = self.quantized_match_rate(outcomes)
        if rate < QUANTIZED_MATCH_FLOOR:
            return [f"quantized match rate {rate:.3f} < {QUANTIZED_MATCH_FLOOR}"]
        return []

    def virtual(self, outcomes: list[Outcome]) -> dict:
        return {"tokens": sum(o.tokens for o in outcomes),
                "quantized_match_rate": self.quantized_match_rate(outcomes),
                "finetune_losses": [o.output for o in outcomes
                                    if o.request.kind == "finetune"]}

    def reported_bytes(self) -> int:
        return self.net.total_bytes()


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

GRID_STRATEGIES = (Strategy.RESTART, Strategy.CACHELESS, Strategy.DUAL_CACHE)
GRID_LENGTHS = (128, 1024, 2048)       # the paper's failure-rate grid lengths
GRID_RATES = (0.0, 1e-3, 1e-2)
CELL_BUDGET_S = 1000.0     # simulated seconds per grid cell
CELL_PREFIX = 8
CHURN_MIN = 60             # minutes of the churn study, one full churn cycle


class Studies(Workload):
    """The studies job: a trimmed failure-rate grid on shape-only swarms, one
    request per cell, then a shortened desk-scale churn study as the last
    request. Grid cells are built from build_sim_swarm + generate, not
    run_failure_rate_cell, whose cell seeds come from the salted hash().
    The churn study runs the desk-scale swarm (spec seed 0) over one
    CHURN_MIN-minute churn cycle instead of 480 minutes, for every workload
    seed: its cost depends on the spec seed by up to ~60% on one host, which
    would make the job's time track the seed, not the program."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = ModelConfig(seed=mix(seed, "model") & 0x7FFFFFFF,
                               max_seq_len=max(GRID_LENGTHS) + CELL_PREFIX)

    def _cell_swarm(self, p: float, cell_seed: int):
        return swarm.build_sim_swarm(self.cfg, n_stages=4, replicas=2, engine="timed",
                                     profile=NetProfile(1e9, 2.0, p), seed=cell_seed)

    def setup(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        sw = self._cell_swarm(0.0, mix(self.seed, "warm-up"))
        build_s = time.perf_counter() - t0
        sw.client("bench").generate(list(range(1, CELL_PREFIX + 1)), 16)
        return time.perf_counter() - t0, build_s

    def make_requests(self) -> list[Request]:
        rng = rng_for(self.seed, "studies")
        reqs = [Request(0, "cell", {"strategy": s, "length": n, "p": p,
                                    "seed": mix(self.seed, "cell", s.value, n, p),
                                    "prefix": rng.integers(0, 256, CELL_PREFIX).tolist()})
                for s in GRID_STRATEGIES for n in GRID_LENGTHS for p in GRID_RATES]
        return reqs + [Request(0, "churn", {})]

    def run(self, req: Request) -> Outcome:
        if req.kind == "churn":
            spec = ChurnStudySpec(duration_min=CHURN_MIN, period_min=CHURN_MIN)
            return Outcome(req, output=bench.run_load_balance_experiment(spec))
        a = req.args
        sw = self._cell_swarm(a["p"], a["seed"])
        started = sw.net.clock.now
        try:
            res = sw.client("bench").generate(a["prefix"], a["length"], strategy=a["strategy"],
                                              deadline_s=CELL_BUDGET_S)
            completed, counters, tokens = True, res.counters, res.tokens
        except (BudgetExhausted, SwarmUnavailableError) as e:
            completed, counters, tokens = False, e.counters, type(e).__name__
        counters = _counters(counters)
        cell = dict(counters, completed=completed, tokens=tokens,
                    sim_time_s=sw.net.clock.now - started, wire_bytes=sw.net.total_bytes(),
                    drops=sum(s.drops for s in sw.net.links.values()))
        return Outcome(req, tokens=a["length"] if completed else 0, output=cell,
                       virtual={"drops": cell["drops"]}, counters=counters)

    def check(self, o: Outcome) -> str:
        if o.request.kind == "churn":
            churn = o.output
            if len(churn.minutes) != churn.spec.duration_min:
                return "churn study minute count is wrong"
            for m in churn.minutes:
                values = list(m.throughput.values())
                if not all(math.isfinite(v) and v >= 0 for v in values):
                    return f"churn minute {m.minute}: throughput not finite and >= 0"
                if m.throughput["upper"] < max(values) - 1e-9:
                    return f"churn minute {m.minute}: upper bound below an achieved throughput"
            return ""
        # hitting the simulated budget is an expected outcome; the shape-only
        # client engine always picks token 0
        a, c = o.request.args, o.output
        if c["completed"] and (c["tokens"] != a["prefix"] + [0] * a["length"]
                               or c["sim_time_s"] <= 0):
            return f"cell {a['strategy'].value}/{a['length']}/{a['p']}: unexpected result"
        return ""

    def virtual(self, outcomes: list[Outcome]) -> dict:
        cells = [o.output for o in outcomes if o.request.kind == "cell"]
        done = [c for c in cells if c["completed"]]
        tokens = sum(o.tokens for o in outcomes)
        total = lambda key, group: sum(c[key] for c in group)
        return {"tokens": tokens,
                "incomplete_cells": len(cells) - len(done),
                "sim_steps_per_s": _ratio(tokens, total("sim_time_s", done)),
                "wire_bytes_per_token": _ratio(total("wire_bytes", done), tokens),
                "recoveries_per_1k_tokens": 1000 * _ratio(total("recoveries", done), tokens),
                "drops": total("drops", cells)}


WORKLOADS = {
    "sim_faults": SimServing,
    "tcp_mixed": TcpMixed,
    "studies": Studies,
}
