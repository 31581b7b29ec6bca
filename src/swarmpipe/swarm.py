"""Convenience builders: wire a simulated swarm (directory + block servers +
client factory) in one call, directly or from a JSON config file. Used by the
tests, the benchmark harness, and the demo scripts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .balancer import RebalanceConfig
from .client import RealClientEngine, SwarmClient, TimedClientEngine
from .directory import DIRECTORY_ADDR, DirectoryBoard, DirectoryHandler
from .model import ModelConfig
from .netsim import ChurnSchedule, NetProfile, SimNetwork
from .server import BlockServer, RealServerEngine, ServerCfg, TimedServerEngine


@dataclass
class SimSwarm:
    net: SimNetwork
    board: DirectoryBoard
    servers: dict[str, BlockServer]
    model_config: ModelConfig
    engine_kind: str
    _client_seq: int = 0

    def client(self, name: str | None = None) -> SwarmClient:
        self._client_seq += 1
        name = name or f"client{self._client_seq}"
        engine = (RealClientEngine(self.model_config) if self.engine_kind == "real"
                  else TimedClientEngine(self.model_config))
        return SwarmClient(name, self.model_config, self.net, self.board, engine=engine)

    def server_list(self) -> list[BlockServer]:
        return [self.servers[k] for k in sorted(self.servers)]


def stage_intervals(n_blocks: int, n_stages: int) -> list[tuple[int, int]]:
    """Split [0, n_blocks) into n_stages near-even contiguous spans."""
    base, extra = divmod(n_blocks, n_stages)
    out = []
    at = 0
    for s in range(n_stages):
        size = base + (1 if s < extra else 0)
        out.append((at, at + size))
        at += size
    return out


def _build(model: ModelConfig, profile: NetProfile, seed: int, engine: str,
           entries: list[dict]) -> SimSwarm:
    """The one build loop: a directory, then each server entry in order
    (``ServerCfg`` fields plus ``churn``, ``drop_override`` and ``balancer``),
    registered and announcing."""
    net = SimNetwork(seed=seed, default_profile=profile)
    board = DirectoryBoard(model.n_blocks, lambda: net.clock.now)
    net.register(DIRECTORY_ADDR, DirectoryHandler(board))

    servers: dict[str, BlockServer] = {}
    for entry in entries:
        churn = entry.pop("churn", None)
        drop_override = entry.pop("drop_override", None)
        balancer = entry.pop("balancer", False)
        cfg = ServerCfg(**entry)
        eng = RealServerEngine(model) if engine == "real" else TimedServerEngine(model)
        srv = servers[cfg.server_id] = BlockServer(cfg, eng, net, board)
        net.register(cfg.server_id, srv, churn=churn, drop_override=drop_override)
        srv.start_timers(balancer=balancer)
    net.clock.advance(0.1)   # let the initial announcements land
    return SimSwarm(net, board, servers, model, engine)


def build_sim_swarm(model: ModelConfig | None = None,
                    n_stages: int = 4,
                    replicas: int = 2,
                    profile: NetProfile | None = None,
                    engine: str = "real",
                    seed: int = 0,
                    compute_tokens_per_s: float = 100.0,
                    server_overrides: dict[str, dict] | None = None,
                    churn: dict[str, ChurnSchedule] | None = None,
                    balancer: bool = False) -> SimSwarm:
    """Stand up a simulated swarm: one directory plus ``replicas`` servers per
    pipeline stage, all announced and ready to serve."""
    model = model or ModelConfig()
    entries = []
    for si, (a, b) in enumerate(stage_intervals(model.n_blocks, n_stages)):
        for r in range(replicas):
            sid = f"s{si}{chr(ord('a') + r)}"
            entries.append({"server_id": sid, "capacity": b - a, "start": a,
                            "compute_tokens_per_s": compute_tokens_per_s,
                            "churn": (churn or {}).get(sid), "balancer": balancer,
                            **(server_overrides or {}).get(sid, {})})
    return _build(model, profile or NetProfile(), seed, engine, entries)


def build_swarm_from_config(config: dict | str) -> SimSwarm:
    """Stand up a simulated swarm from the JSON schema in docs/bench.md:
    model dimensions, link profile, and one entry per server with interval,
    capacity, throughput override, churn schedule, and failure hooks."""
    if isinstance(config, str):
        with open(config) as f:
            config = json.load(f)
    entries = []
    for entry in config["servers"]:
        entry = dict(entry)
        if "churn" in entry:
            entry["churn"] = ChurnSchedule([tuple(iv) for iv in entry["churn"]])
        if "rebalance" in entry:
            entry["rebalance"] = RebalanceConfig(**entry["rebalance"])
        entries.append({"balancer": config.get("balancer", False), **entry})
    return _build(ModelConfig(**config.get("model", {})),
                  NetProfile(**config.get("profile", {})),
                  config.get("seed", 0), config.get("engine", "real"), entries)
