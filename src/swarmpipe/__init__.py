"""swarmpipe: fault-tolerant pipeline-parallel inference over unreliable servers.

A numpy library plus a deterministic network simulator: a seeded toy
transformer payload, block servers with restorable inference sessions, a
swarm directory with decentralized load balancing, shortest-path chain
routing, fault-tolerant generation and fine-tuning clients, a real TCP
transport, and a benchmark harness for the failure-rate and churn studies.
"""

from .balancer import (
    RebalanceConfig,
    choose_start,
    greedy_join_assignment,
    greedy_swarm_assignment,
    measure_throughput,
    optimal_assignment_bruteforce,
    propose_rebalance,
    swarm_throughput,
)
from .bench import (
    ChurnStudySpec,
    ExperimentSpec,
    estimate_offload_bound,
    run_failure_rate_experiment,
    run_load_balance_experiment,
)
from .client import FinetuneSession, GenerateResult, Strategy, SwarmClient
from .directory import BanList, DirectoryBoard, ServerInfo, block_load
from .errors import (
    BudgetExhausted,
    CapacityError,
    ConfigurationError,
    ConnectionFailed,
    MessageDropped,
    NoRouteError,
    ProtocolError,
    SwarmError,
    SwarmUnavailableError,
    TransportError,
    Unreachable,
)
from .model import (
    BlockParams,
    ClientParams,
    KVCache,
    ModelConfig,
    block_backward,
    init_model,
    parameter_count,
    params_hash,
    reference_beam,
    reference_generate,
)
from .netsim import ChurnSchedule, NetProfile, SimNetwork, VirtualClock
from .quantize import QuantizedHidden, dequantize_hidden, quantize_hidden
from .router import Chain, RoutingGraph, ServerRoute, edge_cost
from .server import BlockServer, RealServerEngine, ServerCfg, TimedServerEngine
from .swarm import SimSwarm, build_sim_swarm, build_swarm_from_config, stage_intervals

__all__ = [
    "BanList", "BlockParams", "BlockServer", "BudgetExhausted", "CapacityError",
    "Chain", "ChurnSchedule", "ChurnStudySpec", "ClientParams",
    "ConfigurationError", "ConnectionFailed", "DirectoryBoard", "ExperimentSpec",
    "FinetuneSession", "GenerateResult", "KVCache",
    "MessageDropped", "ModelConfig", "NetProfile", "NoRouteError",
    "ProtocolError", "QuantizedHidden", "RealServerEngine", "RebalanceConfig",
    "RoutingGraph", "ServerCfg", "ServerInfo", "ServerRoute", "SimNetwork",
    "SimSwarm", "Strategy", "SwarmClient", "SwarmError",
    "SwarmUnavailableError", "TimedServerEngine", "TransportError",
    "Unreachable", "VirtualClock",
    "block_backward", "block_load", "build_sim_swarm",
    "build_swarm_from_config", "choose_start", "dequantize_hidden", "edge_cost",
    "estimate_offload_bound", "greedy_join_assignment", "greedy_swarm_assignment",
    "init_model", "measure_throughput", "optimal_assignment_bruteforce",
    "parameter_count", "params_hash", "propose_rebalance", "quantize_hidden",
    "reference_beam", "reference_generate", "run_failure_rate_experiment",
    "run_load_balance_experiment", "stage_intervals", "swarm_throughput",
]

__version__ = "0.1.0"
