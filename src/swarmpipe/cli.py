"""Command-line front end.

    swarmpipe generate --prefix 5,6,7 --steps 64 --strategy dual-cache --seed 0
    swarmpipe bench failure-rate --seed 0 --out results.jsonl
    swarmpipe bench load-balance --seed 0 --out lb.jsonl [--full-scale]
    swarmpipe bench offload --out offload.jsonl

``generate`` runs against a freshly built simulated swarm; it exists for
exploration and smoke testing, the library API is the primary surface.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (ChurnStudySpec, ExperimentSpec, churn_records,
                    estimate_offload_bound, run_failure_rate_experiment,
                    run_load_balance_experiment, write_records, RunRecord)
from .client import Strategy
from .model import ModelConfig
from .netsim import NetProfile
from .swarm import build_sim_swarm


def _add_generate(sub: argparse._SubParsersAction) -> None:
    g = sub.add_parser("generate", help="generate tokens through a simulated swarm")
    g.add_argument("--prefix", default="1,2,3", help="comma-separated token ids")
    g.add_argument("--steps", type=int, default=32)
    g.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Strategy.DUAL_CACHE.value)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mode", choices=["greedy", "sample"], default="greedy")
    g.add_argument("--sample-seed", type=int, default=None)
    g.add_argument("--stages", type=int, default=4)
    g.add_argument("--replicas", type=int, default=2)
    g.add_argument("--failure-rate", type=float, default=0.0)
    g.add_argument("--quantized", action="store_true",
                   help="blockwise int8 activations on the wire (default off)")


def _add_bench(sub: argparse._SubParsersAction) -> None:
    b = sub.add_parser("bench", help="run a benchmark experiment")
    b.add_argument("experiment", choices=["failure-rate", "load-balance", "offload"])
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True, help="JSONL output path (CSV written alongside)")
    b.add_argument("--full-scale", action="store_true",
                   help="load-balance: 206 servers / 70 blocks instead of desk scale")
    b.add_argument("--quantized", action="store_true")
    b.add_argument("--budget", type=float, default=1e6,
                   help="simulated seconds before a cell is marked incomplete")
    b.add_argument("--params-bytes", type=float, default=176e9)
    b.add_argument("--link-bps", type=float, default=256e9)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="swarmpipe")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_bench(sub)
    args = parser.parse_args(argv)

    if args.command == "generate":
        prefix = [int(x) for x in args.prefix.split(",") if x.strip()]
        model = ModelConfig(seed=args.seed)
        profile = NetProfile(failure_prob=args.failure_rate)
        swarm = build_sim_swarm(model, n_stages=args.stages, replicas=args.replicas,
                                profile=profile, seed=args.seed)
        client = swarm.client()
        res = client.generate(prefix, args.steps, mode=args.mode,
                              strategy=Strategy(args.strategy),
                              sample_seed=args.sample_seed,
                              quantized=args.quantized)
        print(json.dumps({
            "tokens": res.tokens,
            "sim_elapsed_s": round(res.elapsed_s, 6),
            "recoveries": res.counters.recoveries,
            "messages": res.counters.messages,
        }))
        return 0

    if args.experiment == "failure-rate":
        spec = ExperimentSpec("failure-rate", seed=args.seed, quantized=args.quantized,
                              budget_s=args.budget)
        records = run_failure_rate_experiment(spec)
    elif args.experiment == "load-balance":
        cspec = (ChurnStudySpec.full_scale(args.seed) if args.full_scale
                 else ChurnStudySpec(seed=args.seed))
        records = churn_records(run_load_balance_experiment(cspec), args.seed)
    else:
        seconds, tps = estimate_offload_bound(args.params_bytes, args.link_bps)
        records = [RunRecord("offload", args.seed, 0.0, 0, "offload",
                             tps, seconds, 0, 0, 0, 0, True)]
        print(f"one full pass: {seconds:.3f} s; upper bound {tps:.3f} tokens/s")
    jsonl, csv_path = write_records(records, args.out)
    print(f"wrote {len(records)} records to {jsonl} and {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
