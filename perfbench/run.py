"""swarmpipe benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload sim_faults --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The seed draws one fixed set of requests. The run makes passes
over the request set, each on a freshly set-up system in the same state: at
least MIN_PASSES of them, and as many more as fit in ``--seconds`` of
request time. Before each pass the system is set up SETUPS_PER_PASS times
and the last one is used, so that the set-ups, too, are spread over the
run. Every pass sends the same requests and must give the same outputs.

A request's latency is the mean of its FASTEST fastest passes. On the
CPU-bound workloads the host-speed probe (``hostspeed.py``) runs between
requests and around set-ups, and request and set-up times are host-scaled
by it; on ``tcp_mixed``, whose time is mostly sleeps, they are wall times.
Only after the last pass, outside every timed interval, is each output
checked against the oracle.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` the passes alternate between untraced ones and ones with
every layer wrapped in spans; the last line holds the per-layer metrics,
and the spans go to ``perfbench/out/`` as JSON lines. The line before the last holds details:
tail percentiles and sample counts, failures, the virtual (seed-deterministic)
metrics and their fingerprint. Exit status is 0 only when every request
passed its check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUPS_PER_PASS = 5
MIN_PASSES = 2
FASTEST = 2             # a request's latency is the mean of its FASTEST fastest passes
TAIL_BEYOND = 10        # the tail is the highest percentile with this many samples above it


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has TAIL_BEYOND
    samples beyond it; the median when there are too few samples for that
    percentile to lie above it."""
    xs = sorted(values)
    if len(xs) <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0
    pct = 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)
    return xs[len(xs) - TAIL_BEYOND - 1], pct


def set_up(wl, setups: list) -> None:
    """Replace the workload's system by a fresh one; its (set-up s, build s),
    host-scaled on a host-scaled workload, go to ``setups``. The old system
    is collected first, untimed, so that peak RSS does not grow with the
    number of set-ups."""
    wl.close()
    gc.collect()
    before = hostspeed.probe() if wl.host_scaled else None
    setup_s, build_s = wl.setup()
    probe_s = (before + hostspeed.probe()) / 2 if wl.host_scaled else None
    setups.append((hostspeed.scaled(setup_s, probe_s), hostspeed.scaled(build_s, probe_s)))


def one_pass(wl, requests, setups: list, tracer=None) -> tuple[list, float]:
    """One pass over ``requests`` on a fresh set-up (SETUPS_PER_PASS of them
    appended to ``setups``); with a tracer, the pass but not the set-up is
    traced. Returns the outcomes and the pass's wall time, host-speed probes
    left out."""
    from spans import instrument
    from workloads import Outcome
    for _ in range(SETUPS_PER_PASS):
        set_up(wl, setups)
    if tracer is not None:
        instrument(tracer)
    outcomes = []
    readings = [hostspeed.probe()] if wl.host_scaled else []
    probing = 0.0       # probe time inside the pass, left out of its wall time
    t_pass = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request = req.rid
            span = tracer.enter("client.request")
        t0 = time.perf_counter()
        try:
            out = wl.run(req)
        except Exception as e:   # unexpected outcome: a failed request
            out = Outcome(req, error=f"{type(e).__name__}: {e}")
        out.wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit(span)
        if wl.host_scaled:
            t1 = time.perf_counter()
            readings.append(hostspeed.probe())
            probing += time.perf_counter() - t1
        outcomes.append(out)
    wall = time.perf_counter() - t_pass - probing
    for out, probe_s in zip(outcomes, hostspeed.around(readings)):
        out.probe_s = probe_s
    if tracer is not None:
        tracer.unpatch()
    return outcomes, wall


def measure(wl, requests, seconds: float, setups: list, tracer=None):
    """MIN_PASSES passes, then more while another fits in ``seconds`` of
    request time at the average pass length. With a tracer every pass is
    preceded by an untraced one, so that both kinds see the same host.
    Returns the passes and the untraced passes, as (outcomes, wall time),
    and the peak RSS in MB up to the end of the first pass: later set-ups
    add to it on some workloads (``tcp_mixed`` leaks listener threads), so
    that a later reading would grow with the number of passes the host
    allowed."""
    passes, untraced = [], []
    spent = 0.0
    peak_rss_mb = None
    while len(passes) < MIN_PASSES or spent + spent / len(passes) <= seconds:
        if tracer is not None:
            untraced.append(one_pass(wl, requests, setups))
            spent += untraced[-1][1]
        passes.append(one_pass(wl, requests, setups, tracer))
        spent += passes[-1][1]
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, untraced, peak_rss_mb


def verify(wl, passes) -> list[str]:
    """Oracle check of every request, once per distinct request, plus a
    check that every pass gave the first pass's outputs. Marks each failed
    outcome and returns one line per failure, run-level checks included."""
    failures = []
    first = passes[0][0]
    for i, o in enumerate(first):
        reason = o.error or wl.check(o)
        for k, (outcomes, _) in enumerate(passes):
            other = outcomes[i]
            other.error = other.error or reason or (
                "" if (other.output, other.virtual) == (o.output, o.virtual)
                else f"output differs from pass 0 in pass {k}")
            if other.error:
                failures.append(f"request {o.request.rid} ({o.request.kind}), "
                                f"pass {k}: {other.error}")
    return failures + wl.run_checks(first)


def fingerprint(outcomes, virtual: dict) -> str:
    """sha256 over every output and virtual fact of one pass."""
    material = [[o.request.kind, o.output, o.virtual] for o in outcomes]
    blob = json.dumps([material, virtual], sort_keys=True, default=asdict)
    return hashlib.sha256(blob.encode()).hexdigest()


def fastest(passes) -> list[float]:
    """Each request's latency: the mean of its FASTEST fastest passes,
    host-scaled where the probe ran."""
    lat = []
    for i in range(len(passes[0][0])):
        times = sorted(hostspeed.scaled(outcomes[i].wall_s, outcomes[i].probe_s)
                       for outcomes, _ in passes)
        lat.append(statistics.fmean(times[:FASTEST]))
    return lat


def length_strata(lat: list[float], outcomes, n: int = 3) -> list[dict]:
    """Share of ``pass_s`` by output length: the requests that generate
    tokens, sorted by tokens and cut into n groups of equal size."""
    rows = sorted((o.tokens, t) for t, o in zip(lat, outcomes) if o.tokens)
    groups = [rows[k * len(rows) // n:(k + 1) * len(rows) // n] for k in range(n)]
    return [{"tokens": [g[0][0], g[-1][0]], "requests": len(g),
             "share_of_pass_s": sum(t for _, t in g) / sum(lat)} for g in groups if g]


def end_to_end(passes, setup_walls, peak_rss_mb) -> tuple[dict, dict]:
    """Each request's latency is the mean of its fastest passes
    (``fastest``); ``pass_s`` is a pass at those latencies, and
    ``tokens_per_s`` a pass's tokens over it."""
    first = passes[0][0]
    lat = fastest(passes)
    tpot = [1000 * t / o.tokens for t, o in zip(lat, first) if o.tokens]
    lat_tail, lat_pct = tail(lat)
    tpot_tail, tpot_pct = tail(tpot)
    values = {
        "setup_s": statistics.median(setup_walls),
        "tokens_per_s": sum(o.tokens for o in first) / sum(lat),
        "request_p50_s": statistics.median(lat),
        "request_tail_s": lat_tail,
        "tpot_p50_ms": statistics.median(tpot),
        "tpot_tail_ms": tpot_tail,
        "pass_s": sum(lat),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"requests": len(lat), "request_tail_percentile": lat_pct,
               "tpot_samples": len(tpot), "tpot_tail_percentile": tpot_pct,
               "passes": len(passes), "measured_s": sum(wall for _, wall in passes),
               "pass_share_by_length": length_strata(lat, first)}
    return values, samples


# span behind each metric whose name is not <span>.self_pct or <span>.calls
_SPAN_OF = {"realnet.rpc.wait_pct": "realnet.rpc",
            "realnet.clock_sleep_pct": "realnet.clock_sleep",
            "client.self_pct": "client.request",
            "bench.churn_study_pct": "bench.churn_study",
            "realnet.connections": "realnet.connect",
            "netsim.timer_events": "netsim.timer"}
_WHOLE_SPAN = {"bench.churn_study_pct"}    # a share of total, not self, time
_TALLIES = {"model.block_forward.rows", "wire.encode_frame.bytes", "wire.decode_frame.bytes",
            "wire.checksum.bytes", "realnet.bytes_framed", "server.restore.rows"}


def per_layer(names, spans: dict, counts: dict, outcomes, window_s: float,
              n_blocks: int, extra: dict) -> dict:
    """Per-layer metrics of the traced window. A ``*_pct`` metric is the
    layer's self time (the churn study's whole time) as a share of the
    window's wall time, so a layer idle on a workload reads 0; ``*.calls``
    and the event counts count spans."""
    tokens = sum(o.tokens for o in outcomes)
    out = {}
    for name in names:
        span = _SPAN_OF.get(name)
        if name in extra:
            out[name] = extra[name]
        elif name.endswith("_pct"):
            span = span or name[:-len(".self_pct")]
            key = "total_s" if name in _WHOLE_SPAN else "self_s"
            out[name] = 100.0 * spans.get(span, {}).get(key, 0.0) / window_s
        elif span or name.endswith(".calls"):
            out[name] = spans.get(span or name[:-len(".calls")], {}).get("calls", 0)
        elif name.startswith("client."):
            out[name] = sum(o.counters.get(name[len("client."):], 0) for o in outcomes)
        elif name == "netsim.drops":
            out[name] = sum(o.virtual.get("drops", 0) for o in outcomes)
        elif name == "server.rows_per_token":
            # block-rows over the ideal of one pass of every block per token
            out[name] = counts.get("server.block_rows", 0) / (n_blocks * tokens) if tokens else 0.0
        elif name in _TALLIES:
            out[name] = counts.get(name, 0)
        else:
            raise KeyError(f"BENCHMARK.json names per-layer metric {name!r}, "
                           f"which the benchmark does not measure")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "swarmpipe" / "__init__.py").is_file():
        print(f"perfbench: no swarmpipe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    thread_errors: list[str] = []     # uncaught exceptions in listener threads
    threading.excepthook = lambda args: thread_errors.append(args.exc_type.__name__)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    requests = wl.make_requests()
    for i, req in enumerate(requests):
        req.rid = i
    setups: list[tuple[float, float]] = []
    tracer = Tracer() if args.trace else None
    passes, untraced, peak_rss_mb = measure(wl, requests, args.seconds, setups, tracer)
    reported_bytes = wl.reported_bytes()
    wl.close()
    gc.collect()
    threads_left = threading.active_count() - 1

    # everything below is outside the timed window
    failures = verify(wl, passes + untraced)
    outcomes = [o for pass_outcomes, _ in passes for o in pass_outcomes]
    attempted = outcomes + [o for pass_outcomes, _ in untraced for o in pass_outcomes]
    failed = sum(1 for o in attempted if o.error)
    first = passes[0][0]
    virtual = wl.virtual([o for o in first if not o.error])
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "error_rate": failed / len(attempted), "failures": failures[:20],
               "thread_errors": len(thread_errors), "threads_left": threads_left,
               "thread_error_kinds": sorted(set(thread_errors)),
               "virtual": virtual, "fingerprint": fingerprint(first, virtual)}

    if tracer is None:
        values, details["samples"] = end_to_end(passes, [s for s, _ in setups], peak_rss_mb)
        metrics = spec["end_to_end"]
    else:
        # fastest passes, traced against untraced, so host noise mostly cancels
        untraced_s, traced_s = sum(fastest(untraced)), sum(fastest(passes))
        overhead_s = traced_s - untraced_s
        window_s = sum(wall for _, wall in passes)
        span_stats = tracer.summary()
        metrics = spec["per_layer"]
        extra = {"swarm.build_s": statistics.median(b for _, b in setups),
                 "bench.trace_overhead_pct": 100.0 * overhead_s / untraced_s,
                 "realnet.thread_errors": len(thread_errors),
                 "realnet.bytes_reported": reported_bytes}
        values = per_layer([m["name"] for m in metrics], span_stats, tracer.counts,
                           outcomes, window_s, wl.cfg.n_blocks, extra)
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
        tracer.write_jsonl(f"{stem}.jsonl")
        details.update(trace_overhead_s=overhead_s, untraced_pass_s=untraced_s,
                       traced_pass_s=traced_s, traced_window_s=window_s,
                       spans=sum(row["calls"] for row in span_stats.values()),
                       spans_logged=len(tracer.log),
                       spans_file=f"{stem.relative_to(ROOT)}.jsonl")
        with open(f"{stem}.summary.json", "w") as f:
            json.dump({"spans": span_stats, "counts": tracer.counts, "metrics": values,
                       "details": details}, f, indent=1, sort_keys=True)

    correct = not failures
    result = {"correct": correct, "attempted": len(attempted), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
