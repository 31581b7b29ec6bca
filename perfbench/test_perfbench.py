"""Tests of the benchmark itself: stable seeding, tail percentiles, host
scaling, the span recorder, the metric list in BENCHMARK.json, and
cross-process determinism.

    python3 -m pytest perfbench

The determinism test runs every workload twice in subprocesses and takes a
few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_mix_is_pinned_and_separates_labels():
    # pinned values: a change here changes every workload's inputs
    assert workloads.mix(0, "sim", 0) == 5614341367929040288
    assert workloads.mix(1, "sim", 0) == 17186910677039229797
    assert workloads.mix(0, "cell", 0, "restart", 128, 0.001) == 10092599677733562877
    assert workloads.mix(0, "sim", 1) != workloads.mix(0, "sim", 0)


def test_requests_are_reproducible_and_stratified():
    a = workloads.WORKLOADS["sim_faults"](3).make_requests()
    b = workloads.WORKLOADS["sim_faults"](3).make_requests()
    assert [r.args for r in a] == [r.args for r in b]
    assert [r.args for r in a] != [r.args for r in workloads.WORKLOADS["sim_faults"](4).make_requests()]
    u = workloads.stratified(workloads.rng_for(3, "x"), 10)
    assert all(i / 10 <= x < (i + 1) / 10 for i, x in enumerate(u))


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(1, 41))) == (30, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_latency_is_mean_of_fastest_host_scaled_passes():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(2.0, None) == 2.0
    assert hostspeed.scaled(2.0, 2 * ref) == pytest.approx(1.0)
    req = workloads.Request(0, "greedy", {})
    probed = [workloads.Outcome(req, wall_s=w, probe_s=p * ref)
              for w, p in ((3.0, 2), (2.0, 1), (2.0, 2))]   # scaled 1.5, 2.0, 1.0
    assert run.fastest([([o], o.wall_s) for o in probed]) == [pytest.approx(1.25)]
    walls = [workloads.Outcome(req, wall_s=w) for w in (3.0, 2.0, 1.0)]
    assert run.fastest([([o], o.wall_s) for o in walls]) == [pytest.approx(1.5)]
    assert 0 < hostspeed.probe() < 1.0


def test_host_speed_ignores_a_lone_slow_reading():
    readings = [1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 1.0]
    assert hostspeed.around(readings) == [1.0] * 6
    assert hostspeed.around([1.0, 2.0]) == [1.5]


def test_self_time_excludes_children():
    t = spans.Tracer()
    outer = t.enter("outer")
    inner = t.enter("inner")
    t.exit(inner)
    t.exit(outer)
    s = t.summary()
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])
    (inner_id, _, _, _, parent, _, _), (outer_id, *_) = t.log
    assert parent == outer_id != inner_id


def test_instrument_and_unpatch_restore_the_program():
    from swarmpipe import model, realnet, server
    before = (model.block_forward_batched, realnet.encode_frame, server.BlockServer.handle)
    t = spans.Tracer()
    spans.instrument(t)
    assert model.block_forward_batched is not before[0]
    t.unpatch()
    assert (model.block_forward_batched, realnet.encode_frame,
            server.BlockServer.handle) == before


def test_balancer_calls_are_traced_inside_the_balancer():
    from swarmpipe import bench
    t = spans.Tracer()
    spans.instrument(t)
    try:
        bench.run_load_balance_experiment(bench.ChurnStudySpec(duration_min=4, period_min=4))
    finally:
        t.unpatch()
    name_of = {span[0]: span[1] for span in t.log}
    parents = {name_of.get(span[4]) for span in t.log if span[1] == "balancer.choose_start"}
    assert {"balancer.propose_rebalance", "balancer.upper_bound"} <= parents


def test_every_listed_metric_is_measured():
    names = [m["name"] for m in SPEC["per_layer"]]
    extra = {"swarm.build_s": 1.0, "bench.trace_overhead_pct": 1.0,
             "realnet.thread_errors": 0, "realnet.bytes_reported": 0}
    assert set(run.per_layer(names, {}, {}, [], 1.0, 8, extra)) == set(names)
    o = workloads.Outcome(workloads.Request(0, "greedy", {}), tokens=4, wall_s=0.1)
    values, _ = run.end_to_end([([o] * 12, 1.2)] * 2, [0.5], 10.0)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim_faults",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_virtual_outputs_do_not_depend_on_the_hash_seed(workload):
    got = []
    for hash_seed in ("1", "2"):
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert p.returncode == 0, p.stderr[-2000:]
        details = json.loads(p.stdout.splitlines()[-2])["details"]
        got.append((details["virtual"], details["fingerprint"]))
    assert got[0] == got[1]
