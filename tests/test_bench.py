"""Benchmark harness: estimator values, record plumbing, determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmpipe.bench import (ChurnStudySpec, ExperimentSpec,
                             churn_records, estimate_offload_bound,
                             run_failure_rate_cell, run_load_balance_experiment,
                             write_records)
from swarmpipe.client import Strategy


class TestOffloadBound:
    def test_paper_scale_values(self):
        seconds, tps = estimate_offload_bound(176e9, 256e9)
        assert seconds == pytest.approx(5.5, abs=1e-12)
        assert f"{tps:.2f}" == "0.18"

    def test_halving_bandwidth_doubles_time(self):
        s1, _ = estimate_offload_bound(10e9, 8e9)
        s2, _ = estimate_offload_bound(10e9, 4e9)
        assert s2 == pytest.approx(2 * s1)

    def test_unit_case(self):
        seconds, tps = estimate_offload_bound(1e9, 8e9)
        assert seconds == pytest.approx(1.0) and tps == pytest.approx(1.0)

    def test_zero_link_rejected(self):
        with pytest.raises(ValueError):
            estimate_offload_bound(1e9, 0.0)


class TestFailureRateCells:
    def test_clean_cell_completes_with_sane_rate(self):
        spec = ExperimentSpec("failure-rate", seed=0)
        rec = run_failure_rate_cell(spec, 0.0, 128, Strategy.DUAL_CACHE)
        assert rec.completed and rec.steps_per_s is not None
        # steps/s is recomputable from the logged fields (audit invariant)
        assert rec.steps_per_s == pytest.approx(rec.length / rec.sim_time_s)

    def test_hopeless_restart_cell_marked_incomplete(self):
        spec = ExperimentSpec("failure-rate", seed=0)
        rec = run_failure_rate_cell(spec, 1e-2, 1024, Strategy.RESTART)
        assert not rec.completed
        assert rec.steps_per_s is None
        assert rec.cutoff == "BudgetExhausted"
        assert rec.restarts >= 64

    def test_same_seed_same_record(self):
        spec = ExperimentSpec("failure-rate", seed=3)
        a = run_failure_rate_cell(spec, 1e-3, 128, Strategy.DUAL_CACHE)
        b = run_failure_rate_cell(spec, 1e-3, 128, Strategy.DUAL_CACHE)
        assert a.row() == b.row()

    def test_same_cell_same_bytes_across_processes(self, tmp_path):
        """Cell seeds and session ids do not depend on Python's salted hash()."""
        code = ("import sys\n"
                "from swarmpipe.bench import ExperimentSpec, run_failure_rate_cell, write_records\n"
                "from swarmpipe.client import Strategy\n"
                "rec = run_failure_rate_cell(ExperimentSpec('failure-rate'),\n"
                "                            1e-2, 128, Strategy.DUAL_CACHE)\n"
                "write_records([rec], sys.argv[1])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        files = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hash{hash_seed}.jsonl"
            subprocess.run([sys.executable, "-c", code, str(out)], check=True, timeout=120,
                           env=dict(env, PYTHONHASHSEED=hash_seed))
            files.append(out.read_bytes())
        assert files[0] == files[1]


@pytest.fixture(scope="module")
def small():
    return run_load_balance_experiment(
        ChurnStudySpec(seed=2, n_servers=20, n_blocks=10, duration_min=60,
                       period_min=30, mid_active=7, amp_active=5))


class TestChurnStudy:

    def test_strategies_recorded_each_minute(self, small):
        assert len(small.minutes) == 60
        names = set(small.minutes[0].throughput)
        assert names == {"none", "new_only", "full_p1", "full_p20", "upper"}

    def test_upper_bound_dominates(self, small):
        for m in small.minutes:
            ub = m.throughput["upper"]
            for name, v in m.throughput.items():
                assert v <= ub + 1e-6

    def test_low_threshold_moves_more(self, small):
        assert (small.total_replacements("full_p1")
                > small.total_replacements("full_p20"))

    def test_full_balancing_positive_when_feasible(self, small):
        for m in small.minutes:
            if m.feasible:
                assert m.throughput["full_p20"] > 0

    def test_bench_study_records_pinned(self, tmp_path):
        """The churn request of perfbench's ``studies`` workload, seed 0."""
        result = run_load_balance_experiment(ChurnStudySpec(duration_min=60, period_min=60))
        jsonl, _ = write_records(churn_records(result, 0), str(tmp_path / "churn.jsonl"))
        assert (hashlib.sha256(Path(jsonl).read_bytes()).hexdigest()
                == "619e57c23b56ed4657aa208015ae1035b19ea1f59996ef07b62cf6d35eab1367")

    def test_two_hour_study_records_pinned(self, tmp_path):
        """Seed 2 over one 120-minute cycle: another trace and join order
        than the ``studies`` pin above, at the same desk scale."""
        result = run_load_balance_experiment(
            ChurnStudySpec(seed=2, duration_min=120, period_min=120))
        jsonl, _ = write_records(churn_records(result, 2), str(tmp_path / "churn.jsonl"))
        assert (hashlib.sha256(Path(jsonl).read_bytes()).hexdigest()
                == "7c3dd86106bf065d1277e658138da7951b3bb56f520b6ab5789a59f55adbf202")

    def test_deterministic(self):
        spec = ChurnStudySpec(seed=5, n_servers=12, n_blocks=8, duration_min=20,
                              period_min=10, mid_active=5, amp_active=3)
        a = run_load_balance_experiment(spec)
        b = run_load_balance_experiment(spec)
        assert [m.throughput for m in a.minutes] == [m.throughput for m in b.minutes]


class TestRecordFiles:
    def test_jsonl_and_csv_byte_identical_across_runs(self, tmp_path):
        spec = ChurnStudySpec(seed=1, n_servers=10, n_blocks=6, duration_min=10,
                              period_min=5, mid_active=4, amp_active=2)
        outs = []
        for run in range(2):
            recs = churn_records(run_load_balance_experiment(spec), 1)
            j, c = write_records(recs, str(tmp_path / f"r{run}.jsonl"))
            outs.append((Path(j).read_bytes(), Path(c).read_bytes()))
        assert outs[0] == outs[1]
