"""Tests for repro.framework.service (queueing/latency simulation)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.framework.service import ServiceConfig, ServiceReport, run_service


class TestServiceSimulation:
    def test_all_batches_complete(self):
        config = ServiceConfig(num_workers=4, batches_per_worker=3)
        report = run_service(config, seed=0)
        assert report.total_batches == 12
        assert all(lat > 0 for lat in report.batch_latencies_s)

    def test_deterministic(self):
        config = ServiceConfig(num_workers=2, batches_per_worker=2)
        a = run_service(config, seed=3)
        b = run_service(config, seed=3)
        assert a.batch_latencies_s == b.batch_latencies_s

    def test_p99_at_least_p50(self):
        report = run_service(ServiceConfig(num_workers=8, batches_per_worker=4))
        assert report.p99 >= report.p50 > 0

    def test_contention_raises_latency(self):
        """More workers on the same servers -> higher tail latency."""
        quiet = run_service(
            ServiceConfig(num_workers=1, batches_per_worker=4), seed=0
        )
        busy = run_service(
            ServiceConfig(num_workers=24, batches_per_worker=4), seed=0
        )
        assert busy.p99 > quiet.p99

    def test_more_servers_cut_latency(self):
        few = run_service(
            ServiceConfig(num_servers=2, num_workers=12), seed=0
        )
        many = run_service(
            ServiceConfig(num_servers=8, num_workers=12), seed=0
        )
        assert many.p50 < few.p50

    def test_throughput_grows_with_workers_then_saturates(self):
        rates = []
        for workers in (1, 4, 16, 64):
            report = run_service(
                ServiceConfig(num_workers=workers, batches_per_worker=2), seed=1
            )
            rates.append(report.throughput_batches_per_s)
        assert rates[1] > rates[0]
        # Saturation: the last doubling gains less than the first.
        assert rates[3] / rates[2] < rates[1] / rates[0]

    def test_deadline_miss_rate_monotone(self):
        report = run_service(ServiceConfig(num_workers=16), seed=0)
        tight = report.deadline_miss_rate(report.p50 * 0.5)
        loose = report.deadline_miss_rate(report.p99 * 2)
        assert tight > loose
        assert loose == 0.0

    def test_inference_deadline_story(self):
        """Challenge-1: under load, a deadline placed at the quiet-system
        p99 is missed by a loaded system."""
        quiet = run_service(
            ServiceConfig(num_workers=1, batches_per_worker=6), seed=0
        )
        deadline = quiet.p99 * 1.2
        loaded = run_service(
            ServiceConfig(num_workers=32, batches_per_worker=3), seed=0
        )
        assert loaded.deadline_miss_rate(deadline) > 0.3

    def test_queue_depth_tracked(self):
        report = run_service(ServiceConfig(num_workers=16), seed=0)
        assert report.server_max_queue >= 1

    def test_faster_service_cuts_latency(self):
        slow = run_service(ServiceConfig(per_key_service_s=6e-6), seed=0)
        fast = run_service(ServiceConfig(per_key_service_s=1e-6), seed=0)
        assert fast.p50 < slow.p50


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(num_servers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(per_key_service_s=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(fanouts=())
        with pytest.raises(ConfigurationError):
            ServiceConfig(batches_per_worker=0)

    def test_report_validation(self):
        report = ServiceReport([], 0.0, 0, 0)
        assert math.isnan(report.percentile(50))
        with pytest.raises(ConfigurationError):
            ServiceReport([1.0], 1.0, 1, 1).deadline_miss_rate(0)

    def test_empty_report_miss_rate(self):
        assert math.isnan(ServiceReport([], 0.0, 0, 0).deadline_miss_rate(1.0))


class TestReportEdgeCases:
    def test_percentile_empty_is_nan(self):
        """Zero completed requests: percentiles are undefined, not an
        exception and not zero."""
        empty = ServiceReport([], 0.0, 0, 0)
        for q in (0, 50, 99, 100):
            assert math.isnan(empty.percentile(q))
        assert math.isnan(empty.p50)
        assert math.isnan(empty.p99)

    def test_percentile_out_of_range_still_raises_when_empty(self):
        empty = ServiceReport([], 0.0, 0, 0)
        for q in (-1, 101):
            with pytest.raises(ConfigurationError):
                empty.percentile(q)

    def test_deadline_rejects_non_positive(self):
        report = ServiceReport([1.0], 1.0, 1, 1)
        for deadline in (0, -1e-6, -5.0):
            with pytest.raises(ConfigurationError):
                report.deadline_miss_rate(deadline)

    def test_empty_latencies_miss_rate_nan(self):
        assert math.isnan(ServiceReport([], 0.0, 0, 0).deadline_miss_rate(1e-9))

    def test_zero_time_throughput(self):
        assert ServiceReport([], 0.0, 0, 0).throughput_batches_per_s == 0.0

    def test_run_service_deterministic_default_config(self):
        a = run_service(seed=11)
        b = run_service(seed=11)
        assert a.batch_latencies_s == b.batch_latencies_s
        assert a.total_time_s == b.total_time_s
        assert a.server_max_queue == b.server_max_queue

    def test_run_service_seed_changes_jitter(self):
        a = run_service(ServiceConfig(num_workers=4), seed=0)
        b = run_service(ServiceConfig(num_workers=4), seed=1)
        assert a.total_batches == b.total_batches
        assert a.batch_latencies_s != b.batch_latencies_s


class TestMutationTraffic:
    def test_rps_zero_is_bit_identical(self):
        """Regression: adding the mutation path must not perturb the
        historical rps=0 simulation (no RNG draws, no extra events)."""
        config = ServiceConfig(num_workers=4, batches_per_worker=3)
        baseline = run_service(config, seed=0)
        with_field = run_service(
            ServiceConfig(
                num_workers=4, batches_per_worker=3, mutation_rps=0.0
            ),
            seed=0,
        )
        assert baseline.batch_latencies_s == with_field.batch_latencies_s
        assert baseline.total_time_s == with_field.total_time_s
        assert with_field.mutations_applied == 0

    def test_mutations_served(self):
        config = ServiceConfig(
            num_workers=4, batches_per_worker=4, mutation_rps=50_000.0
        )
        report = run_service(config, seed=0)
        assert report.mutations_applied > 0

    def test_mutations_contend_with_reads(self):
        """Expensive mutations steal server time from reads."""
        from repro.units import US

        quiet = run_service(
            ServiceConfig(num_workers=8, batches_per_worker=4), seed=0
        )
        busy = run_service(
            ServiceConfig(
                num_workers=8,
                batches_per_worker=4,
                mutation_rps=200_000.0,
                per_mutation_service_s=100 * US,
            ),
            seed=0,
        )
        assert busy.mutations_applied > 0
        assert busy.p50 > quiet.p50

    def test_mutation_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(mutation_rps=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(per_mutation_service_s=0.0)

    def test_mutation_runs_deterministic(self):
        config = ServiceConfig(
            num_workers=2, batches_per_worker=2, mutation_rps=100_000.0
        )
        a = run_service(config, seed=5)
        b = run_service(config, seed=5)
        assert a.batch_latencies_s == b.batch_latencies_s
        assert a.mutations_applied == b.mutations_applied

    def test_trailing_mutation_tick_is_not_service_time(self):
        """Regression: the tick that fires after the read workload has
        drained used to set ``total_time_s``, so a *lower* write rate
        reported lower throughput (298 vs 801 batches/s with no
        mutation applied at all)."""
        read_only = run_service(ServiceConfig(batches_per_worker=2), seed=0)
        trickle = run_service(
            ServiceConfig(batches_per_worker=2, mutation_rps=20.0), seed=0
        )
        assert trickle.mutations_applied == 0
        assert trickle.batch_latencies_s == read_only.batch_latencies_s
        assert trickle.total_time_s == read_only.total_time_s
        assert trickle.throughput_batches_per_s == read_only.throughput_batches_per_s
