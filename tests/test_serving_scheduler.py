"""Tests for repro.serving.scheduler (token buckets + EDF queue)."""

import pytest

from repro.errors import ConfigurationError
from repro.serving.scheduler import SloScheduler, TokenBucket


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 0.1s at 10 tokens/s accumulates exactly one token.
        assert bucket.try_take(0.1)
        assert not bucket.try_take(0.1)

    def test_capacity_capped_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        bucket.try_take(10.0)  # long idle, then one take
        assert bucket.tokens == pytest.approx(2.0)

    def test_time_until(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert bucket.time_until(0.0) == pytest.approx(0.25)
        assert bucket.time_until(0.25) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1, burst=0.5)


class TestSloScheduler:
    def test_admit_charges_bucket(self):
        scheduler = SloScheduler()
        scheduler.register_tenant("a", rate=10.0, burst=1.0)
        assert scheduler.admit("a", 0.0) is None
        retry = scheduler.admit("a", 0.0)
        assert retry is not None and retry > 0

    def test_admit_unknown_tenant(self):
        with pytest.raises(ConfigurationError):
            SloScheduler().admit("ghost", 0.0)

    def test_tenants_isolated(self):
        scheduler = SloScheduler()
        scheduler.register_tenant("a", rate=10.0, burst=1.0)
        scheduler.register_tenant("b", rate=10.0, burst=1.0)
        assert scheduler.admit("a", 0.0) is None
        # a is out of tokens; b still has its own burst.
        assert scheduler.admit("a", 0.0) is not None
        assert scheduler.admit("b", 0.0) is None

    def test_edf_order(self):
        scheduler = SloScheduler()
        scheduler.push(3.0, "late")
        scheduler.push(1.0, "urgent")
        scheduler.push(2.0, "middle")
        assert len(scheduler) == 3
        assert scheduler.pop() == "urgent"
        assert scheduler.pop() == "middle"
        assert scheduler.pop() == "late"

    def test_fifo_ties(self):
        scheduler = SloScheduler()
        scheduler.push(1.0, "first")
        scheduler.push(1.0, "second")
        assert scheduler.pop() == "first"
        assert scheduler.pop() == "second"

    def test_pop_empty_raises(self):
        scheduler = SloScheduler()
        assert len(scheduler) == 0
        with pytest.raises(ConfigurationError):
            scheduler.pop()
