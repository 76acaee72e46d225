"""Unit tests for the per-backend circuit breaker."""

from repro.serve.breaker import CircuitBreaker


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTripping:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.allows("highs")
        assert breaker.state("highs") == "closed"

    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        breaker.record_failure("highs", "crash")
        breaker.record_failure("highs", "crash")
        assert breaker.allows("highs")
        breaker.record_failure("highs", "hang")
        assert breaker.state("highs") == "open"
        assert not breaker.allows("highs")

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        breaker.record_failure("highs", "crash")
        breaker.record_failure("highs", "crash")
        breaker.record_success("highs")
        breaker.record_failure("highs", "crash")
        breaker.record_failure("highs", "crash")
        assert breaker.allows("highs")  # never hit 3 in a row

    def test_backends_are_independent(self):
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        breaker.record_failure("sat", "crash")
        assert not breaker.allows("sat")
        assert breaker.allows("highs")


class TestCooldown:
    def test_half_opens_after_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure("highs", "crash")
        assert not breaker.allows("highs")
        clock.advance(9.9)
        assert not breaker.allows("highs")
        clock.advance(0.2)
        assert breaker.allows("highs")  # one probe permitted
        assert breaker.state("highs") == "half_open"

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure("highs", "crash")
        clock.advance(6.0)
        assert breaker.allows("highs")
        breaker.record_success("highs")
        assert breaker.state("highs") == "closed"
        assert breaker.allows("highs")

    def test_half_open_failure_reopens_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        for _ in range(3):
            breaker.record_failure("highs", "crash")
        clock.advance(6.0)
        assert breaker.allows("highs")  # half-open probe
        breaker.record_failure("highs", "crash")
        # A single half-open failure re-opens; no need for `threshold`
        # fresh failures.
        assert breaker.state("highs") == "open"
        assert not breaker.allows("highs")

    def test_retry_after_counts_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure("highs", "crash")
        assert breaker.retry_after("highs") == 10.0
        clock.advance(4.0)
        assert abs(breaker.retry_after("highs") - 6.0) < 1e-9
        clock.advance(10.0)
        assert breaker.retry_after("highs") == 0.0


class TestSnapshot:
    def test_snapshot_reports_state_and_taxonomy(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown=10.0, clock=clock)
        breaker.record_success("highs")
        breaker.record_failure("sat", "hang")
        breaker.record_failure("sat", "hang")
        snap = breaker.snapshot()
        assert snap["highs"]["state"] == "closed"
        assert snap["sat"]["state"] == "open"
        assert snap["sat"]["consecutive_failures"] == 2
        assert snap["sat"]["last_failure_kind"] == "hang"
        assert snap["sat"]["retry_after"] == 10.0
