"""Circuit breaker + degradation ladder, driven by a fake clock."""

import pytest

from repro.core.model import EVALUATION_PATHS
from repro.errors import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.serve.breaker import (
    LADDER_RUNGS,
    CircuitBreaker,
    DegradationLadder,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make_breaker(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("cooldown_s", 5.0)
    kwargs.setdefault("recovery_successes", 2)
    kwargs.setdefault("ladder", DegradationLadder("compiled"))
    return CircuitBreaker(clock=clock, **kwargs)


class TestLadder:

    def test_rung_vocabulary_is_closed(self):
        assert LADDER_RUNGS == ("compiled", "per_layer")
        assert set(LADDER_RUNGS) == set(EVALUATION_PATHS)

    def test_starts_on_the_term_tables(self):
        ladder = DegradationLadder()
        assert ladder.current == "compiled"
        assert get_metrics().snapshot()["gauges"][
            "serve.degradation_rung"] == 0.0

    def test_degrades_to_bottom_then_stops(self):
        ladder = DegradationLadder("compiled")
        seen = [ladder.current]
        while ladder.degrade():
            seen.append(ladder.current)
        assert seen == list(LADDER_RUNGS)
        assert ladder.degrade() is False
        assert get_metrics().snapshot()["gauges"][
            "serve.degradation_rung"] == 1.0

    def test_restore_never_exceeds_start(self):
        ladder = DegradationLadder("compiled")
        assert ladder.restore() is False
        ladder.degrade()
        assert ladder.current == "per_layer"
        assert ladder.restore() is True
        assert ladder.current == "compiled"
        assert ladder.restore() is False

    @pytest.mark.parametrize("rung", LADDER_RUNGS)
    def test_rung_is_the_evaluation_path(self, rung):
        assert DegradationLadder(rung).evaluation_path == rung

    @pytest.mark.parametrize("rung", ["quantum", "vectorized", "serial"])
    def test_unknown_rung_rejected(self, rung):
        with pytest.raises(ConfigurationError):
            DegradationLadder(rung)


class TestBreaker:

    def test_trips_after_threshold_and_degrades(self, clock):
        breaker = make_breaker(clock)
        boom = RuntimeError("boom")
        breaker.record_failure(boom)
        breaker.record_failure(boom)
        assert breaker.state == "closed"
        assert breaker.admit() is None
        breaker.record_failure(boom)
        assert breaker.state == "open"
        assert breaker.ladder.current == "per_layer"
        counters = get_metrics().snapshot()["counters"]
        assert counters["serve.breaker.opened"] == 1.0
        assert counters["serve.ladder.degraded"] == 1.0

    def test_open_sheds_with_remaining_cooldown(self, clock):
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure(RuntimeError("boom"))
        wait = breaker.admit()
        assert wait == pytest.approx(5.0)
        clock.advance(3.0)
        assert breaker.admit() == pytest.approx(2.0)

    def test_half_open_probe_success_closes(self, clock):
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure(RuntimeError("boom"))
        clock.advance(5.1)
        assert breaker.admit() is None  # the probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.admit() is None

    def test_half_open_probe_failure_reopens_on_the_bottom_rung(
            self, clock):
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure(RuntimeError("boom"))
        clock.advance(5.1)
        assert breaker.admit() is None
        breaker.record_failure(RuntimeError("still broken"))
        assert breaker.state == "open"
        assert breaker.ladder.current == "per_layer"
        assert breaker.admit() == pytest.approx(5.0)
        counters = get_metrics().snapshot()["counters"]
        assert counters["serve.breaker.opened"] == 2.0
        assert counters["serve.ladder.degraded"] == 1.0

    def test_sustained_success_restores_the_ladder(self, clock):
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure(RuntimeError("boom"))
        clock.advance(5.1)
        breaker.admit()
        breaker.record_success()  # closes; 1 consecutive success
        assert breaker.ladder.current == "per_layer"
        breaker.record_success()  # 2nd: recovery_successes reached
        assert breaker.ladder.current == "compiled"
        counters = get_metrics().snapshot()["counters"]
        assert counters["serve.ladder.restored"] == 1.0

    def test_failure_resets_success_streak(self, clock):
        breaker = make_breaker(clock)
        breaker.ladder.degrade()
        breaker.record_success()
        breaker.record_failure(RuntimeError("blip"))
        breaker.record_success()
        assert breaker.ladder.current == "per_layer"
        breaker.record_success()
        assert breaker.ladder.current == "compiled"

    def test_describe_reports_state_and_rung(self, clock):
        breaker = make_breaker(clock)
        breaker.record_failure(RuntimeError("boom"))
        described = breaker.describe()
        assert described["state"] == "closed"
        assert described["consecutive_failures"] == 1
        assert described["rung"] == "compiled"
        assert "boom" in described["last_error"]

    def test_state_gauge_tracks_transitions(self, clock):
        breaker = make_breaker(clock)
        gauges = get_metrics().snapshot()["gauges"]
        assert gauges["serve.breaker.state"] == 0.0
        for _ in range(3):
            breaker.record_failure(RuntimeError("boom"))
        assert get_metrics().snapshot()["gauges"][
            "serve.breaker.state"] == 2.0
        clock.advance(5.1)
        breaker.admit()
        assert get_metrics().snapshot()["gauges"][
            "serve.breaker.state"] == 1.0

    def test_bad_config_rejected(self, clock):
        with pytest.raises(ConfigurationError):
            make_breaker(clock, failure_threshold=0)
        with pytest.raises(ConfigurationError):
            make_breaker(clock, cooldown_s=-1.0)
