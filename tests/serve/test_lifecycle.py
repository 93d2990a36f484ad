"""EstimationService pipeline, driven deterministically via
``process_batch`` (no dispatcher thread) with an injected evaluator."""

import threading
import time

import pytest

from repro.errors import MappingError, ServiceOverloaded
from repro.obs.metrics import get_metrics
from repro.search.vectorized import vectorized_stats
from repro.serve.breaker import CircuitBreaker, DegradationLadder
from repro.serve.lifecycle import EstimationService
from repro.serve.validation import EstimateRequest


def ok_evaluate(request):
    return (200, {"model": request.model, "batch_time_s": 1.0})


def make_service(**kwargs):
    kwargs.setdefault("evaluate", ok_evaluate)
    kwargs.setdefault("queue_limit", 4)
    kwargs.setdefault("default_deadline_s", 5.0)
    return EstimationService(**kwargs)


def counters():
    return get_metrics().snapshot()["counters"]


class TestAdmission:

    def test_submit_then_process_resolves(self):
        service = make_service()
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        service.process_batch([pending])
        assert pending.done.is_set()
        assert pending.status == 200
        assert pending.payload["model"] == "megatron-1t"

    def test_full_queue_sheds_with_queue_full(self):
        service = make_service(queue_limit=2)
        service.submit(EstimateRequest(model="megatron-1t"))
        service.submit(EstimateRequest(model="megatron-1t"))
        with pytest.raises(ServiceOverloaded) as caught:
            service.submit(EstimateRequest(model="megatron-1t"))
        assert caught.value.code == "queue_full"
        assert caught.value.retry_after_s > 0
        assert counters()["serve.shed"] == 1.0

    def test_draining_refuses_new_submissions(self):
        service = make_service()
        service.reject_new()
        with pytest.raises(ServiceOverloaded) as caught:
            service.submit(EstimateRequest(model="megatron-1t"))
        assert caught.value.code == "draining"

    def test_open_breaker_sheds_before_queueing(self):
        breaker = CircuitBreaker(failure_threshold=1,
                                 cooldown_s=60.0,
                                 ladder=DegradationLadder("compiled"))
        breaker.record_failure(RuntimeError("boom"))
        service = make_service(breaker=breaker)
        with pytest.raises(ServiceOverloaded) as caught:
            service.submit(EstimateRequest(model="megatron-1t"))
        assert caught.value.code == "breaker_open"
        assert service._queue.qsize() == 0


class TestBatching:

    def test_identical_requests_coalesce_into_one_group(self):
        calls = []

        def counting(request):
            calls.append(request)
            return (200, {"ok": True})

        service = make_service(evaluate=counting, queue_limit=8)
        pendings = [service.submit(EstimateRequest(model="megatron-1t",
                                                   tp=tp, pp=1, dp=1))
                    for tp in (1, 2, 4)]
        batch = [service._queue.get_nowait() for _ in range(3)]
        service.process_batch(batch)
        # One group (same group_key), every member answered.
        assert all(p.status == 200 for p in pendings)
        assert len(calls) == 3
        assert counters()["serve.coalesced"] == 2.0

    def test_distinct_systems_stay_separate_groups(self):
        service = make_service(queue_limit=8)
        a = service.submit(EstimateRequest(model="megatron-1t"))
        b = service.submit(EstimateRequest(model="megatron-1t",
                                           nodes=32))
        service.process_batch([a, b])
        assert a.status == b.status == 200
        assert counters().get("serve.coalesced", 0.0) == 0.0

    def test_expired_request_skipped_before_evaluation(self):
        clock_now = [100.0]
        service = make_service(clock=lambda: clock_now[0],
                               default_deadline_s=1.0)
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        clock_now[0] += 2.0
        service.process_batch([pending])
        assert pending.status == 504
        assert pending.payload["error"]["code"] == "deadline_exceeded"
        assert counters()["serve.cancelled"] == 1.0

    def test_abandoned_request_not_evaluated(self):
        calls = []
        service = make_service(
            evaluate=lambda r: calls.append(r) or (200, {}))
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        pending.abandoned = True
        service.process_batch([pending])
        assert calls == []
        assert pending.status == 504


class TestFailureContainment:

    def test_hung_evaluation_hits_deadline_and_feeds_breaker(self):
        release = threading.Event()

        def hang(request):
            release.wait(5.0)
            return (200, {})

        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0,
                                 ladder=DegradationLadder("compiled"))
        service = make_service(evaluate=hang, breaker=breaker,
                               default_deadline_s=0.2)
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        started = time.monotonic()
        service.process_batch([pending])
        elapsed = time.monotonic() - started
        release.set()
        assert pending.status == 504
        assert elapsed < 2.0  # did not wait for the hung evaluator
        assert breaker.state == "open"
        assert counters()["serve.deadline_hits"] == 1.0

    def test_crash_maps_to_500_without_traceback_payload(self):
        def crash(request):
            raise ValueError("internal kaboom")

        service = make_service(evaluate=crash)
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        service.process_batch([pending])
        assert pending.status == 500
        assert pending.payload["error"]["code"] == "evaluation_failed"
        assert "Traceback" not in pending.payload["error"]["message"]
        assert counters()["serve.worker_errors"] == 1.0

    def test_domain_rejection_is_422_not_a_breaker_failure(self):
        def reject(request):
            raise MappingError("tp=7 does not divide the node")

        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0,
                                 ladder=DegradationLadder("compiled"))
        service = make_service(evaluate=reject, breaker=breaker)
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        service.process_batch([pending])
        assert pending.status == 422
        assert breaker.state == "closed"

    def test_success_closes_the_loop_on_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=0.0,
                                 ladder=DegradationLadder("compiled"))
        breaker.record_failure(RuntimeError("blip"))
        service = make_service(breaker=breaker)
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        service.process_batch([pending])
        assert breaker.describe()["consecutive_failures"] == 0


class TestDispatcherAndDrain:

    def test_dispatcher_thread_round_trip(self):
        service = make_service()
        service.start()
        try:
            pending = service.submit(
                EstimateRequest(model="megatron-1t"))
            assert pending.done.wait(5.0)
            assert pending.status == 200
        finally:
            assert service.stop(5.0)

    def test_stop_drains_queued_requests_first(self):
        service = make_service(queue_limit=8)
        pendings = [service.submit(EstimateRequest(model="megatron-1t"))
                    for _ in range(3)]
        service.start()
        assert service.stop(5.0)
        assert all(p.done.is_set() and p.status == 200
                   for p in pendings)

    def test_status_reflects_draining_and_warmth(self):
        service = make_service()
        status = service.status()
        assert status["ready"] is False  # cache cold
        assert status["cache_warm"] is False
        pending = service.submit(EstimateRequest(model="megatron-1t"))
        service.process_batch([pending])
        status = service.status()
        assert status["ready"] is True
        assert status["cache_warm"] is True
        service.reject_new()
        assert service.status()["ready"] is False


class TestRealEvaluation:
    """The genuine model path (no injected evaluator): small model,
    tiny system, exercising spec construction and the response body."""

    REQUEST = EstimateRequest(model="mingpt-85m", nodes=2,
                              accel_per_node=8, dp=16, batch=256,
                              tokens=1.0e9)

    def test_single_request_payload(self):
        service = EstimationService(default_deadline_s=60.0)
        pending = service.submit(self.REQUEST)
        service.process_batch([pending])
        assert pending.status == 200
        payload = pending.payload
        assert payload["model"] == "mingpt-85m"
        assert payload["batch_time_s"] > 0
        assert payload["training_days"] > 0
        assert payload["n_batches"] > 0
        assert "forward_time" in payload["breakdown"] \
            or "bubble" in payload["breakdown"]
        assert payload["evaluation_path"] == "compiled"

    def test_infeasible_mapping_is_422(self):
        service = EstimationService(default_deadline_s=60.0)
        pending = service.submit(
            EstimateRequest(model="mingpt-85m", nodes=2,
                            accel_per_node=8, tp=7, batch=256))
        service.process_batch([pending])
        assert pending.status == 422
        assert pending.payload["error"]["code"] == "mapping_infeasible"

    def test_coalesced_group_matches_singletons(self):
        service = EstimationService(default_deadline_s=60.0,
                                    queue_limit=8)
        mappings = [(1, 1, 16), (2, 1, 8), (1, 2, 8)]
        grouped = [service.submit(
            EstimateRequest(model="mingpt-85m", nodes=2,
                            accel_per_node=8, tp=tp, pp=pp, dp=dp,
                            batch=256))
            for tp, pp, dp in mappings]
        for pending in list(grouped):
            service._queue.get_nowait()
        service.process_batch(grouped)

        for (tp, pp, dp), pending in zip(mappings, grouped):
            solo_service = EstimationService(default_deadline_s=60.0)
            solo = solo_service.submit(
                EstimateRequest(model="mingpt-85m", nodes=2,
                                accel_per_node=8, tp=tp, pp=pp, dp=dp,
                                batch=256))
            solo_service.process_batch([solo])
            assert pending.status == solo.status == 200
            assert pending.payload["batch_time_s"] == pytest.approx(
                solo.payload["batch_time_s"], rel=1e-12)

    def test_two_spec_group_reads_the_scalar_tables(self):
        # A group evaluates each distinct mapping on the scalar term
        # tables, never as an array batch, and answers exactly what
        # the same requests get one at a time.
        mappings = [(8, 64, 2), (8, 32, 4)]

        def request(tp, pp, dp):
            return EstimateRequest(model="megatron-1t", nodes=128,
                                   accel_per_node=8, tp=tp, pp=pp,
                                   dp=dp, batch=2048)

        service = EstimationService(default_deadline_s=60.0)
        grouped = [service.submit(request(*mapping))
                   for mapping in mappings]
        for _ in grouped:
            service._queue.get_nowait()
        builds = vectorized_stats()["builds"]
        service.process_batch(grouped)
        assert vectorized_stats()["builds"] == builds

        for mapping, pending in zip(mappings, grouped):
            solo_service = EstimationService(default_deadline_s=60.0)
            solo = solo_service.submit(request(*mapping))
            solo_service.process_batch([solo])
            assert pending.status == solo.status == 200
            assert pending.payload == solo.payload

    def test_infeasible_mapping_does_not_fail_its_group(self):
        # pp=1024 exceeds megatron-1t's 128 layers; the other two
        # mappings in the coalesced group still answer.
        service = EstimationService(default_deadline_s=60.0,
                                    queue_limit=8)
        grouped = [service.submit(
            EstimateRequest(model="megatron-1t", nodes=128,
                            accel_per_node=8, tp=tp, pp=pp, dp=dp,
                            batch=2048))
            for tp, pp, dp in [(8, 64, 2), (8, 32, 4), (1, 1024, 1)]]
        for pending in list(grouped):
            service._queue.get_nowait()
        service.process_batch(grouped)
        assert [p.status for p in grouped] == [200, 200, 422]
        assert grouped[2].payload["error"]["code"] == "mapping_infeasible"
        assert "128 layers" in grouped[2].payload["error"]["message"]

    def test_warm_marks_cache(self):
        service = EstimationService()
        service.warm(EstimateRequest(model="mingpt-85m", nodes=2,
                                     accel_per_node=8, dp=16,
                                     batch=256))
        assert service.status()["cache_warm"] is True
