"""HTTP-layer fault injection against a live in-process daemon.

Every test gets its own daemon on an ephemeral port with an injected
evaluator, so the suite exercises the real socket path — admission,
Retry-After headers, deadline abandonment, breaker recovery, drain —
without touching the (slow) genuine model evaluation.
"""

import json
import logging
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import get_metrics
from repro.serve.breaker import CircuitBreaker, DegradationLadder
from repro.serve.lifecycle import EstimationService
from repro.serve.server import ServeConfig, ServeDaemon


def http(method, base, path, payload=None, raw=None, timeout=10.0):
    """(status, body-dict, headers) without raising on HTTP errors."""
    data = raw
    if payload is not None:
        data = json.dumps(payload).encode()
    request = urllib.request.Request(base + path, data=data,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read()), reply.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


@pytest.fixture
def daemon_factory():
    """Build daemons on ephemeral ports; always shut down at teardown."""
    daemons = []

    def build(evaluate=None, breaker=None, config=None, **service_kw):
        config = config or ServeConfig(port=0)
        service = EstimationService(
            queue_limit=config.queue_limit,
            default_deadline_s=config.deadline_s,
            breaker=breaker or CircuitBreaker(
                failure_threshold=config.breaker_threshold,
                cooldown_s=config.breaker_cooldown_s,
                ladder=DegradationLadder("compiled")),
            evaluate=evaluate,
            drain_timeout_s=config.drain_timeout_s,
            **service_kw)
        daemon = ServeDaemon(config, service=service)
        daemons.append(daemon)
        host, port = daemon.start()
        return daemon, f"http://{host}:{port}"

    yield build
    for daemon in daemons:
        daemon.shutdown()


ESTIMATE = {"model": "megatron-1t", "nodes": 128, "tp": 8, "pp": 16,
            "dp": 8}


def ok_evaluate(request):
    return (200, {"model": request.model, "batch_time_s": 1.0})


class TestEndpoints:

    def test_healthz_always_200(self, daemon_factory):
        __, base = daemon_factory(evaluate=ok_evaluate)
        status, body, __ = http("GET", base, "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_readyz_cold_503_then_200_after_traffic(self,
                                                    daemon_factory):
        __, base = daemon_factory(evaluate=ok_evaluate)
        status, body, __ = http("GET", base, "/readyz")
        assert status == 503
        assert body["cache_warm"] is False
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 200
        status, body, __ = http("GET", base, "/readyz")
        assert status == 200
        assert body["ready"] is True

    def test_metrics_exposes_serve_instruments(self, daemon_factory):
        __, base = daemon_factory(evaluate=ok_evaluate)
        http("POST", base, "/v1/estimate", ESTIMATE)
        status, snapshot, __ = http("GET", base, "/metrics")
        assert status == 200
        assert snapshot["counters"]["serve.requests"] >= 1
        assert "serve.request_seconds" in snapshot["histograms"]
        assert snapshot["gauges"]["serve.breaker.state"] == 0.0

    def test_unknown_paths_are_structured_404(self, daemon_factory):
        __, base = daemon_factory(evaluate=ok_evaluate)
        assert http("GET", base, "/nope")[0] == 404
        status, body, __ = http("POST", base, "/nope", ESTIMATE)
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestMalformedInput:
    """A malformed request must never produce a 500 or kill the
    daemon — always a structured 4xx, with /healthz still green."""

    def test_invalid_json_is_400(self, daemon_factory):
        __, base = daemon_factory(evaluate=ok_evaluate)
        status, body, __ = http("POST", base, "/v1/estimate",
                                raw=b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_json"
        assert http("GET", base, "/healthz")[0] == 200

    def test_unknown_field_names_the_field(self, daemon_factory):
        __, base = daemon_factory(evaluate=ok_evaluate)
        status, body, __ = http("POST", base, "/v1/estimate",
                                {"model": "megatron-1t", "bogus": 1})
        assert status == 400
        assert body["error"]["field"] == "bogus"

    def test_oversized_body_refused_with_413(self, daemon_factory):
        config = ServeConfig(port=0, max_body_bytes=128)
        __, base = daemon_factory(evaluate=ok_evaluate, config=config)
        big = json.dumps({"model": "x" * 4096}).encode()
        status, body, __ = http("POST", base, "/v1/estimate", raw=big)
        assert status == 413
        assert body["error"]["code"] == "body_too_large"
        assert http("GET", base, "/healthz")[0] == 200

    def test_garbage_survives_many_rounds(self, daemon_factory):
        __, base = daemon_factory(evaluate=ok_evaluate)
        for raw in (b"", b"null", b"[]", b'"hi"', b"\xff\xfe",
                    b"{}" * 50):
            status, body, __ = http("POST", base, "/v1/estimate",
                                    raw=raw)
            assert 400 <= status < 500
            assert "error" in body
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 200


class TestOverloadAndDeadlines:

    def test_queue_full_sheds_429_with_retry_after(self,
                                                   daemon_factory):
        gate = threading.Event()

        def slow(request):
            gate.wait(10.0)
            return (200, {})

        config = ServeConfig(port=0, queue_limit=1, deadline_s=30.0)
        __, base = daemon_factory(evaluate=slow, config=config)
        results = []

        def fire():
            results.append(http("POST", base, "/v1/estimate",
                                ESTIMATE, timeout=40.0))

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
            time.sleep(0.05)  # let earlier ones claim queue slots
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if any(r[0] == 429 for r in results):
                break
            time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(30.0)
        statuses = [r[0] for r in results]
        assert 429 in statuses, statuses
        shed = next(r for r in results if r[0] == 429)
        assert shed[1]["error"]["code"] == "queue_full"
        assert int(shed[2]["Retry-After"]) >= 1
        assert 200 in statuses  # admitted requests still completed

    def test_hung_handler_hits_deadline_504(self, daemon_factory):
        gate = threading.Event()

        def hang(request):
            gate.wait(30.0)
            return (200, {})

        config = ServeConfig(port=0, deadline_s=0.3)
        __, base = daemon_factory(evaluate=hang, config=config)
        started = time.monotonic()
        status, body, __ = http("POST", base, "/v1/estimate",
                                ESTIMATE, timeout=10.0)
        elapsed = time.monotonic() - started
        gate.set()
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        assert elapsed < 5.0  # the daemon did not stall on the hang
        assert http("GET", base, "/healthz")[0] == 200
        counters = get_metrics().snapshot()["counters"]
        assert counters["serve.deadline_hits"] >= 1

    def test_client_deadline_overrides_default(self, daemon_factory):
        def hang(request):
            time.sleep(1.0)
            return (200, {})

        config = ServeConfig(port=0, deadline_s=30.0)
        __, base = daemon_factory(evaluate=hang, config=config)
        payload = dict(ESTIMATE, deadline_s=0.2)
        started = time.monotonic()
        status, __unused, __h = http("POST", base, "/v1/estimate",
                                     payload, timeout=10.0)
        assert status == 504
        assert time.monotonic() - started < 5.0


class TestBreakerRecovery:

    def test_trip_shed_halfopen_recover(self, daemon_factory):
        healthy = threading.Event()

        def flaky(request):
            if not healthy.is_set():
                raise RuntimeError("backend down")
            return (200, {"ok": True})

        ladder = DegradationLadder("compiled")
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=0.3,
                                 recovery_successes=2, ladder=ladder)
        config = ServeConfig(port=0, deadline_s=5.0)
        __, base = daemon_factory(evaluate=flaky, breaker=breaker,
                                  config=config)

        # Two failures trip the breaker (500s), degrading the ladder.
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 500
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 500
        assert breaker.state == "open"
        assert ladder.current == "per_layer"

        # While open: instant 503 with Retry-After, readyz red.
        status, body, headers = http("POST", base, "/v1/estimate",
                                     ESTIMATE)
        assert status == 503
        assert body["error"]["code"] == "breaker_open"
        assert int(headers["Retry-After"]) >= 1
        readyz_status, readyz, __ = http("GET", base, "/readyz")
        assert readyz_status == 503
        assert readyz["breaker"]["state"] == "open"

        # Cooldown elapses; the backend heals; the half-open probe
        # succeeds and closes the breaker.
        healthy.set()
        time.sleep(0.4)
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 200
        assert breaker.state == "closed"
        # One more success reaches recovery_successes → rung restored.
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 200
        assert ladder.current == "compiled"
        assert http("GET", base, "/readyz")[0] == 200

    def test_halfopen_probe_failure_reopens(self, daemon_factory):
        def broken(request):
            raise RuntimeError("still down")

        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.2,
                                 ladder=DegradationLadder("compiled"))
        __, base = daemon_factory(evaluate=broken, breaker=breaker)
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 500
        time.sleep(0.3)
        assert http("POST", base, "/v1/estimate", ESTIMATE)[0] == 500
        assert breaker.state == "open"


class TestGracefulDrain:

    def test_inflight_completes_then_new_refused(self, daemon_factory):
        entered = threading.Event()
        gate = threading.Event()

        def slow(request):
            entered.set()
            gate.wait(10.0)
            return (200, {"drained": True})

        config = ServeConfig(port=0, deadline_s=30.0)
        daemon, base = daemon_factory(evaluate=slow, config=config)
        result = {}

        def fire():
            result["reply"] = http("POST", base, "/v1/estimate",
                                   ESTIMATE, timeout=40.0)

        inflight = threading.Thread(target=fire)
        inflight.start()
        assert entered.wait(10.0)

        # Begin draining while the request is mid-evaluation.
        daemon.service.reject_new()
        status, body, __ = http("POST", base, "/v1/estimate", ESTIMATE)
        assert status == 503
        assert body["error"]["code"] == "draining"

        gate.set()
        inflight.join(30.0)
        assert result["reply"][0] == 200
        assert result["reply"][1]["drained"] is True
        daemon.shutdown()


class TestAccessLog:
    """One structured access-log line per request, correlated with the
    ``serve.evaluate`` span through a shared ``trace_id``."""

    ACCESS = re.compile(
        r"access trace_id=(?P<trace_id>\S+) method=POST "
        r"path=(?P<path>\S+) status=(?P<status>\d+) "
        r"duration_ms=(?P<duration>[0-9.]+) client=\S+ "
        r"code=(?P<code>\S+)")

    def _access_records(self, caplog):
        return [self.ACCESS.search(record.getMessage())
                for record in caplog.records
                if record.getMessage().startswith("access ")]

    def _wait_for_access(self, caplog, count, timeout=5.0):
        """The handler logs *after* replying, so the client can race
        ahead of the log line — poll briefly."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            lines = self._access_records(caplog)
            if len(lines) >= count:
                return lines
            time.sleep(0.01)
        return self._access_records(caplog)

    def test_every_post_logs_one_access_line(self, daemon_factory,
                                             caplog):
        __, base = daemon_factory(evaluate=ok_evaluate)
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            assert http("POST", base, "/v1/estimate", ESTIMATE)[0] \
                == 200
            assert http("POST", base, "/v1/estimate", ESTIMATE)[0] \
                == 200
            lines = self._wait_for_access(caplog, 2)
        assert len(lines) == 2
        for match in lines:
            assert match is not None
            assert match["status"] == "200"
            assert match["code"] == "ok"
            assert float(match["duration"]) >= 0.0
        # Every request gets its own id.
        assert lines[0]["trace_id"] != lines[1]["trace_id"]

    def test_error_responses_log_their_code(self, daemon_factory,
                                            caplog):
        __, base = daemon_factory(evaluate=ok_evaluate)
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            status, body, __ = http("POST", base, "/v1/estimate",
                                    {"model": "no-such-model"})
            (match,) = self._wait_for_access(caplog, 1)
        assert status == 400
        assert match["status"] == "400"
        assert match["code"] == body["error"]["code"]

    def test_trace_id_is_stamped_on_the_evaluate_span(
            self, daemon_factory, caplog):
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        tracer.enable(reset=True)
        try:
            __, base = daemon_factory(evaluate=ok_evaluate)
            with caplog.at_level(logging.INFO, logger="repro.serve"):
                assert http("POST", base, "/v1/estimate",
                            ESTIMATE)[0] == 200
                (match,) = self._wait_for_access(caplog, 1)
            spans = [record for record in tracer.records()
                     if record.name == "serve.evaluate"]
        finally:
            tracer.disable()
            tracer.reset()
        assert spans, "no serve.evaluate span was recorded"
        stamped = ",".join(span.attrs.get("trace_ids", "")
                           for span in spans)
        assert match["trace_id"] in stamped.split(",")
