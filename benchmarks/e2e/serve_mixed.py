"""``serve-mixed``: open-loop ``POST /v1/estimate`` traffic against a
``python -m repro.serve`` daemon.

Why: the request path (HTTP, validation, admission queue, coalescing,
compiled-sweep cache hits and misses) does the work, with no
sweep-scale arrays.  Reads of warm tables sit beside cache-evicting
builds, so a change that helps hits but slows misses shows in the tail.

Mix: 90% hot requests, random legal mappings on Megatron-1T at 128
nodes / batch 2048 and three neighbouring group keys; 7% a cold tail
over 225 model x nodes x batch keys, far more than the daemon's
``MAX_CACHED_SWEEPS`` (8), so these miss the compile cache and some are
infeasible (an expected 422); 3% malformed bodies (an expected 400
with a known error code).  Arrivals are a seeded Poisson schedule sent
from one process over at most ``NPROC`` keep-alive connections, each
request timed from when it was due.

Each rate has one one-second schedule.  The run plays each once,
untimed, so the daemon reaches its steady state, then plays them in
turn (150, 450, 150, ...) until its time is used.  Every request thus
repeats with the same neighbours, and is reported at its fastest
repeat, like a cell of the sweep workloads.  Shorter schedules repeat
more often: one second (12 repeats in 24 s) spread less from run to
run than two seconds (6 repeats), for both p50 and p99.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.model import AMPeD
from repro.errors import MappingError, RequestValidationError
from repro.parallelism.microbatch import CASE_STUDY_EFFICIENCY
from repro.parallelism.spec import spec_from_totals
from repro.search.dse import evaluate_candidate
from repro.search.shm import leaked_segment_names
from repro.serve import (
    EstimationService,
    PendingRequest,
    parse_estimate_request,
)
from repro.serve.lifecycle import system_for
from repro.serve.validation import EstimateRequest
from repro.transformer.zoo import MODELS, get_model
from repro.units import divisors

from analysis import percentile
from harness import NPROC, OUT_DIR, ROOT

#: ``(model, nodes, global batch)`` group keys of the hot set.
HOT_KEYS = (("megatron-1t", 128, 2048), ("megatron-1t", 64, 2048),
            ("megatron-1t", 256, 2048), ("megatron-1t", 128, 512))
TAIL_NODES = (2, 4, 8, 16, 32)
#: Batch 64 on more than 64 accelerators dices below one sequence per
#: microbatch: the tail's expected 422s.
TAIL_BATCHES = (64, 256, 1024)

#: Bodies the validator must refuse, with the error code it must give.
MALFORMED: Tuple[Tuple[bytes, str], ...] = (
    (b'{"model": "megatron-1t", "tp": 8', "invalid_json"),
    (b"\xff\xfe{}", "invalid_json"),
    (b"[1, 2, 3]", "invalid_request"),
    (b'{"model": "megatron-1t", "nodes": 128, "bogus": 1}',
     "unknown_field"),
    (b'{"nodes": 128, "tp": 8}', "missing_field"),
    (b'{"model": "no-such-model"}', "invalid_value"),
    (b'{"model": "megatron-1t", "tp": 0}', "invalid_value"),
    (b'{"model": "megatron-1t", "tp": "8"}', "invalid_value"),
    (b'{"model": "megatron-1t", "deadline_s": 1e9}', "invalid_value"),
)

RATES = (150, 450)
SCHEDULE_S = 1.0
SETUP_SAMPLES = 5  # as many as run.py takes for the other workloads
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0
WARM_MODEL = "megatron-1t"

#: Generator lateness above which a rate's numbers are not trusted:
#: the client, not the daemon, would be setting the schedule.
MAX_LATE_P99_MS = 1.0

_HEADERS = {"Content-Type": "application/json"}


def _body(model: str, nodes: int, batch: int, tp: int, pp: int,
          dp: int) -> bytes:
    return json.dumps({"model": model, "nodes": nodes, "batch": batch,
                       "tp": tp, "pp": pp, "dp": dp},
                      sort_keys=True).encode()


def _triples(n_accelerators: int):
    for tp in divisors(n_accelerators):
        for pp in divisors(n_accelerators // tp):
            yield tp, pp, n_accelerators // (tp * pp)


def _expected_reply(body: bytes) -> Tuple[int, Optional[float]]:
    """The status and ``batch_time_s`` the daemon must answer for a
    well-formed body, from an in-process ``evaluate_candidate``."""
    fields = json.loads(body)
    request = EstimateRequest(
        model=fields["model"], nodes=fields["nodes"],
        batch=fields["batch"], tp=fields["tp"], pp=fields["pp"],
        dp=fields["dp"])
    system = system_for(request)
    template = AMPeD.for_mapping(
        get_model(request.model), system, dp=system.n_accelerators,
        efficiency=CASE_STUDY_EFFICIENCY, evaluation_path="compiled")
    try:
        spec = spec_from_totals(system, tp=request.tp, pp=request.pp,
                                dp=request.dp)
        outcome = evaluate_candidate(template, spec, request.batch,
                                     tune_microbatches=False)
    except MappingError:
        return 422, None
    if not outcome.evaluated:
        return 422, None
    return 200, outcome.result.batch_time_s


def _model_allows(model: str, tp: int, pp: int) -> bool:
    # The daemon answers a mapping the model itself cannot honor with
    # a 422 for its whole coalesced group, so such a mapping would make
    # a neighbour's reply depend on timing; the tail leaves them out.
    config = MODELS[model]
    return pp <= config.n_layers and (tp == 1 or config.n_heads % tp == 0)


def _schedule(rng, rate: float, duration: float, hot):
    """Seeded Poisson arrivals: ``[(due offset s, body, expected code
    or None)]``.

    Kinds are dealt from a shuffled deck of 100 (90 hot, 7 tail, 3
    malformed) and the tail walks a shuffled list of the zoo models,
    so every seed sends the same mix of kinds and models."""
    out = []
    deck: List[str] = []
    tail_models: List[str] = []
    due = rng.expovariate(rate)
    while due < duration:
        if not deck:
            deck = ["hot"] * 90 + ["tail"] * 7 + ["malformed"] * 3
            rng.shuffle(deck)
        kind = deck.pop()
        if kind == "hot":
            key = rng.choice(HOT_KEYS)
            out.append((due, _body(*key, *rng.choice(hot[key])), None))
        elif kind == "tail":
            if not tail_models:
                tail_models = sorted(MODELS)
                rng.shuffle(tail_models)
            model = tail_models.pop()
            nodes = rng.choice(TAIL_NODES)
            batch = rng.choice(TAIL_BATCHES)
            allowed = [triple for triple in _triples(nodes * 8)
                       if _model_allows(model, *triple[:2])]
            out.append((due, _body(model, nodes, batch,
                                   *rng.choice(allowed)), None))
        else:
            body, code = rng.choice(MALFORMED)
            out.append((due, body, code))
        due += rng.expovariate(rate)
    return out


# -- the daemon -------------------------------------------------------------


def _start_daemon(log) -> Tuple[subprocess.Popen, int, float]:
    """Spawn a default daemon; returns it, its port, and the seconds
    from spawn until ``/readyz`` answered 200."""
    begin = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--warm", WARM_MODEL],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=log)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    DAEMON_START_TIMEOUT_S)
        line = proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=10)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    break
            finally:
                conn.close()
            if time.perf_counter() - begin > DAEMON_START_TIMEOUT_S:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)
    except BaseException:
        _stop_daemon(proc)
        raise
    return proc, port, time.perf_counter() - begin


def _stop_daemon(proc: subprocess.Popen) -> Optional[int]:
    """SIGTERM, then wait; a daemon that will not drain is killed.
    Returns the exit code."""
    try:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(DAEMON_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    finally:
        proc.stdout.close()


def _get_metrics(port: int) -> Dict[str, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        snapshot = json.loads(conn.getresponse().read())
    finally:
        conn.close()
    return {**snapshot["counters"], **snapshot["gauges"]}


# -- the load generator -----------------------------------------------------


def _drive(port: int, schedule, spans) -> List[tuple]:
    """Send ``schedule`` open loop over ``NPROC`` connections.

    Returns per request ``(status, body, latency_s from due, rtt_s,
    late_s)``.  ``late_s`` is the generator's own delay: from when a
    request was due, or its connection came free if later, to when it
    was sent.  Waiting for a busy connection is the daemon's doing and
    shows in the latency, not here."""
    results: List[Optional[tuple]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter()

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        free_at = time.perf_counter()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            offset, body, _ = schedule[index]
            due = start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            try:
                with spans.span("loadgen.request", category="loadgen"):
                    conn.request("POST", "/v1/estimate", body, _HEADERS)
                    reply = conn.getresponse()
                    status, data = reply.status, reply.read()
            except (OSError, http.client.HTTPException) as error:
                status, data = None, repr(error).encode()
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=30)
            done = time.perf_counter()
            results[index] = (status, data, done - due, done - sent,
                              sent - max(due, free_at))
            free_at = done
        conn.close()

    threads = [threading.Thread(target=client, name=f"loadgen-{n}")
               for n in range(NPROC)]
    # A cyclic collection here would stall both clients at once.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    return results


# -- workload interface -----------------------------------------------------


def prepare(run):
    hot = {}
    for model, nodes, batch in HOT_KEYS:
        hot[(model, nodes, batch)] = [
            triple for triple in _triples(nodes * 8)
            if _expected_reply(_body(model, nodes, batch, *triple))[0]
            == 200]
    schedules = {rate: _schedule(run.rng, rate, SCHEDULE_S, hot)
                 for rate in RATES}
    # A traced run splits its time between live load and the
    # in-process replay that attributes service time.
    live_s = run.seconds / 2 if run.traced else run.seconds
    repeats = max(2, round(live_s / (SCHEDULE_S * len(RATES))))
    plays = [(rate, False) for rate in RATES]
    plays += [(rate, True) for _ in range(repeats) for rate in RATES]
    OUT_DIR.mkdir(exist_ok=True)
    log = open(OUT_DIR / f"serve-seed{run.seed}.log", "wb")
    setups = []
    before = set(leaked_segment_names())
    for _ in range(SETUP_SAMPLES - 1):
        proc, _, seconds = _start_daemon(log)
        setups.append(seconds)
        _stop_daemon(proc)
    proc, port, seconds = _start_daemon(log)
    setups.append(seconds)
    return {"schedules": schedules, "plays": plays, "proc": proc,
            "port": port, "log": log, "setup_s": statistics.median(setups),
            "segments": before}


def measure(run, state):
    """Play every schedule, stop the daemon, then (traced runs only)
    replay bodies in process; returns the replay passes."""
    port = state["port"]
    replies = []
    spans = run.tracer if run.traced else run.off
    before = None
    try:
        for rate, timed in state["plays"]:
            if timed and before is None:
                before = _get_metrics(port)
            schedule = state["schedules"][rate]
            with spans.span("loadgen.play", category="loadgen",
                            attrs={"rate": rate, "timed": timed}):
                begin = time.perf_counter()
                results = _drive(port, schedule, spans)
                replies.append((rate, timed, results,
                                time.perf_counter() - begin))
            run.attempted += len(schedule)
        after = _get_metrics(port)
    finally:
        code = _stop_daemon(state["proc"])
        state["log"].close()
    if code != 0:
        run.fail(f"daemon exited with {code} after SIGTERM")
    leaked = set(leaked_segment_names()) - state["segments"]
    if leaked:
        run.fail(f"shared-memory segments left behind: {sorted(leaked)}")
    state["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    state["counters"] = {name: after.get(name, 0) - before.get(name, 0)
                         for name in set(after) | set(before)}
    state["replies"] = replies
    if not run.traced:
        return []
    live_s = sum(wall for _, timed, _, wall in replies if timed)
    return _replay(run, state, max(1.0, run.seconds - live_s))


def _replay(run, state, seconds):
    """The 150 req/s bodies again, through ``parse_estimate_request``
    and ``EstimationService.process_batch`` in this process: the
    service time the HTTP round trip wraps."""
    service = EstimationService(prewarm=False)
    bodies = [body for _, body, _ in state["schedules"][RATES[0]]]

    def one_pass(spans):
        for body in bodies:
            try:
                with spans.span("serve.validate", category="serve"):
                    request = parse_estimate_request(body)
            except RequestValidationError:
                continue
            with spans.span("serve.service", category="serve"):
                now = time.monotonic()
                service.process_batch([PendingRequest(
                    request, deadline=now + 60.0, enqueued_at=now)])

    return run.passes(one_pass, 4, seconds=seconds)


def verify(run, state, passes):
    """Every 200 must carry the in-process ``batch_time_s`` bit for
    bit, every malformed body a 400 with its code, every other
    well-formed body its expected status.  Keeps a per-request ok flag
    per play for the latency metrics."""
    expected: Dict[bytes, Tuple[int, Optional[float]]] = {}
    state["ok"] = []
    for rate, _, results, _ in state["replies"]:
        flags = []
        for (_, body, code), (status, data, *_) in zip(
                state["schedules"][rate], results):
            problem = _check(body, code, status, data, expected)
            if problem:
                run.fail(f"r{rate}: {body[:80]!r}: {problem}")
            flags.append(problem is None)
        state["ok"].append(flags)


def _check(body, code, status, data, expected) -> Optional[str]:
    if status is None:
        return f"transport error {data.decode(errors='replace')}"
    try:
        payload = json.loads(data)
    except ValueError:
        return f"status {status} with a non-JSON body"
    if code is not None:
        got = payload.get("error", {}).get("code")
        return None if (status, got) == (400, code) else \
            f"expected 400 {code}, got {status} {got}"
    if body not in expected:
        expected[body] = _expected_reply(body)
    want_status, want_time = expected[body]
    if status != want_status:
        return f"expected {want_status}, got {status} {payload}"
    if status == 200 and payload.get("batch_time_s") != want_time:
        return (f"batch_time_s {payload.get('batch_time_s')!r} != "
                f"in-process {want_time!r}")
    return None


def _timed(state, rate):
    """``(results, ok flags, wall)`` of every timed play of ``rate``."""
    return [(results, ok, wall) for (played, timed, results, wall), ok
            in zip(state["replies"], state["ok"])
            if timed and played == rate]


def _fastest(state, rate) -> List[Tuple[float, float]]:
    """Per request of ``rate``'s schedule, ``(latency ms, generator
    lateness ms)`` from its fastest timed repeat; a failed or wrong
    reply counts as infinitely late."""
    repeats = [[(result[2] * 1e3 if ok else math.inf, result[4] * 1e3)
                for result, ok in zip(results, flags)]
               for results, flags, _ in _timed(state, rate)]
    return [min(samples) for samples in zip(*repeats)]


def metrics(run, state, passes):
    """Per rate, each request at its fastest repeat; the end-to-end
    figures pool both rates' requests.  The generator's lateness is
    judged on the same samples the latencies come from."""
    named = {}
    pooled: List[float] = []
    good = 0
    wall = 0.0
    for rate in RATES:
        plays = _timed(state, rate)
        fastest = _fastest(state, rate)
        latency = [sample[0] for sample in fastest]
        late = percentile([sample[1] for sample in fastest], 99)
        if late > MAX_LATE_P99_MS:
            run.fail(f"{rate} req/s is not a valid rate: generator "
                     f"lateness p99 {late:.3f} ms exceeds "
                     f"{MAX_LATE_P99_MS} ms")
            named[f"r{rate}.p50_ms"] = ("invalid", "ms")
            named[f"r{rate}.p99_ms"] = ("invalid", "ms")
        else:
            named[f"r{rate}.p50_ms"] = (percentile(latency, 50), "ms")
            named[f"r{rate}.p99_ms"] = (percentile(latency, 99), "ms")
        pooled.extend(latency)
        good += sum(sum(flags) for _, flags, _ in plays)
        wall += sum(play_wall for _, _, play_wall in plays)
    e2e = {"p50_ms": percentile(pooled, 50),
           "p99_ms": percentile(pooled, 99),
           "throughput_per_s": good / wall,
           "setup_s": state["setup_s"],
           "peak_rss_mb": state["peak_rss_mb"]}
    return e2e, named


def layers(run, state, passes, self_s):
    """``self_s`` holds per-pass self seconds of the replay's spans;
    the HTTP overhead compares them with the same bodies' mean round
    trip over every timed play."""
    bodies = state["schedules"][RATES[0]]
    n_valid = sum(1 for _, _, code in bodies if code is None)
    validate_s = self_s.get("serve.validate", 0.0)
    service_s = self_s.get("serve.service", 0.0)
    mean_rtt = statistics.fmean(
        result[3] for results, _, _ in _timed(state, RATES[0])
        for result in results)
    counters = state["counters"]
    return {
        "serve.validate_us": validate_s / len(bodies) * 1e6,
        "serve.service_us": service_s / n_valid * 1e6,
        "serve.http_overhead_us":
            (mean_rtt - (validate_s + service_s) / len(bodies)) * 1e6,
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.shed": counters.get("serve.shed", 0),
        "serve.deadline_hits": counters.get("serve.deadline_hits", 0),
        "serve.responses.4xx": counters.get("serve.responses.4xx", 0),
        "serve.responses.5xx": counters.get("serve.responses.5xx", 0),
        "serve.compile_builds": counters.get("cache.compiled.builds", 0),
        "serve.prewarm.built": counters.get("serve.prewarm.built", 0),
        "loadgen.late_p99_ms": percentile(
            [late for rate in RATES for _, late in _fastest(state, rate)],
            99),
    }

