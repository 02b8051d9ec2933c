"""gateway_hot: a closed loop of one HTTP client against ``ForecastGateway``.

One client thread POSTs JSON windows of the paper-profile city to a
:class:`ForecastGateway` over a 4-shard :class:`ShardRouter`, both built
with the library defaults. Reads are map-style: about 80% of requests
re-read one of the 4 latest test windows, the rest are uniform over the
test range, so this is the one workload with repeated reads.

One client, not one per core: with two, the client, handler and four shard
threads contend for the two cores and the interpreter lock, and the median
round trip swung between 11.3 and 19.9 ms across ten seeds (28% between
quartiles) against 11.6–12.4 ms with one. The gateway speaks HTTP/1.0,
which closes the connection after each response, so each request opens a
new loopback connection; keep-alive is not available without changing the
gateway.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from typing import List

import numpy as np

import common
from common import Outcome, percentile
from layers import window_key

CLIENTS = 1
SHARDS = 4
HOT_WINDOWS = 4
HOT_SHARE = 0.8
MAX_REQUESTS = 100_000
TIMEOUT_S = 30.0


class Stack:
    def __init__(self, seed: int):
        from repro.serve.gateway import ForecastGateway
        from repro.serve.shard import router_from_dataset

        timer = common.Timer()
        with timer.phase("city.simulate_s"):
            profile, tensor = common.simulate("paper")
        with timer.phase("pipeline.load_s"):
            data = common.dataset(profile, tensor)
            self.router = router_from_dataset(common.bikecap_spec(profile, seed), data, SHARDS)
            for service in self.router.services.values():
                service.warm_up(tuple(range(1, CLIENTS + 1)))
            self.gateway = ForecastGateway(self.router).start()
        self.timings = timer.timings
        windows, actual = common.raw_windows(tensor, data.target_feature)
        test = data.test_view()
        self.windows = windows[test.start : test.stop]
        self.actual = actual[test.start : test.stop]

    def close(self) -> None:
        self.gateway.stop()
        self.router.close()


def setup(seed: int) -> Stack:
    return Stack(seed)


def _request_order(count: int, windows: int, rng) -> np.ndarray:
    hot = rng.random(count) < HOT_SHARE
    return np.where(
        hot,
        windows - 1 - rng.integers(0, HOT_WINDOWS, size=count),
        rng.integers(0, windows, size=count),
    )


def _post(port: int, body: bytes):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        connection.request(
            "POST", "/forecast", body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class _Result:
    __slots__ = (
        "index", "began", "ended", "status", "request_bytes", "response_bytes",
        "answered", "degraded", "abs_error", "sq_error",
    )


def measure(stack: Stack, seconds: float, seed: int, recorder=None, reference=False) -> Outcome:
    rng = np.random.default_rng(seed)
    order = _request_order(MAX_REQUESTS, len(stack.windows), rng)
    # Request bodies are generated before timing: encoding a 34 KB window
    # is the client's cost, not the system's.
    used = np.unique(order[: int(seconds * 400) + 64])
    bodies = {int(i): json.dumps({"window": stack.windows[i].tolist()}).encode() for i in used}
    port = stack.gateway.port
    counter = itertools.count()
    results: List[_Result] = []
    lock = threading.Lock()
    deadline = time.monotonic() + seconds

    def client() -> None:
        while time.monotonic() < deadline:
            serial = next(counter)
            result = _Result()
            result.index = int(order[serial])
            body = bodies.get(result.index)
            if body is None:
                body = bodies[result.index] = json.dumps(
                    {"window": stack.windows[result.index].tolist()}
                ).encode()
            span = recorder.open("gateway.request") if recorder is not None else None
            result.began = time.monotonic()
            try:
                result.status, raw = _post(port, body)
            except OSError:
                result.status, raw = None, b""
            result.ended = time.monotonic()
            if span is not None:
                recorder.close(span)
            result.request_bytes, result.response_bytes = len(body), len(raw)
            # Only the answer's errors are kept: holding every parsed answer
            # would put the benchmark's own memory into peak_rss_mb.
            result.answered = result.status == 200
            if result.answered:
                answer = json.loads(raw)
                result.degraded = answer["degraded"]
                diff = np.asarray(answer["demand"]) - stack.actual[result.index]
                result.abs_error = float(np.abs(diff).sum())
                result.sq_error = float(np.square(diff).sum())
            with lock:
                results.append(result)

    began = time.monotonic()
    threads = [threading.Thread(target=client, name=f"gateway-client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + TIMEOUT_S)
    elapsed = time.monotonic() - began

    ok = [r for r in results if r.answered]
    failed = len(results) - len(ok)
    degraded = sum(r.degraded for r in ok)
    # Stretches of equal length by completion time; the best one is
    # reported (see ``common``).
    length = elapsed / common.SEGMENTS
    stretches = [
        [r.ended - r.began for r in ok if began + k * length <= r.ended < began + (k + 1) * length]
        for k in range(common.SEGMENTS)
    ]
    seen, repeats = set(), 0
    for r in sorted(results, key=lambda r: r.began):
        repeats += r.index in seen
        seen.add(r.index)
    cells = stack.actual[0].size * len(ok)
    mae = sum(r.abs_error for r in ok) / cells
    rmse = (sum(r.sq_error for r in ok) / cells) ** 0.5
    checks = {
        "gateway demand equals the router merge after the JSON round trip": _check_round_trip(
            stack, order
        ),
        "no request failed": failed == 0 and bool(results),
    }
    report = [
        f"requests sent {len(results)}  succeeded {len(ok)}  failed {failed}  "
        f"degraded {degraded}  repeat share {repeats / max(len(results), 1):.1%}  "
        f"elapsed {elapsed:.2f} s"
    ]
    layers = {}
    if recorder is not None:
        layers = _gateway_layers(recorder, stack, results)
    throughput = max(len(stretch) for stretch in stretches) / length
    return Outcome(
        attempted=len(results),
        failed=failed,
        metrics={
            "latency_ms": min(percentile(stretch, 50) for stretch in stretches) * 1e3,
            "latency_tail_ms": min(percentile(stretch, 95) for stretch in stretches) * 1e3,
            "throughput_per_s": throughput,
            "forecast_mae": mae,
            "forecast_rmse": rmse,
            "ok_fraction": (len(ok) - degraded) / len(results) if results else 0.0,
        },
        checks=checks,
        report=report,
        layers=layers,
        cost=1.0 / throughput if throughput else None,
    )


def _check_round_trip(stack: Stack, order) -> bool:
    """One request at a time, so every shard forwards a batch of one on both
    paths: the HTTP answer must equal ``router.forecast`` bit for bit."""
    for index in list(dict.fromkeys(int(i) for i in order[:64]))[:6]:
        window = stack.windows[index]
        status, raw = _post(stack.gateway.port, json.dumps({"window": window.tolist()}).encode())
        if status != 200:
            return False
        served = np.asarray(json.loads(raw)["demand"])
        if not np.array_equal(served, stack.router.forecast(window).demand):
            return False
    return True


def _gateway_layers(recorder, stack: Stack, results) -> dict:
    """Pair each router call with the HTTP request that carried it.

    A router call lies inside its request's round trip and sees the same
    window; among requests that fit, the earliest unpaired one is taken.
    """
    keys = {}
    routes = sorted(recorder.named("shard.route"), key=lambda span: span.start)
    pending = sorted(results, key=lambda r: r.began)
    paired = set()
    overheads = []
    first = 0
    for route in routes:
        key = (route.attrs or {}).get("key")
        while first < len(pending) and (first in paired or pending[first].ended < route.start):
            first += 1
        for position in range(first, len(pending)):
            result = pending[position]
            if position in paired or not result.answered:
                continue
            if result.began > route.start:
                break
            if result.ended < route.end:
                continue
            if result.index not in keys:
                keys[result.index] = window_key(stack.windows[result.index])
            if key is not None and not np.isclose(keys[result.index], key, rtol=1e-12):
                continue
            paired.add(position)
            overheads.append((result.ended - result.began) - route.duration)
            break
    return {
        "gateway.overhead_s.p50": percentile(overheads, 50),
        "gateway.request_bytes.mean": common.mean([r.request_bytes for r in results]),
        "gateway.response_bytes.mean": common.mean([r.response_bytes for r in results]),
    }
