"""serve_open: open-loop Poisson arrivals into ``MicroBatcher.submit``.

One generator thread (the caller's) submits distinct windows of the
paper-profile city to a :class:`MicroBatcher` over a
:class:`ForecastService` (BikeCAP plus the persistence floor), both built
with the library defaults. Each request is timed from the moment it was
due, so a stalled generator shows up as lateness and as latency, never as
a faster server.

Phases, in order:

1. ``STRETCHES`` times: a stretch of the 100 rps rung, then a burst
   of ``BURST_REQUESTS`` submitted at once, whose completions per second
   while the queue stays full are the service's capacity (the best stretch
   and the best burst are reported, see ``common``);
2. the ladder: 200, 300, … rps, stopping after the first rung that misses
   p99 ≤ 50 ms, fails a request or grows a backlog (its last passing rung is
   the sustained rate).
"""

from __future__ import annotations

import threading
import time
from typing import List

import numpy as np

import common
from common import Outcome, percentile

LOW_RATE = 100.0
RATE_STEP = 100.0
MAX_RATE = 3000.0
P99_LIMIT_S = 0.050
# The 100 rps rung takes LOW_SHARE of the run, in STRETCHES stretches
# spread over it, each followed by a burst; every ladder rung takes
# RUNG_SHARE. Four stretches of a 25 s run hold 250 requests each, so each
# has at least ten beyond its p95.
LOW_SHARE = 0.4
STRETCHES = 4
RUNG_SHARE = 0.05
BURST_REQUESTS = 400
DRAIN_TIMEOUT_S = 30.0
# Answers kept whole for the under-load check; the rest keep only their
# errors, so the benchmark's own memory stays out of peak_rss_mb.
KEEP_ANSWERS = 32
# Served answers must match a direct predict_batch on the same stack. A
# batch of one is bit-identical; under load the batch composition differs,
# which moves float64 results by rounding only (and can flip a value at the
# zero clip, hence the absolute floor of 1e-12 bikes).
LOAD_RTOL, LOAD_ATOL = 1e-9, 1e-12
# Stage timings (generator lateness + queue wait + predict_batch) must
# account for the summed client latency within this share.
RECONCILE_TOLERANCE = 0.05


class Stack:
    def __init__(self, seed: int):
        from repro.serve.batching import MicroBatcher
        from repro.serve.loader import service_from_dataset

        timer = common.Timer()
        with timer.phase("city.simulate_s"):
            profile, tensor = common.simulate("paper")
        with timer.phase("pipeline.load_s"):
            data = common.dataset(profile, tensor)
            self.service = service_from_dataset(common.bikecap_spec(profile, seed), data)
            self.batcher = MicroBatcher(self.service)
            # Every batch size the batcher can form is compiled before
            # timing starts, so no rung pays plan compilation.
            self.service.warm_up(tuple(range(1, self.batcher.max_batch + 1)))
        self.timings = timer.timings
        self.windows, self.actual = common.raw_windows(tensor, data.target_feature)

    def close(self) -> None:
        self.batcher.close()


def setup(seed: int) -> Stack:
    return Stack(seed)


class _Request:
    __slots__ = ("index", "due", "sent", "done", "error", "degraded", "abs_error", "sq_error", "demand")

    def __init__(self, index, due):
        self.index, self.due = index, due
        self.sent = self.done = self.error = self.demand = None

    @property
    def latency(self) -> float:
        return self.done - self.due


class _Phase:
    """Submits one phase's requests and resolves them as they complete."""

    def __init__(self, stack: Stack, order, serial: int):
        self.stack, self.order, self.serial = stack, order, serial
        self.requests: List[_Request] = []
        self._open = 0
        self._lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()

    def _window(self, serial: int) -> np.ndarray:
        """Each city window once, then again with a per-pass offset, so
        every request of a run is distinct."""
        passes, position = divmod(serial, len(self.order))
        window = self.stack.windows[self.order[position]]
        return window + 1e-3 * passes if passes else window

    def submit(self, due: float) -> None:
        serial = self.serial + len(self.requests)
        request = _Request(self.order[serial % len(self.order)], due)
        window = self._window(serial)
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        with self._lock:
            self._open += 1
            self._drained.clear()
        request.sent = time.monotonic()
        self.requests.append(request)
        keep = self.serial + len(self.requests) <= KEEP_ANSWERS
        self.stack.batcher.submit(window).add_done_callback(
            lambda future: self._resolve(request, future, keep)
        )

    def _resolve(self, request: _Request, future, keep: bool) -> None:
        request.done = time.monotonic()
        try:
            response = future.result()
        except Exception as error:  # noqa: BLE001 - counted as failed
            request.error = error
        else:
            request.degraded = response.degraded
            diff = response.demand - self.stack.actual[request.index]
            request.abs_error = float(np.abs(diff).sum())
            request.sq_error = float(np.square(diff).sum())
            if keep:
                request.demand = response.demand
        with self._lock:
            self._open -= 1
            if self._open == 0:
                self._drained.set()

    def drain(self) -> List[_Request]:
        if not self._drained.wait(DRAIN_TIMEOUT_S):
            raise RuntimeError(f"requests still open after {DRAIN_TIMEOUT_S}s")
        return self.requests


def _poisson(stack, order, serial, rate, seconds, rng) -> List[_Request]:
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16))
    phase = _Phase(stack, order, serial)
    began = time.monotonic() + 0.005
    for offset in offsets[offsets < seconds]:
        phase.submit(began + offset)
    return phase.drain()


def _burst(stack, order, serial) -> List[_Request]:
    phase = _Phase(stack, order, serial)
    began = time.monotonic()
    for _ in range(BURST_REQUESTS):
        phase.submit(began)
    return phase.drain()


def _summarize(label: str, requests: List[_Request]) -> dict:
    answered = [r for r in requests if r.error is None]
    latencies = [r.latency for r in answered]
    last_due = max((r.due for r in requests), default=0.0)
    backlog = sum(1 for r in requests if r.done > last_due and r.due < last_due)
    growing = backlog > max(16, 0.05 * len(requests))
    failed = len(requests) - len(answered)
    p99 = percentile(latencies, 99)
    return {
        "label": label,
        "sent": len(requests),
        "succeeded": len(answered),
        "failed": failed,
        "degraded": sum(r.degraded for r in answered),
        "p50": percentile(latencies, 50),
        "p95": percentile(latencies, 95),
        "p99": p99,
        "lateness_p99": percentile([r.sent - r.due for r in requests], 99),
        "backlog": backlog,
        "passed": bool(requests) and p99 <= P99_LIMIT_S and failed == 0 and not growing,
    }


def _check_exact(stack: Stack, order) -> bool:
    """One request at a time: served == direct ``predict_batch``, bit for bit."""
    for index in order[:8]:
        window = stack.windows[index]
        served = stack.batcher.submit(window).result(timeout=DRAIN_TIMEOUT_S)
        direct = stack.service.predict_batch(np.asarray(window)[None])[0]
        if not np.array_equal(served.demand, direct.demand):
            return False
    return True


def _check_under_load(stack: Stack, requests: List[_Request]) -> bool:
    sample = [r for r in requests if r.demand is not None]
    if not sample:
        return False
    direct = stack.service.predict_batch(np.stack([stack.windows[r.index] for r in sample]))
    return all(
        np.allclose(r.demand, d.demand, rtol=LOAD_RTOL, atol=LOAD_ATOL)
        for r, d in zip(sample, direct)
    )


def _unexplained_fraction(recorder, requests: List[_Request]) -> float:
    """1 − (lateness + queue wait + predict_batch) / client latency, summed
    over every answered request of the run."""
    batches = [
        span for span in recorder.named("service.predict_batch")
        if span.thread.startswith("repro-serve-batcher")
    ]
    waits = sum(sum(span.attrs["waits"]) for span in batches)
    forward = sum(span.duration * span.attrs["size"] for span in batches)
    answered = [r for r in requests if r.error is None]
    lateness = sum(r.sent - r.due for r in answered)
    total = sum(r.latency for r in answered)
    return 1.0 - (lateness + waits + forward) / total if total > 0 else 0.0


def measure(stack: Stack, seconds: float, seed: int, recorder=None, reference=False) -> Outcome:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(stack.windows))
    everything: List[_Request] = []
    rungs = []

    def run(label, requests):
        everything.extend(requests)
        rungs.append(_summarize(label, requests))
        return requests

    low, capacities = [], []
    duration = seconds * LOW_SHARE / STRETCHES
    for segment in range(STRETCHES):
        low.append(
            run(f"100 {segment + 1}", _poisson(stack, order, len(everything), LOW_RATE, duration, rng))
        )
        burst = run(f"burst {segment + 1}", _burst(stack, order, len(everything)))
        capacities.append(len(burst) / (max(r.done for r in burst) - burst[0].sent))
    low_rungs = [rung for rung in rungs if rung["label"].startswith("100")]
    sustained = LOW_RATE if all(rung["passed"] for rung in low_rungs) else 0.0
    rate = LOW_RATE + RATE_STEP
    while not reference and sustained and rate <= MAX_RATE:
        run(f"{rate:.0f}", _poisson(stack, order, len(everything), rate, seconds * RUNG_SHARE, rng))
        if not rungs[-1]["passed"]:
            break
        sustained, rate = rate, rate + RATE_STEP

    low_latency = [[r.latency for r in stretch if r.error is None] for stretch in low]
    latency = min(percentile(stretch, 50) for stretch in low_latency)
    tail = min(percentile(stretch, 95) for stretch in low_latency)
    capacity = max(capacities)
    answered = [r for r in everything if r.error is None]
    cells = stack.actual[0].size * len(answered)
    # Scored over every answer of the run, which covers most of the city's
    # windows, so the figure barely depends on which ones a seed drew first.
    mae = sum(r.abs_error for r in answered) / cells
    rmse = (sum(r.sq_error for r in answered) / cells) ** 0.5
    sent = len(everything)
    failed = sent - len(answered)
    degraded = sum(r.degraded for r in answered)
    checks = {
        "served equals direct predict_batch (batch of one, exact)": _check_exact(stack, order),
        "served equals direct predict_batch under load (rtol 1e-9)": _check_under_load(
            stack, low[0]
        ),
        "no request failed": failed == 0,
    }
    report = [
        f"{'rung':>6} {'sent':>6} {'ok':>6} {'fail':>5} {'degr':>5} {'p50 ms':>8} "
        f"{'p99 ms':>8} {'late p99 ms':>11} {'backlog':>7} pass"
    ] + [
        f"{r['label']:>6} {r['sent']:6d} {r['succeeded']:6d} {r['failed']:5d} "
        f"{r['degraded']:5d} {r['p50'] * 1e3:8.2f} {r['p99'] * 1e3:8.2f} "
        f"{r['lateness_p99'] * 1e3:11.2f} {r['backlog']:7d} {r['passed']}"
        for r in rungs
    ]
    report.append(
        f"sustained_rps {sustained:.0f} (p99 <= {P99_LIMIT_S * 1e3:.0f} ms, no failures, "
        f"no growing backlog); burst capacity {capacity:.1f} rps"
    )
    layers = {}
    if recorder is not None:
        unexplained = _unexplained_fraction(recorder, everything)
        layers["batching.unexplained_fraction"] = unexplained
        checks[f"stage timings explain client latency within {RECONCILE_TOLERANCE:.0%}"] = (
            abs(unexplained) <= RECONCILE_TOLERANCE
        )
        report.append(f"stage reconciliation: unexplained share {unexplained:+.2%}")
    return Outcome(
        attempted=sent,
        failed=failed,
        metrics={
            "latency_ms": latency * 1e3,
            "latency_tail_ms": tail * 1e3,
            "throughput_per_s": capacity,
            "forecast_mae": mae,
            "forecast_rmse": rmse,
            "ok_fraction": (sent - failed - degraded) / sent,
        },
        checks=checks,
        report=report,
        layers=layers,
        cost=latency,
    )
