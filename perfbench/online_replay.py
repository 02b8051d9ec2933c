"""online_replay: slots stream into ingestion at a fixed cadence; demand shifts.

Slots arrive every ``CADENCE_S`` into an :class:`IngestionPipeline` on a
shared :class:`WindowStore`. Each completed window is forecast and scored
on its realized demand by a :class:`DriftMonitor`, and after every slot
the freshest window is forecast for callers. Halfway through, demand
doubles: the drift monitor fires, the :class:`AdaptationController`
fine-tunes, shadow-gates and hot-swaps a new primary, and serving goes on.
Each slot is timed from the moment it was due.

Inputs differ from the other workloads in two ways, both stated here:

- the stream is stationary synthetic demand at paper geometry (uniform
  counts in [0, 20), the serve bench's replay recipe). The simulated
  city's diurnal cycle makes the default drift detector fire on every
  morning rush (seven detections over four days), so it would measure the
  detector's false alarms instead of one adaptation;
- the controller adapts inline (``background=False``, with the default
  policy). In background mode, the library default, the fine-tune fails
  whenever a serving forward overlaps it, because
  ``repro.nn.config.no_grad`` toggles one process-wide flag ("backward()
  called on a tensor that does not require grad").
"""

from __future__ import annotations

import time

import numpy as np

import common
from common import Outcome, percentile

CADENCE_S = 0.020
SHIFT = 1.0  # demand is multiplied by 1 + SHIFT from the halfway slot on
SCALE = 20.0
GRID = (16, 12)
FEATURES = 4
HISTORY_SLOTS = 200  # the offline range the service's scaler is fitted on
# The inline fine-tune stalls ingestion for a few percent of the slots, so
# p95 can sit on the stall's edge and flip between runs; p99 lies inside it.
TAIL_PERCENTILE = 99


class Stack:
    def __init__(self, seed: int):
        from repro.data.datasets import dataset_from_tensor
        from repro.serve import AdaptationController, DriftMonitor, IngestionPipeline
        from repro.serve.loader import service_from_dataset
        from repro.experiments.profiles import get_profile
        from repro.store import WindowStore

        timer = common.Timer()
        with timer.phase("city.simulate_s"):
            history = np.random.default_rng(seed).random((HISTORY_SLOTS,) + GRID + (FEATURES,)) * SCALE
        with timer.phase("pipeline.load_s"):
            data = dataset_from_tensor(history, history=common.HISTORY, horizon=common.HORIZON)
            spec = common.bikecap_spec(get_profile("paper"), seed)
            self.service = service_from_dataset(spec, data)
            self.store = WindowStore(
                common.HISTORY,
                common.HORIZON,
                target_feature=data.target_feature,
                scaler=self.service.scaler,
                normalize=False,
            )
            self.monitor = DriftMonitor(self.service)
            self.controller = AdaptationController(
                self.service, self.store, spec, background=False
            )
            self.pipeline = IngestionPipeline(
                self.store, service=self.service, monitor=self.monitor, controller=self.controller
            )
        self.timings = timer.timings

    def close(self) -> None:
        self.controller.wait(timeout=30.0)


def setup(seed: int) -> Stack:
    return Stack(seed)


def measure(stack: Stack, seconds: float, seed: int, recorder=None, reference=False) -> Outcome:
    count = max(int(seconds / CADENCE_S), 64)
    rng = np.random.default_rng(seed + 1)
    stream = rng.random((count,) + GRID + (FEATURES,)) * SCALE
    shift_at = count // 2
    stream[shift_at:] *= 1.0 + SHIFT
    target = stack.store.target_feature

    latencies, lateness, busy = [], [], []
    ready, forecasts, outcomes = [], {}, {}
    detected_at = swapped_at = None
    began = time.monotonic() + 0.005
    for slot in range(count):
        due = began + slot * CADENCE_S
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        started = time.monotonic()
        report = stack.pipeline.ingest(stream[slot])
        ready.extend(window.index for window in report.ready)
        if detected_at is None and any(w.report is not None and w.report.drifted for w in report.ready):
            detected_at = slot
        if swapped_at is None and stack.service.generation:
            swapped_at = slot
        if slot >= common.HISTORY - 1:
            try:
                response = stack.pipeline.forecast()
            except Exception:  # noqa: BLE001 - counted as a failed request
                outcomes[slot] = "failed"
            else:
                outcomes[slot] = "degraded" if response.degraded else "ok"
                forecasts[slot] = response.demand
        ended = time.monotonic()
        latencies.append(ended - due)
        lateness.append(started - due)
        busy.append(ended - started)
    stack.controller.wait(timeout=30.0)

    # Served forecasts whose horizon lies wholly in the shifted regime.
    scored = [
        slot for slot in forecasts
        if slot + 1 >= shift_at and slot + common.HORIZON < count
    ]
    mae, rmse = common.forecast_errors(
        [forecasts[slot] for slot in scored],
        [stream[slot + 1 : slot + 1 + common.HORIZON, ..., target] for slot in scored],
    )
    status = stack.controller.status()
    expected = count - common.HISTORY - common.HORIZON + 1
    attempted = len(outcomes)
    failed = sum(outcome == "failed" for outcome in outcomes.values())
    degraded = sum(outcome == "degraded" for outcome in outcomes.values())
    checks = {
        "every window emitted exactly once": ready == list(range(expected)),
        "exactly one drift event": len(stack.monitor.detections) == 1,
        "exactly one adaptation, swapped": (
            status["triggered"], status["swapped"], status["rejected"], status["failed"]
        ) == (1, 1, 0, 0) and stack.service.generation == 1,
        "no request failed": failed == 0,
    }
    report = []
    for name, part in (("before shift", range(0, shift_at)), ("after shift", range(shift_at, count))):
        phase = [outcomes[slot] for slot in part if slot in outcomes]
        window = slice(part.start, part.stop)
        report.append(
            f"{name}: slots {len(part)}  forecasts sent {len(phase)}  "
            f"succeeded {len(phase) - phase.count('failed')}  failed {phase.count('failed')}  "
            f"degraded {phase.count('degraded')}  p50 {percentile(latencies[window], 50) * 1e3:.2f} ms  "
            f"p99 {percentile(latencies[window], 99) * 1e3:.2f} ms  "
            f"lateness p99 {percentile(lateness[window], 99) * 1e3:.2f} ms"
        )
    report += [
        f"windows ready {len(ready)}; drift events "
        f"{len(stack.monitor.detections)}; adaptation triggered {status['triggered']} "
        f"swapped {status['swapped']} rejected {status['rejected']} failed {status['failed']}",
        f"demand shifts at slot {shift_at}; drift detected at slot {detected_at}; "
        f"swap published at slot {swapped_at}; post-shift served MAE {mae:.3f} RMSE {rmse:.3f}",
    ]
    layers = {}
    if recorder is not None:
        layers = {
            "ingest.windows_ready": float(len(ready)),
            "monitor.detections": float(len(stack.monitor.detections)),
            **{f"adapt.{key}": float(status[key]) for key in ("triggered", "swapped", "rejected", "failed")},
        }
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "latency_ms": min(percentile(stretch, 50) for stretch in common.segments(latencies)) * 1e3,
            "latency_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
            "throughput_per_s": max(len(part) / sum(part) for part in common.segments(busy)),
            "forecast_mae": mae,
            "forecast_rmse": rmse,
            "ok_fraction": (attempted - failed - degraded) / attempted,
        },
        checks=checks,
        report=report,
        layers=layers,
        cost=sum(busy) / count,
    )
