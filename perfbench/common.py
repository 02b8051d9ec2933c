"""Shared pieces of the workloads: inputs, set-up timing, statistics, output.

Every workload module exposes the same three functions, which ``run.py``
drives:

- ``setup(seed) -> stack`` builds the system under test from generated
  inputs and returns an object with ``close()`` and a ``timings`` dict
  (``city.simulate_s`` and ``pipeline.load_s``);
- ``measure(stack, seconds, seed, recorder=None) -> Outcome`` runs the
  load; with a :class:`~spans.Recorder` the layer wrappers are active.
  ``Outcome.cost`` is the one number a traced run compares against an
  untraced run of the same work to report tracing overhead.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from one stretch of seconds to the next (a fixed BikeCAP forward at batch
1 measured 2.3–5.3 ms from one minute to the next on a 2-vCPU VM). A slow
stretch only ever adds time, so each serving workload cuts its run into
stretches (``SEGMENTS`` of them for a continuous loop) and reports the best
one: the lowest per-stretch median and tail latency and the highest
per-stretch throughput. A change that makes the code slower slows every
stretch, the best one included.
"""

from __future__ import annotations

import contextlib
import dataclasses
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

HISTORY = 8
HORIZON = 4
SEGMENTS = 8
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 40


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0–100) with linear interpolation; 0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def segments(items: Sequence, count: int = SEGMENTS) -> List[Sequence]:
    """``items`` (in time order) cut into ``count`` consecutive stretches."""
    size = len(items) / count
    return [items[round(i * size) : round((i + 1) * size)] for i in range(count)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Inputs: the simulated cities of the experiment profiles.
def simulate(profile_name: str):
    """The profile's simulated city, aggregated to ``(T, G1, G2, 4)`` slots.

    The city itself is the profile's fixed one (seed 7), as in every
    experiment of the repository; the workload seed varies what is asked of
    the system, not the city it was trained on.
    """
    from repro.city.simulator import simulate_city
    from repro.data.aggregation import aggregate_city
    from repro.experiments.profiles import get_profile

    profile = get_profile(profile_name)
    return profile, aggregate_city(simulate_city(profile.city))


def dataset(profile, tensor):
    from repro.data.datasets import dataset_from_tensor

    return dataset_from_tensor(
        tensor,
        history=HISTORY,
        horizon=HORIZON,
        normalization_quantile=profile.normalization_quantile,
    )


def bikecap_spec(profile, seed: int, epochs: int = 0):
    """The profile's BikeCAP run spec (registry defaults plus the profile's
    overrides), as Table III builds it."""
    from repro.pipeline import RunSpec

    hparams = dict(profile.model_overrides.get("BikeCAP", {}))
    hparams.pop("epochs", None)
    return RunSpec(
        model="BikeCAP",
        history=HISTORY,
        horizon=HORIZON,
        epochs=epochs,
        seed=seed,
        hparams=hparams,
    )


def raw_windows(tensor: np.ndarray, target_feature: int = 0):
    """All ``(h, G1, G2, F)`` windows of a slot tensor and their realized
    ``(p, G1, G2)`` target demand, as zero-copy views."""
    count = len(tensor) - HISTORY - HORIZON + 1
    x = np.lib.stride_tricks.sliding_window_view(tensor, HISTORY, axis=0)
    x = np.moveaxis(x, -1, 1)[:count]
    y = np.lib.stride_tricks.sliding_window_view(tensor[HISTORY:, ..., target_feature], HORIZON, axis=0)
    y = np.moveaxis(y, -1, 1)[:count]
    return x, y


def forecast_errors(predicted: np.ndarray, actual: np.ndarray):
    """Raw-demand (MAE, RMSE) over every horizon step and cell."""
    diff = np.asarray(predicted, dtype=float) - np.asarray(actual, dtype=float)
    return float(np.mean(np.abs(diff))), float(np.sqrt(np.mean(diff**2)))


class Timer:
    """Accumulates named phase durations: ``with timer.phase("x"): ...``."""

    def __init__(self):
        self.timings: Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        began = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - began
            self.timings[name] = self.timings.get(name, 0.0) + elapsed


def timed_setups(setup: Callable, seed: int, keep: int):
    """Time the set-up repeatedly, then build ``keep`` stacks to measure.

    The set-up runs at least ``SETUP_MIN_REPEATS`` times and for at least
    ``SETUP_MIN_SECONDS`` (cheap set-ups repeat more, so their median is as
    steady as an expensive one's); each timed stack is closed at once.
    Returns ``(setup_s, phase_medians, stacks)``: the median wall time of a
    set-up, the median of each named phase, and the fresh stacks.
    """
    durations: List[float] = []
    phases: Dict[str, List[float]] = {}
    while len(durations) < SETUP_MAX_REPEATS and (
        len(durations) < SETUP_MIN_REPEATS or sum(durations) < SETUP_MIN_SECONDS
    ):
        began = time.perf_counter()
        stack = setup(seed)
        durations.append(time.perf_counter() - began)
        stack.close()
        for name, value in stack.timings.items():
            phases.setdefault(name, []).append(value)
    medians = {name: statistics.median(values) for name, values in phases.items()}
    return statistics.median(durations), medians, [setup(seed) for _ in range(keep)]


@dataclasses.dataclass
class Outcome:
    """What one measured phase produced.

    ``metrics`` holds the end-to-end values by BENCHMARK.json name,
    ``checks`` maps each correctness check to whether it held, ``report``
    holds human-readable lines (per-rung and per-phase accounting), and
    ``layers`` the per-layer values a traced phase derived.
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    checks: Dict[str, bool]
    report: List[str] = dataclasses.field(default_factory=list)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    cost: Optional[float] = None  # compared between untraced and traced runs
