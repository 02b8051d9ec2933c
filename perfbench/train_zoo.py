"""train_zoo: one training epoch of every Table III model, then paper BikeCAP.

Each model of the default profile (XGBoost, LSTM, convLSTM, PredRNN,
PredRNN++, STGCN, STSGCN, BikeCAP) trains for one epoch on the
default-profile city through ``pipeline.runner.execute``, exactly as
Table III runs it, with the workload seed as the model seed; then BikeCAP
trains for one epoch on the paper-profile city. This is the only workload
with the backward pass, the optimizer, store batching, the recurrent
kernels and boosting. One pass over the zoo (about 23 s on a 2-core host)
is the unit of work, and a run makes exactly one, whatever ``seconds``
says, so the run's length never depends on how fast the host happens to
be at that moment.
"""

from __future__ import annotations

import math
import time
from typing import List

import common
from common import Outcome, percentile


class Stack:
    def __init__(self, seed: int):
        timer = common.Timer()
        with timer.phase("city.simulate_s"):
            self.default_profile, default_tensor = common.simulate("default")
            self.paper_profile, paper_tensor = common.simulate("paper")
        with timer.phase("pipeline.load_s"):
            self.default_data = common.dataset(self.default_profile, default_tensor)
            self.paper_data = common.dataset(self.paper_profile, paper_tensor)
        self.timings = timer.timings

    def runs(self, seed: int):
        """``(label, spec, dataset)`` for every model of one zoo pass."""
        from repro.pipeline import RunSpec

        for model in self.default_profile.models:
            hparams = dict(self.default_profile.model_overrides.get(model, {}))
            hparams.pop("epochs", None)
            spec = RunSpec(
                model=model,
                history=common.HISTORY,
                horizon=common.HORIZON,
                epochs=1,
                seed=seed,
                hparams=hparams,
            )
            yield model.replace("+", "p"), spec, self.default_data
        yield "BikeCAP_paper", common.bikecap_spec(self.paper_profile, seed, epochs=1), self.paper_data

    def close(self) -> None:
        pass


def setup(seed: int) -> Stack:
    return Stack(seed)


def _finite(values) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in values)
    except (TypeError, ValueError):
        return False


def _fit(label, spec, dataset, recorder):
    from repro.pipeline.runner import execute

    span = recorder.open("train.fit", model=label) if recorder is not None else None
    began = time.perf_counter()
    try:
        result = execute(spec, dataset)
    finally:
        if span is not None:
            recorder.close(span)
    return result, time.perf_counter() - began


def measure(stack: Stack, seconds: float, seed: int, recorder=None, reference=False) -> Outcome:
    runs = list(stack.runs(seed))
    if reference:
        runs = runs[-1:]
    fits: List[tuple] = []
    for label, spec, dataset in runs:
        result, elapsed = _fit(label, spec, dataset, recorder)
        fits.append((label, result, elapsed, len(dataset.train_view())))

    healthy = []
    report = [f"{'model':<14} {'fit s':>7} {'samples':>7} {'MAE':>8} {'RMSE':>8} finite"]
    for label, result, elapsed, samples in fits:
        losses = result.history.get("train_loss", result.history.get("train_mae_per_channel", []))
        finite = _finite(losses) and bool(losses) and _finite(result.metrics.values())
        healthy.append(finite)
        report.append(
            f"{label:<14} {elapsed:7.2f} {samples:7d} {result.metrics['MAE']:8.4f} "
            f"{result.metrics['RMSE']:8.4f} {finite}"
        )
    fit_seconds = [elapsed for _label, _result, elapsed, _samples in fits]
    samples = sum(samples for _label, _result, _elapsed, samples in fits)
    failed = healthy.count(False)
    layers = {f"train.{label}.fit_s": elapsed for label, _result, elapsed, _samples in fits}
    return Outcome(
        attempted=len(fits),
        failed=failed,
        metrics={
            "latency_ms": common.mean(fit_seconds) * 1e3,
            "latency_tail_ms": max(fit_seconds) * 1e3,
            "throughput_per_s": samples / sum(fit_seconds),
            "forecast_mae": common.mean([result.metrics["MAE"] for _l, result, _e, _s in fits]),
            "forecast_rmse": common.mean([result.metrics["RMSE"] for _l, result, _e, _s in fits]),
            "ok_fraction": healthy.count(True) / len(fits),
        },
        checks={
            "every model trained with finite losses and test metrics": failed == 0,
            "test MAE and RMSE recorded for every model": all(
                {"MAE", "RMSE"} <= set(result.metrics) for _l, result, _e, _s in fits
            ),
        },
        report=report,
        layers=layers,
        # Paper BikeCAP is the last fit of a pass and all of a reference.
        cost=fits[-1][2],
    )
