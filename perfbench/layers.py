"""Layer wrappers for the traced run, and the per-layer metrics they yield.

:func:`instrument` patches the public entry points of every layer with
:class:`~spans.Recorder` spans (and turns on ``repro.obs.profiler``'s op
timing); :func:`derive` turns the recorded spans into the per-layer
metrics named in ``BENCHMARK.json``. Every traced run reports every
per-layer metric; a layer the workload does not exercise reads 0.

Span names and the calls they wrap:

==========================  ==================================================
``shard.route``             ``ShardRouter.forecast``
``batching.request``        ``MicroBatcher.submit`` → its future resolving
``service.predict_batch``   ``ForecastService.predict_batch``
``model.predict``           each tier's ``forecaster.predict``
``core.*``                  ``HistoricalCapsules`` / ``FutureCapsules`` /
                            ``Decoder3D`` forward
``train.step`` … ``.eval``  ``Trainer.train_step``, the model's top-level
                            forward inside it, ``Tensor.backward``,
                            ``Optimizer.step``, ``Trainer.evaluate`` and
                            the runner's test evaluation
``store.batch``             ``WindowView.batches`` (per batch) and
                            ``WindowView.arrays``
``store.extend``            ``WindowStore.extend``
``ingest.slot``             ``IngestionPipeline.ingest``
``monitor.feed``            ``DriftMonitor.feed``
``adapt.fine_tune``         the fine-tune the controller runs through
                            ``repro.resilience.run_with_recovery``
``adapt.swap``              ``ForecastService.swap_primary``
``engine.warmup``           ``repro.nn.engine.warmup``
==========================  ==================================================

The gateway round trip (``gateway.request``) and each model's fit
(``train.fit``) are spans the workloads open around their own calls.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List

import numpy as np

from common import mean, percentile
from spans import Recorder

# Ops reported one by one; every other op is pooled into ``other``.
TOP_OPS = ("conv3d", "conv_transpose3d", "einsum", "matmul")
# Table III models as run by train_zoo, named without "+" for metric names.
ZOO_LABELS = (
    "XGBoost",
    "LSTM",
    "convLSTM",
    "PredRNN",
    "PredRNNpp",
    "STGCN",
    "STSGCN",
    "BikeCAP",
    "BikeCAP_paper",
)

# (name, unit, better) in BENCHMARK.json order.
LAYER_METRICS = (
    [
        ("gateway.overhead_s.p50", "s", "lower"),
        ("gateway.request_bytes.mean", "bytes", "lower"),
        ("gateway.response_bytes.mean", "bytes", "lower"),
        ("shard.route_s.p50", "s", "lower"),
        ("shard.self_s.p50", "s", "lower"),
        ("shard.straggler_s.p50", "s", "lower"),
        ("shard.forwards_per_request", "count", "lower"),
        ("shard.failed_shards", "count", "lower"),
        ("batching.queue_wait_s.p50", "s", "lower"),
        ("batching.queue_wait_s.p99", "s", "lower"),
        ("batching.batch_size.mean", "count", "higher"),
        ("batching.batches", "count", "lower"),
        ("batching.unexplained_fraction", "fraction", "lower"),
        ("service.predict_batch_s.p50", "s", "lower"),
        ("service.self_s.p50", "s", "lower"),
        ("service.tier_fallbacks", "count", "lower"),
        ("core.historical_capsules_s", "s", "lower"),
        ("core.routing_s", "s", "lower"),
        ("core.decoder_s", "s", "lower"),
    ]
    + [
        (f"nn.op.{op}.{direction}_s", "s", "lower")
        for op in TOP_OPS + ("other",)
        for direction in ("fwd", "bwd")
    ]
    + [
        ("nn.plan_cache.hits", "count", "higher"),
        ("nn.plan_cache.misses", "count", "lower"),
        ("nn.arena.bytes_reused", "bytes", "higher"),
    ]
    + [(f"train.{label}.fit_s", "s", "lower") for label in ZOO_LABELS]
    + [
        ("train.step_s.p50", "s", "lower"),
        ("train.forward_s", "s", "lower"),
        ("train.backward_s", "s", "lower"),
        ("train.optim_s", "s", "lower"),
        ("train.eval_s", "s", "lower"),
        ("store.batch_s", "s", "lower"),
        ("store.extend_s.p50", "s", "lower"),
        ("ingest.slot_s.p50", "s", "lower"),
        ("ingest.slot_s.p99", "s", "lower"),
        ("ingest.windows_ready", "count", "higher"),
        ("monitor.feed_s.p50", "s", "lower"),
        ("monitor.detections", "count", "lower"),
        ("adapt.fine_tune_s", "s", "lower"),
        ("adapt.shadow_s", "s", "lower"),
        ("adapt.swap_s", "s", "lower"),
        ("adapt.detect_to_swap_s", "s", "lower"),
        ("adapt.triggered", "count", "lower"),
        ("adapt.swapped", "count", "higher"),
        ("adapt.rejected", "count", "lower"),
        ("adapt.failed", "count", "lower"),
        ("pipeline.load_s", "s", "lower"),
        ("city.simulate_s", "s", "lower"),
        ("trace.overhead_fraction", "fraction", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _better in LAYER_METRICS}


def _patch_training(recorder: Recorder) -> None:
    """Trainer entry points; model and optimizer classes are patched at the
    first ``fit`` that uses them, because the registry builds them inside
    ``pipeline.runner.execute``."""
    from repro.nn.tensor import Tensor
    from repro.nn.training import Trainer
    from repro.pipeline import runner

    recorder.patch(Trainer, "train_step", "train.step")
    recorder.patch(Trainer, "evaluate", "train.eval")
    recorder.patch(runner, "evaluate_forecaster", "train.eval")
    recorder.patch(Tensor, "backward", "train.backward")
    patched = set()
    original_fit = Trainer.fit

    def fit(trainer, *args, **kwargs):
        for owner, attribute, name in (
            (type(trainer.model), "forward", "train.forward"),
            (type(trainer.optimizer), "step", "train.optim"),
        ):
            if (owner, attribute) not in patched:
                patched.add((owner, attribute))
                recorder.patch(owner, attribute, name)
        return original_fit(trainer, *args, **kwargs)

    recorder.replace(Trainer, "fit", fit)


def _patch_serving(recorder: Recorder) -> None:
    from repro.serve import adapt
    from repro.serve.batching import MicroBatcher
    from repro.serve.ingest import IngestionPipeline
    from repro.serve.monitor import DriftMonitor
    from repro.serve.service import ForecastService
    from repro.serve.shard import ShardRouter
    from repro.nn import engine

    def route_result(span, args, kwargs, result):
        if result is not None:
            span.attrs = {"failed": len(result.failed_shards), "key": window_key(args[1])}

    recorder.patch(ShardRouter, "forecast", "shard.route", annotate=route_result)

    original_submit = MicroBatcher.submit

    def submit(batcher, *args, **kwargs):
        parent = recorder.current()
        began = time.monotonic()
        future = original_submit(batcher, *args, **kwargs)
        future.add_done_callback(
            lambda _f: recorder.detached(
                "batching.request", began, time.monotonic(), parent=parent
            )
        )
        return future

    recorder.replace(MicroBatcher, "submit", submit)

    def batch_result(span, args, kwargs, result):
        starts = kwargs.get("starts")
        waits = [span.start - start for start in starts] if starts else []
        fallbacks = sum(response.degraded for response in result or ())
        span.attrs = {"size": len(args[1]), "waits": waits, "fallbacks": fallbacks}

    recorder.patch(ForecastService, "predict_batch", "service.predict_batch", annotate=batch_result)
    recorder.patch(ForecastService, "swap_primary", "adapt.swap")
    recorder.patch(IngestionPipeline, "ingest", "ingest.slot")

    def feed_result(span, args, kwargs, result):
        span.attrs = {"drifted": bool(result is not None and result.drifted)}

    recorder.patch(DriftMonitor, "feed", "monitor.feed", annotate=feed_result)
    recorder.patch(adapt, "run_with_recovery", "adapt.fine_tune")
    recorder.patch(engine, "warmup", "engine.warmup")


def _patch_model_layers(recorder: Recorder) -> None:
    from repro.baselines.bikecap_adapter import BikeCAPForecaster
    from repro.baselines.naive import PersistenceForecaster
    from repro.core.capsules import FutureCapsules, HistoricalCapsules
    from repro.core.decoder import Decoder3D
    from repro.store.store import WindowStore, WindowView

    recorder.patch(BikeCAPForecaster, "predict", "model.predict")
    recorder.patch(PersistenceForecaster, "predict", "model.predict")
    recorder.patch(HistoricalCapsules, "forward", "core.historical_capsules")
    recorder.patch(FutureCapsules, "forward", "core.routing")
    recorder.patch(Decoder3D, "forward", "core.decoder")
    recorder.patch_generator(WindowView, "batches", "store.batch")
    recorder.patch(WindowView, "arrays", "store.batch")
    recorder.patch(WindowStore, "extend", "store.extend")


def window_key(window) -> float:
    """A cheap fingerprint pairing a router call with its HTTP request: the
    sum of the window's last slot (a full-window sum would cost the gateway
    handler about a millisecond and bias its overhead)."""
    return float(np.asarray(window[-1], dtype=float).sum())


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Patch every layer and time ``repro.nn.ops``; yields the op tracer."""
    from repro.obs import tracing
    from repro.obs.profiler import profile_ops

    op_tracer = tracing.Tracer()
    try:
        _patch_training(recorder)
        _patch_serving(recorder)
        _patch_model_layers(recorder)
        with profile_ops(op_tracer):
            yield op_tracer
    finally:
        recorder.restore()


# ----------------------------------------------------------------------
def _durations(spans) -> List[float]:
    return [span.duration for span in spans]


def _top_level(recorder: Recorder, name: str):
    """Spans named ``name`` that are not nested in another of the same name."""
    by_id = {span.span_id: span for span in recorder.spans}
    result = []
    for span in recorder.named(name):
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            result.append(span)
    return result


def derive(recorder: Recorder, op_tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from the recorded spans (0 where unexercised).

    ``extra`` supplies values the workload measured itself (gateway bytes
    and overhead, per-model fit times, adaptation counters, set-up phases,
    tracing overhead, engine counters) and wins over derived values.
    """
    values = {name: 0.0 for name, _unit, _better in LAYER_METRICS}
    by_id = {span.span_id: span for span in recorder.spans}
    self_times = recorder.self_times()

    routes = recorder.named("shard.route")
    if routes:
        children: Dict[int, list] = {}
        for span in recorder.named("batching.request"):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        values["shard.route_s.p50"] = percentile(_durations(routes), 50)
        values["shard.self_s.p50"] = percentile([self_times[s.span_id] for s in routes], 50)
        values["shard.straggler_s.p50"] = percentile(
            [
                max(c.end for c in kids) - min(c.end for c in kids)
                for kids in (children.get(s.span_id, []) for s in routes)
                if kids
            ],
            50,
        )
        values["shard.failed_shards"] = float(
            sum((s.attrs or {}).get("failed", 0) for s in routes)
        )
        forwards = recorder.named("service.predict_batch")
        values["shard.forwards_per_request"] = len(forwards) / len(routes)

    batches = [
        span
        for span in recorder.named("service.predict_batch")
        if span.thread.startswith("repro-serve-batcher")
    ]
    if batches:
        waits = [wait for span in batches for wait in span.attrs["waits"]]
        values["batching.queue_wait_s.p50"] = percentile(waits, 50)
        values["batching.queue_wait_s.p99"] = percentile(waits, 99)
        values["batching.batch_size.mean"] = mean([span.attrs["size"] for span in batches])
        values["batching.batches"] = float(len(batches))

    served = recorder.named("service.predict_batch")
    if served:
        values["service.predict_batch_s.p50"] = percentile(_durations(served), 50)
        values["service.self_s.p50"] = percentile([self_times[s.span_id] for s in served], 50)
        values["service.tier_fallbacks"] = float(sum(s.attrs["fallbacks"] for s in served))

    for metric, name in (
        ("core.historical_capsules_s", "core.historical_capsules"),
        ("core.routing_s", "core.routing"),
        ("core.decoder_s", "core.decoder"),
    ):
        values[metric] = sum(self_times[s.span_id] for s in recorder.named(name))

    rows = {row["name"]: row["self_s"] for row in op_tracer.snapshot()}
    for name, seconds in rows.items():
        if not name.startswith("op."):
            continue
        op = name[3:]
        direction = "fwd"
        if op.endswith(".backward"):
            op, direction = op[: -len(".backward")], "bwd"
        key = op if op in TOP_OPS else "other"
        values[f"nn.op.{key}.{direction}_s"] += seconds

    steps = recorder.named("train.step")
    if steps:
        step_ids = {span.span_id for span in steps}
        values["train.step_s.p50"] = percentile(_durations(steps), 50)
        for metric, name in (
            ("train.forward_s", "train.forward"),
            ("train.backward_s", "train.backward"),
            ("train.optim_s", "train.optim"),
        ):
            values[metric] = sum(s.duration for s in recorder.named(name) if s.parent in step_ids)
    values["train.eval_s"] = sum(_durations(_top_level(recorder, "train.eval")))
    values["store.batch_s"] = sum(_durations(_top_level(recorder, "store.batch")))

    values["store.extend_s.p50"] = percentile(_durations(recorder.named("store.extend")), 50)
    ingests = recorder.named("ingest.slot")
    values["ingest.slot_s.p50"] = percentile(_durations(ingests), 50)
    values["ingest.slot_s.p99"] = percentile(_durations(ingests), 99)
    feeds = recorder.named("monitor.feed")
    values["monitor.feed_s.p50"] = percentile(_durations(feeds), 50)

    tunes = recorder.named("adapt.fine_tune")
    swaps = recorder.named("adapt.swap")
    values["adapt.fine_tune_s"] = sum(_durations(tunes))
    values["adapt.swap_s"] = sum(_durations(swaps))
    if tunes and swaps:
        # The shadow gate scores live and candidate between the fine-tune
        # and the swap; the candidate's plan warm-up sits in between too
        # and is excluded.
        began, ended = tunes[-1].end, swaps[-1].start
        values["adapt.shadow_s"] = sum(
            s.duration
            for s in recorder.named("model.predict")
            if began <= s.start
            and s.end <= ended
            and getattr(by_id.get(s.parent), "name", None) != "engine.warmup"
        )
        drifted = [s for s in feeds if (s.attrs or {}).get("drifted")]
        if drifted:
            values["adapt.detect_to_swap_s"] = swaps[-1].end - drifted[0].end

    values.update(extra)
    return {name: float(value) for name, value in values.items()}
