"""Short-mode self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run every workload briefly through the real command line, check the
result line against BENCHMARK.json, and check the span arithmetic and the
patch/restore discipline the traced run depends on.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(process) -> dict:
    assert process.returncode == 0, process.stdout[-2000:] + process.stderr[-2000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_self_time_subtracts_the_union_of_children():
    recorder = Recorder()
    parent = recorder.detached("parent", 0.0, 10.0)
    recorder.detached("a", 1.0, 4.0, parent=parent)
    recorder.detached("b", 3.0, 6.0, parent=parent)  # overlaps a
    recorder.detached("c", 9.0, 12.0, parent=parent)  # clipped to the parent
    assert recorder.self_times()[parent.span_id] == pytest.approx(10.0 - 5.0 - 1.0)


def test_patch_restores_class_dictionaries():
    class Base:
        def work(self):
            return 1

    class Child(Base):
        pass

    original = Base.work
    recorder = Recorder()
    recorder.patch(Base, "work", "base.work")
    recorder.patch(Child, "work", "child.work")  # inherited: shadowed on Child
    assert Child().work() == 1 and Base().work() == 1
    assert [span.name for span in recorder.spans] == ["base.work", "child.work", "base.work"]
    recorder.restore()
    assert "work" not in vars(Child)
    assert vars(Base)["work"] is original


@pytest.mark.parametrize("workload", ["serve_open", "gateway_hot", "online_replay"])
def test_serving_workloads_report_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_traced_run_reports_every_layer_metric():
    result = _result(_run("--workload", "online_replay", "--seed", "3", "--seconds", "2", "--trace", "1"))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["adapt.swapped"]["value"] == 1
    assert result["metrics"]["ingest.slot_s.p50"]["value"] > 0


def test_train_zoo_trains_every_model():
    result = _result(_run("--workload", "train_zoo", "--seed", "3", "--seconds", "1"))
    assert result["correct"] and result["attempted"] == 9 and result["failed"] == 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = _run("--workload", "serve_open", "--seed", "0", "--seconds", "1", cwd=str(tmp_path))
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
