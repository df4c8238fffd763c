"""Self-check of the benchmark: every workload once at tiny size, untraced
and traced.  It validates the emitted report (every metric name, unit and
sample count, the output checks, the layers each workload loads and
bypasses) and asserts no timing.

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

import json
import shutil
import subprocess
import sys
from numbers import Real
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

# the workload metrics each report names, with their units
NAMED = {
    "common": {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share"},
    "corpus": {"synth_fps": "1/s", "train_s": "s", "classify_heuristic_fps": "1/s",
               "classify_nn_fps": "1/s", "nn_avg_recall": "share"},
    "stream": {"stream_fps": "1/s", "labeled_frame_us_p50": "us",
               "labeled_frame_us_p99": "us"},
    "lift": {"lift_fps": "1/s", "fit_ms_p50": "ms", "fit_ms_p90": "ms",
             "lift_err_mm": "mm"},
}

# per-layer call counts that must be positive (loaded) or zero (bypassed)
LOADED = {
    "corpus": ("features.calls", "heuristic.calls", "mlp.train_rows", "mlp.classify_us",
               "harness.synth_pose_us", "skeleton.frames"),
    "stream": ("features.calls", "heuristic.calls", "pipeline.classify_calls",
               "pipeline.detect_calls", "skeleton.frames"),
    "lift": ("skeleton.frames", "alignment.compute_us", "lifting.seed_us",
             "lifting.fit_ms_p50"),
}
BYPASSED = {
    "corpus": ("pipeline.classify_calls", "lifting.fit_ms_p50", "alignment.compute_us"),
    "stream": ("mlp.train_rows", "mlp.classify_us", "lifting.fit_ms_p50",
               "harness.synth_pose_us"),
    "lift": ("features.calls", "heuristic.calls", "pipeline.classify_calls",
             "mlp.train_rows", "harness.synth_pose_us"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            p = bench("--workload", workload, "--seed", SEED, "--seconds", 1,
                      "--trace", trace, "--quick")
            report = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
            out[workload, trace] = (p, json.loads(report.read_text()))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line(runs, workload, trace):
    p, _ = runs[workload, trace]
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], Real) and not isinstance(entry["value"], bool)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_names_every_metric(runs, workload):
    _, report = runs[workload, 0]
    expect = {**NAMED["common"], **NAMED[workload]}
    assert {k: v["unit"] for k, v in report["named"].items()} == expect
    for name, entry in {**report["named"], **report["metrics"]}.items():
        assert isinstance(entry["samples"], int) and entry["samples"] >= 0, name
    for m in SPEC["end_to_end"]:
        assert report["metrics"][m["name"]]["samples"] >= 1, m["name"]
        assert report["metrics"][m["name"]]["value"] > 0, m["name"]
    assert report["problems"] == []
    assert {"nproc", "python", "numpy", "blas_threads", "loadavg", "seed"} <= set(report["machine"])
    assert report["machine"]["blas_threads"] in (1, None)
    assert report["inputs"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(runs, workload):
    _, report = runs[workload, 1]
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    for name in LOADED[workload]:
        assert metrics[name] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, name
    shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    assert Path(ROOT / report["spans_file"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs(runs, workload):
    p = bench("--workload", workload, "--seed", SEED, "--seconds", 1, "--trace", 0,
              "--quick")
    assert p.returncode == 0
    again = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace0.json").read_text())
    assert again["digest"] == runs[workload, 0][1]["digest"]


def test_fails_without_the_package():
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        p = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1, "--trace", 0,
                  cwd=bare)
        assert p.returncode != 0
        assert '"correct"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
