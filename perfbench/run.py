"""handgest benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload corpus|stream|lift|all --seed N \
        --seconds S --trace 0|1 [--quick]

Run it from the repository root.  It imports the package from ``src/`` of
the same tree, in this single-threaded process, with BLAS pinned to one
thread before numpy loads.  ``--trace 0`` reports the end-to-end metrics
listed in BENCHMARK.json; ``--trace 1`` repeats each measured round traced,
on the same inputs, and reports the per-layer metrics plus the tracing
overhead.  ``--quick`` shrinks every input to a single tiny round, for
self-checks.  ``--workload all`` runs the three workloads one after
another, each in its own process.

Untraced times are divided by the machine's slowdown, which a reference
kernel measures about every 0.2 s of work (see ``workloads.Clock``), so
they read as at nominal machine speed; traced times are raw.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit and sample count, the machine and the
measured input properties.  The full report, and in traced runs the
spans, go to ``perfbench/results/``.  The exit code is 0 when every output
check passed, 1 when one failed, and 2 when the package is missing.
"""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("corpus", "stream", "lift")

# what the first operation of each workload needs, built in a fresh interpreter
SETUP_CODE = {
    "corpus": "from handgest import cli, heuristic, lifting\n"
              "heuristic.default_config()\nlifting.default_hand_model()\n",
    "stream": "from handgest import cli, pipeline\n"
              "pipeline.make_classifier(pipeline.PipelineConfig(max_detect_hz=5.0))\n",
    "lift": "from handgest import cli, lifting\n"
            "lifting.default_hand_model()\nlifting.default_intrinsics(640, 480)\n",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one tiny round per workload, for self-checks")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Threads the BLAS bundled with numpy will use, asked of the library."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return getattr(lib, fn)()
    return None


def machine(seed):
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads(),
            "blas_env": {v: os.environ[v] for v in BLAS_VARS},
            "loadavg": list(os.getloadavg()), "seed": seed}


def measure_setup(workload, repeats, reference_s):
    """Median seconds, at nominal machine speed, for a fresh interpreter to
    import handgest and build what the workload's first operation needs.

    The child times itself, then times the reference kernel, so that the
    slowdown is measured in the process, and on the CPU, that did the work.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    code = ("from time import perf_counter\nt0 = perf_counter()\n"
            + SETUP_CODE[workload]
            + "t1 = perf_counter()\nimport statistics, workloads\n"
              "print(t1 - t0, statistics.median("
              "[workloads.reference_seconds() for _ in range(3)]))\n")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             check=True, timeout=120, capture_output=True, text=True)
        seconds, reference = map(float, out.stdout.split())
        times.append(seconds * reference_s / reference)
    return statistics.median(times), len(times)


def run_one(args):
    import handgest
    if Path(handgest.__file__).resolve().parent != SRC / "handgest":
        print(f"error: imported handgest from {handgest.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup = measure_setup(args.workload, 2 if args.quick else 7, workloads.REFERENCE_S)
        wl = workloads.WORKLOADS[args.workload](work, args.seed, args.quick, tracer)
        wl.run(args.seconds)
        wl.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {"setup_s": (setup[0], "s", setup[1]),
             "peak_rss_mb": (rss_mb, "MB", 1),
             "failed_share": (wl.failed / max(wl.attempted, 1), "share", wl.attempted)}
    named.update(wl.metrics())
    e2e = {"setup_s": named["setup_s"], "peak_rss_mb": named["peak_rss_mb"]}
    e2e.update(wl.e2e())
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "machine": machine(args.seed),
              "inputs": wl.props, "rounds": int(wl.totals["rounds"]),
              "measured_s": wl.totals["measured_s"], "slowdown": wl.slowdown(),
              "digest": wl.digest,
              "per_round": {k: list(v) for k, v in wl.samples.items()
                            if len(v) == wl.totals["rounds"]},
              "problems": wl.problems}
    if tracer is None:
        metrics = e2e
    else:
        untraced = wl.round_seconds["measure"] / max(wl.round_frames["measure"], 1)
        traced = wl.round_seconds["trace"] / max(wl.round_frames["trace"], 1)
        overhead = (traced / untraced - 1.0 if untraced else 0.0,
                    wl.round_frames["trace"])
        metrics, fit_errors = tracing.layer_metrics(tracer.spans, overhead,
                                                    workloads.LIFT_MAX_ITER)
        if metrics["lifting.fit_ms_p50"][2]:
            wl.props["max_iter_share"] = metrics["lifting.max_iter_share"][0]
        report["untraced_s_per_frame"] = untraced
        report["traced_s_per_frame"] = traced
        report["lifting_failures_by_class"] = fit_errors
        spans_path = results / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["named"] = {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in named.items()}
    report["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in metrics.items()}
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"# handgest benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={report['rounds']}")
    print("# machine " + json.dumps(report["machine"]))
    print("# inputs " + json.dumps(wl.props))
    print(f"# output digest (round 0) {wl.digest}")
    print(f"# slowdown {wl.slowdown():.4f}: untraced times are at nominal machine speed")
    for title, table in (("workload metrics", named), ("reported metrics", metrics)):
        print(f"# {title}")
        for name, (value, unit, n) in table.items():
            print(f"{name:34s} {value:14.6g} {unit:6s} n={n}")
    if tracer is not None:
        print(f"# tracing overhead {overhead[0]:+.3%}: {traced * 1e3:.4f} ms/frame traced, "
              f"{untraced * 1e3:.4f} ms/frame untraced")
    for problem in wl.problems:
        print(f"# CHECK FAILED: {problem}")
    print(f"# report {out.relative_to(ROOT)}")
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if wl.failed == 0 else 1


def run_all(args):
    """Each workload in its own process; the worst exit code wins."""
    codes = []
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        codes.append(subprocess.run(argv, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "handgest" / "__init__.py").is_file():
        print(f"error: no handgest package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
