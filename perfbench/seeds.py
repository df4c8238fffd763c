"""Run one workload on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/seeds.py --workload lift --seeds 1-10 [--seconds S] \
        [--out perfbench/baseline/lift.json]

Runs are sequential, in fresh processes, from the repository root.  The
spread is the statistic a benchmark change must keep within each metric's
bound; ``--out`` stores the result lines and summaries as a baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds",
                               str(args.seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        report = HERE / "results" / f"{args.workload}-seed{seed}-trace0.json"
        runs.append({"seed": seed, "exit": proc.returncode, "result": result,
                     "report": json.loads(report.read_text()) if result else None})
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()} if result else {}
        print(f"seed {seed}: exit {proc.returncode} {shown}", flush=True)

    ok = [r["result"] for r in runs if r["result"]]
    summary = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in ok]
        if len(values) >= 2:
            summary[m["name"]] = dict(summarize(values), bound=m["bound"])
            s = summary[m["name"]]
            print(f"{m['name']:16s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}  bound {m['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "summary": summary,
             "runs": runs}, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
