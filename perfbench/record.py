"""Run the benchmark over several seeds and summarize the spread of each metric.

Usage, from the root of a checkout::

    python3 perfbench/record.py --runs 10 [--trace-runs 1] [--out perfbench/baseline.json]

Every workload of BENCHMARK.json is run with seeds 1..runs for its
``run_seconds``, each run a fresh ``perfbench/run.py`` process, one after
another; the first ``--trace-runs`` seeds are run traced as well.  For
every end-to-end metric it prints the median over the runs and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  ``--out`` stores every run's result
line and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])


def summarize(results, spec):
    summary = {}
    for metric in spec:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else float("inf"),
                         "unit": metric["unit"], "bound": metric.get("bound")}
    return summary


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    seeds = range(1, args.runs + 1)
    record = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            facts, result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} calls failed", file=sys.stderr)
            results.append(result)
        summary = summarize(results, spec["end_to_end"])
        traced = [run_once(workload, seed, seconds, 1)[1]
                  for seed in seeds[: args.trace_runs]]
        record["workloads"][workload] = {"facts": facts, "seeds": list(seeds), "summary": summary,
                                         "runs": results, "traced_runs": traced}
        print(f"{workload}: {args.runs} runs")
        for name, s in summary.items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {name:<20} median {s['median']:.6g} {s['unit']:<5} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
