"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workload wide-3520 --seeds 1-5

One untraced run.py subprocess at a time, for every workload in
BENCHMARK.json (or the ones named), with run_seconds from BENCHMARK.json. For each metric the
summary holds the per-run values, their median, quartiles and the spread
(third minus first quartile, as a share of the median), with host info.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, child_env, host_info


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {
        "host": host_info(child_env()),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for name in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        metrics = {}
        for metric in runs[0]["metrics"]:
            metrics[metric] = summarise([r["metrics"][metric]["value"] for r in runs])
            m = metrics[metric]
            print(f"  {metric:40s} median {m['median']:.6g}  spread {m['spread']:.4f}", flush=True)
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
