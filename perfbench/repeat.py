"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads pipeline,optimize,characterize --seeds 1-10 \
        --trace 0 --out perfbench/baseline.json

For every workload and metric it reports the median and the quartiles of
the per-run values (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json, and the same for the raw (not speed-normalised) times.  Runs are sequential; each run's report line is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            report_line, result_line = done.stdout.strip().splitlines()[-2:]
            runs.append({"seed": seed, "report": json.loads(report_line)["report"],
                         "result": json.loads(result_line)})
            print(workload, seed, result_line, flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            metrics[name] = stats
        raw = {name: summarise([r["report"]["raw"][name] for r in runs])
               for name in runs[0]["report"].get("raw", {})}
        summary["workloads"][workload] = {
            "metrics": metrics,
            "raw_metrics": raw,
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "err_db_median": summarise([r["report"]["err_db"]["median"] for r in runs
                                        if r["report"]["err_db"]["median"] is not None]),
            "runs": [{"seed": r["seed"], "latency_tail": r["report"]["latency_tail"],
                      "passes": len(r["report"]["passes"]),
                      "setup_samples_s": r["report"]["setup_samples_s"]} for r in runs],
        }
        summary["environment"] = runs[0]["report"]["environment"]
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for workload, entry in summary["workloads"].items():
        for name, stats in entry["metrics"].items():
            raw = entry["raw_metrics"].get(name)
            print(f"{workload:13s} {name:40s} median {stats['median']:.6g} "
                  f"spread {stats['spread'] if stats['spread'] is None else round(stats['spread'], 4)}"
                  f" bound {stats['bound']}"
                  + (f" (raw: median {raw['median']:.6g} spread {round(raw['spread'], 4)})"
                     if raw else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
