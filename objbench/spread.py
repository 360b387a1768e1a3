#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread (inter-quartile range over the
median), the figure a regression bound has to clear.

Run from the repository root:

    python3 objbench/spread.py --seeds 10

It runs BENCHMARK.json's workloads unless --workloads names others.

--baseline FILE also writes the medians and quartiles as JSON, with the
commit and hardware given by --commit and --hardware.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace=0):
    out = subprocess.run(
        ["bash", "objbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        print(f"WARNING {workload} seed {seed}: correct={res['correct']} failed={res['failed']}\n{out.stdout}\n{out.stderr}", flush=True)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--baseline", default=None)
    ap.add_argument("--commit", default="")
    ap.add_argument("--hardware", default="")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"commit": args.commit, "hardware": args.hardware, "seconds": seconds,
                "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                "workloads": {}}
    worst = 0.0
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for w in names:
        values = {}
        for s in baseline["seeds"]:
            res = run(w, s, seconds)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        rows = {}
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bounds[name])
            flag = "  <-- above a third of the bound" if spread > bounds[name] / 3 else ""
            print(f"  {w:11s} {name:16s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
        baseline["workloads"][w] = rows
    print(f"worst spread / bound: {worst:.3f}")
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
