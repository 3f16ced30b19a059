#!/usr/bin/env python3
"""Steadiness sweep for the repository benchmark.

Runs every workload of BENCHMARK.json once per seed and prints, for each
end-to-end metric, the median of the runs, the quartile spread
(q3 - q1) / median and the metric's bound.  Run it from the repository
root:

    python3 perfbench/sweep.py --seeds 10 --out /tmp/sweep1.json
    python3 perfbench/sweep.py --seeds 10 --first-seed 101 --compare /tmp/sweep1.json

--compare also prints how far each median moved from an earlier sweep, in
the metric's worse direction, beside the bound.  --trace 1 sweeps the
traced run instead and prints the per-layer medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every run's result here as JSON")
    ap.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    old = {}
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)

    runs = {}
    for name in names:
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(bench, name, seed, args.trace)
            result["wall_s"] = wall
            runs[name].append(result)
            print(f"{name} seed {seed}: {wall:.1f}s attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)

    for name in names:
        rs = runs[name]
        print(f"\n{name}: {len(rs)} runs, failed ops {sum(r['failed'] for r in rs)}, "
              f"max wall {max(r['wall_s'] for r in rs):.1f}s")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in rs]
            if args.trace:
                print(f"  {m['name']:32s} median {statistics.median(values):12.4g} {m['unit']}")
                continue
            med, sp = spread(values)
            bound = m["bound"]
            line = (f"  {m['name']:20s} median {med:12.5g} {m['unit']:5s} "
                    f"spread {sp:6.3f}  bound {bound:.2f}  "
                    f"{'ok' if sp <= bound / 3 or m['name'] == 'setup_s' else 'WIDE'}")
            if name in old:
                prev = statistics.median(r["metrics"][m["name"]]["value"] for r in old[name])
                worse = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
                line += f"  moved {worse:+.3f} {'ok' if worse <= bound else 'WORSE'}"
            print(line)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f)


if __name__ == "__main__":
    main()
