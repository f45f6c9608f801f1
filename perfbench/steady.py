#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly with different seeds and
prints, per metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, the figure the
bounds in BENCHMARK.json are set against).

    python3 perfbench/steady.py --runs 10 [--workloads eql-kg ctp-synthetic] [--trace 1]

Run it from the root of the repository. Each run's JSON line is kept in
perfbench/results/<workload>.jsonl, its standard error (with every
operation's time) in perfbench/results/<workload>-<seed>.log.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=names, choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    for w in args.workloads:
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            t = time.time()
            with open(os.path.join(out_dir, f"{w}-{seed}.log"), "w") as err:
                res = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", args.trace],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
            wall = time.time() - t
            last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
            if res.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: run failed (exit {res.returncode})")
                continue
            r = json.loads(last)
            r["seed"], r["wall_s"] = seed, round(wall, 1)
            results.append(r)
            with open(os.path.join(out_dir, f"{w}.jsonl"), "a") as f:
                f.write(json.dumps(r) + "\n")
            print(f"{w} seed {seed}: {wall:.0f} s, attempted {r['attempted']}, failed {r['failed']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        if len(results) < 2:
            continue
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"\n{w}: {len(results)} runs, wall median {statistics.median(r['wall_s'] for r in results):.0f} s, "
              f"correct {all(r['correct'] for r in results)}, failed/attempted {shares}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in results[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(m)
            print(f"  {m:28s} {med:12.4g} {q1:12.4g} {q3:12.4g} {spread:7.3f} {'' if b is None else b:>6}")
        print(flush=True)


if __name__ == "__main__":
    main()
