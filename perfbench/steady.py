#!/usr/bin/env python3
"""Runs benchmark workloads over several seeds and reports each
end-to-end metric's median, quartiles and spread against its bound.

Run from the repository root:

    python3 perfbench/steady.py --workloads query,scatter --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --record perfbench/STEADINESS.md

The spread is (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4). With --record, each workload's table,
with the index digest every seed printed, is appended to the named file
as soon as its runs end. A run that fails or reports an incorrect answer
stops the script.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    digest = next((l.split("index-digest=")[1].split()[0] for l in lines if "index-digest=" in l), "")
    return result, wall, digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seeds_of(args.seeds)
    if args.record:
        with open(args.record, "a") as f:
            f.write(f"\n### Seeds {args.seeds}, run_seconds {bench['run_seconds']}\n")
    for w in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls, digests = [], []
        for s in seeds:
            result, wall, digest = run_once(bench, w, s)
            walls.append(wall)
            digests.append(f"{s}:{digest}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed={s} wall={wall:.1f}s index-digest={digest}", file=sys.stderr)
        rows = []
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
            rows.append((m["name"], m["unit"], med, q1, q3, spread, m["bound"]))
            print(f"{w:8s} {m['name']:28s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.3f} bound={m['bound']}{flag}")
        print(f"{w:8s} wall per run: median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        if args.record:
            record(args.record, w, rows, walls, digests)


def record(path, w, rows, walls, digests):
    with open(path, "a") as f:
        f.write(f"\n`{w}` — {len(walls)} runs, wall per run median "
                f"{statistics.median(walls):.1f} s; index digests (seed:digest) "
                f"{' '.join(digests)}\n\n")
        f.write("| metric | unit | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|\n")
        for name, unit, med, q1, q3, spread, bound in rows:
            f.write(f"| `{name}` | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {bound} |\n")


if __name__ == "__main__":
    main()
