#!/usr/bin/env python3
"""Reference run of the accelsoc benchmark: spread and medians per metric.

    python3 perfbench/reference.py [--out FILE]

Run from the repository root. For round r = 0..9 it runs every workload
once with seed 1 + r (workloads interleaved, so host drift hits them
alike), for BENCHMARK.json's run_seconds, then one traced run per
workload at seed 1. For each end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and fails if a spread is not below a third of the
metric's bound in BENCHMARK.json. With --out it writes all of it, the
command line and the environment stamp as JSON.
"""

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
FIRST_SEED = 1
NORMALISATION = (
    "Host times (setup_s, items_per_s, call_ms_p50) are normalised by a host-speed probe "
    "(perfbench/src/probe.rs) to a reference host on which the probe takes 8 ms: "
    "normalised time = raw time x 8 ms / probe time. The units ref_s and ref_ms, and setup_s, "
    "are seconds and milliseconds of that reference host, not wall-clock time of this host. "
    "raw_host holds the un-normalised figures of the same runs."
)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {p.returncode}")
    lines = p.stdout.splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return json.loads(lines[-1]), env, p.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    raw = {w: {"setup_s": [], "items_per_s": [], "call_ms_p50": [], "host_speed": []} for w in workloads}
    env = {}
    for r in range(RUNS):
        seed = FIRST_SEED + r
        for w in workloads:
            res, env, err = run_once(w, seed, seconds, 0)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result {res}")
            line = next(l for l in err.splitlines() if l.startswith("raw "))
            for name in raw[w]:
                raw[w][name].append(float(re.search(name.replace("host_", "host ") + r" ([0-9.]+)", line).group(1)))
            for name, v in res["metrics"].items():
                values[w][name].append(v["value"])
            print(f"round {r} {w} seed {seed}: " + ", ".join(
                f"{n}={v['value']:.6g}" for n, v in res["metrics"].items()), flush=True)

    summary = {}
    ok = True
    print(f"\n{'workload':<16}{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for w in workloads:
        summary[w] = {}
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            ok &= steady
            summary[w][m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "bound": m["bound"], "values": v}
            print(f"{w:<16}{m['name']:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{m['bound']:>7}"
                  + ("" if steady else "  SPREAD >= bound/3"))

    print("\nraw host figures (before host-speed normalisation):")
    raw_summary = {}
    for w in workloads:
        raw_summary[w] = {}
        for name, v in raw[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            raw_summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print(f"{w:<16}{name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{(q3 - q1) / med:>9.4f}")

    traced = {}
    for w in workloads:
        res, _, err = run_once(w, FIRST_SEED, seconds, 1)
        traced[w] = {n: v["value"] for n, v in res["metrics"].items()}
        print(f"\ntraced {w} seed {FIRST_SEED}:")
        sys.stdout.write("".join(l + "\n" for l in err.splitlines()
                                 if l.startswith(("  ", "premise", "STALE", "self time"))))

    if args.out:
        doc = {
            "command": "python3 perfbench/reference.py " + shlex.join(sys.argv[1:]),
            "env": env,
            "normalisation": NORMALISATION,
            "seconds": seconds,
            "seeds": [FIRST_SEED + r for r in range(RUNS)],
            "end_to_end": summary,
            "raw_host": raw_summary,
            "trace_seed": FIRST_SEED,
            "per_layer": traced,
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=False)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
