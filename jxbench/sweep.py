#!/usr/bin/env python3
"""Runs the benchmark over many seeds and reports how steady it is.

From the repository root:

    python3 jxbench/sweep.py                      # every workload, seeds 1-10
    python3 jxbench/sweep.py --workloads serve-validate --seeds 1-5
    python3 jxbench/sweep.py --heldout 1001 --traced

For each workload it runs `jxbench/run.sh --trace 0` once per seed and
prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (`statistics.quantiles(n=4)`) as a
share of the median. A spread above a third of the metric's bound in
BENCHMARK.json is flagged (`setup_s` is exempt). `--heldout SEED` adds one
run on a seed outside the sweep and checks that each metric lies within
its bound of the sweep median. `--traced` adds one traced run per
workload and prints its per-layer metrics. The summary is also written
as JSON to .bench_work/sweep.json. Exits 1 when a run fails or a check
does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
RUN_SECONDS = str(BENCH["run_seconds"])
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", RUN_SECONDS, "--trace", str(trace),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        return None
    return json.loads(lines[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse_by(metric, value, reference):
    """How much worse `value` is than `reference`, as a share of it."""
    if BOUNDS[metric]["better"] == "lower":
        return (value - reference) / reference
    return (reference - value) / reference


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--heldout", type=int)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            r = run(workload, seed, 0)
            if r is None or not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: run failed: {r}")
                ok = False
                continue
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report = summary.setdefault(workload, {"metrics": {}})
        print(f"{workload}: {len(next(iter(values.values()), []))} runs")
        for name, vals in values.items():
            med = statistics.median(vals)
            s = spread(vals) if len(vals) >= 2 else float("nan")
            limit = BOUNDS[name]["bound"] / 3
            flag = "" if name == "setup_s" or s <= limit else f"  ABOVE {limit:.3f}"
            ok &= not flag
            report["metrics"][name] = {"median": med, "spread": s, "values": vals}
            print(f"  {name:18s} median {med:<12.6g} spread {s:.4f}{flag}")
        if args.heldout is not None:
            r = run(workload, args.heldout, 0)
            if r is None or not r["correct"]:
                print(f"  held-out seed {args.heldout}: run failed")
                ok = False
            else:
                for name, m in r["metrics"].items():
                    med = statistics.median(values[name])
                    off = worse_by(name, m["value"], med)
                    inside = off <= BOUNDS[name]["bound"]
                    ok &= inside
                    report.setdefault("heldout", {})[name] = m["value"]
                    print(f"  held-out seed {args.heldout}: {name:18s} {m['value']:<12.6g} "
                          f"{off:+.3f} of the median, {'inside' if inside else 'OUTSIDE'} "
                          f"bound {BOUNDS[name]['bound']}")
        if args.traced:
            r = run(workload, seeds(args.seeds)[0], 1)
            if r is None or not r["correct"]:
                print(f"  traced run failed: {r}")
                ok = False
            else:
                report["per_layer"] = {k: v["value"] for k, v in r["metrics"].items()}
                for name, m in r["metrics"].items():
                    print(f"  {name:20s} {m['value']:.6g} {m['unit']}")
    Path(".bench_work").mkdir(exist_ok=True)
    Path(".bench_work/sweep.json").write_text(json.dumps(summary, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
