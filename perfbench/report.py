#!/usr/bin/env python3
"""Repeat perfbench runs and summarise them: medians and spreads.

    python3 perfbench/report.py run [--runs 10] [--seed-base 1]
        [--trace 0|1|both] [--out FILE]
    python3 perfbench/report.py compare A.json B.json

`run` makes --runs runs of each workload of BENCHMARK.json, run i with
seed seed-base + i and BENCHMARK.json's run_seconds, through
perfbench/run.py, and prints for every metric
its median, quartiles and spread (quartile distance over the median,
quartiles as statistics.quantiles(values, n=4) gives them) next to the
metric's bound from BENCHMARK.json; the wall-clock figures of the info
line are listed as wall.*. A spread at or above a third of its bound is
flagged. With --trace both it also prints the tracing overhead: the
traced median of wall.query_ms_p50 and wall.op_ms_p50 minus the
untraced one. --out saves every run's result and info line as JSON.

`compare` prints the medians of two saved result files side by side (for
example two seed ranges, or a parent and a change) with their ratio, and
flags an end-to-end metric whose second median is worse than the first
by more than its bound.

Run from the repository root. Every failing run is reported and makes
the exit code non-zero.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        return {"workload": workload, "seed": seed, "trace": trace, "ok": False}
    info = {}
    for line in lines[:-1]:
        if line.startswith('{"host"'):
            info = json.loads(line)
    res = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "ok": True,
            "info": info, "result": res}


def spread(values):
    """Returns (median, q1, q3, (q3-q1)/median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values_by_metric(runs, workload, trace):
    out = {}
    for r in runs:
        if r["ok"] and r["workload"] == workload and r["trace"] == trace:
            for k, v in r["result"]["metrics"].items():
                out.setdefault(k, []).append(v["value"])
            for k, v in r["info"].get("wall", {}).items():
                out.setdefault("wall." + k, []).append(v)
    return out


def summarise(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w in sorted({r["workload"] for r in runs}):
        for trace in sorted({r["trace"] for r in runs if r["workload"] == w}):
            vals = values_by_metric(runs, w, trace)
            n = len(next(iter(vals.values()), []))
            steal = [r["info"]["host"].get("steal_share", 0) for r in runs
                     if r["ok"] and r["workload"] == w and r["trace"] == trace]
            print(f"\n## {w} (trace {trace}, {n} runs, median steal share "
                  f"{statistics.median(steal) if steal else 0:.4f})")
            print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
            for k in sorted(vals):
                med, q1, q3, sp = spread(vals[k])
                b = bounds.get(k)
                flag = ""
                if b is not None and sp >= b / 3:
                    flag = "  <-- spread >= bound/3"
                print(f"{k:28} {units.get(k, ''):6} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{sp:7.3f} {'' if b is None else b:>6}{flag}")


def overhead(runs):
    for w in sorted({r["workload"] for r in runs}):
        plain, traced = values_by_metric(runs, w, 0), values_by_metric(runs, w, 1)
        if not plain or not traced:
            continue
        for name in ("wall.query_ms_p50", "wall.op_ms_p50"):
            a, b = plain.get(name), traced.get(name)
            if a and b:
                ma, mb = statistics.median(a), statistics.median(b)
                print(f"tracing overhead {w:13} {name:18} {mb - ma:+9.3f} ms "
                      f"({(mb - ma) / ma:+.1%} of {ma:.3f} ms)")


def cmd_run(args):
    spec = load_spec()
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    runs = []
    for i in range(args.runs):
        for w in spec["workloads"]:
            for t in traces:
                r = one_run(spec, w["name"], args.seed_base + i, t)
                runs.append(r)
                print(f"run {w['name']} seed {r['seed']} trace {t}: {'ok' if r['ok'] else 'FAILED'}",
                      file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    summarise(spec, runs)
    if len(traces) == 2:
        print()
        overhead(runs)
    return 0 if all(r["ok"] for r in runs) else 1


def cmd_compare(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    worse = 0
    for w in sorted({r["workload"] for r in a}):
        for trace in sorted({r["trace"] for r in a if r["workload"] == w}):
            va, vb = values_by_metric(a, w, trace), values_by_metric(b, w, trace)
            print(f"\n## {w} (trace {trace})")
            print(f"{'metric':28} {'first':>12} {'second':>12} {'ratio':>7}")
            for k in sorted(va):
                if k not in vb:
                    continue
                ma, mb = statistics.median(va[k]), statistics.median(vb[k])
                ratio = mb / ma if ma else float("nan")
                better = next((m["better"] for m in spec["end_to_end"] if m["name"] == k), None)
                flag = ""
                if k in bounds and ma:
                    change = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
                    if change > bounds[k]:
                        flag, worse = "  <-- worse than bound", worse + 1
                print(f"{k:28} {ma:12.5g} {mb:12.5g} {ratio:7.3f}{flag}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--trace", default="0", choices=["0", "1", "both"])
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
