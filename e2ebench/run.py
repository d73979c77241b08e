#!/usr/bin/env python3
"""End-to-end benchmark of the library: build, run, compare.

Run one workload (builds the benchmark first if needed):

    python3 e2ebench/run.py --workload lint_cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  `--out FILE` also appends the result,
tagged with workload, seed and trace, as one JSON line to FILE.

Run every workload and print one row per workload:

    python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0

Compare two sets of result files (parent and change), one row per
(workload, metric), with each side's median and quartiles and a verdict:

    python3 e2ebench/run.py compare parent.jsonl --change change.jsonl

Negative control: `--plant-wrong-answer` plants one wrong known answer; the
run must then report failures and exit non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# A run measures for --seconds plus set-up and warm-up; the slowest traced
# run stays well inside this.
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "e2ebench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("e2ebench: build failed:", " ".join(cmd))
            return False
    return True


def run_one(workload, seed, seconds, trace, plant):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{workload}.json")]
    if plant:
        cmd.append("--plant-wrong-answer")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        pass
    return proc.returncode, (lines, result)


def append_result(path, workload, seed, trace, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "trace": trace, **result}) + "\n")


def row(workload, result, names):
    cells = [f"{workload:<15}"]
    for name in names:
        m = result["metrics"].get(name)
        cells.append(f"{name}={m['value']:.6g} {m['unit']}" if m else
                     f"{name}=-")
    share = result["failed"] / result["attempted"] if result["attempted"] else 1
    cells.append(f"fail_share={share:.3g} ratio")
    return "  ".join(cells)


def cmd_run(args):
    if not build():
        return 2
    spec = load_spec()
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    status = 0
    rows = []
    for workload in workloads:
        rc, out = run_one(workload, args.seed, args.seconds, args.trace,
                          args.plant_wrong_answer)
        if out is None:
            return rc or 1
        lines, result = out
        if args.workload != "all":
            print("\n".join(lines), flush=True)
        if result is None:
            log(f"e2ebench: {workload} printed no result")
            return rc or 1
        if args.out:
            append_result(args.out, workload, args.seed, args.trace, result)
        names = [m["name"] for m in
                 spec["per_layer" if args.trace else "end_to_end"]]
        rows.append(row(workload, result, names))
        status = status or rc
    if args.workload == "all":
        print("\n".join(rows))
    return status


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """choosing-metrics §6-8: worse beyond the bound, unresolved when the
    run-to-run spread is wider than the bound, better only on >= 9/10 wins
    and a median gap wider than the parent's own spread."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    gain = sign * (cm - pm) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if spread > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        return "better"
    return "unchanged"


def load_results(paths):
    """{(workload, metric): [(seed, value)]} from untraced result lines."""
    out = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                r = json.loads(line)
                if r.get("trace"):
                    continue
                for name, m in r["metrics"].items():
                    out.setdefault((r["workload"], name), []).append(
                        (r["seed"], m["value"]))
    return out


def cmd_compare(args):
    spec = load_spec()
    parent = load_results(args.parent)
    change = load_results(args.change)
    print(f"{'workload':<15} {'metric':<12} {'unit':<5} "
          f"{'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"{'delta':>8}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in parent or key not in change:
                print(f"{w['name']:<15} {m['name']:<12} missing on one side")
                continue
            # Pair runs by seed when both sides ran the same seeds.
            p = dict(parent[key])
            c = dict(change[key])
            seeds = sorted(set(p) & set(c))
            pv = [p[s] for s in seeds] or [v for _, v in parent[key]]
            cv = [c[s] for s in seeds] or [v for _, v in change[key]]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            delta = (cm - pm) / pm if pm else 0.0
            print(f"{w['name']:<15} {m['name']:<12} {m['unit']:<5} "
                  f"{pm:<12.6g}[{p1:.6g}, {p3:.6g}]".ljust(75)
                  + f"{cm:<12.6g}[{c1:.6g}, {c3:.6g}]".ljust(35)
                  + f"{delta:>+8.1%}  "
                  + verdict(pv, cv, m["better"], m["bound"]))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent", nargs="+", help="parent result files")
        p.add_argument("--change", nargs="+", required=True,
                       help="change result files")
        return cmd_compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant-wrong-answer", action="store_true")
    p.add_argument("--out", help="append the result as a JSON line here")
    return cmd_run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
