#!/usr/bin/env python3
"""Collects, checks and compares result sets of the serving benchmark.

A result set is a directory of run outputs named
`<workload>.seed<n>.trace<0|1>.out`, each holding one run's stdout (the last
line is the JSON result). Run everything from the repository root.

    # ten runs per workload, seeds 1..10, end-to-end metrics
    python3 servebench/compare.py collect --out runs/parent --runs 10
    # the same with the traced per-layer run
    python3 servebench/compare.py collect --out runs/parent --runs 10 --trace 1
    # spread of each metric within one set, against BENCHMARK.json bounds
    python3 servebench/compare.py spread runs/parent
    # parent vs change: medians, quartiles, pairwise wins and a verdict
    python3 servebench/compare.py compare runs/parent runs/change

Verdicts follow the choosing-metrics rules. Runs pair up by seed. "gain" (or
"loss") needs the change to win (or lose) at least 9 of 10 pairs, ties
counting for neither, and the medians to differ by more than the parent's
interquartile range. For an end-to-end metric, "regression" means the
change's median is worse than the parent's by more than the metric's bound.
Where the parent's own spread is wider than the bound, the metric is
"unresolved" unless every change run beats every parent run. Anything else
is "within bound" (end to end) or "no clear change" (per layer).

A traced run whose core timings did not account for its served infer span
within the harness's tolerance (`reconcile.within_tolerance` 0) has layer
figures that do not add up; `spread` lists such seeds and `compare` leaves
the seed out on both sides.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_.-]+?)\.seed(?P<seed>\d+)"
                  r"\.trace(?P<trace>[01])\.out$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer")
    return spec, metrics


def last_json(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_set(directory):
    """{(workload, trace): {seed: result}}; runs without a result are kept
    as None so they show up as failed."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        m = NAME.match(name)
        if not m:
            continue
        key = (m["workload"], int(m["trace"]))
        runs.setdefault(key, {})[int(m["seed"])] = last_json(
            os.path.join(directory, name))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(results, metric):
    return {seed: r["metrics"][metric]["value"]
            for seed, r in results.items()
            if r and metric in r["metrics"]
            and r["metrics"][metric]["value"] is not None}


def unreconciled(results):
    """Seeds of traced runs whose layer timings missed the tolerance."""
    return sorted(s for s, r in results.items() if r and r["metrics"].get(
        "reconcile.within_tolerance", {}).get("value") == 0)


def cmd_collect(args):
    spec, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            path = os.path.join(args.out,
                                f"{w}.seed{seed}.trace{args.trace}.out")
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            with open(path, "w") as out:
                code = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                      stderr=subprocess.DEVNULL).returncode
            print(f"{w} seed {seed} trace {args.trace}: exit {code}",
                  flush=True)
    return 0


def cmd_spread(args):
    _, metrics = load_spec()
    worst = 0.0
    print(f"{'workload':<16} {'metric':<34} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for (workload, trace), results in sorted(load_set(args.dir).items()):
        bad = [s for s, r in results.items() if not r or not r["correct"]]
        if bad:
            print(f"{workload}: runs without a correct result: seeds {bad}")
        off = unreconciled(results)
        if off:
            print(f"{workload}: traced runs that did not reconcile: "
                  f"seeds {off}")
        names = sorted({n for r in results.values() if r
                        for n in r["metrics"]})
        for name in names:
            vals = list(series(results, name).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = " ok" if spread <= bound / 3 else (
                    " WIDE" if spread > bound else " >1/3")
            print(f"{workload:<16} {name:<34} {len(vals):>3} {med:>14.6g} "
                  f"{q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    print(f"largest end-to-end spread / bound: {worst:.3f}")
    return 0


def verdict(meta, parent, change):
    seeds = sorted(set(parent) & set(change))
    lower = meta.get("better", "lower") == "lower"

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(change[s], parent[s]) for s in seeds)
    losses = sum(better(parent[s], change[s]) for s in seeds)
    pq1, pmed, pq3 = quartiles(list(parent.values()))
    _, cmed, _ = quartiles(list(change.values()))
    piqr = pq3 - pq1
    n = len(seeds)
    if n and wins >= 0.9 * n and abs(cmed - pmed) > piqr and better(cmed, pmed):
        v = "gain"
    elif n and losses >= 0.9 * n and abs(cmed - pmed) > piqr and better(
            pmed, cmed):
        v = "loss"
    else:
        v = "no clear change"
    bound = meta.get("bound")
    if bound is not None and v != "gain":
        worse = (cmed - pmed) if lower else (pmed - cmed)
        all_better = all(better(c, p) for c in change.values()
                         for p in parent.values())
        if worse > bound * abs(pmed):
            v = "regression"
        elif pmed and piqr / abs(pmed) > bound and not all_better:
            v = "unresolved"
        else:
            v = "within bound"
    return wins, losses, n, v


def cmd_compare(args):
    _, metrics = load_spec()
    parent_set, change_set = load_set(args.parent), load_set(args.change)
    print(f"{'workload':<16} {'metric':<34} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>7} verdict")
    for key in sorted(set(parent_set) & set(change_set)):
        workload, _ = key
        off = set(unreconciled(parent_set[key]) +
                  unreconciled(change_set[key]))
        if off:
            print(f"{workload}: seeds {sorted(off)} left out, a traced run "
                  f"did not reconcile")
        for name in sorted(metrics):
            parent = {s: v for s, v in series(parent_set[key], name).items()
                      if s not in off}
            change = {s: v for s, v in series(change_set[key], name).items()
                      if s not in off}
            if not parent or not change:
                continue
            pq1, pmed, pq3 = quartiles(list(parent.values()))
            cq1, cmed, cq3 = quartiles(list(change.values()))
            wins, losses, n, v = verdict(metrics[name], parent, change)
            print(f"{workload:<16} {name:<34} "
                  f"{pmed:>12.6g} [{pq1:>9.6g}, {pq3:>9.6g}] "
                  f"{cmed:>12.6g} [{cq1:>9.6g}, {cq3:>9.6g}] "
                  f"{wins:>3}/{n:<3} {v}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--workloads", default="")
    s = sub.add_parser("spread", help="spread of each metric in one set")
    s.add_argument("dir")
    d = sub.add_parser("compare", help="compare a parent and a change set")
    d.add_argument("parent")
    d.add_argument("change")
    args = p.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
