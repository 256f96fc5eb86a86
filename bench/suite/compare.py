#!/usr/bin/env python3
"""Collect and compare masq_bench result sets.

A result set is a JSON-lines file, one record per run:
  {"workload": "...", "seed": n, "trace": 0|1, "nproc": n,
   "result": {...} | null}
where "result" is the JSON object masq_bench prints last (null when the run
exited non-zero) and "nproc" is the CPU count of the machine that ran it.

  compare.py collect OUT.jsonl [--workloads a,b] [--seeds 1-10] [--trace 0|1]
      Runs run.py once per (workload, seed), one process at a time.
  compare.py summary SET.jsonl
      Per (metric, workload): n, median, quartiles, and IQR over median.
  compare.py diff BASE.jsonl NEW.jsonl [--json OUT]
      Compares NEW against BASE:
        * each row shows both medians and quartiles;
        * a bounded metric past its bound is a REGRESSION;
        * a row whose IQR exceeds its bound is UNRESOLVED, not unchanged,
          unless every NEW run beats every BASE run;
        * any rise in failed/attempted, or any incorrect or failed run in
          NEW, rejects the set.
      Exits 1 when the set is rejected or any row regressed.

Bounds and directions come from BENCHMARK.json (--benchmark to override).
Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        for m in bench[section]:
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "bound": m.get("bound")}
    return bench, metrics


def load_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel(x, base):
    return x / base if base else 0.0


def series(records):
    """{(metric, workload): [values...]} over successful runs."""
    out = {}
    for rec in records:
        res = rec.get("result")
        if not res:
            continue
        for name, m in res["metrics"].items():
            out.setdefault((name, rec["workload"]), []).append(m["value"])
    return out


def failures(records):
    """{workload: (failed, attempted, broken_runs)}."""
    out = {}
    for rec in records:
        failed, attempted, broken = out.get(rec["workload"], (0, 0, 0))
        res = rec.get("result")
        if not res or not res["correct"]:
            broken += 1
        if res:
            failed += res["failed"]
            attempted += res["attempted"]
        out[rec["workload"]] = (failed, attempted, broken)
    return out


def verdict(base, new, better, bound):
    """Row verdict for one (metric, workload)."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * rel(nmed - bmed, bmed)  # > 0: NEW is worse
    spread = max(rel(bq3 - bq1, bmed), rel(nq3 - nq1, nmed))
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if bound is None:
        return "info", worse, spread
    if worse > bound:
        return "REGRESSION", worse, spread
    if spread > bound:
        return ("improved" if all_better else "UNRESOLVED"), worse, spread
    # A gain must exceed the spread between BASE's own runs.
    if worse < 0 and abs(nmed - bmed) > bq3 - bq1:
        return "improved", worse, spread
    return "unchanged", worse, spread


def diff(base_records, new_records, metrics):
    base, new = series(base_records), series(new_records)
    rows = []
    for key in sorted(set(base) & set(new)):
        name, workload = key
        spec = metrics.get(name)
        if spec is None:
            continue
        v, worse, spread = verdict(base[key], new[key], spec["better"],
                                   spec["bound"])
        rows.append({"metric": name, "workload": workload,
                     "unit": spec["unit"], "bound": spec["bound"],
                     "base": quartiles(base[key]), "new": quartiles(new[key]),
                     "worse": worse, "spread": spread, "verdict": v})
    rejects = []
    bf, nf = failures(base_records), failures(new_records)
    for workload, (failed, attempted, broken) in sorted(nf.items()):
        b_failed, b_attempted, _ = bf.get(workload, (0, 0, 0))
        if broken:
            rejects.append(f"{workload}: {broken} run(s) incorrect or failed")
        if rel(failed, attempted) > rel(b_failed, b_attempted):
            rejects.append(f"{workload}: fail ratio rose from "
                           f"{b_failed}/{b_attempted} to {failed}/{attempted}")
    return rows, rejects


def fmt(q):
    q1, med, q3 = q
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def cmd_diff(args, metrics):
    rows, rejects = diff(load_set(args.base), load_set(args.new), metrics)
    print(f"{'metric':<28} {'workload':<12} {'base median [q1, q3]':<36} "
          f"{'new median [q1, q3]':<36} {'worse':>8} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for r in rows:
        bound = "-" if r["bound"] is None else f"{100 * r['bound']:.0f}%"
        print(f"{r['metric']:<28} {r['workload']:<12} {fmt(r['base']):<36} "
              f"{fmt(r['new']):<36} {100 * r['worse']:>7.2f}% "
              f"{100 * r['spread']:>7.2f}% {bound:>6}  {r['verdict']}")
    for reason in rejects:
        print(f"REJECT {reason}")
    if args.json:
        with open(args.json, "w") as f:  # one row per line
            f.write(f'{{"rejects": {json.dumps(rejects)}, "rows": [\n')
            f.write(",\n".join(json.dumps(r) for r in rows))
            f.write("\n]}\n")
    bad = rejects or any(r["verdict"] == "REGRESSION" for r in rows)
    return 1 if bad else 0


def cmd_summary(args, metrics):
    records = load_set(args.set)
    print(f"{'metric':<28} {'workload':<12} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for (name, workload), values in sorted(series(records).items()):
        q1, med, q3 = quartiles(values)
        bound = (metrics.get(name) or {}).get("bound")
        b = "-" if bound is None else f"{100 * bound:.0f}%"
        print(f"{name:<28} {workload:<12} {len(values):>3} {med:>14.6g} "
              f"{q1:>14.6g} {q3:>14.6g} {100 * rel(q3 - q1, med):>7.2f}% "
              f"{b:>6}")
    for workload, (failed, attempted, broken) in sorted(
            failures(records).items()):
        print(f"# {workload}: {failed}/{attempted} failed, "
              f"{broken} broken run(s)")
    return 0


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_collect(args, bench):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seed_list(args.seeds):
                cmd = [sys.executable, str(SUITE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                result = (json.loads(lines[-1])
                          if proc.returncode == 0 and lines else None)
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "nproc": os.cpu_count(),
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: "
                      f"{'ok' if result else 'FAILED'}", file=sys.stderr)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("summary")
    s.add_argument("set")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    d.add_argument("--json")
    args = p.parse_args(argv)
    bench, metrics = load_benchmark(args.benchmark)
    if args.cmd == "collect":
        return cmd_collect(args, bench)
    if args.cmd == "summary":
        return cmd_summary(args, metrics)
    return cmd_diff(args, metrics)


if __name__ == "__main__":
    sys.exit(main())
