#!/usr/bin/env python3
"""Self-test for compare.py over the result sets in fixtures/.

Each fixture is base.jsonl with one thing changed (workloads alpha and beta,
five runs each; bounds from fixtures/benchmark.json: wall_s lower-is-better
within 10%, rate higher-is-better within 5%):
  rerun          alpha's wall_s reshuffled: nothing moved
  regress        alpha's wall_s 20% slower
  rate_drop      beta's rate 10% lower
  noisy          alpha's wall_s median unchanged, IQR 20% of it
  noisy_better   alpha's wall_s just as noisy, but every run beats base
  faster         alpha's wall_s 20% faster
  more_failures  beta fails 3 of its operations
  broken         one beta run exited non-zero

Run: python3 bench/suite/compare_test.py (exit 0 when every check passes).
"""

import contextlib
import io
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BENCH = str(FIXTURES / "benchmark.json")
_, METRICS = compare.load_benchmark(BENCH)
failures = 0


def check(ok, what):
    global failures
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    failures += not ok


def run_cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = compare.main(["--benchmark", BENCH, *args])
    return code, out.getvalue()


def verdicts(new):
    rows, rejects = compare.diff(compare.load_set(FIXTURES / "base.jsonl"),
                                 compare.load_set(FIXTURES / new), METRICS)
    return {(r["metric"], r["workload"]): r["verdict"] for r in rows}, rejects


v, rejects = verdicts("rerun.jsonl")
check(set(v.values()) == {"unchanged"} and not rejects,
      "a rerun of the same numbers is unchanged everywhere")

v, _ = verdicts("regress.jsonl")
check(v[("wall_s", "alpha")] == "REGRESSION",
      "20% slower wall_s is a regression")
check(v[("wall_s", "beta")] == "unchanged",
      "the other workload stays in its own row, unchanged")

v, _ = verdicts("rate_drop.jsonl")
check(v[("rate", "beta")] == "REGRESSION",
      "a higher-is-better metric falling past its bound is a regression")

v, _ = verdicts("noisy.jsonl")
check(v[("wall_s", "alpha")] == "UNRESOLVED",
      "an IQR wider than the bound is unresolved, not unchanged")

v, _ = verdicts("noisy_better.jsonl")
check(v[("wall_s", "alpha")] == "improved",
      "a noisy row where every new run wins is improved")

v, _ = verdicts("faster.jsonl")
check(v[("wall_s", "alpha")] == "improved",
      "a gain larger than the base spread is improved")

_, rejects = verdicts("more_failures.jsonl")
check(any("fail ratio rose" in r for r in rejects),
      "any rise in failed/attempted rejects")

_, rejects = verdicts("broken.jsonl")
check(any("incorrect or failed" in r for r in rejects),
      "a run without a result rejects")

code, text = run_cli("diff", str(FIXTURES / "base.jsonl"),
                     str(FIXTURES / "regress.jsonl"))
check(code == 1 and "REGRESSION" in text, "diff exits 1 on a regression")
code, _ = run_cli("diff", str(FIXTURES / "base.jsonl"),
                  str(FIXTURES / "more_failures.jsonl"))
check(code == 1, "diff exits 1 when failures rise")
code, _ = run_cli("diff", str(FIXTURES / "base.jsonl"),
                  str(FIXTURES / "noisy.jsonl"))
check(code == 0, "diff exits 0 when nothing regressed")

q1, med, q3 = statistics.quantiles([1.00, 1.01, 0.99, 1.02, 1.00], n=4)
check(compare.quartiles([1.00, 1.01, 0.99, 1.02, 1.00]) == (q1, med, q3),
      "quartiles are statistics.quantiles(values, n=4)")
code, text = run_cli("diff", str(FIXTURES / "base.jsonl"),
                     str(FIXTURES / "rerun.jsonl"))
check(f"{med:.6g} [{q1:.6g}, {q3:.6g}]" in text,
      "each row prints its median and quartiles")

code, text = run_cli("summary", str(FIXTURES / "base.jsonl"))
check(code == 0 and "wall_s" in text and "alpha" in text,
      "summary lists every (metric, workload)")

sys.exit(1 if failures else 0)
