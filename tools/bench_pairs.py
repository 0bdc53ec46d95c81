"""Paired benchmark runs of two source trees, summarized metric by metric.

Usage:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seed S \
        --pairs N --seconds T [--json OUT]

Each tree is a checkout holding its own `bench/run.py`, `src/` and
`BENCHMARK.json`. For pair i (seed S + i) the tool runs

    python3 TREE/bench/run.py --workload W --seed S+i --seconds T --trace 0

once on each tree, back to back. The side that goes first alternates from
pair to pair, and from workload to workload when W is a comma-separated
list. The `better` direction and `bound` of every end-to-end metric are read
from the parent tree's `BENCHMARK.json`.

For each metric the tool prints each side's Q1, median and Q3 (inclusive
quartiles over the pairs), the pairs the change won, the parent's IQR, the
change's median over the parent's, and whether the change's median is
within the metric's bound. It also prints `correct` and `failed` of every
run. With `--json`, it writes one record per workload: the seeds, the side
that went first, each side's correctness, op counts and exit codes, and for
every metric the quartiles, wins, ratio, bound check and both sides' runs.

Exit status is 1 when any run exits non-zero, is not `correct` or has a
failed op; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run of tree: its exit code and last JSON line, if any."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        line = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        print(f"  {tree}: no result line; stderr: {proc.stderr.strip()[-500:]}", file=sys.stderr)
    return dict(line, exit_code=proc.returncode)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(metric: dict, parent_runs: list[float], change_runs: list[float]) -> dict:
    """Quartiles, wins and bound check of one metric's paired runs (pair i is both sides' run i).

    metric is its BENCHMARK.json entry: unit, better ("lower" or "higher") and bound,
    the largest fraction by which the change's median may be worse than the parent's.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))
    worse = sign * (change["median"] - parent["median"]) / parent["median"]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": parent, "change": change,
        "change_wins": f"{wins}/{len(parent_runs)}",
        "change_over_parent": change["median"] / parent["median"],
        "worse_by_fraction": worse,
        "within_bound": worse <= metric["bound"],
        "parent_iqr": parent["q3"] - parent["q1"],
        "all_change_runs_better": all(sign * (c - p) < 0 for p in parent_runs for c in change_runs),
        "parent_runs": parent_runs, "change_runs": change_runs,
    }


def run_workload(trees: dict, workload: str, seeds: list[int], seconds: float, parent_first: bool,
                 end_to_end: list[dict]) -> dict:
    runs = {side: [] for side in SIDES}
    first_side = []
    for i, seed in enumerate(seeds):
        order = SIDES if (i % 2 == 0) == parent_first else SIDES[::-1]
        first_side.append(order[0])
        for side in order:
            res = run_bench(trees[side], workload, seed, seconds)
            runs[side].append(res)
            print(f"{workload} seed {seed} {side:6s}: exit {res['exit_code']}, correct {res['correct']}, "
                  f"attempted {res['attempted']}, failed {res['failed']}", flush=True)
    record = {"seeds": seeds, "first_side": first_side}
    for side in SIDES:
        record[f"{side}_correct"] = all(r["correct"] for r in runs[side])
        record[f"{side}_failed_ops"] = sum(r["failed"] for r in runs[side])
        record[f"{side}_attempted_ops"] = sum(r["attempted"] for r in runs[side])
        record[f"{side}_exit_codes"] = sorted({r["exit_code"] for r in runs[side]})
    record["metrics"] = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]]
                  for side in SIDES}
        if len(values["parent"]) == len(values["change"]) == len(seeds):
            record["metrics"][name] = summarize(metric, values["parent"], values["change"])
    return record


def print_record(workload: str, record: dict) -> None:
    print(f"\n{workload}: seeds {record['seeds'][0]}-{record['seeds'][-1]}, "
          f"first {','.join(side[0] for side in record['first_side'])}")
    print(f"{'metric':16s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'wins':>6s} {'parent IQR':>11s} {'ratio':>7s} within bound")
    for name, m in record["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"{name:16s} {p['q1']:10.5g} {p['median']:10.5g} {p['q3']:10.5g} "
              f"{c['q1']:10.5g} {c['median']:10.5g} {c['q3']:10.5g} {m['change_wins']:>6s} "
              f"{m['parent_iqr']:11.4g} {m['change_over_parent']:7.4f} {m['within_bound']}")
    for side in SIDES:
        print(f"{side}: correct {record[f'{side}_correct']}, failed {record[f'{side}_failed_ops']} "
              f"of {record[f'{side}_attempted_ops']}, exit codes {record[f'{side}_exit_codes']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="parent source tree")
    ap.add_argument("change", type=Path, help="changed source tree")
    ap.add_argument("--workload", required=True, help="workload name, or a comma-separated list")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--json", type=Path, help="write the per-workload records here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    seeds = list(range(args.seed, args.seed + args.pairs))
    records = {}
    for k, workload in enumerate(args.workload.split(",")):
        records[workload] = run_workload(trees, workload, seeds, args.seconds, k % 2 == 1,
                                         spec["end_to_end"])
        print_record(workload, records[workload])
    if args.json:
        args.json.write_text(json.dumps(records, indent=1) + "\n")
    ok = all(record[f"{side}_correct"] and record[f"{side}_failed_ops"] == 0
             and record[f"{side}_exit_codes"] == [0]
             for record in records.values() for side in SIDES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
