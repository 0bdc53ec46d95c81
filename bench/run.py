"""dtameta benchmark: one workload per run, metrics as the last line of stdout.

    python3 bench/run.py --workload fit-typical --seed 0 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics named in BENCHMARK.json; --trace 1
prints the per-layer metrics from a separate traced run. `--workload all`
runs every workload and prints a table of the end-to-end metrics with
error_rate. `--record-reference` rewrites bench/reference/<workload>.json.gz
from the current program at the default seed.

The program is imported from src/ of the checkout this file sits in. Every
child process gets the BLAS and OpenMP thread variables capped at nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SWEEP_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)
SWEEP_SIZE_LIMIT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    env.pop("DTA_SEED", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    if timeout <= 0:
        raise BenchError(f"no time left for {' '.join(argv[:3])}")
    try:
        return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        raise BenchError(f"{' '.join(argv[:3])} exceeded {timeout:.0f} s")


def last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_seconds(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing dtameta.cli, which every CLI call pays.

    Returns (raw seconds, seconds adjusted by a calibration taken just before each).
    """
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        cal = calibrate.calibration_ns()
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", "import dtameta.cli"], env, deadline - time.monotonic())
        raw.append(time.perf_counter() - t0)
        adjusted.append(raw[-1] * calibrate.CAL_REFERENCE_NS / cal)
        if proc.returncode != 0:
            raise BenchError(f"importing dtameta.cli failed: {proc.stderr.strip()[-2000:]}")
    return raw, adjusted


def import_profile(env: dict, deadline: float) -> dict:
    """Cumulative import time of dtameta and scipy.optimize from -X importtime, medians."""
    got: dict[str, list[float]] = {"dtameta": [], "scipy.optimize": []}
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import dtameta.cli"], env,
                         deadline - time.monotonic())
        if proc.returncode != 0:
            raise BenchError(f"importing dtameta.cli failed: {proc.stderr.strip()[-2000:]}")
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if name.strip() in got and cumulative.strip().isdigit():
                got[name.strip()].append(int(cumulative) / 1e6)
    return {
        "import.dtameta_s": statistics.median(got["dtameta"]) if got["dtameta"] else 0.0,
        "import.scipy_optimize_s": statistics.median(got["scipy.optimize"]) if got["scipy.optimize"] else 0.0,
    }


def b_star_sweep(env: dict, deadline: float) -> tuple[dict, list[dict]]:
    """b_star at n = 8 ... 1024, one capped child per size."""
    metrics, rows = {}, []
    max_ok = 0
    for n in SWEEP_SIZES:
        limit = min(SWEEP_SIZE_LIMIT_S, deadline - time.monotonic() - 5.0)
        row = {"n": n, "status": "skipped", "ms": 0.0, "peak_rss_mb": 0.0}
        if limit > 1.0:
            t0 = time.perf_counter()
            try:
                proc = run_child([sys.executable, os.path.join(HERE, "sweep.py"), "--n", str(n)], env, limit)
                row = last_json(proc, f"b_star sweep at n={n}")
            except BenchError as exc:
                row = {"n": n, "status": f"ended: {exc}"[:200], "ms": 1e3 * (time.perf_counter() - t0),
                       "peak_rss_mb": 0.0}
        rows.append(row)
        if row["status"] == "ok":
            max_ok = n
        metrics[f"regions.b_star.sweep_ms.n{n}"] = float(row["ms"])
        metrics[f"regions.b_star.sweep_rss_mb.n{n}"] = float(row["peak_rss_mb"])
    metrics["regions.b_star.max_n_completed"] = float(max_ok)
    return metrics, rows


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.json.gz")


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict, deadline: float,
               record: bool = False) -> dict:
    workdir = os.path.join(HERE, "out", f"{workload}-s{seed}-p{os.getpid()}")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    if record:
        argv += ["--record", reference_path(workload)]
    elif seed == wl.DEFAULT_SEED:
        argv += ["--reference", reference_path(workload)]
    return last_json(run_child(argv, env, deadline - time.monotonic()), f"worker for {workload}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict,
                 deadline: float) -> tuple[dict, dict]:
    """Returns (result line, detail record)."""
    env = child_env()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if not trace:
        setups, setups_adjusted = setup_seconds(env, deadline)
        res = run_worker(workload, seed, seconds, 0, env, deadline)
        values = {k: res[k] for k in ("ops_per_s", "latency_ms_p50", "latency_ms_p90",
                                      "cpu_ms_per_op", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups_adjusted)
        detail = {k: res[k] for k in ("error_rate", "latency_samples", "tail_percentile", "latency_ms_tail",
                                      "calibration_ms")}
        detail["raw"] = dict(res["raw"], setup_s=statistics.median(setups))
        detail["setup_s_samples"] = setups
    else:
        res = run_worker(workload, seed, seconds, 1, env, deadline)
        values = dict(res["layers"])
        values.update(import_profile(env, deadline))
        sweep, rows = b_star_sweep(env, deadline)
        values.update(sweep)
        values["checks.readme_summary_example.accepted"] = float(
            res["readme_summary_example_exit_code"] not in (2, -1))
        detail = {"b_star_sweep": rows, "untraced": res["untraced"], "traced": res["traced"],
                  "trace_file": os.path.relpath(res["trace_file"], ROOT)}
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    detail.update({
        "workload": workload, "seed": seed, "machine": res["machine"],
        "distinct_ops": res["distinct_ops"], "problems": res["problems"],
        "readme_summary_example_exit_code": res["readme_summary_example_exit_code"],
    })
    line = {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return line, detail


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "dtameta", "cli.py")):
        print(f"error: no dtameta sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
            for name in names:
                out = run_worker(name, wl.DEFAULT_SEED, 0.0, 0, child_env(), start + RUN_LIMIT_S, record=True)
                print(json.dumps(out))
            return 0
        if args.workload != "all":
            line, detail = run_workload(args.workload, args.seed, args.seconds, args.trace, spec,
                                        start + RUN_LIMIT_S)
            print("detail: " + json.dumps(detail))
            print(json.dumps(line))
            return 0
        table = {}
        for name in wl.WORKLOADS:
            line, detail = run_workload(name, args.seed, args.seconds, args.trace, spec,
                                        time.monotonic() + RUN_LIMIT_S)
            table[name] = line
            metrics = dict(line["metrics"])
            if not args.trace:
                metrics["error_rate"] = {"value": detail["error_rate"], "unit": "ratio"}
            for metric, v in metrics.items():
                print(f"{name:16s} {metric:44s} {v['value']:14.6g} {v['unit']}")
            print(f"{name:16s} latency samples {detail.get('latency_samples')}, "
                  f"attempted {line['attempted']}, failed {line['failed']}, correct {line['correct']}")
        print(json.dumps(table))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
