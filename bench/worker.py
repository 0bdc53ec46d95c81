"""Run one workload in this process and print its result as one JSON line.

run.py starts this script with PYTHONPATH set to the checkout's src/ and the
BLAS and OpenMP thread variables capped at nproc. It is one closed-loop
client: each CLI invocation starts after the previous one returns.

Flow: build the seeded inputs; run every distinct invocation once untimed
and check its output (against the recorded reference for the default
seed); then cycle through the invocations until --seconds have passed,
stopping at the end of a cycle. Each timed invocation must reproduce its
first run bit for bit. Times are also reported adjusted by calibrate.py for
the machine's speed drift. With --trace 1 untraced and traced cycles alternate,
so the two give the tracing overhead; the Monte Carlo workloads then replay
seeded replications through the public functions.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings

import numpy as np

import calibrate
import spans as sp
import workloads as wl

MC_STAGES = {
    "simlab.gen_dataset": "gen_dataset",
    "oracle.rep_stream": "rep_stream",
    "model.Dataset.arrays": "model_arrays",
    "estimators.bias_corrected_sigma": "bias_corrected_sigma",
    "estimators.gls_beta": "gls_beta",
    "estimators.v_matrix": "v_matrix",
    "regions.b_star": "b_star",
    "regions.h_adjust": "h_adjust",
}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPLAY_ROOT = "bench.replay_rep"
PROBE_REPS = 100  # the smallest count mc_coverage accepts


def machine_record() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_program():
    import dtameta
    import dtameta.cli

    want = os.path.realpath(os.path.join(ROOT, "src", "dtameta"))
    got = os.path.realpath(os.path.dirname(dtameta.__file__))
    if got != want:
        raise SystemExit(f"imported dtameta from {got}, expected {want}")
    return dtameta


def run_op(cli, op: wl.Op):
    """Invoke the CLI once; returns (exit code or None if it raised, output texts, wall ns, cpu ns, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc()
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
    texts = []
    for path, _ in op.outputs:
        if path == "-":
            texts.append(out.getvalue())
        else:
            try:
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
            except OSError:
                texts.append("")
    return code, texts, t1 - t0, c1 - c0, err.getvalue()


def warm_up(cli, ops, reference):
    """First, untimed run of every distinct op, with its output check."""
    first, problems = {}, []
    for op in ops:
        code, texts, _, _, err = run_op(cli, op)
        why = wl.check_outputs(op, code, texts, reference)
        first[op.key] = {"digest": wl.digest(code, texts), "ok": why is None, "code": code, "texts": texts}
        if why:
            problems.append(f"{op.key}: {why} {err.strip()[-300:]}")
    return first, problems


class Pass:
    """Per-invocation records of one timed pass, in execution order."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.units: list[int] = []
        self.wall_ns: list[int] = []
        self.cpu_ns: list[int] = []
        self.cal_ns: list[float] = []  # the calibration in force when each invocation ran
        self.cal_taken = float("-inf")  # perf_counter when the last calibration was taken
        self.recent_cal: list[float] = []  # the last CAL_WINDOW calibrations, in ns
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_cycle(cli, ops, first: dict, p: Pass, tracer: sp.Tracer | None = None) -> None:
    """Run every op once, in order, recording each invocation in p."""
    for op in ops:
        if time.perf_counter() - p.cal_taken >= calibrate.CAL_INTERVAL_S:
            p.cal_taken = time.perf_counter()
            p.recent_cal = (p.recent_cal + [calibrate.calibration_ns()])[-calibrate.CAL_WINDOW:]
        if tracer is not None:
            tracer.op_kind = op.kind
        code, texts, wall, cpu, err = run_op(cli, op)
        ref = first[op.key]
        if wl.op_failed(op, code, texts, ref["digest"], ref["ok"]):
            p.failed += op.units
            if len(p.problems) < 5:
                p.problems.append(f"{op.key}: exit {code} {err.strip()[-200:]}")
        p.attempted += op.units
        p.kinds.append(op.kind)
        p.units.append(op.units)
        p.wall_ns.append(wall)
        p.cpu_ns.append(cpu)
        p.cal_ns.append(statistics.median(p.recent_cal))
    if tracer is not None:
        tracer.op_kind = ""


def timed_loop(cli, ops, seconds: float, first: dict) -> Pass:
    """Whole cycles until `seconds` have passed."""
    p = Pass()
    start = time.perf_counter()
    while True:
        run_cycle(cli, ops, first, p)
        if time.perf_counter() - start >= seconds:
            return p


def traced_loop(cli, ops, seconds: float, first: dict, tracer: sp.Tracer, modules, targets) -> tuple[Pass, Pass]:
    """Untraced and traced cycles in turn until `seconds` have passed.

    Alternating cycles expose both passes to the same changes in machine
    speed, so their difference is the tracing overhead.
    """
    untraced, traced = Pass(), Pass()
    start = time.perf_counter()
    while True:
        run_cycle(cli, ops, first, untraced)
        restore = sp.instrument(tracer, modules, targets)
        try:
            run_cycle(cli, ops, first, traced, tracer)
        finally:
            restore()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the sample at or below it."""
    if not values:
        raise ValueError("empty sample")
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return float(s[int(rank) - 1])


def tail_percentile(count: int, candidates=(50, 75, 90, 95, 99, 99.9)) -> float | None:
    """Highest candidate percentile with at least ten samples beyond its nearest rank."""
    best = None
    for q in candidates:
        rank = max(1, -(-count * q // 100))
        if count - rank >= 10:
            best = q
    return best


def invocation_times(p: Pass, adjust: bool = True) -> tuple[list[float], list[float]]:
    """(wall ns, cpu ns) of every invocation of the pass.

    With adjust, each time is scaled to the reference machine speed by the
    calibration in force when it ran.
    """
    f = [calibrate.CAL_REFERENCE_NS / cal if adjust else 1.0 for cal in p.cal_ns]
    return [w * k for w, k in zip(p.wall_ns, f)], [c * k for c, k in zip(p.cpu_ns, f)]


def end_to_end(p: Pass, adjust: bool = True) -> dict:
    """Throughput, CPU and latency over every invocation of the pass.

    latency_ms_p50/p90 are nearest-rank percentiles over all invocations;
    the tail is reported at the highest percentile with ten samples beyond it.
    """
    wall, cpu = invocation_times(p, adjust)
    units = sum(p.units)
    lat_ms = [w / 1e6 for w in wall]
    tail = tail_percentile(len(lat_ms))
    return {
        "ops_per_s": units / (sum(wall) / 1e9),
        "latency_ms_p50": percentile(lat_ms, 50),
        "latency_ms_p90": percentile(lat_ms, 90),
        "cpu_ms_per_op": sum(cpu) / 1e6 / units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": wl.error_rate(p.attempted, p.failed),
        "latency_samples": len(lat_ms),
        "tail_percentile": tail,
        "latency_ms_tail": percentile(lat_ms, tail) if tail is not None else None,
        "calibration_ms": statistics.median(p.cal_ns) / 1e6,
    }


# ---------------------------------------------------------------------------
# tracing


def trace_targets(dt):
    from dtameta import cli, estimators, model, oracle, regions, simlab, transforms

    def b_bucket(d, *args, **kwargs):
        n = d.n
        return "@n<=16" if n <= 16 else "@n<=64" if n <= 64 else "@n<=256" if n <= 256 else "@n>256"

    def undefined(tracer, args, kwargs, h):
        tracer.counters["regions.h_adjust.undefined"] += 1.0 + h <= 0.0

    def reps(name):
        def observe(tracer, args, kwargs, result):
            tracer.counters[name + ".reps"] += args[0].reps
        return observe

    modules = [dt, cli, estimators, model, oracle, regions, simlab, transforms]
    targets = [
        (cli, "main", "cli.main", {}),
        (cli, "read_table", "cli.read_table", {}),
        (transforms, "summarize_counts", "transforms.summarize_counts", {}),
        (transforms, "sroc_curve", "transforms.sroc_curve", {}),
        (transforms, "to_roc_space", "transforms.to_roc_space", {}),
        (estimators, "bias_corrected_sigma", "estimators.bias_corrected_sigma", {"count_warnings": True}),
        (estimators, "gls_beta", "estimators.gls_beta", {}),
        (estimators, "v_matrix", "estimators.v_matrix", {}),
        (estimators, "reml_sigma", "estimators.reml_sigma", {"count_warnings": True}),
        (regions, "confidence_region", "regions.confidence_region", {}),
        (regions, "b_star", "regions.b_star", {"suffix": b_bucket}),
        (regions, "h_adjust", "regions.h_adjust", {"count_warnings": True, "observe": undefined}),
        (regions, "region_boundary", "regions.region_boundary", {}),
        (simlab, "run_grid", "simlab.run_grid", {}),
        (simlab, "gen_dataset", "simlab.gen_dataset", {}),
        (oracle, "rep_stream", "oracle.rep_stream", {}),
        (oracle, "mc_b_moments", "oracle.mc_b_moments", {"observe": reps("oracle.mc_b_moments")}),
        (oracle, "mc_coverage", "oracle.mc_coverage", {"observe": reps("oracle.mc_coverage")}),
        (model.Dataset, "arrays", "model.Dataset.arrays", {}),
    ]
    return modules, targets


def replay_simulate(tracer: sp.Tracer, op: wl.Op) -> None:
    """Replay one simulate invocation's replications through the public functions."""
    from dtameta import estimators, regions, simlab

    combos = [(t, r, n) for t in wl.SIM_TAU2 for r in wl.SIM_RHO for n in wl.SIM_N]
    # the same per-scenario seeds cmd_simulate derives from its --seed
    child = np.random.SeedSequence(op.params["seed"]).generate_state(len(combos), np.uint64)
    x = regions.chi2_quantile(0.05, 2)
    for (t, r, n), s in zip(combos, child):
        sc = simlab.Scenario(tau2=t, rho=r, n=n, reps=op.params["reps"], alpha=0.05, seed=int(s))
        for rep in range(sc.reps):
            with tracer.span(REPLAY_ROOT):
                d = simlab.gen_dataset(sc, rep)
                sigma = estimators.bias_corrected_sigma(d)
                estimators.gls_beta(d, sigma)
                regions.h_adjust(regions.b_star(d, sigma), 2, x)


def replay_validate(dt, tracer: sp.Tracer, op: wl.Op) -> None:
    """Replay one validate invocation's replications through the public functions.

    The coloured draw is private to the oracle, so the replay repeats it
    here; its time and the Dataset construction count as unattributed.
    """
    from dtameta import cli, estimators, oracle

    cfg, _, _ = cli.validation_preset(op.params["preset"], op.params["reps"], op.params["seed"])
    s = cfg.s_array()
    d = np.broadcast_to(cfg.sigma_true.as_array(), (cfg.n, 2, 2)).copy()
    d[:, 0, 0] += s[:, 0]
    d[:, 1, 1] += s[:, 1]
    chol = np.linalg.cholesky(d)
    for rep in range(cfg.reps):
        with tracer.span(REPLAY_ROOT):
            rng = oracle.rep_stream(cfg.seed, rep)
            y = np.einsum("iab,ib->ia", chol, rng.standard_normal((cfg.n, 2)))
            data = dt.Dataset(dt.Study(y[i, 0], y[i, 1], s[i, 0], s[i, 1]) for i in range(cfg.n))
            estimators.v_matrix(data, estimators.bias_corrected_sigma(data))


def probe_mc_coverage(op: wl.Op) -> None:
    from dtameta import cli, oracle

    cfg, _, _ = cli.validation_preset(op.params["preset"], PROBE_REPS, op.params["seed"])
    oracle.mc_coverage(cfg, "ccr", 0.05)


def layer_metrics(tracer: sp.Tracer, untraced: Pass, traced: Pass) -> dict:
    spans = tracer.spans
    counters = tracer.counters
    every = sp.summarize(spans)

    def calls(name):
        return every.get(name, (0, 0, 0))[0]

    def per_call(name, scale):
        c, total, _ = every.get(name, (0, 0, 0))
        return total / c / scale if c else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    ops_spans = sp.summarize(spans, [s[sp.PHASE] == "ops" for s in spans])
    mains, _, main_self = ops_spans.get("cli.main", (0, 0, 0))
    m["cli.main.self_ms_per_op"] = ratio(main_self, mains) / 1e6
    m["cli.read_table.us_per_call"] = per_call("cli.read_table", 1e3)
    for f in ("summarize_counts", "sroc_curve", "to_roc_space"):
        m[f"transforms.{f}.us_per_call"] = per_call(f"transforms.{f}", 1e3)
    for f in ("bias_corrected_sigma", "gls_beta", "v_matrix"):
        m[f"estimators.{f}.us_per_call"] = per_call(f"estimators.{f}", 1e3)
    m["estimators.reml_sigma.ms_per_call"] = per_call("estimators.reml_sigma", 1e6)
    m["estimators.reml_sigma.calls"] = calls("estimators.reml_sigma")
    m["estimators.reml.nonconverged_ratio"] = ratio(
        counters["warning.estimators.reml_sigma.RemlConvergenceWarning"], calls("estimators.reml_sigma"))
    m["estimators.bias_corrected_sigma.calls"] = calls("estimators.bias_corrected_sigma")
    m["estimators.psd_clamped_ratio"] = ratio(
        counters["warning.estimators.bias_corrected_sigma.PsdProjectionWarning"],
        calls("estimators.bias_corrected_sigma"))

    fit_ops = sum(1 for k in traced.kinds if k.startswith("fit"))
    fit_regions = sum(1 for s in spans if s[sp.PHASE] == "ops" and s[sp.KIND].startswith("fit")
                      and s[sp.NAME] == "regions.confidence_region")
    m["regions.confidence_region.calls_per_fit"] = ratio(fit_regions, fit_ops)
    for bucket, label in (("n<=16", "n_le_16"), ("n<=64", "n_17_64"), ("n<=256", "n_65_256")):
        m[f"regions.b_star.ms_per_call.{label}"] = per_call(f"regions.b_star@{bucket}", 1e6)
    m["regions.h_adjust.us_per_call"] = per_call("regions.h_adjust", 1e3)
    m["regions.region_boundary.us_per_call"] = per_call("regions.region_boundary", 1e3)
    h_calls = calls("regions.h_adjust")
    m["regions.h_adjust.calls"] = h_calls
    m["regions.h_adjust.abs_h_gt1_ratio"] = ratio(
        counters["warning.regions.h_adjust.AdjustmentMagnitudeWarning"], h_calls)
    m["regions.h_adjust.region_undefined_ratio"] = ratio(counters["regions.h_adjust.undefined"], h_calls)

    m["simlab.gen_dataset.us_per_rep"] = per_call("simlab.gen_dataset", 1e3)
    m["model.Dataset.arrays.us_per_call"] = per_call("model.Dataset.arrays", 1e3)
    m["oracle.rep_stream.us_per_call"] = per_call("oracle.rep_stream", 1e3)
    for f in ("mc_b_moments", "mc_coverage"):
        m[f"oracle.{f}.us_per_rep"] = ratio(every.get(f"oracle.{f}", (0, 0, 0))[1],
                                           counters[f"oracle.{f}.reps"]) / 1e3

    # only spans inside a replayed replication: preset set-up also runs in this phase
    in_rep: list[bool] = []
    for name, parent, *_ in spans:
        in_rep.append(in_rep[parent] if parent >= 0 else name == REPLAY_ROOT)
    replay = sp.summarize(spans, [keep and s[sp.PHASE] == "replay" for s, keep in zip(spans, in_rep)])
    reps, replay_ns, root_self = replay.get(REPLAY_ROOT, (0, 0, 0))
    m["mc.replay.reps"] = reps
    m["mc.replay.us_per_rep"] = ratio(replay_ns, reps) / 1e3
    stage_self = dict.fromkeys(MC_STAGES.values(), 0)
    for name, (_, _, self_ns) in replay.items():
        stage = MC_STAGES.get(sp.base_name(name))
        if stage is not None:
            stage_self[stage] += self_ns
    for stage, self_ns in stage_self.items():
        m[f"mc.replay.share.{stage}"] = ratio(self_ns, replay_ns)
    m["mc.replay.share.unattributed"] = ratio(root_self, replay_ns)

    # raw times: the passes alternate cycle by cycle, so drift already cancels,
    # and the few calibrations per pass would only add their own noise
    u_ops = end_to_end(untraced, adjust=False)["ops_per_s"]
    t_ops = end_to_end(traced, adjust=False)["ops_per_s"]
    m["trace.untraced_ops_per_s"] = u_ops
    m["trace.traced_ops_per_s"] = t_ops
    m["trace.overhead_pct"] = (u_ops / t_ops - 1.0) * 100.0

    b_self = sum(row[2] for name, row in ops_spans.items() if sp.base_name(name) == "regions.b_star")
    m["trace.b_star.self_share_of_wall"] = ratio(b_self, sum(traced.wall_ns))
    moment = sp.summarize(spans, [s[sp.PHASE] == "ops" and s[sp.KIND] == "fit-moment" for s in spans])
    moment_wall = sum(w for w, k in zip(traced.wall_ns, traced.kinds) if k == "fit-moment")
    by_base: dict[str, int] = {}
    for name, (_, _, self_ns) in moment.items():
        by_base[sp.base_name(name)] = by_base.get(sp.base_name(name), 0) + self_ns
    main_moment = by_base.get("cli.main", 0)
    m["trace.fit_moment.cli_main_self_share"] = ratio(main_moment, moment_wall)
    m["trace.fit_moment.cli_main_is_largest"] = float(bool(by_base) and main_moment == max(by_base.values()))
    return {k: float(v) for k, v in m.items()}


def readme_check(cli, workdir: str) -> int:
    """Exit code of `fit` on the README's summary-form example; -1 if the README has none."""
    try:
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return -1
    m = re.search(r"```csv\n(id,logit_sens[^`]*)```", text)
    if m is None:
        return -1
    path = os.path.join(workdir, "readme_summary.csv")
    with open(path, "w") as fh:
        fh.write(m.group(1))
    op = wl.Op("readme", "readme", ["fit", "--input", path, "--json", path + ".json"], [])
    code, _, _, _, _ = run_op(cli, op)
    return -1 if code is None else code


def write_trace(path: str, tracer: sp.Tracer, machine: dict, metrics: dict) -> None:
    spans = tracer.spans
    names = sorted({s[sp.NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "machine": machine,
        "metrics": metrics,
        "counters": dict(tracer.counters),
        "fields": ["name", "parent", "start_ns", "end_ns", "phase", "op_kind"],
        "names": names,
        "spans": [[index[s[0]], *s[1:]] for s in spans],
    }
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--reference", default=None, help="reference file to check against")
    ap.add_argument("--record", default=None, help="write the first-run outputs here and stop")
    args = ap.parse_args()

    dt = load_program()
    cli = dt.cli
    machine = machine_record()
    os.makedirs(args.workdir, exist_ok=True)
    try:
        ops = wl.build(args.workload, args.seed, args.workdir)
        reference = None
        if args.reference is not None:
            with gzip.open(args.reference, "rt") as fh:
                reference = json.load(fh)["ops"]
        first, problems = warm_up(cli, ops, reference)
        if args.record is not None:
            doc = {"workload": args.workload, "seed": args.seed,
                   "ops": {op.key: wl.reference_entry(op, first[op.key]["code"], first[op.key]["texts"])
                           for op in ops}}
            os.makedirs(os.path.dirname(args.record), exist_ok=True)
            with gzip.open(args.record, "wt", compresslevel=9) as fh:
                json.dump(doc, fh, separators=(",", ":"))
            print(json.dumps({"recorded": args.record, "problems": problems}))
            return 0

        result = {"machine": machine, "warmup_problems": problems, "workload": args.workload,
                  "seed": args.seed, "distinct_ops": len(ops)}
        if not args.trace:
            p = timed_loop(cli, ops, args.seconds, first)
            result.update(end_to_end(p))
            result["raw"] = end_to_end(p, adjust=False)
            passes = [p]
        else:
            tracer = sp.Tracer()
            modules, targets = trace_targets(dt)
            tracer.phase = "ops"
            untraced, traced = traced_loop(cli, ops, args.seconds, first, tracer, modules, targets)
            restore = sp.instrument(tracer, modules, targets)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    tracer.phase = "replay"
                    if args.workload == "simulate-grid":
                        replay_simulate(tracer, ops[0])
                    elif args.workload == "validate-oracle":
                        for op in ops[: len(wl.VALIDATE_PRESETS)]:
                            replay_validate(dt, tracer, op)
                        tracer.phase = "probe"
                        for op in ops[: len(wl.VALIDATE_PRESETS)]:
                            probe_mc_coverage(op)
            finally:
                restore()
            result["layers"] = layer_metrics(tracer, untraced, traced)
            result["untraced"] = end_to_end(untraced, adjust=False)
            result["traced"] = end_to_end(traced, adjust=False)
            passes = [untraced, traced]
            trace_path = os.path.join(os.path.dirname(args.workdir),
                                      f"trace-{args.workload}-s{args.seed}.json.gz")
            write_trace(trace_path, tracer, machine, result["layers"])
            result["trace_file"] = trace_path
        result["attempted"] = sum(p.attempted for p in passes)
        result["failed"] = sum(p.failed for p in passes)
        result["problems"] = problems + [x for p in passes for x in p.problems]
        result["readme_summary_example_exit_code"] = readme_check(cli, args.workdir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
