"""Benchmark workloads: seeded inputs, the CLI invocations run on them, and output checks.

Every workload is a fixed list of CLI invocations (`Op`) that the timed
loop cycles through in order. Inputs depend only on the workload name and
the seed. The sizes that set the cost of an op (table sizes, replication
counts) are fixed per workload; the seed changes the data, the table order
and the Monte Carlo seeds, so runs with different seeds cost about the same.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("fit-typical", "fit-large-n", "simulate-grid", "validate-oracle")
DEFAULT_SEED = 0

# study counts of the fit-typical corpus: 5 to 40 with median 15, the usual
# size of a diagnostic-accuracy meta-analysis. Three tables per size, so the
# slowest REML fits that set the latency tail are not one table's luck.
TYPICAL_SIZES = (5, 7, 9, 11, 13, 14, 16, 18, 21, 25, 31, 40) * 3
# b_star is cubic in n; these sit on the large side of any size-based choice
LARGE_SIZES = (64, 128, 256)
# the README grid, run with a replication count small enough that a run of a
# few seconds holds tens of invocations
SIM_TAU2 = (0.2, 0.4)
SIM_RHO = (0.0, 0.4)
SIM_N = (8, 16)
SIM_REPS = 20
VALIDATE_PRESETS = ("homogeneous", "heterogeneous")
VALIDATE_REPS = 1000  # the smallest count mc_b_moments accepts
MC_SEEDS_PER_CYCLE = 4

REL_TOL = 1e-9
# numbers this close to zero are compared absolutely: a covariance entry that
# is zero up to rounding has no meaningful relative error
ABS_TOL = 1e-12


@dataclass
class Op:
    """One CLI invocation of a workload.

    outputs lists (path, check) pairs; path "-" is the captured stdout.
    units is how many workload ops the invocation counts for: 1 for a fit or
    region command, the number of replications for simulate and validate.
    params holds what the traced replay needs to repeat a Monte Carlo call.
    """

    key: str
    kind: str
    argv: list[str]
    outputs: list[tuple[str, str]]
    units: int = 1
    params: dict = field(default_factory=dict)


def _rng(name: str, seed: int) -> np.random.Generator:
    salt = WORKLOADS.index(name)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(salt,)))


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _true_logits(rng: np.random.Generator, n: int) -> np.ndarray:
    cov = np.array([[0.35, -0.08], [-0.08, 0.30]])
    return rng.multivariate_normal([1.4, 2.0], cov, size=n)


def count_rows(rng: np.random.Generator, n: int) -> list[tuple[int, int, int, int]]:
    """n 2x2 tables; the first has fn = 0 so the continuity correction runs."""
    mu = _true_logits(rng, n)
    n_dis = rng.integers(15, 90, size=n)
    n_hea = rng.integers(40, 250, size=n)
    tp = rng.binomial(n_dis, _expit(mu[:, 0]))
    tn = rng.binomial(n_hea, _expit(mu[:, 1]))
    tp[0] = n_dis[0]
    # keep every other cell positive so exactly the intended studies are corrected
    tn = np.minimum(np.maximum(tn, 1), n_hea - 1)
    tp[1:] = np.minimum(np.maximum(tp[1:], 1), n_dis[1:] - 1)
    fn, fp = n_dis - tp, n_hea - tn
    return [(int(a), int(b), int(c), int(d)) for a, b, c, d in zip(tp, fn, fp, tn)]


def summary_rows(rng: np.random.Generator, n: int) -> list[tuple[float, float, float, float]]:
    """n logit-scale summaries with delta-method-sized within-study variances."""
    mu = _true_logits(rng, n)
    n_dis = rng.integers(15, 90, size=n)
    n_hea = rng.integers(40, 250, size=n)
    p = _expit(mu)
    s = np.column_stack([1.0 / (n_dis * p[:, 0] * (1 - p[:, 0])), 1.0 / (n_hea * p[:, 1] * (1 - p[:, 1]))])
    y = mu + np.sqrt(s) * rng.standard_normal((n, 2))
    return [(float(a), float(b), float(c), float(d)) for (a, b), (c, d) in zip(y, s)]


def write_table(path: str, form: str, rows) -> None:
    if form == "counts":
        lines = ["id,tp,fn,fp,tn"] + [f"s{i + 1:03d},{a},{b},{c},{d}" for i, (a, b, c, d) in enumerate(rows)]
    else:
        lines = ["id,y_sens,y_spec,var_sens,var_spec"]
        lines += [f"s{i + 1:03d},{a!r},{b!r},{c!r},{d!r}" for i, (a, b, c, d) in enumerate(rows)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _mc_seeds(rng: np.random.Generator) -> list[int]:
    return [int(v) for v in rng.integers(0, 2**31, size=MC_SEEDS_PER_CYCLE)]


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's inputs under workdir and return its op cycle."""
    rng = _rng(name, seed)
    p = lambda f: os.path.join(workdir, f)  # noqa: E731
    ops: list[Op] = []
    if name == "fit-typical":
        # forms alternate by size rank, so both forms see the whole size range
        tables = [(n, "counts" if i % 2 == 0 else "summary") for i, n in enumerate(sorted(TYPICAL_SIZES))]
        order = rng.permutation(len(tables))
        for t, idx in enumerate(order):
            n, form = tables[idx]
            rows = count_rows(rng, n) if form == "counts" else summary_rows(rng, n)
            tab = p(f"t{t:02d}.csv")
            write_table(tab, form, rows)
            tag = f"t{t:02d}"
            ops.append(Op(f"{tag}.moment", "fit-moment",
                          ["fit", "--input", tab, "--estimator", "moment",
                           "--json", p(f"{tag}.moment.json"), "--svg", p(f"{tag}.svg")],
                          [(p(f"{tag}.moment.json"), "fit-json"), (p(f"{tag}.svg"), "svg")]))
            ops.append(Op(f"{tag}.both", "fit-both",
                          ["fit", "--input", tab, "--estimator", "both", "--json", p(f"{tag}.both.json")],
                          [(p(f"{tag}.both.json"), "fit-json")]))
            ops.append(Op(f"{tag}.region", "region",
                          ["region", "--input", tab, "--method", "ccr", "--space", "roc",
                           "--out", p(f"{tag}.region.csv")],
                          [(p(f"{tag}.region.csv"), "region-csv")]))
    elif name == "fit-large-n":
        for n in LARGE_SIZES:
            tab = p(f"n{n}.csv")
            write_table(tab, "summary", summary_rows(rng, n))
            ops.append(Op(f"n{n}.moment", "fit-large",
                          ["fit", "--input", tab, "--estimator", "moment", "--json", p(f"n{n}.json")],
                          [(p(f"n{n}.json"), "fit-json")]))
    elif name == "simulate-grid":
        grid = ["--tau2", _csv(SIM_TAU2), "--rho", _csv(SIM_RHO), "--n", _csv(SIM_N)]
        scenarios = len(SIM_TAU2) * len(SIM_RHO) * len(SIM_N)
        for k, s in enumerate(_mc_seeds(rng)):
            ops.append(Op(f"sim{k}", "simulate",
                          ["simulate", *grid, "--reps", str(SIM_REPS), "--seed", str(s)],
                          [("-", "grid-csv")], units=scenarios * SIM_REPS,
                          params={"seed": s, "reps": SIM_REPS}))
    elif name == "validate-oracle":
        for k, s in enumerate(_mc_seeds(rng)):
            for preset in VALIDATE_PRESETS:
                ops.append(Op(f"{preset}{k}", "validate",
                              ["validate", "--preset", preset, "--reps", str(VALIDATE_REPS), "--seed", str(s)],
                              [("-", "validate-text")], units=VALIDATE_REPS,
                              params={"seed": s, "reps": VALIDATE_REPS, "preset": preset}))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


# ---------------------------------------------------------------------------
# outputs


def digest(code, texts: list[str]) -> str:
    h = hashlib.sha256(repr(code).encode())
    for t in texts:
        h.update(b"\0")
        h.update(t.encode())
    return h.hexdigest()


def expected_code(op: Op, texts: list[str]) -> set[int]:
    """Exit codes that are correct output for op, given what it printed.

    validate exits 1 on a FAIL verdict, which the live presets can reach at
    any replication count; that is expected output when the printed verdict
    says FAIL. Every other op must exit 0.
    """
    if op.kind != "validate":
        return {0}
    lines = texts[0].strip().splitlines() if texts else []
    verdict = lines[-1] if lines else ""
    return {0} if verdict == "PASS" else {1} if verdict == "FAIL" else set()


def op_failed(op: Op, code, texts: list[str], first_digest: str | None, first_ok: bool) -> bool:
    """An op fails if it raised (code None), exited with an unexpected code,
    printed something other than the first run of the same input, or that
    first run failed its output check."""
    if code is None or code not in expected_code(op, texts):
        return True
    if not first_ok:
        return True
    return first_digest is not None and digest(code, texts) != first_digest


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def same_numbers(a, b, where: str = "") -> str | None:
    """Compare two parsed JSON values; numbers within tolerance, all else exactly.

    Returns None when they agree, else a description of the first difference.
    """
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return None if a == b else f"{where}: {a!r} != {b!r}"
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return None if _close(float(a), float(b)) else f"{where}: {a!r} != {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{where}: keys {list(a)} != {list(b)}"
        for k in a:
            diff = same_numbers(a[k], b[k], f"{where}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = same_numbers(x, y, f"{where}[{i}]")
            if diff:
                return diff
        return None
    return f"{where}: {type(a).__name__} != {type(b).__name__}"


def _csv_rows(text: str) -> list[list[str]]:
    return [r for r in csv.reader(io.StringIO(text)) if r]


def _parse_region(text: str):
    rows = _csv_rows(text)
    return {"header": rows[0], "points": [[float(u), float(v)] for u, v in rows[1:]]}


def _parse_grid(text: str):
    """Grid CSV with coverages turned back into hit counts, which must match exactly."""
    rows = _csv_rows(text)
    header = rows[0]
    out = []
    for r in rows[1:]:
        rec = dict(zip(header, r))
        reps = int(rec["reps"])
        out.append({
            "scenario": [rec["tau2"], rec["rho"], rec["n"], rec["reps"], rec["alpha"]],
            "hits_ncr": str(round(float(rec["coverage_ncr"]) * reps)),
            "hits_ccr": str(round(float(rec["coverage_ccr"]) * reps)),
            "median_h": float(rec["median_h"]),
            "mean_i2": float(rec["mean_i2"]),
            "mc_se": float(rec["mc_se"]),
        })
    return {"header": header, "rows": out}


_VALIDATE_LINE = re.compile(
    r"^(b[123]): analytic=(\S+) mc=(\S+) se=(\S+) \|diff\|=(\S+) tol=(\S+) (PASS|FAIL)$"
)


def _parse_validate(text: str):
    lines = text.strip().splitlines()
    comps = []
    for line in lines[1:-1]:
        m = _VALIDATE_LINE.match(line)
        if m is None:
            raise ValueError(f"unexpected validate line {line!r}")
        name, ana, mc, se, diff, tol, verdict = m.groups()
        comps.append({"name": name, "analytic": float(ana), "mc": float(mc), "se": float(se),
                      "diff": float(diff), "tol": float(tol), "verdict": verdict})
    if len(comps) != 3:
        raise ValueError("validate printed fewer than three components")
    return {"header": lines[0], "components": comps, "verdict": lines[-1]}


PARSERS = {
    "fit-json": json.loads,
    "region-csv": _parse_region,
    "grid-csv": _parse_grid,
    "validate-text": _parse_validate,
}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def check_outputs(op: Op, code, texts: list[str], reference: dict | None) -> str | None:
    """Check one invocation's outputs; returns None when correct, else why not.

    Every output must parse and hold only finite numbers. With a reference
    (recorded for the default seed) the exit code must equal the recorded
    one and each parsed output must match it within REL_TOL.
    """
    if code is None:
        return "raised"
    if code not in expected_code(op, texts):
        return f"exit code {code}"
    for (_, check), text in zip(op.outputs, texts):
        if check not in PARSERS:
            continue
        try:
            parsed = PARSERS[check](text)
        except (ValueError, KeyError, IndexError) as exc:
            return f"{check} does not parse: {exc}"
        if not _finite(parsed):
            return f"{check} holds a non-finite number"
    if reference is None:
        return None
    ref = reference.get(op.key)
    if ref is None:
        return "no reference output"
    if code != ref["code"]:
        return f"exit code {code}, reference {ref['code']}"
    ref_texts = iter(ref["outputs"])
    for (_, check), text in zip(op.outputs, texts):
        if check not in PARSERS:
            continue
        diff = same_numbers(PARSERS[check](text), PARSERS[check](next(ref_texts)), check)
        if diff:
            return f"differs from reference at {diff}"
    return None


def reference_entry(op: Op, code, texts: list[str]) -> dict:
    return {"code": code, "outputs": [t for (_, check), t in zip(op.outputs, texts) if check in PARSERS]}
