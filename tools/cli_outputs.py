"""Run a fixed list of dtameta commands on one source tree and save what each produces.

Usage:

    python3 tools/cli_outputs.py SRC OUTDIR

SRC is a directory holding the dtameta package, such as a checkout's src/.
Each command runs in a fresh interpreter with PYTHONPATH=SRC and with
OUTDIR/<name> as its working directory, where it writes its output files;
its stdout, stderr and exit code are saved beside them. The input tables are
this checkout's tests/fixtures/*.csv for every SRC, so two runs differ only
in the code they load. The commands:

- fit (moment, reml and both, with --json and --svg) and region (ncr and
  ccr, in logit and ROC space) on synthetic14.csv;
- fit --svg, fit --estimator both and region --space roc on identical.csv
  (equal studies: the covariance clamp fires, the SROC curve is omitted and
  REML exits 2) and on saturated.csv (logits beyond +-40, where the ROC
  coordinates round to exactly 1); fit --svg also on special_ids.csv, whose
  ids hold &, <, >, " and '; fit --json on rank_one_precise.csv, eight
  studies with variances near 5e-6 whose moment fit clamps to rank one, so
  the largest cond(D_i) is about 3e5 and the trace terms are ill-conditioned;
  fit --json --svg and region --space roc on collinear_shape.csv and
  collinear_lapack.csv, three collinear studies each whose region shape V
  passes the positive-definiteness rule by a hair (a closed-form smaller
  eigenvalue, or LAPACK's Cholesky, would refuse it), and fit --estimator
  both on each (REML's start is refused on the first, and its objective meets
  a singular summed precision on the second); fit --estimator both --json on
  huge_logits.csv (logits near 1e76, where REML's objective meets overflow)
  and on tiny_variances.csv (variances near 1e-160, where the squared
  inverse-variance weights of I^2 would overflow);
- simulate on the README grid and on an edge grid (tau2 = 0, n = 2 and 3),
  on tau2 = 1e16 with n = 2 (the clamped rank-one estimate makes some D_i
  round to singular, so it exits 2), and validate on each preset at seeds 0
  and 1;
- snippets: mc_coverage and mc_b_moments on the presets, and on a rank-one
  truth whose D_i pass the positive-definiteness rule but whose first D_i
  LAPACK's Cholesky refuses (each prints its result or its error);
  mc_coverage ncr and ccr on a rank-one truth where a D_i of replication 1
  and the summed precision A of replication 46 round to singular (each
  prints the first error met), and gls_beta, b_star and v_matrix on a
  one-study table whose A passes the rule but whose V = A^{-1} rounds to
  singular (each prints its result or its error); pd_overflow, the
  region boundary of a shape Sym2(1e200, 0, 1e200) and mc_coverage and
  mc_b_moments on the truth Sym2(1e300, 0, 1e300), whose determinants
  overflow to inf (each prints its result or its error); mc_one_study,
  mc_coverage ncr and ccr and mc_b_moments on a one-study design, which the
  moment fit refuses (each prints its result or its error);
  region_nonfinite_threshold, the region boundary at a NaN and at an infinite
  threshold (each prints its result or its error); lab_vs_fit, the repr of
  the clamped covariance and of h from the Monte Carlo replication fit
  (regions._rep_fit) and from confidence_region on the first table of the
  default_rng(7) recipe of tests/test_regions.py whose clamp rebuilds the
  covariance from eigh, so a difference between the two fits shows;
  large_n, the repr of confidence_region's covariance, pooled mean, V and h
  on a seeded table of 1024 studies built in the snippet through the public
  API, where a change in the order the studies are summed shows;
  reml_sigma on the fixture, 40 seeded tables and 15 near-boundary ones
  (tau2 = 0 at n = 3 and 5, correlation 0.999), also capped at max_iter 2, 5
  and 40 with each warning's full text; float.hex of every coordinate that
  to_roc_space and sroc_curve return on fixed inputs, row by row, so it runs
  on any return type that iterates as rows of two numbers; and namespace,
  the sorted dtameta.__all__, the sorted public names of dir(dtameta), and
  name + inspect.signature of every callable in dtameta.__all__ and
  dtameta.cli.__all__ but the exception classes, each exported class followed
  by its public methods, so the check also covers the package's API down to
  each parameter;
- thirteen bad-input commands, each meant to exit 2: a short row
  (short_row.csv), a non-integer count (bad_count.csv), a missing input, an
  unwritable --json, validate --reps 999, simulate --rho 1, simulate
  --reps 0, region --points 2, fit --alpha 2, fit --json out --svg out,
  validate --seed -1, DTA_SEED=x (a snippet, since every command runs with
  DTA_SEED unset) and error_output_is_input, a snippet that copies
  synthetic14.csv into its own working directory and runs fit --input and
  --json on that copy, so a tree that lets an output replace its input
  overwrites the copy and never a fixture;
- two output snippets, each run in its own working directory: output_to_fifo
  makes a FIFO there and output_through_symlink a symlink to a file there
  holding "stale"; each runs fit --json onto it and prints the exit code,
  whether the FIFO or the link survived, and the first line of the file it
  names (the FIFO is read only if it became a regular file, and is removed
  at the end).

Occurrences of the SRC path in the captured text are replaced by the literal
"$SRC". A change that should keep every output byte-identical is checked by
running each tree's own copy of this script on that tree, since the snippets
call the API of the tree they belong to, and comparing:

    python3 /path/to/parent/tools/cli_outputs.py /path/to/parent/src /tmp/before
    python3 tools/cli_outputs.py src /tmp/after
    diff -r /tmp/before /tmp/after

An empty diff is the whole check. Floats printed by the Python snippets use
repr or float.hex, so equal text means equal bits.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
FIXTURE = str(FIXTURES / "synthetic14.csv")

_MC_COVERAGE = """
from dtameta.cli import validation_preset
from dtameta.oracle import mc_coverage
cfg, _, _ = validation_preset({preset!r}, 3000, 5)
print(*(repr(float(v)) for v in mc_coverage(cfg, {method!r})))
"""

_MC_B_MOMENTS = """
from dtameta.cli import validation_preset
from dtameta.oracle import mc_b_moments
cfg, _, _ = validation_preset({preset!r}, 2000, 0)
print(repr(mc_b_moments(cfg)))
"""

_RANK_ONE_TRUTH = """
from dtameta import OracleConfig, Sym2, mc_b_moments, mc_coverage
sigma = Sym2(7.271121008453897e17, -9.191167182965154e16, 1.161822971822313e16)
s = ((0.004978732110473153, 0.2544730154631358), (0.5896448087486738, 0.006286237960711253),
     (0.04138121356739469, 0.021294060661170462), (0.6209433036483197, 0.001322915587268277))
cfg = OracleConfig(sigma_true=sigma, within_vars=s, reps=1000, seed=0)
for name, run in [("mc_coverage_ncr", lambda: mc_coverage(cfg, "ncr")),
                  ("mc_coverage_ccr", lambda: mc_coverage(cfg, "ccr")),
                  ("mc_b_moments", lambda: mc_b_moments(cfg))]:
    try:
        print(name, repr(run()))
    except ValueError as exc:
        print(name, type(exc).__name__, exc)
"""

_SINGULAR_A_TRUTH = """
from dtameta import OracleConfig, Sym2, mc_coverage
sigma = Sym2(411242653809478.8, 127270022277840.95, 39387107394035.56)
s = ((0.07250840085041983, 0.2604907992106054), (0.027343258573638195, 0.03825679791142379))
cfg = OracleConfig(sigma_true=sigma, within_vars=s, reps=100, seed=0)
for method in ("ncr", "ccr"):
    try:
        print(method, repr(mc_coverage(cfg, method)))
    except ValueError as exc:
        print(method, type(exc).__name__, exc)
"""

# table 7 of recipe_tables in tests/test_regions.py: eigh's rebuild of its
# clamped covariance has off-diagonals that differ in the last bit
_LAB_VS_FIT = """
import warnings
import numpy as np
from dtameta import Dataset, Study, chi2_quantile, confidence_region
from dtameta.estimators import _moment_bc_array, _psd_clamp
from dtameta.regions import _rep_fit
rng = np.random.default_rng(7)
for _ in range(8):
    n = int(rng.integers(3, 30))
    tau2, rho = rng.uniform(0, 0.6), rng.uniform(-0.9, 0.9)
    s = rng.uniform(0.02, 0.5, (n, 2))
    sigma = tau2 * np.array([[1.0, rho], [rho, 1.0]])
    y = rng.multivariate_normal([0, 0], sigma, n) + np.sqrt(s) * rng.standard_normal((n, 2))
lab_sigma = _psd_clamp(_moment_bc_array(y[None], s[None]))[0][0]
_, lab_h = _rep_fit(y[None], s[None], chi2_quantile(0.05))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    _, fit = confidence_region(Dataset(Study(*y[i], *s[i]) for i in range(n)), "ccr")
print("lab", *(repr(float(v)) for v in lab_sigma.ravel()), repr(float(lab_h[0])))
print("fit", *(repr(v) for v in (fit.sigma.a11, fit.sigma.a12, fit.sigma.a12, fit.sigma.a22, fit.h)))
"""

# a seeded table of 1024 studies, where the order in which the studies are
# summed shows in the last bits of every number printed
_LARGE_N = """
import warnings
import numpy as np
from dtameta import Dataset, Study, confidence_region
rng = np.random.default_rng(1024)
s = rng.uniform(0.02, 0.5, (1024, 2))
y = rng.multivariate_normal([1.2, 0.8], [[0.4, 0.1], [0.1, 0.3]], 1024)
y += np.sqrt(s) * rng.standard_normal((1024, 2))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    _, fit = confidence_region(Dataset(Study(*y[i], *s[i]) for i in range(1024)), "ccr")
for name, m in (("sigma", fit.sigma), ("v", fit.v)):
    print(name, repr(m.a11), repr(m.a12), repr(m.a22))
print("beta", *(repr(b) for b in fit.beta))
print("h", repr(fit.h))
"""

_SINGULAR_V_TABLE = """
from dtameta import Dataset, Study, Sym2, b_star, gls_beta, v_matrix
sigma = Sym2(2.0021037411870544e17, 6.812351480629964e16, 2.3179684319517696e16)
d = Dataset([Study(0.0, 0.0, 0.026525941113256582, 0.43226149285673376)])
for name, entry in [("gls_beta", gls_beta), ("b_star", b_star), ("v_matrix", v_matrix)]:
    try:
        print(name, repr(entry(d, sigma)))
    except ValueError as exc:
        print(name, type(exc).__name__, exc)
"""

# determinants that overflow to inf: 1e400 for the shape, 1e600 for each D_i
_PD_OVERFLOW = """
from dtameta import ConfidenceRegion, OracleConfig, Sym2, mc_b_moments, mc_coverage, region_boundary
cfg = OracleConfig(sigma_true=Sym2(1e300, 0.0, 1e300), within_vars=((0.1, 0.1),) * 3,
                   reps=1000, seed=0)
shape = Sym2(1e200, 0.0, 1e200)
for name, run in [
    ("region_boundary", lambda: region_boundary(
        ConfidenceRegion((0.0, 0.0), shape, 5.99, 0.0, 0.05, "ncr"), 4).tolist()),
    ("mc_coverage", lambda: mc_coverage(cfg, "ncr")),
    ("mc_b_moments", lambda: mc_b_moments(cfg)),
]:
    try:
        print(name, repr(run()))
    except ValueError as exc:
        print(name, type(exc).__name__, exc)
"""

# one study: the moment fit refuses it, and the lab with it
_MC_ONE_STUDY = """
from dtameta import OracleConfig, Sym2, mc_b_moments, mc_coverage
cfg = OracleConfig(sigma_true=Sym2(0.3, 0.0, 0.3), within_vars=((0.2, 0.2),), reps=1000, seed=0)
for name, run in [("mc_coverage_ncr", lambda: mc_coverage(cfg, "ncr")),
                  ("mc_coverage_ccr", lambda: mc_coverage(cfg, "ccr")),
                  ("mc_b_moments", lambda: mc_b_moments(cfg))]:
    try:
        print(name, repr(run()))
    except ValueError as exc:
        print(name, type(exc).__name__, exc)
"""

_REGION_NONFINITE_THRESHOLD = """
import math
from dtameta import ConfidenceRegion, Sym2, region_boundary
for threshold in (math.nan, math.inf):
    try:
        region = ConfidenceRegion((0.0, 0.0), Sym2(1.0, 0.0, 1.0), threshold, 0.0, 0.05, "ncr")
        print(threshold, repr(region_boundary(region, 4).tolist()))
    except ValueError as exc:
        print(threshold, type(exc).__name__, exc)
"""

_BAD_SEED = """
import os, sys
os.environ["DTA_SEED"] = "x"
from dtameta.cli import main
sys.exit(main({argv!r}))
"""

# fixed logit points, including saturated ones, and fixed SROC grids, including
# the edges of (0, 1), on both signs of the covariance
_TRANSFORMS = """
import numpy as np
from dtameta import Sym2, sroc_curve, to_roc_space
rng = np.random.default_rng(19)
points = [(-800.0, 800.0), (0.0, 0.0), (40.5, -40.5), *rng.normal(0.0, 3.0, (40, 2)).tolist()]
grid = [1e-9, 0.005, 0.5, 0.995, 1.0 - 1e-9, *rng.uniform(0.01, 0.99, 40).tolist()]
curves = [to_roc_space(points)]
curves += [sroc_curve((1.2, 0.8), Sym2(0.4, c, 0.3), grid) for c in (-0.1, 0.0, 0.1)]
for curve in curves:
    for row in curve:
        print(*(float(x).hex() for x in row))
    print()
"""

# signatures of the exported callables (exception classes have none) and of
# the exported classes' public methods, so a removed parameter shows
_NAMESPACE = """
import inspect
import dtameta
print(*sorted(dtameta.__all__))
print(*sorted(name for name in dir(dtameta) if not name.startswith("_")))
import dtameta.cli
for module in (dtameta, dtameta.cli):
    for name in sorted(module.__all__):
        obj = getattr(module, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        print(name + str(inspect.signature(obj)))
        for attr in sorted(vars(obj) if isinstance(obj, type) else ()):
            member = getattr(obj, attr)
            if not attr.startswith("_") and callable(member):
                print(f"{name}.{attr}{inspect.signature(member)}")
"""

_OUTPUT_IS_INPUT = """
import shutil, sys
shutil.copyfile({fixture!r}, "table.csv")
from dtameta.cli import main
sys.exit(main(["fit", "--input", "table.csv", "--json", "table.csv"]))
"""

# an output that is a FIFO: the writer must leave the pipe in place, and a
# FIFO is never opened here, since a read with no writer blocks
_OUTPUT_TO_FIFO = """
import os, stat
from dtameta.cli import main
os.mkfifo("report.json")
code = main(["fit", "--input", {fixture!r}, "--json", "report.json"])
mode = os.lstat("report.json").st_mode
print("exit", code, "fifo survived", stat.S_ISFIFO(mode))
if stat.S_ISREG(mode):
    with open("report.json") as fh:
        print("first line", repr(fh.readline()))
os.unlink("report.json")  # so that diff -r never meets a FIFO
"""

_OUTPUT_THROUGH_SYMLINK = """
import os
from dtameta.cli import main
for name in ("link.json", "named.json"):
    if os.path.lexists(name):
        os.unlink(name)
with open("named.json", "w") as fh:
    fh.write("stale\\n")
os.symlink("named.json", "link.json")
code = main(["fit", "--input", {fixture!r}, "--json", "link.json"])
print("exit", code, "link survived", os.path.islink("link.json"))
with open("named.json") as fh:
    print("first line", repr(fh.readline()))
"""

# REML on the fixture, on 40 seeded random tables of 5 to 30 studies and on 15
# near-boundary ones (drawn at tau2 = 0 with n = 3 and 5, and at a correlation of
# 0.999 with n = 12), then capped at max_iter 2, 5 and 40 on the fixture and
# tables 00-04, where each warning's class and full message are printed too
_REML_TABLES = """
import warnings
import numpy as np
from dtameta import Dataset, Study, reml_sigma
from dtameta.cli import read_table

def show(name, d, max_iter=500):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sig = reml_sigma(d, max_iter=max_iter)
    if max_iter == 500:
        names = sorted(set(w.category.__name__ for w in caught))
        print(name, d.n, sig.a11.hex(), sig.a12.hex(), sig.a22.hex(), *names)
        return
    print(name, d.n, max_iter, sig.a11.hex(), sig.a12.hex(), sig.a22.hex())
    for w in caught:
        print("  ", w.category.__name__, str(w.message))

tables = [("synthetic14", read_table({fixture!r}))]
for k in range(40):
    rng = np.random.default_rng(k)
    n = int(rng.integers(5, 31))
    s = rng.uniform(0.02, 0.5, size=(n, 2))
    mu = rng.standard_normal((n, 2)) @ np.array([[0.6, 0.0], [0.3, 0.5]])
    y = mu + np.sqrt(s) * rng.standard_normal((n, 2))
    tables.append((f"table{{k:02d}}", Dataset(Study(*y[i], *s[i], id=str(i)) for i in range(n))))
chol = np.linalg.cholesky(np.array([[0.5, 0.4995], [0.4995, 0.5]]))
for k in range(5):
    for n in (3, 5, 12):
        rng = np.random.default_rng(1000 * n + k)
        if n < 12:
            s = rng.uniform(0.02, 0.5, size=(n, 2))
            y = np.sqrt(s) * rng.standard_normal((n, 2))
        else:
            s = rng.uniform(0.001, 0.01, size=(n, 2))
            y = rng.standard_normal((n, 2)) @ chol.T + np.sqrt(s) * rng.standard_normal((n, 2))
        name = f"tau0_n{{n}}_{{k}}" if n < 12 else f"rho999_{{k}}"
        tables.append((name, Dataset(Study(*y[i], *s[i], id=str(i)) for i in range(n))))
for name, d in tables:
    show(name, d)
for max_iter in (2, 5, 40):
    for name, d in tables[:6]:
        show(name, d, max_iter)
"""


def _commands() -> list[tuple[str, list[str]]]:
    """(name, interpreter arguments) of every command, in run order."""
    cli = ["-m", "dtameta.cli"]
    cmds = []
    for est in ("moment", "reml", "both"):
        cmds.append((f"fit_{est}", cli + ["fit", "--input", FIXTURE, "--estimator", est,
                                          "--json", "fit.json", "--svg", "fit.svg"]))
    for method in ("ncr", "ccr"):
        for space in ("roc", "logit"):
            cmds.append((f"region_{method}_{space}", cli + [
                "region", "--input", FIXTURE, "--method", method, "--space", space,
                "--out", "region.csv"]))
    for table in ("identical", "saturated"):
        path = str(FIXTURES / f"{table}.csv")
        cmds.append((f"fit_{table}", cli + ["fit", "--input", path, "--json", "fit.json",
                                             "--svg", "fit.svg"]))
        cmds.append((f"fit_{table}_both", cli + ["fit", "--input", path, "--estimator", "both",
                                                  "--json", "fit.json"]))
        cmds.append((f"region_{table}_roc", cli + ["region", "--input", path, "--space", "roc",
                                                   "--out", "region.csv"]))
    cmds.append(("fit_special_ids", cli + ["fit", "--input", str(FIXTURES / "special_ids.csv"),
                                           "--json", "fit.json", "--svg", "fit.svg"]))
    cmds.append(("fit_rank_one_precise", cli + [
        "fit", "--input", str(FIXTURES / "rank_one_precise.csv"), "--json", "fit.json"]))
    for table in ("collinear_shape", "collinear_lapack"):
        path = str(FIXTURES / f"{table}.csv")
        cmds.append((f"fit_{table}", cli + ["fit", "--input", path, "--json", "fit.json",
                                             "--svg", "fit.svg"]))
        cmds.append((f"region_{table}_roc", cli + ["region", "--input", path, "--space", "roc",
                                                   "--out", "region.csv"]))
        cmds.append((f"fit_{table}_both", cli + ["fit", "--input", path, "--estimator", "both",
                                                  "--json", "fit.json"]))
    for table in ("huge_logits", "tiny_variances"):
        path = str(FIXTURES / f"{table}.csv")
        cmds.append((f"fit_{table}_both", cli + ["fit", "--input", path, "--estimator", "both",
                                                  "--json", "fit.json"]))
    cmds.append(("transforms", ["-c", _TRANSFORMS]))
    cmds.append(("namespace", ["-c", _NAMESPACE]))
    cmds.append(("simulate_readme", cli + ["simulate", "--tau2", "0.2,0.4", "--rho", "0,0.4",
                                           "--n", "8,16", "--reps", "300", "--seed", "7"]))
    cmds.append(("simulate_edges", cli + ["simulate", "--tau2", "0,0.8", "--rho", "-0.5",
                                          "--n", "2,3", "--reps", "500", "--seed", "3"]))
    cmds.append(("simulate_singular_d", cli + ["simulate", "--tau2", "1e16", "--rho", "0.5",
                                               "--n", "2", "--reps", "200", "--seed", "1"]))
    for preset in ("homogeneous", "heterogeneous", "degenerate"):
        for seed in ("0", "1"):
            cmds.append((f"validate_{preset}_seed{seed}", cli + [
                "validate", "--preset", preset, "--reps", "2000", "--seed", seed]))
    for preset, method in (("heterogeneous", "ccr"), ("heterogeneous", "ncr"),
                           ("homogeneous", "ccr")):
        code = _MC_COVERAGE.format(preset=preset, method=method)
        cmds.append((f"mc_coverage_{preset}_{method}", ["-c", code]))
    for preset in ("homogeneous", "heterogeneous"):
        cmds.append((f"mc_b_moments_{preset}", ["-c", _MC_B_MOMENTS.format(preset=preset)]))
    cmds.append(("mc_rank_one_truth", ["-c", _RANK_ONE_TRUTH]))
    cmds.append(("mc_singular_a_truth", ["-c", _SINGULAR_A_TRUTH]))
    cmds.append(("singular_v_table", ["-c", _SINGULAR_V_TABLE]))
    cmds.append(("pd_overflow", ["-c", _PD_OVERFLOW]))
    cmds.append(("mc_one_study", ["-c", _MC_ONE_STUDY]))
    cmds.append(("region_nonfinite_threshold", ["-c", _REGION_NONFINITE_THRESHOLD]))
    cmds.append(("lab_vs_fit", ["-c", _LAB_VS_FIT]))
    cmds.append(("large_n", ["-c", _LARGE_N]))
    cmds.append(("reml_tables", ["-c", _REML_TABLES.format(fixture=FIXTURE)]))
    simulate = ["simulate", "--tau2", "0.2", "--n", "4"]
    for name, argv in [
        ("short_row", ["fit", "--input", str(FIXTURES / "short_row.csv")]),
        ("bad_count", ["fit", "--input", str(FIXTURES / "bad_count.csv")]),
        ("missing_file", ["fit", "--input", "missing.csv"]),
        ("unwritable_json", ["fit", "--input", FIXTURE, "--json", "missing/fit.json"]),
        ("validate_reps_999", ["validate", "--preset", "homogeneous", "--reps", "999"]),
        ("simulate_rho_1", simulate + ["--rho", "1", "--reps", "5"]),
        ("simulate_reps_0", simulate + ["--rho", "0", "--reps", "0"]),
        ("region_points_2", ["region", "--input", FIXTURE, "--points", "2"]),
        ("fit_alpha_2", ["fit", "--input", FIXTURE, "--alpha", "2"]),
        ("same_output", ["fit", "--input", FIXTURE, "--json", "out", "--svg", "out"]),
        ("negative_seed", ["validate", "--preset", "degenerate", "--seed", "-1"]),
    ]:
        cmds.append((f"error_{name}", cli + argv))
    seeded = _BAD_SEED.format(argv=simulate + ["--rho", "0", "--reps", "5"])
    cmds.append(("error_dta_seed_x", ["-c", seeded]))
    cmds.append(("error_output_is_input", ["-c", _OUTPUT_IS_INPUT.format(fixture=FIXTURE)]))
    cmds.append(("output_to_fifo", ["-c", _OUTPUT_TO_FIFO.format(fixture=FIXTURE)]))
    cmds.append(("output_through_symlink", ["-c", _OUTPUT_THROUGH_SYMLINK.format(fixture=FIXTURE)]))
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: cli_outputs.py SRC OUTDIR\n")
        return 2
    src = os.path.abspath(argv[0])
    out = Path(argv[1]).resolve()
    if not os.path.isdir(os.path.join(src, "dtameta")):
        sys.stderr.write(f"error: no dtameta package under {src}\n")
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("DTA_SEED", None)
    for name, args in _commands():
        cwd = out / name
        cwd.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, text=True)
        (cwd / "stdout.txt").write_text(proc.stdout.replace(src, "$SRC"))
        (cwd / "stderr.txt").write_text(proc.stderr.replace(src, "$SRC"))
        (cwd / "exit_code.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
