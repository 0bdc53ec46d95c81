"""Run a fixed list of dtameta commands on one source tree and save what each produces.

Usage:

    python3 tools/cli_outputs.py SRC OUTDIR

SRC is a directory holding the dtameta package, such as a checkout's src/.
Each command runs in a fresh interpreter with PYTHONPATH=SRC and with
OUTDIR/<name> as its working directory, where it writes its output files;
its stdout, stderr and exit code are saved beside them. The input tables are
this checkout's tests/fixtures/*.csv for every SRC, so two runs differ only
in the code they load. Besides synthetic14.csv, fit --svg, fit --estimator
both and region --space roc also run on identical.csv (equal studies: the
covariance clamp fires, the SROC curve is omitted and REML exits 2) and on
saturated.csv (logits beyond +-40, where the ROC coordinates round to exactly
1). Occurrences of the SRC path in the captured text are replaced by the
literal "$SRC". A change that should keep every output byte-identical is
checked by running this on both trees and comparing:

    python3 tools/cli_outputs.py /path/to/parent/src /tmp/before
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
    cmds.append(("simulate_readme", cli + ["simulate", "--tau2", "0.2,0.4", "--rho", "0,0.4",
                                           "--n", "8,16", "--reps", "300", "--seed", "7"]))
    cmds.append(("simulate_edges", cli + ["simulate", "--tau2", "0,0.8", "--rho", "-0.5",
                                          "--n", "2,3", "--reps", "500", "--seed", "3"]))
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
    cmds.append(("reml_tables", ["-c", _REML_TABLES.format(fixture=FIXTURE)]))
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
