"""Run a fixed list of dtameta commands on one source tree and save what each produces.

Usage:

    python3 tools/cli_outputs.py SRC OUTDIR

SRC is a directory holding the dtameta package, such as a checkout's src/.
Each command runs in a fresh interpreter with PYTHONPATH=SRC and with
OUTDIR/<name> as its working directory, where it writes its output files;
its stdout, stderr and exit code are saved beside them. The input table is
this checkout's tests/fixtures/synthetic14.csv for every SRC, so two runs
differ only in the code they load. Occurrences of the
SRC path in the captured text are replaced by the literal "$SRC". A change
that should keep every output byte-identical is checked by running this on
both trees and comparing:

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

FIXTURE = str(Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "synthetic14.csv")

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

# REML on the fixture and on 40 seeded random tables of 5 to 30 studies
_REML_TABLES = """
import warnings
import numpy as np
from dtameta import Dataset, Study, reml_sigma
from dtameta.cli import read_table

def show(name, d):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sig = reml_sigma(d)
    names = sorted(set(w.category.__name__ for w in caught))
    print(name, d.n, sig.a11.hex(), sig.a12.hex(), sig.a22.hex(), *names)

show("synthetic14", read_table({fixture!r}))
for k in range(40):
    rng = np.random.default_rng(k)
    n = int(rng.integers(5, 31))
    s = rng.uniform(0.02, 0.5, size=(n, 2))
    mu = rng.standard_normal((n, 2)) @ np.array([[0.6, 0.0], [0.3, 0.5]])
    y = mu + np.sqrt(s) * rng.standard_normal((n, 2))
    show(f"table{{k:02d}}", Dataset(Study(*y[i], *s[i], id=str(i)) for i in range(n)))
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
