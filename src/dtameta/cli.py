"""Command-line interface: fit, region export, simulation grid, oracle validation.

Exit codes: 0 success; 1 validation tolerance failure; 2 malformed input,
invalid flags, a negative seed, an unwritable output path or two outputs
naming one file; 3 too few studies to fit (n < 3); 4 corrected region
undefined (threshold factor 1 + h not a positive finite number).
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import os
import sys
import tempfile
import warnings
from typing import Sequence

import numpy as np

from .estimators import i_squared
from .model import (
    ConfidenceRegion,
    DataError,
    Dataset,
    FitResult,
    RegionUndefinedError,
    Study,
    Sym2,
)
from .oracle import OracleConfig, mc_b_moments, rep_stream
from .regions import b_star, chi2_quantile, confidence_region, region_boundary
from .simlab import Scenario, gen_within_variances, grid_to_csv, run_grid
from .transforms import sroc_curve, summarize_counts, to_roc_space

__all__ = ["main", "read_table", "validation_preset"]

COUNT_HEADER = ["id", "tp", "fn", "fp", "tn"]
SUMMARY_HEADER = ["id", "y_sens", "y_spec", "var_sens", "var_spec"]
# the summary header the README and PAPER.md document; same columns, same order
_LOGIT_HEADER = ["id", "logit_sens", "logit_spec", "var_sens", "var_spec"]

SROC_GRID = np.linspace(0.005, 0.995, 199)
BOUNDARY_POINTS = 256

# fixed stream for the frozen heterogeneous validation design, so every run
# and every machine sees the same within-study variances
DESIGN_SEED = 20240817

EXIT_TOLERANCE = 1
EXIT_BAD_INPUT = 2
EXIT_TOO_FEW = 3
EXIT_NO_REGION = 4


class _TooFewError(Exception):
    """Fewer than 3 studies to fit; maps to exit code 3."""


def _parse_row(row: list[str], line: int, kind, what: str, build) -> Study:
    """build(*fields, id=...) of one data row, its four fields read as kind; errors name the row."""
    where = f"row {line} (id {row[0]!r})"
    try:
        fields = [kind(v) for v in row[1:]]
    except ValueError:
        raise DataError(f"{where}: {what}, got {row[1:]}")
    try:
        return build(*fields, id=row[0])
    except ValueError as exc:  # covers DataError
        raise DataError(f"{where}: {exc}")


def read_table(path: str) -> Dataset:
    """Parse a study table in count or summary form, auto-detected from the header.

    An unreadable or malformed table raises DataError.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    with fh:
        rows = [r for r in csv.reader(fh)]
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if header == COUNT_HEADER:
        kind, what, build = int, "counts must be integers", summarize_counts
    elif header in (SUMMARY_HEADER, _LOGIT_HEADER):
        kind, what, build = float, "summaries must be numeric", Study
    else:
        raise DataError(
            f"{path}: unrecognized header {','.join(header)!r}; expected "
            f"{','.join(COUNT_HEADER)!r}, {','.join(SUMMARY_HEADER)!r} "
            f"or {','.join(_LOGIT_HEADER)!r}"
        )
    studies = []
    for i, row in enumerate(rows[1:], start=2):
        row = [cell.strip() for cell in row]
        if len(row) != 5:
            raise DataError(f"row {i}: expected 5 fields, got {len(row)}")
        studies.append(_parse_row(row, i, kind, what, build))
    return Dataset(studies)


def _read_fittable(path: str) -> Dataset:
    """read_table, refusing a table of fewer than 3 studies."""
    d = read_table(path)
    if d.n < 3:
        raise _TooFewError(f"need at least 3 studies to fit, got {d.n}")
    return d


def _emit(outputs: Sequence[tuple[str, str | None]], source: str | None = None) -> None:
    """Write each (text, path) pair: the files atomically, then stdout for path None.

    The package's one file writer. Two paths that resolve to one file, or a path that resolves to the input
    table source, are rejected before anything is written. Each file is staged
    as a temp file in its target's directory, and the temp files are renamed
    onto their targets only once all are written; a target that is an existing
    directory (onto which a rename would fail) is refused while staging, so a
    failed call leaves no target touched. On failure every temp file is
    removed and ValueError("cannot write <path>: <reason>") is raised.
    """
    files = [(path, text) for text, path in outputs if path is not None]
    source_real = None if source is None else os.path.realpath(source)
    seen: dict[str, str] = {}
    for path, _ in files:
        real = os.path.realpath(path)
        if real == source_real:
            raise ValueError(f"output {path!r} names the input table {source!r}")
        if real in seen:
            raise ValueError(f"outputs {seen[real]!r} and {path!r} name one file")
        seen[real] = path
    staged: list[str] = []
    try:
        for target, text in files:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)), suffix=".tmp")
            staged.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, (target, _) in zip(staged, files):
            os.replace(tmp, target)
    except BaseException as exc:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from exc
        raise
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)


def _default_seed(value: int | None) -> int:
    """Resolve a nonnegative seed: explicit flag, then the DTA_SEED env var, then 0."""
    source = f"--seed {value}"
    if value is None:
        env = os.environ.get("DTA_SEED")
        if env is None:
            return 0
        source = f"DTA_SEED={env!r}"
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{source} is not an integer")
    if value < 0:
        raise ValueError(f"{source} is negative; seeds must be nonnegative")
    return value


# ---------------------------------------------------------------------------
# fit


def _sym_json(m: Sym2) -> list[list[float]]:
    return [[m.a11, m.a12], [m.a12, m.a22]]


def _fit_json(fit: FitResult) -> dict:
    return {"beta": [fit.beta[0], fit.beta[1]], "sigma": _sym_json(fit.sigma), "v": _sym_json(fit.v)}


def _region_json(r: ConfidenceRegion) -> dict:
    return {
        "center": [r.center[0], r.center[1]],
        "shape": _sym_json(r.shape),
        "threshold": r.threshold,
        "h": r.h,
        "alpha": r.alpha,
        "method": r.method,
    }


def _captured(fn, *args):
    """fn(*args) and the messages of every warning it raised, in order, none filtered out."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def _fit_report(
    d: Dataset, alpha: float, estimator: str
) -> tuple[dict, FitResult, ConfidenceRegion, ConfidenceRegion]:
    """The report dict and what the plot draws: the primary fit, its ncr region and the ccr.

    report["sroc"] is the (m, 2) SROC on SROC_GRID, none (m = 0) when the curve is undefined.
    """
    (ccr, moment_fit), messages = _captured(confidence_region, d, "ccr", alpha, "moment_bc")
    reml_fit = ncr_reml = None
    if estimator in ("reml", "both"):
        (ncr_reml, reml_fit), more = _captured(confidence_region, d, "ncr", alpha, "reml")
        messages += more
    ncr_moment = ConfidenceRegion(
        ccr.center, ccr.shape, chi2_quantile(alpha), h=0.0, alpha=alpha, method="ncr"
    )

    _, s = d.arrays()
    primary = reml_fit if estimator == "reml" else moment_fit
    ncr_primary = ncr_reml if estimator == "reml" else ncr_moment
    if primary.sigma.a22 > 0:
        sroc = sroc_curve(primary.beta, primary.sigma, SROC_GRID)
    else:
        sroc = np.empty((0, 2))
        messages.append("sroc curve omitted: between-study specificity variance is zero")
    report = {
        **_fit_json(primary),
        "estimator": primary.estimator,
        "h": moment_fit.h,
        "b_terms": {"b1": moment_fit.b.b1, "b2": moment_fit.b.b2, "b3": moment_fit.b.b3},
        "regions": {"ncr": _region_json(ncr_primary), "ccr": _region_json(ccr)},
        "i2": {
            "sens": i_squared(s[:, 0], max(primary.sigma.a11, 0.0)),
            "spec": i_squared(s[:, 1], max(primary.sigma.a22, 0.0)),
        },
        "sroc": sroc,
        "warnings": list(dict.fromkeys(messages)),
    }
    if estimator == "both":
        assert reml_fit is not None and ncr_reml is not None
        report["reml"] = {**_fit_json(reml_fit), "regions": {"ncr": _region_json(ncr_reml)}}
    return report, primary, ncr_primary, ccr


def _report_json(report: dict) -> str:
    """json.dumps(report, indent=2) and a newline; report["sroc"] is an (m, 2) array.

    json with indent encodes one float at a time in Python, so the SROC pairs go
    through a template instead: JSON writes a finite float as float.__repr__ does.
    """
    sroc = report["sroc"]
    if len(sroc) == 0 or not np.isfinite(sroc).all():
        return json.dumps({**report, "sroc": sroc.tolist()}, indent=2) + "\n"
    text = json.dumps({**report, "sroc": []}, indent=2) + "\n"
    pair = "    [\n      %r,\n      %r\n    ]"
    pairs = ",\n".join([pair] * len(sroc)) % tuple(sroc.ravel().tolist())
    # a "sroc" inside a JSON string has its quotes escaped, so only the key matches
    return text.replace('"sroc": []', '"sroc": [\n' + pairs + "\n  ]", 1)


def _canvas(roc: np.ndarray) -> np.ndarray:
    """Canvas positions of (m, 2) ROC-space points: the 420-pixel plot square sits at (40, 20)."""
    return np.column_stack([40 + 420 * roc[:, 0], 20 + 420 * (1 - roc[:, 1])])


def _svg_path(roc: np.ndarray, close: bool) -> str:
    xy = _canvas(roc)
    return "M" + " L".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist()) + ("Z" if close else "")


def _render_svg(
    d: Dataset, fit: FitResult, ncr: ConfidenceRegion, ccr: ConfidenceRegion, sroc: np.ndarray
) -> str:
    """Static SVG 1.1 plot in ROC space: unit square, studies, summary, regions, SROC."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="500" height="500" '
        'viewBox="0 0 500 500">',
        '<rect x="0" y="0" width="500" height="500" fill="white"/>',
        '<rect x="40" y="20" width="420" height="420" fill="none" stroke="#444"/>',
    ]
    fracs = (0.0, 0.25, 0.5, 0.75, 1.0)
    for frac, (x, y) in zip(fracs, _canvas(np.column_stack([fracs, fracs])).tolist()):
        parts.append(
            f'<text x="{x:.0f}" y="455" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{frac:g}</text>'
        )
        parts.append(
            f'<text x="34" y="{y + 4:.0f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{frac:g}</text>'
        )
    parts.append(
        '<text x="250" y="482" font-family="sans-serif" font-size="13" '
        'text-anchor="middle">False positive rate</text>'
    )
    parts.append(
        '<text x="12" y="230" font-family="sans-serif" font-size="13" text-anchor="middle" '
        'transform="rotate(-90 12 230)">Sensitivity</text>'
    )
    if len(sroc):
        parts.append(
            f'<path d="{_svg_path(sroc, close=False)}" fill="none" '
            'stroke="#333333" stroke-width="1.5"/>'
        )
    for region, color in ((ncr, "#1f77b4"), (ccr, "#d62728")):
        roc = to_roc_space(region_boundary(region, BOUNDARY_POINTS))
        parts.append(
            f'<path d="{_svg_path(roc, close=True)}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    for st, (x, y) in zip(d.studies, _canvas(to_roc_space(d.arrays()[0])).tolist()):
        # & first, so the entities made here are not escaped again
        label = (st.id or "study").replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3.5" fill="#888888" fill-opacity="0.7">'
            f"<title>{label}</title></circle>"
        )
    [(x, y)] = _canvas(to_roc_space([fit.beta])).tolist()
    parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="#000000"/>')
    legend = [("NCR", "#1f77b4"), ("CCR", "#d62728"), ("SROC", "#333333")]
    for i, (name, color) in enumerate(legend):
        ly = 36 + 16 * i
        parts.append(f'<line x1="52" y1="{ly}" x2="76" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="82" y="{ly + 4}" font-family="sans-serif" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_fit(args: argparse.Namespace) -> int:
    d = _read_fittable(args.input)
    report, fit, ncr, ccr = _fit_report(d, args.alpha, args.estimator)
    outputs = [(_report_json(report), args.json)]
    if args.svg is not None:
        outputs.append((_render_svg(d, fit, ncr, ccr, report["sroc"]), args.svg))
    _emit(outputs, args.input)
    return 0


# ---------------------------------------------------------------------------
# region


def cmd_region(args: argparse.Namespace) -> int:
    d = _read_fittable(args.input)
    (region, _), messages = _captured(confidence_region, d, args.method, args.alpha, "moment_bc")
    sys.stderr.writelines(f"warning: {m}\n" for m in dict.fromkeys(messages))
    header, pts = "y_sens,y_spec", region_boundary(region, args.points)
    if args.space == "roc":
        header, pts = "fpr,sensitivity", to_roc_space(pts)
    rows = "%.17g,%.17g\n" * len(pts) % tuple(pts.ravel().tolist())
    _emit([(header + "\n" + rows, args.out)], args.input)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _list_of(kind, what: str):
    """argparse type for a non-empty comma-separated list of kind (what names it in errors)."""

    def parse(text: str) -> list:
        try:
            vals = [kind(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated {what} list: {text!r}")
        if not vals:
            raise argparse.ArgumentTypeError("empty list")
        return vals

    return parse


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    combos = [(t, r, n) for t in args.tau2 for r in args.rho for n in args.n]
    child_seeds = np.random.SeedSequence(seed).generate_state(len(combos), np.uint64)
    scenarios = [
        Scenario(tau2=t, rho=r, n=n, reps=args.reps, alpha=0.05, seed=int(child_seeds[i]))
        for i, (t, r, n) in enumerate(combos)
    ]
    results = run_grid(scenarios)
    _emit([(grid_to_csv(results), args.out)])
    return 0


# ---------------------------------------------------------------------------
# validate


def validation_preset(
    name: str, reps: int, seed: int
) -> tuple[OracleConfig, Sym2 | None, tuple[float, float, float]]:
    """Named oracle configuration: (config, forced sigma_hat or None, expected b).

    homogeneous: 32 equal studies, closed-form expectation (4/n, 6/n, 0).
    heterogeneous: 16 studies with variances drawn once from the fixed design
    stream, expectation from the analytic trace formulas.
    degenerate: the re-estimated covariance is pinned to the truth, so all
    three moments are exactly zero.
    """
    override = None
    if name == "homogeneous":
        sigma, sv = Sym2(0.4, 0.0, 0.4), [(0.2, 0.2)] * 32
        expected = (4.0 / 32, 6.0 / 32, 0.0)
    elif name == "heterogeneous":
        sigma, sv = Sym2(0.4, 0.08, 0.4), gen_within_variances(16, rep_stream(DESIGN_SEED, 0))
        design = Dataset(
            Study(0.0, 0.0, a, b, id=f"design{i + 1:02d}") for i, (a, b) in enumerate(sv)
        )
        b = b_star(design, sigma)
        expected = (b.b1, b.b2, b.b3)
    elif name == "degenerate":
        sigma, sv = Sym2(0.0, 0.0, 0.0), [(0.2, 0.3)] * 8
        override, expected = sigma, (0.0, 0.0, 0.0)
    else:
        raise ValueError(f"unknown preset {name!r}")
    cfg = OracleConfig(sigma_true=sigma, within_vars=tuple(map(tuple, sv)), reps=reps, seed=seed)
    return cfg, override, expected


def cmd_validate(args: argparse.Namespace) -> int:
    seed = _default_seed(args.seed)
    cfg, override, expected = validation_preset(args.preset, args.reps, seed)
    est, ses = mc_b_moments(cfg, sigma_hat_override=override)
    slack = 2.0 / cfg.n**2
    ok = True
    print(f"preset={args.preset} n={cfg.n} reps={cfg.reps} seed={seed}")
    for name, mc, se, ana in zip(("b1", "b2", "b3"), (est.b1, est.b2, est.b3), ses, expected):
        tol = 3.0 * se + slack
        good = abs(mc - ana) <= tol
        ok = ok and good
        print(
            f"{name}: analytic={ana:.6f} mc={mc:.6f} se={se:.2g} "
            f"|diff|={abs(mc - ana):.6f} tol={tol:.6f} {'PASS' if good else 'FAIL'}"
        )
    print("PASS" if ok else "FAIL")
    return 0 if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="dtameta",
        description="Bivariate random-effects meta-analysis of diagnostic accuracy "
        "with corrected confidence regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a study table, write a JSON report and optional SVG")
    p_fit.add_argument("--input", required=True, help="CSV in count or summary form")
    p_fit.add_argument("--alpha", type=float, default=0.05)
    p_fit.add_argument("--estimator", choices=["moment", "reml", "both"], default="moment")
    p_fit.add_argument("--json", default=None, help="report path (stdout when omitted)")
    p_fit.add_argument("--svg", default=None, help="optional ROC-space plot path")
    p_fit.set_defaults(func=cmd_fit)

    p_reg = sub.add_parser("region", help="export confidence-region boundary points as CSV")
    p_reg.add_argument("--input", required=True)
    p_reg.add_argument("--method", choices=["ncr", "ccr"], default="ccr")
    p_reg.add_argument("--alpha", type=float, default=0.05)
    p_reg.add_argument("--points", type=int, default=BOUNDARY_POINTS)
    p_reg.add_argument("--space", choices=["logit", "roc"], default="logit")
    p_reg.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_reg.set_defaults(func=cmd_region)

    p_sim = sub.add_parser("simulate", help="run a coverage simulation grid, emit CSV")
    numbers, integers = _list_of(float, "number"), _list_of(int, "integer")
    p_sim.add_argument("--tau2", type=numbers, required=True, help="comma-separated list")
    p_sim.add_argument("--rho", type=numbers, required=True, help="comma-separated list")
    p_sim.add_argument("--n", type=integers, required=True, help="comma-separated list")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=None, help="defaults to DTA_SEED, then 0")
    p_sim.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="check analytic trace formulas against Monte Carlo")
    p_val.add_argument(
        "--preset", choices=["homogeneous", "heterogeneous", "degenerate"], required=True
    )
    p_val.add_argument("--reps", type=int, default=200_000)
    p_val.add_argument("--seed", type=int, default=None, help="defaults to DTA_SEED, then 0")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _TooFewError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_TOO_FEW
    except RegionUndefinedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_REGION
    except ValueError as exc:  # covers DataError, bad flags and seeds, and unwritable outputs
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
