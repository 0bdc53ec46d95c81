"""Compare two output trees written by tools/cli_outputs.py, number by number.

Usage:

    python3 tools/compare_outputs.py BEFORE AFTER

For a change that moves results only in their last digits, where `diff -r`
on the two trees is no longer empty. Each file present in both trees is
split into its numbers (decimal, or hex as float.hex prints) and the text
between them. For every file that differs, one line gives the count of
changed numbers and the largest relative difference |a - b| / max(|a|, |b|)
among them.

Exit status is 1 when anything other than the digits of a number differs:
a file present in one tree only, any non-numeric text (this covers every
`validate` PASS/FAIL verdict), an exit code, or a hit count of a coverage
table (coverage_ncr or coverage_ccr times reps, as `simulate` prints).
Otherwise it is 0.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(
    r"[-+]?0x[0-9a-fA-F]+(?:\.[0-9a-fA-F]*)?p[-+]?\d+"
    r"|[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
)
HIT_COLUMNS = ("coverage_ncr", "coverage_ccr")


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """(the text around each number, the numbers) of text."""
    parts = NUMBER.split(text)
    numbers = [float.fromhex(m) if "x" in m else float(m) for m in NUMBER.findall(text)]
    return parts, numbers


def hit_counts(text: str) -> list[tuple[int, ...]]:
    """Per row of a CSV table with reps and coverage columns, the hits round(coverage * reps)."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if "reps" not in header or not all(c in header for c in HIT_COLUMNS):
        return []
    cols = [header.index(c) for c in HIT_COLUMNS]
    reps = header.index("reps")
    rows = [line.split(",") for line in lines[1:] if line]
    return [tuple(round(float(row[c]) * float(row[reps])) for c in cols) for row in rows]


def first_text_change(before: str, after: str) -> str:
    """The first pair of lines whose non-numeric text differs, for the report."""
    for a, b in zip(before.splitlines(), after.splitlines()):
        if NUMBER.split(a) != NUMBER.split(b):
            return f"{a.strip()!r} -> {b.strip()!r}"
    return "line count differs"


def compare_file(name: str, before: str, after: str) -> tuple[str, bool]:
    """(report line, whether the difference fails the comparison) of one differing file."""
    if Path(name).name == "exit_code.txt":
        return f"{name}: exit code {before.strip()} -> {after.strip()}", True
    parts_b, nums_b = split_numbers(before)
    parts_a, nums_a = split_numbers(after)
    if parts_b != parts_a:
        return f"{name}: text differs: {first_text_change(before, after)}", True
    hits = [(i, b, a) for i, (b, a) in enumerate(zip(hit_counts(before), hit_counts(after))) if b != a]
    if hits:
        return f"{name}: hit counts differ: " + "; ".join(f"row {i + 1} {b} -> {a}" for i, b, a in hits), True
    rel = [abs(a - b) / max(abs(a), abs(b)) for a, b in zip(nums_b, nums_a) if a != b]
    largest = max(rel, default=0.0)
    return f"{name}: {len(rel)} of {len(nums_b)} numbers differ, largest relative difference {largest:.3g}", False


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: compare_outputs.py BEFORE AFTER\n")
        return 2
    roots = [Path(p) for p in argv]
    for root in roots:
        if not root.is_dir():
            sys.stderr.write(f"error: {root} is not a directory\n")
            return 2
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} for root in roots]
    failed = False
    for name in sorted(files[0] ^ files[1]):
        print(f"{name}: only in {argv[0] if name in files[0] else argv[1]}")
        failed = True
    changed = 0
    for name in sorted(files[0] & files[1]):
        before, after = ((root / name).read_bytes() for root in roots)
        if before == after:
            continue
        changed += 1
        line, bad = compare_file(name, before.decode(), after.decode())
        print(line)
        failed |= bad
    print(f"{changed} of {len(files[0] & files[1])} common files differ; "
          + ("FAIL: more than the digits of numbers changed" if failed else "only numbers changed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
