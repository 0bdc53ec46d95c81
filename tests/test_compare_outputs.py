import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

SIMULATE = (
    "tau2,rho,n,reps,alpha,coverage_ncr,coverage_ccr,median_h,mean_i2,mc_se\n"
    "0.2,0,8,300,0.05,0.78,0.99,2.96563,0.715577,0.00574456\n"
)
FIT = '{\n  "beta": [\n    1.25,\n    -0.5\n  ],\n  "h": 0.125\n}\n'


def write_tree(root: Path, files: dict[str, str]) -> str:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return str(root)


def compare(tmp_path, before: dict[str, str], after: dict[str, str]) -> int:
    return compare_outputs.main([write_tree(tmp_path / "before", before),
                                 write_tree(tmp_path / "after", after)])


BASE = {"fit/stdout.txt": FIT, "fit/exit_code.txt": "0\n", "simulate/stdout.txt": SIMULATE}


def test_moved_digits_pass_and_are_counted(tmp_path, capsys):
    after = dict(BASE, **{
        "fit/stdout.txt": FIT.replace("1.25", "1.2500000000000002").replace("0.125", "0.12500000000000003"),
        # median_h moves; both hit counts stay 234 and 297 of 300
        "simulate/stdout.txt": SIMULATE.replace("2.96563", "2.96564"),
    })
    assert compare(tmp_path, BASE, after) == 0
    out = capsys.readouterr().out
    assert "fit/stdout.txt: 2 of 3 numbers differ, largest relative difference 2.22e-16" in out
    # the digits in the header's tau2 and mean_i2 count as numbers too
    assert "simulate/stdout.txt: 1 of 12 numbers differ, largest relative difference 3.37e-06" in out
    assert out.endswith("2 of 3 common files differ; only numbers changed\n")


@pytest.mark.parametrize(
    "name,text,report",
    [
        ("fit/stdout.txt", FIT.replace('"h"', '"hh"'), "fit/stdout.txt: text differs"),
        ("fit/exit_code.txt", "2\n", "fit/exit_code.txt: exit code 0 -> 2"),
        # coverage_ncr 0.78 -> 0.783333 is 234 -> 235 hits of 300
        ("simulate/stdout.txt", SIMULATE.replace("0.78,", "0.783333,"),
         "simulate/stdout.txt: hit counts differ: row 1 (234, 297) -> (235, 297)"),
    ],
)
def test_more_than_digits_fails(tmp_path, capsys, name, text, report):
    assert compare(tmp_path, BASE, dict(BASE, **{name: text})) == 1
    out = capsys.readouterr().out
    assert report in out and "FAIL" in out


def test_file_on_one_side_fails(tmp_path, capsys):
    assert compare(tmp_path, BASE, dict(BASE, **{"fit/out.svg": "<svg/>\n"})) == 1
    assert "fit/out.svg: only in" in capsys.readouterr().out


def test_split_numbers_reads_float_hex():
    x = 0.1 + 0.2
    parts, numbers = compare_outputs.split_numbers(f"h {x.hex()}, se -2.5e-3")
    assert parts == ["h ", ", se ", ""]
    assert numbers == [x, -2.5e-3]
