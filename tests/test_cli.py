import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import dtameta.cli as cli
import dtameta.oracle as oracle
import dtameta.simlab as simlab
from dtameta import (
    BTerms,
    ConfidenceRegion,
    DataError,
    FitResult,
    RegionUndefinedError,
    Sym2,
    chi2_quantile,
    confidence_region,
    region_boundary,
    summarize_counts,
    to_roc_space,
)
from dtameta.cli import main, read_table, validation_preset

X05 = 5.991464547107982
SVG_NS = "{http://www.w3.org/2000/svg}"
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# five studies with enough between-study spread that the moment estimate
# stays positive definite (so the fit report includes an sroc curve)
COUNT_ROWS = [
    ("c1", 36, 4, 4, 36),
    ("c2", 60, 20, 6, 54),
    ("c3", 28, 12, 18, 42),
    ("c4", 52, 8, 14, 26),
    ("c5", 33, 17, 5, 45),
]


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("DTA_SEED", raising=False)


@pytest.fixture
def count_table(tmp_path):
    path = tmp_path / "counts.csv"
    lines = ["id,tp,fn,fp,tn"]
    lines += [f"{i},{tp},{fn},{fp},{tn}" for i, tp, fn, fp, tn in COUNT_ROWS]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def summary_table(tmp_path):
    # the same four studies in summary form, floats at full precision
    path = tmp_path / "summary.csv"
    lines = ["id,y_sens,y_spec,var_sens,var_spec"]
    for ident, tp, fn, fp, tn in COUNT_ROWS:
        st = summarize_counts(tp, fn, fp, tn, id=ident)
        lines.append(f"{ident},{st.y_a!r},{st.y_b!r},{st.s_a!r},{st.s_b!r}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def identical_table(tmp_path):
    path = tmp_path / "identical.csv"
    rows = ["id,y_sens,y_spec,var_sens,var_spec"]
    rows += [f"s{i},0.0,0.0,0.25,0.25" for i in range(3)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


MALFORMED_TABLES = [
    ("id,tp,fn,tn\na,1,2,3", "unrecognized header"),
    ("id,tp,fn,fp,tn\na,9,1,1", "row 2"),
    ("id,tp,fn,fp,tn\na,9,1,1,9\nb,9,x,1,9", "row 3"),
    ("id,tp,fn,fp,tn\na,-1,1,1,9", "row 2"),
    ("id,y_sens,y_spec,var_sens,var_spec\na,0.1,0.2,0.0,0.3", "row 2"),
    ("id,y_sens,y_spec,var_sens,var_spec\na,0.1,oops,0.2,0.3", "row 2"),
    ("id,y_sens,y_spec,var_sens,var_spec\na,0.1,0.2,inf,0.3", "row 2"),
    ("", "empty"),
]


def run_fit_json(capsys, *argv):
    code = main(["fit", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestReadTable:
    def test_loads_summary_fixture(self, fixtures_dir):
        d = read_table(str(fixtures_dir / "synthetic14.csv"))
        assert d.n == 14
        assert d.studies[0].id == "synth01"
        assert d.studies[-1].id == "synth14"

    def test_loads_counts(self, count_table):
        d = read_table(count_table)
        assert d.n == 5
        # first row is 36/4 vs 4/36, so both logits are log 9
        assert d.studies[0].y_a == pytest.approx(math.log(9.0))
        assert d.studies[0].s_a == pytest.approx(1.0 / 36.0 + 0.25)

    def test_handles_bom_and_blank_rows(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(
            "﻿id,tp,fn,fp,tn\n\na,9,1,1,9\n   \nb,8,2,2,8\n".encode("utf-8")
        )
        d = read_table(str(path))
        assert d.n == 2

    @pytest.mark.parametrize("body,fragment", MALFORMED_TABLES)
    def test_malformed_tables_exit_2(self, tmp_path, capsys, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        code = main(["fit", "--input", str(path)])
        assert code == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("body,fragment", MALFORMED_TABLES + [(None, "cannot read")])
    def test_bad_tables_raise_data_error(self, tmp_path, body, fragment):
        # a library caller catches a public ValueError; None leaves the path missing
        path = tmp_path / "bad.csv"
        if body is not None:
            path.write_text(body)
        with pytest.raises(ValueError, match=fragment) as info:
            read_table(str(path))
        assert isinstance(info.value, DataError)

    @pytest.mark.parametrize(
        "body,message",
        [
            # blank and whitespace-only lines count, though they hold no record
            ("id,tp,fn,fp,tn\na,9,1,1,9\n\n\nb,9,x,1,9\n", "row 5 (id 'b'): counts must be"),
            ("\n id,tp,fn,fp,tn\n , \na,9,1,1\n", "row 4: expected 5 fields, got 4"),
            ("id,tp,fn,fp,tn\r\n\r\na,9,1,1,9\r\nb,-1,1,1,9\r\n", "row 4 (id 'b'): "),
            # a quoted id spanning lines moves every later record down, and a record is
            # named by the line it starts on
            ('id,tp,fn,fp,tn\n"a\nb",9,1,1,9\nc,9,x,1,9\n', "row 4 (id 'c'): counts must be"),
            ('id,tp,fn,fp,tn\na,9,1,1,9\n"b\n\nc",9,x,1,9\n', "row 3 (id 'b\\n\\nc'): counts"),
        ],
    )
    def test_errors_name_the_file_line(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(body.encode())
        with pytest.raises(DataError) as info:
            read_table(str(path))
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "body,message",
        [
            # one quoted id over csv's 131072-character field limit, on the record at line 3
            (b'id,tp,fn,fp,tn\na,9,1,1,9\n"' + b"x" * 200000 + b'",9,1,1,9\n', "row 3: field larger"),
            (b"id,tp,fn,fp,tn\na,9,1,1,9\nb\x89,9,1,1,9\n", "not UTF-8 text"),
        ],
        ids=["long_field", "not_utf8"],
    )
    def test_unparseable_text_raises_data_error(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            read_table(str(path))
        assert main(["fit", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("columns", ["y_sens,y_spec", "logit_sens,logit_spec"])
    def test_summary_headers(self, tmp_path, columns):
        path = tmp_path / "summary.csv"
        path.write_text(f"id,{columns},var_sens,var_spec\na,1.5,2.0,0.1,0.2\nb,0.5,1,0.3,0.4\n")
        d = read_table(str(path))
        got = [(st.id, st.y_a, st.y_b, st.s_a, st.s_b) for st in d.studies]
        assert got == [("a", 1.5, 2.0, 0.1, 0.2), ("b", 0.5, 1.0, 0.3, 0.4)]

    def test_unrecognized_header_names_every_form(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,sens,spec,var_sens,var_spec\na,1,2,0.1,0.2\n")
        assert main(["fit", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        for header in ("id,tp,fn,fp,tn", "id,y_sens,y_spec,", "id,logit_sens,logit_spec,"):
            assert header in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["fit", "--input", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFitCommand:
    def test_report_schema(self, capsys, summary_table):
        code, rep = run_fit_json(capsys, "--input", summary_table)
        assert code == 0
        assert set(rep) == {
            "beta", "sigma", "v", "estimator", "h", "b_terms",
            "regions", "i2", "sroc", "warnings",
        }
        assert rep["estimator"] == "moment_bc"
        assert set(rep["b_terms"]) == {"b1", "b2", "b3"}
        assert set(rep["regions"]) == {"ncr", "ccr"}
        for key in ("ncr", "ccr"):
            assert set(rep["regions"][key]) == {
                "center", "shape", "threshold", "h", "alpha", "method",
            }
        assert 0.0 <= rep["i2"]["sens"] <= 1.0
        assert 0.0 <= rep["i2"]["spec"] <= 1.0

    def test_thresholds_and_h(self, capsys, summary_table):
        _, rep = run_fit_json(capsys, "--input", summary_table)
        ncr = rep["regions"]["ncr"]
        ccr = rep["regions"]["ccr"]
        assert ncr["threshold"] == X05
        assert ncr["h"] == 0.0
        assert ccr["h"] == rep["h"]
        assert ccr["threshold"] == pytest.approx(X05 * (1.0 + rep["h"]), rel=1e-14)
        assert ncr["method"] == "ncr" and ccr["method"] == "ccr"
        assert ncr["alpha"] == 0.05

    def test_sroc_grid(self, capsys, summary_table):
        _, rep = run_fit_json(capsys, "--input", summary_table)
        assert len(rep["sroc"]) == 199
        fprs = [p[0] for p in rep["sroc"]]
        assert fprs[0] == pytest.approx(0.005)
        assert fprs[-1] == pytest.approx(0.995)
        assert all(0.0 < p[1] < 1.0 for p in rep["sroc"])

    def test_counts_and_summaries_agree_exactly(self, capsys, count_table, summary_table):
        _, rep_counts = run_fit_json(capsys, "--input", count_table)
        _, rep_summary = run_fit_json(capsys, "--input", summary_table)
        assert rep_counts == rep_summary

    def test_identical_studies_degenerate_fit(self, capsys, identical_table):
        code, rep = run_fit_json(capsys, "--input", identical_table)
        assert code == 0
        assert rep["beta"] == [0.0, 0.0]
        assert rep["sigma"] == [[0.0, 0.0], [0.0, 0.0]]
        # equal designs make the trace statistics collapse to (4/n, 6/n, 0)
        assert rep["b_terms"]["b1"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert rep["b_terms"]["b2"] == pytest.approx(2.0, rel=1e-12)
        assert rep["b_terms"]["b3"] == pytest.approx(0.0, abs=1e-12)
        assert rep["h"] == pytest.approx((1.0 + X05 / 2.0) / 3.0, rel=1e-12)
        assert rep["sroc"] == []
        projection_msgs = [w for w in rep["warnings"] if "projected to PSD" in w]
        sroc_msgs = [w for w in rep["warnings"] if "sroc curve omitted" in w]
        assert len(projection_msgs) == 1
        assert len(sroc_msgs) == 1

    def test_json_file_output(self, capsys, summary_table, tmp_path):
        out = tmp_path / "report.json"
        code = main(["fit", "--input", summary_table, "--json", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rep = json.loads(out.read_text())
        assert rep["estimator"] == "moment_bc"

    @pytest.mark.parametrize(
        "table,estimator,n_sroc",
        [
            ("synthetic14.csv", "moment", 199),
            ("synthetic14.csv", "reml", 199),
            ("synthetic14.csv", "both", 199),
            ("identical.csv", "moment", 0),  # sroc omitted, clamp warning
        ],
    )
    def test_json_file_is_json_dumps_indent_2(
        self, capsys, fixtures_dir, tmp_path, table, estimator, n_sroc
    ):
        out = tmp_path / "report.json"
        argv = ["fit", "--input", str(fixtures_dir / table), "--estimator", estimator]
        assert main([*argv, "--json", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        rep = json.loads(text)
        assert text == json.dumps(rep, indent=2) + "\n"
        assert len(rep["sroc"]) == n_sroc
        assert len(rep["warnings"]) == (2 if n_sroc == 0 else 0)

    @pytest.mark.parametrize("sroc", [[[0.005, 0.25], [0.995, 1.0]], [], [[0.5, math.nan]]])
    def test_report_writer_matches_json_dumps(self, sroc):
        # a message quoting the key and a non-finite point must not change the bytes
        report = {"beta": [0.1, -2.5e-300], "sroc": sroc, "warnings": ['"sroc": [] in a message']}
        array = np.array(sroc, dtype=float).reshape(-1, 2)
        assert cli._report_json({**report, "sroc": array}) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("estimator,alpha", [("moment", "0.05"), ("both", "0.2")])
    def test_ncr_region_matches_public_fit(self, capsys, fixtures_dir, estimator, alpha):
        path = str(fixtures_dir / "synthetic14.csv")
        _, rep = run_fit_json(capsys, "--input", path, "--estimator", estimator, "--alpha", alpha)
        region, _ = confidence_region(read_table(path), "ncr", float(alpha))
        sh = region.shape
        assert rep["regions"]["ncr"] == {
            "center": list(region.center),
            "shape": [[sh.a11, sh.a12], [sh.a12, sh.a22]],
            "threshold": region.threshold,
            "h": 0.0,
            "alpha": float(alpha),
            "method": "ncr",
        }

    def test_reml_estimator(self, capsys, fixtures_dir):
        code, rep = run_fit_json(
            capsys, "--input", str(fixtures_dir / "synthetic14.csv"), "--estimator", "reml"
        )
        assert code == 0
        assert rep["estimator"] == "reml"
        assert "reml" not in rep
        # correction terms always come from the moment machinery
        assert rep["h"] > 0.0
        assert rep["regions"]["ncr"]["threshold"] == X05

    def test_both_estimators(self, capsys, fixtures_dir):
        code, rep = run_fit_json(
            capsys, "--input", str(fixtures_dir / "synthetic14.csv"), "--estimator", "both"
        )
        assert code == 0
        assert rep["estimator"] == "moment_bc"
        assert set(rep["reml"]) == {"beta", "sigma", "v", "regions"}
        assert set(rep["reml"]["regions"]) == {"ncr"}
        assert rep["reml"]["regions"]["ncr"]["threshold"] == X05

    def test_huge_logits_report_no_numpy_message(self, capsys, fixtures_dir):
        # logits near 1e76 put REML's residual products past overflow on parts of its path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_fit_json(
                capsys, "--input", str(fixtures_dir / "huge_logits.csv"), "--estimator", "both"
            )
        assert code == 0
        assert not [m for m in rep["warnings"] if "encountered" in m]
        assert np.isfinite(rep["reml"]["sigma"]).all()

    def test_tiny_variances_give_finite_i2(self, capsys, fixtures_dir):
        # variances near 1e-160: the squared inverse-variance weights of I^2 would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_fit_json(
                capsys, "--input", str(fixtures_dir / "tiny_variances.csv"), "--estimator", "both"
            )
        assert code == 0 and capsys.readouterr().err == ""
        assert all(math.isfinite(v) for v in rep["i2"].values())
        assert not [m for m in rep["warnings"] if "encountered" in m]

    def test_reml_on_degenerate_data_exits_2(self, capsys, identical_table):
        code = main(["fit", "--input", identical_table, "--estimator", "reml"])
        assert code == 2

    def test_alpha_flag(self, capsys, summary_table):
        _, rep = run_fit_json(capsys, "--input", summary_table, "--alpha", "0.2")
        assert rep["regions"]["ncr"]["alpha"] == 0.2
        assert rep["regions"]["ncr"]["threshold"] == pytest.approx(
            chi2_quantile(0.2), rel=1e-15
        )

    def test_too_few_studies_exits_3(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("id,tp,fn,fp,tn\na,9,1,1,9\nb,8,2,2,8\n")
        code = main(["fit", "--input", str(path)])
        assert code == 3
        assert "at least 3" in capsys.readouterr().err

    def test_undefined_region_exits_4(self, capsys, summary_table, monkeypatch):
        def raiser(*args, **kwargs):
            raise RegionUndefinedError("synthetic collapse")

        monkeypatch.setattr(cli, "confidence_region", raiser)
        code = main(["fit", "--input", summary_table])
        assert code == 4
        assert "synthetic collapse" in capsys.readouterr().err

    def test_svg_output(self, capsys, fixtures_dir, tmp_path):
        svg_path = tmp_path / "plot.svg"
        code = main([
            "fit", "--input", str(fixtures_dir / "synthetic14.csv"),
            "--json", str(tmp_path / "rep.json"), "--svg", str(svg_path),
        ])
        assert code == 0
        root = ET.parse(svg_path).getroot()
        assert root.tag == f"{SVG_NS}svg"
        circles = root.findall(f".//{SVG_NS}circle")
        assert len(circles) == 15  # 14 studies + summary point
        paths = root.findall(f".//{SVG_NS}path")
        assert len(paths) == 3  # sroc + two region boundaries
        titles = [t.text for t in root.findall(f".//{SVG_NS}title")]
        assert "synth01" in titles

        # the plot square is 420 px wide at (40, 20), with sensitivity upward
        def canvas(point):
            fpr, sens = to_roc_space([point])[0]
            return f"{40 + 420 * fpr:.3f}", f"{20 + 420 * (1 - sens):.3f}"

        studies = read_table(str(fixtures_dir / "synthetic14.csv")).studies
        beta = json.loads((tmp_path / "rep.json").read_text())["beta"]
        expected = [canvas((st.y_a, st.y_b)) for st in studies] + [canvas(beta)]
        assert [(c.get("cx"), c.get("cy")) for c in circles] == expected


    def test_svg_escapes_study_ids(self, fixtures_dir, tmp_path):
        # ids with &, <, >, " and ', and one that already reads as an entity
        table = str(fixtures_dir / "special_ids.csv")
        svg_path = tmp_path / "plot.svg"
        assert main(["fit", "--input", table, "--json", str(tmp_path / "r.json"),
                     "--svg", str(svg_path)]) == 0
        root = ET.parse(svg_path).getroot()
        titles = [t.text for t in root.findall(f".//{SVG_NS}title")]
        assert titles == [st.id for st in read_table(table).studies]
        text = svg_path.read_text()
        assert "<title>&lt;script&gt;</title>" in text
        assert "<title>&amp;amp;</title>" in text

    def test_output_spans_see_the_public_transforms(self, fixtures_dir, tmp_path, monkeypatch):
        # the benchmark's transforms.to_roc_space and sroc_curve spans wrap these names
        calls = {"to_roc_space": 0, "sroc_curve": 0}

        def counting(name):
            fn = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        table = str(fixtures_dir / "synthetic14.csv")
        assert main(["fit", "--input", table, "--json", str(tmp_path / "r.json"),
                     "--svg", str(tmp_path / "p.svg")]) == 0
        # region boundaries (ncr, ccr), the studies and the summary point; one SROC
        assert calls == {"to_roc_space": 4, "sroc_curve": 1}
        calls.update(to_roc_space=0, sroc_curve=0)
        assert main(["region", "--input", table, "--space", "roc",
                     "--out", str(tmp_path / "roc.csv")]) == 0
        assert calls == {"to_roc_space": 1, "sroc_curve": 0}


def parse_point_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    pts = [(float(a), float(b)) for a, b in rows[1:]]
    return header, pts


class TestRegionCommand:
    def test_logit_boundary_satisfies_region_equation(self, capsys, summary_table):
        code = main(["region", "--input", summary_table])
        assert code == 0
        header, pts = parse_point_csv(capsys.readouterr().out)
        assert header == ["y_sens", "y_spec"]
        assert len(pts) == 256

        _, rep = run_fit_json(capsys, "--input", summary_table)
        ccr = rep["regions"]["ccr"]
        cx, cy = ccr["center"]
        (v11, v12), (_, v22) = ccr["shape"]
        det = v11 * v22 - v12 * v12
        for px, py in pts:
            dx, dy = px - cx, py - cy
            q = (v22 * dx * dx - 2.0 * v12 * dx * dy + v11 * dy * dy) / det
            assert q == pytest.approx(ccr["threshold"], abs=1e-9)

    @pytest.mark.parametrize("table", ["collinear_shape", "collinear_lapack"])
    def test_collinear_tables_fit_and_draw(self, capsys, fixtures_dir, tmp_path, table):
        # each fit passes the one positive-definiteness rule on D_i, A and V,
        # so its region shape is accepted and factored, and its boundary drawn
        path = str(fixtures_dir / f"{table}.csv")
        svg = tmp_path / "fit.svg"
        assert main(["fit", "--input", path, "--json", str(tmp_path / "fit.json"),
                     "--svg", str(svg)]) == 0
        ET.parse(svg)
        for space in ("logit", "roc"):
            assert main(["region", "--input", path, "--space", space]) == 0
            _, pts = parse_point_csv(capsys.readouterr().out)
            assert len(pts) == 256 and np.isfinite(pts).all()

    def test_collinear_lapack_fits_both_estimators(self, capsys, fixtures_dir):
        # LAPACK's solve of REML's summed precision meets a singular A on the
        # simplex path; the objective maps that to +inf, as it does a singular D_i
        code, rep = run_fit_json(
            capsys, "--input", str(fixtures_dir / "collinear_lapack.csv"), "--estimator", "both"
        )
        assert code == 0
        assert set(rep["reml"]) == {"beta", "sigma", "v", "regions"}

    def test_refused_reml_start_exits_2_naming_it(self, capsys, fixtures_dir):
        # the clamped moment estimate is rank one of scale 5e14, so 1e-8 I rounds away
        path = str(fixtures_dir / "collinear_shape.csv")
        assert main(["fit", "--input", path, "--estimator", "both"]) == 2
        assert capsys.readouterr().err == (
            "error: REML start (the PSD-projected moment estimate plus 1e-8 I)"
            " is not positive definite\n"
        )

    def test_roc_space_matches_transform(self, capsys, summary_table):
        main(["region", "--input", summary_table, "--space", "logit", "--points", "32"])
        _, logit_pts = parse_point_csv(capsys.readouterr().out)
        main(["region", "--input", summary_table, "--space", "roc", "--points", "32"])
        header, roc_pts = parse_point_csv(capsys.readouterr().out)
        assert header == ["fpr", "sensitivity"]
        assert roc_pts == list(map(tuple, to_roc_space(logit_pts).tolist()))

    def test_ncr_method_flag(self, capsys, summary_table):
        code = main(["region", "--input", summary_table, "--method", "ncr", "--points", "4"])
        assert code == 0
        _, pts = parse_point_csv(capsys.readouterr().out)
        assert len(pts) == 4

    def test_out_file(self, capsys, summary_table, tmp_path):
        out = tmp_path / "boundary.csv"
        code = main(["region", "--input", summary_table, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("y_sens,y_spec\n")

    def test_warnings_go_to_stderr_once(self, capsys, tmp_path):
        # four nearly equal studies with wide variances: the moment estimate
        # is indefinite and the fit clamps it
        path = tmp_path / "clamped.csv"
        rows = [(0.10, 0.20), (0.12, 0.18), (0.09, 0.21), (0.11, 0.20)]
        path.write_text(
            "id,y_sens,y_spec,var_sens,var_spec\n"
            + "".join(f"s{i},{a},{b},0.5,0.5\n" for i, (a, b) in enumerate(rows))
        )
        code = main(["region", "--input", str(path), "--points", "16"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.count("projected to PSD") == 1
        assert all(line.startswith("warning: ") for line in captured.err.splitlines())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            region, fit = confidence_region(read_table(str(path)), "ccr")
        assert fit.sigma == Sym2(0.0, 0.0, 0.0)
        expected = ["y_sens,y_spec"] + [f"{u:.17g},{v:.17g}" for u, v in region_boundary(region, 16)]
        assert captured.out == "\n".join(expected) + "\n"

    def test_too_few_points_exits_2(self, capsys, summary_table):
        code = main(["region", "--input", summary_table, "--points", "2"])
        assert code == 2

    def test_too_few_studies_exits_3(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("id,tp,fn,fp,tn\na,9,1,1,9\nb,8,2,2,8\n")
        assert main(["region", "--input", str(path)]) == 3


SIM_ARGS = ["simulate", "--tau2", "0.2", "--rho", "0.0", "--n", "4", "--reps", "5"]


class TestSimulateCommand:
    def test_smoke_and_determinism(self, capsys):
        assert main(SIM_ARGS) == 0
        first = capsys.readouterr().out
        assert main(SIM_ARGS) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0].startswith("tau2,rho,n,reps,alpha,")
        assert len(lines) == 2
        assert lines[1].split(",")[:5] == ["0.2", "0", "4", "5", "0.05"]

    def test_combination_order(self, capsys):
        main([
            "simulate", "--tau2", "0.1,0.2", "--rho", "0,0.5", "--n", "4,6",
            "--reps", "1",
        ])
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        assert len(rows) == 8
        assert [r[0] for r in rows] == ["0.1"] * 4 + ["0.2"] * 4
        assert [r[1] for r in rows[:4]] == ["0", "0", "0.5", "0.5"]
        assert [r[2] for r in rows[:4]] == ["4", "6", "4", "6"]

    def test_seed_flag_changes_results(self, capsys):
        main(SIM_ARGS + ["--seed", "1"])
        a = capsys.readouterr().out
        main(SIM_ARGS + ["--seed", "2"])
        b = capsys.readouterr().out
        main(SIM_ARGS + ["--seed", "1"])
        again = capsys.readouterr().out
        assert a == again
        assert a != b

    def test_env_seed_used_as_default(self, capsys, monkeypatch):
        main(SIM_ARGS + ["--seed", "7"])
        explicit = capsys.readouterr().out
        monkeypatch.setenv("DTA_SEED", "7")
        main(SIM_ARGS)
        from_env = capsys.readouterr().out
        assert explicit == from_env

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DTA_SEED", "5")
        main(SIM_ARGS + ["--seed", "9"])
        with_env = capsys.readouterr().out
        monkeypatch.delenv("DTA_SEED")
        main(SIM_ARGS + ["--seed", "9"])
        without_env = capsys.readouterr().out
        assert with_env == without_env

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("DTA_SEED", "not-a-number")
        assert main(SIM_ARGS) == 2
        assert "DTA_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [SIM_ARGS, ["validate", "--preset", "degenerate"]], ids=["simulate", "validate"]
    )
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_exits_2(self, capsys, monkeypatch, command, source):
        if source == "flag":
            command, named = command + ["--seed", "-3"], "--seed -3"
        else:
            monkeypatch.setenv("DTA_SEED", "-3")
            named = "DTA_SEED='-3'"
        assert main(command) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {named} is negative; seeds must be nonnegative\n"

    def test_degenerate_rho_exits_2(self, capsys):
        code = main(["simulate", "--tau2", "0.2", "--rho", "1.0", "--n", "4", "--reps", "1"])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("tau2", ["nan", "inf"])
    def test_nonfinite_tau2_exits_2(self, capsys, tmp_path, tau2):
        out = tmp_path / "grid.csv"
        code = main(["simulate", "--tau2", tau2, "--rho", "0", "--n", "8", "--reps", "5",
                     "--out", str(out)])
        assert code == 2
        assert "tau2" in capsys.readouterr().err
        assert not out.exists()

    def test_tau2_above_bound_exits_2_without_warnings(self, capsys):
        # the fit's 2x2 products of a 1e160 estimate overflow; Scenario refuses it first
        argv = ["simulate", "--tau2", "1e160", "--rho", "0", "--n", "4", "--reps", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tau2 must lie in [0, 1e+150], got 1e+160\n"

    def test_tau2_at_bound_runs_clean(self, capsys):
        argv = ["simulate", "--tau2", "1e150", "--rho", "0,0.9", "--n", "4,16", "--reps", "50",
                "--seed", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["1e+150"] * 4

    def test_singular_d_exits_2(self, capsys):
        # the clamped rank-one estimate swamps s_i, so some D_i rounds to singular
        argv = ["simulate", "--tau2", "1e16", "--rho", "0.5", "--n", "2", "--reps", "200",
                "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: singular or indefinite marginal covariance D_i\n"

    def test_out_file(self, capsys, tmp_path):
        assert main(SIM_ARGS) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "grid.csv"
        out.write_text("stale")
        assert main(SIM_ARGS + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout
        assert stdout.startswith("tau2,rho,n,reps,alpha,")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_malformed_list_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tau2", "a,b", "--rho", "0", "--n", "4"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_reused_parser_gives_fresh_parser_outputs(self, capsys, summary_table):
        calls = [
            SIM_ARGS,
            ["validate", "--preset", "degenerate", "--reps", "1000"],
            ["simulate", "--tau2", "a,b", "--rho", "0", "--n", "4"],
            ["region", "--input", summary_table, "--points", "8"],
            ["--help"],
            ["fit", "--help"],
            ["validate", "--preset", "none"],
            [],
            SIM_ARGS,
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        parser = cli._build_parser()
        assert [run(argv) for argv in calls] == fresh
        assert cli._build_parser() is parser
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0, 0, 2, 2, 0]


OUTPUT_ARGS = {
    "fit --json": lambda table, out: ["fit", "--input", table, "--json", out],
    "fit --svg": lambda table, out: ["fit", "--input", table, "--svg", out],
    "simulate --out": lambda table, out: SIM_ARGS + ["--out", out],
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("flag", sorted(OUTPUT_ARGS))
    @pytest.mark.parametrize(
        "target", ["missing directory", "existing directory", "fifo", "trailing separator"]
    )
    def test_exits_2_and_leaves_no_temp_file(self, capsys, summary_table, tmp_path, flag, target):
        if target == "missing directory":
            out = tmp_path / "no" / "such" / "dir" / "out"
        elif target == "existing directory":
            out = tmp_path / "taken"
            out.mkdir()
        elif target == "fifo":
            # refused by its stat: opening a FIFO to write would block, and a
            # rename would put a regular file where the pipe was
            out = tmp_path / "pipe"
            os.mkfifo(out)
        else:  # the path names a directory, which an ordinary write refuses too
            out = str(tmp_path / "report") + os.sep
        code = main(OUTPUT_ARGS[flag](summary_table, str(out)))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.rglob("*.tmp")) == []
        assert target != "fifo" or stat.S_ISFIFO(os.lstat(out).st_mode)
        assert target != "trailing separator" or not os.path.lexists(out.rstrip(os.sep))

    @pytest.mark.parametrize("json_to", ["file", "stdout"])
    @pytest.mark.parametrize("target", ["missing directory", "existing directory", "fifo"])
    def test_fit_writes_nothing_when_the_svg_path_fails(
        self, capsys, summary_table, tmp_path, json_to, target
    ):
        report = tmp_path / "r.json"
        if target == "missing directory":
            svg = tmp_path / "no" / "such" / "dir" / "p.svg"
        elif target == "existing directory":
            svg = tmp_path / "taken"
            svg.mkdir()
        else:
            svg = tmp_path / "pipe"
            os.mkfifo(svg)
        argv = ["fit", "--input", summary_table, "--svg", str(svg)]
        if json_to == "file":
            argv += ["--json", str(report)]
        code = main(argv)
        assert code == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write {svg}: ")
        assert out == ""
        assert not report.exists()
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("svg", ["out", "./out"])
    def test_two_outputs_naming_one_file_exit_2(
        self, capsys, summary_table, tmp_path, monkeypatch, svg
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["fit", "--input", summary_table, "--json", "out", "--svg", svg])
        assert code == 2
        out, err = capsys.readouterr()
        assert err == f"error: outputs 'out' and {svg!r} name one file\n"
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.csv"]


class TestOutputFile:
    @pytest.mark.parametrize("named_exists", [True, False], ids=["symlink", "dangling symlink"])
    def test_a_symlink_writes_the_file_it_names(self, capsys, summary_table, tmp_path, named_exists):
        direct = tmp_path / "direct.json"
        assert main(["fit", "--input", summary_table, "--json", str(direct)]) == 0
        named, link = tmp_path / "elsewhere" / "named.json", tmp_path / "link.json"
        named.parent.mkdir()
        if named_exists:
            named.write_text("stale")
        link.symlink_to(named)
        assert main(["fit", "--input", summary_table, "--json", str(link)]) == 0
        assert capsys.readouterr().out == ""
        assert link.is_symlink() and os.readlink(link) == str(named)
        assert named.read_bytes() == direct.read_bytes()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_modes_follow_the_umask_and_an_overwrite_keeps_its_mode(
        self, capsys, summary_table, tmp_path
    ):
        new, kept = tmp_path / "new.json", tmp_path / "kept.json"
        kept.write_text("stale")
        kept.chmod(0o640)
        previous = os.umask(0o022)
        try:
            codes = [main(["fit", "--input", summary_table, "--json", str(p)]) for p in (new, kept)]
        finally:
            os.umask(previous)
        assert codes == [0, 0]
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_bytes() == new.read_bytes()


INPUT_OUTPUT_ARGS = {
    "fit --json": lambda table, out: ["fit", "--input", table, "--json", out],
    "fit --svg": lambda table, out: ["fit", "--input", table, "--svg", out],
    "region --out": lambda table, out: ["region", "--input", table, "--out", out],
}


class TestOutputNamingTheInput:
    @pytest.mark.parametrize("flag", sorted(INPUT_OUTPUT_ARGS))
    def test_exits_2_and_leaves_the_table(self, capsys, fixtures_dir, tmp_path, flag):
        table = tmp_path / "t.csv"
        original = (fixtures_dir / "synthetic14.csv").read_bytes()
        table.write_bytes(original)
        code = main(INPUT_OUTPUT_ARGS[flag](str(table), str(table)))
        assert code == 2
        out, err = capsys.readouterr()
        assert err == f"error: output {str(table)!r} names the input table {str(table)!r}\n"
        assert out == ""
        assert table.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @pytest.mark.parametrize("link_is", ["input", "output"])
    def test_a_symlink_resolves_to_the_input(self, capsys, fixtures_dir, tmp_path, link_is):
        table, link = tmp_path / "t.csv", tmp_path / "link.csv"
        original = (fixtures_dir / "synthetic14.csv").read_bytes()
        table.write_bytes(original)
        link.symlink_to(table)
        src, dst = (link, table) if link_is == "input" else (table, link)
        code = main(["region", "--input", str(src), "--out", str(dst)])
        assert code == 2
        out, err = capsys.readouterr()
        assert err == f"error: output {str(dst)!r} names the input table {str(src)!r}\n"
        assert out == ""
        assert link.is_symlink() and table.read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "t.csv"]


def fenced_block(text, lang):
    """Body of the first ```lang block in text."""
    m = re.search(rf"```{lang}\n(.*?)```", text, re.S)
    assert m is not None, f"no {lang} block"
    return m.group(1)


class TestReadmeExamples:
    def test_summary_form_example_fits(self, tmp_path, capsys):
        path = tmp_path / "readme_summary.csv"
        path.write_text(fenced_block(README[README.index("Summary form"):], "csv"))
        assert main(["fit", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["estimator"] == "moment_bc"

    def test_summary_form_report_keys(self, tmp_path, capsys):
        # the top-level keys the README's fit paragraph lists, in report order
        path = tmp_path / "readme_summary.csv"
        path.write_text(fenced_block(README[README.index("Summary form"):], "csv"))
        keys = ["beta", "sigma", "v", "estimator", "h", "b_terms", "regions", "i2", "sroc", "warnings"]
        for estimator, extra in (("moment", []), ("reml", []), ("both", ["reml"])):
            assert main(["fit", "--input", str(path), "--estimator", estimator]) == 0
            assert list(json.loads(capsys.readouterr().out)) == keys + extra
        for key in keys + ["reml"]:
            assert f"`{key}`" in README[README.index("### fit"):README.index("### region")]

    def test_python_api_example_runs(self):
        code = fenced_block(README[README.index("## Python API"):], "python")
        ns = {"rows": COUNT_ROWS}
        exec(compile(code, "README.md", "exec"), ns)
        assert isinstance(ns["sigma"], Sym2) and isinstance(ns["v"], Sym2)
        assert ns["beta"].shape == (2,)
        assert isinstance(ns["terms"], BTerms)
        assert isinstance(ns["ccr"], ConfidenceRegion) and isinstance(ns["fit"], FitResult)
        assert ns["h"] == ns["fit"].h
        assert ns["inside"] is True
        assert ns["ring"].shape == (256, 2) and np.all(np.isfinite(ns["ring"]))
        assert ns["roc"].shape == (256, 2) and np.all((ns["roc"] >= 0) & (ns["roc"] <= 1))


class TestValidateCommand:
    def test_degenerate_preset_passes(self, capsys):
        code = main(["validate", "--preset", "degenerate", "--reps", "1000", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("PASS")
        assert out.count("PASS") == 4  # three component lines plus the verdict

    def test_homogeneous_preset_at_moderate_reps(self, capsys):
        # at 2000 replications the Monte Carlo tolerance is wide enough for
        # the O(1/n) theory at n = 32
        code = main(["validate", "--preset", "homogeneous", "--reps", "2000", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("b1", "b2", "b3"):
            assert f"{name}: analytic=" in out

    def test_too_few_reps_exits_2(self, capsys):
        code = main(["validate", "--preset", "degenerate", "--reps", "500"])
        assert code == 2

    def test_unknown_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--preset", "bogus"])
        assert exc.value.code == 2

    def test_heterogeneous_preset_is_frozen(self):
        # the design is drawn once from DESIGN_SEED: n, truth, first study and
        # analytic terms are pinned bit for bit
        cfg, override, expected = validation_preset("heterogeneous", 1000, 3)
        assert (cfg.n, cfg.reps, cfg.seed, override) == (16, 1000, 3, None)
        assert cfg.sigma_true == Sym2(0.4, 0.08, 0.4)
        assert cfg.within_vars[0] == (
            float.fromhex("0x1.8939bd3612951p-4"),
            float.fromhex("0x1.2a878322d8d7bp-3"),
        )
        assert expected == (
            float.fromhex("0x1.53b6dce89b604p-2"),
            float.fromhex("0x1.e875dc036696cp-2"),
            float.fromhex("-0x1.5db1de19d6ba0p-6"),
        )

    def test_unknown_preset_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown preset 'nope'"):
            validation_preset("nope", 1000, 0)


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--preset", "homogeneous", "--reps", "100000000000"],
            ["simulate", "--tau2", "0.2", "--rho", "0", "--n", "4", "--reps", "100000000000"],
        ],
        ids=["validate", "simulate"],
    )
    def test_an_unallocatable_count_exits_2(self, capsys, monkeypatch, argv):
        # stands in for np.empty((reps, width)) failing: where memory is
        # overcommitted a real allocation of that size can succeed and run for hours
        def refuse(reps, n, width, step):
            raise MemoryError(f"Unable to allocate array with shape ({reps}, {width})")

        monkeypatch.setattr(oracle, "_by_chunk", refuse)
        monkeypatch.setattr(simlab, "_by_chunk", refuse)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "error: not enough memory: Unable to allocate array with shape (100000000000, 3)\n"
        assert out == ""


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_import_leaves_scipy_unloaded(self, fixtures_dir, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable, every
        # command runs and exits as it does with scipy installed
        src = str(Path(cli.__file__).resolve().parents[1])
        fixture = str(fixtures_dir / "synthetic14.csv")
        out = tmp_path / "fit.json"
        commands = [
            ["fit", "--input", fixture, "--estimator", "both", "--json", str(out)],
            ["region", "--input", fixture, "--space", "roc", "--out", str(tmp_path / "roc.csv")],
            ["simulate", "--tau2", "0.2", "--rho", "0.4", "--n", "8", "--reps", "100",
             "--seed", "3", "--out", str(tmp_path / "grid.csv")],
            *(["validate", "--preset", preset, "--reps", "1000", "--seed", "0"]
              for preset in ("homogeneous", "heterogeneous", "degenerate")),
        ]
        code = (
            "import sys; sys.modules['scipy'] = None; import dtameta.cli; "
            f"print(*(dtameta.cli.main(argv) for argv in {commands!r}))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1].split() == ["0"] * 6, res.stderr
        assert "reml" in json.loads(out.read_text())

    def test_import_leaves_sax_and_network_modules_unloaded(self):
        # a fresh interpreter, so modules other tests loaded do not count
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            "import sys, dtameta.cli; "
            "print(*(m for m in ('xml.sax', 'urllib.request', 'http.client', 'email', 'ssl') "
            "if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "\n"

    def test_import_leaves_numpy_random_unloaded(self):
        # the Monte Carlo loops load numpy.random on first use, so no command pays for it at import
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, dtameta.cli; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "True False\n"

    def test_success_returns_int_zero(self, capsys, summary_table):
        code = main(["fit", "--input", summary_table])
        assert code == 0 and isinstance(code, int)
        capsys.readouterr()
