import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtameta import DataError, Study, expit, logit, sroc_curve, summarize_counts, to_roc_space
from dtameta.model import Sym2

LN9 = 2.1972245773362196
# one unit in the last place of numbers near 1; np.exp and math.exp may differ by one ulp
ULP1 = 2.0**-52


def scalar_expit(x):
    """The scalar, math.exp form of expit: the reference for the array kernel."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class TestLogitExpit:
    def test_logit_known_values(self):
        assert logit(0.5) == 0.0
        assert logit(0.9) == pytest.approx(LN9, abs=1e-15)
        assert logit(0.1) == pytest.approx(-LN9, abs=1e-15)

    def test_expit_known_values(self):
        assert expit(0.0) == 0.5
        assert expit(LN9) == pytest.approx(0.9, abs=1e-15)
        assert expit(-LN9) == pytest.approx(0.1, abs=1e-15)

    def test_logit_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                logit(bad)

    def test_expit_extreme_arguments_stable(self):
        assert expit(800.0) == 1.0
        assert expit(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert 0.0 <= expit(-800.0)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_roundtrip(self, p):
        assert expit(logit(p)) == pytest.approx(p, rel=1e-12)

    @given(st.floats(min_value=-14.0, max_value=14.0))
    def test_roundtrip_other_direction(self, x):
        # |x| is capped where 1 - expit(x) still has ~6 spare digits; beyond
        # that the subtraction inside logit legitimately loses precision
        assert logit(expit(x)) == pytest.approx(x, rel=1e-9, abs=1e-9)


class TestSummarizeCounts:
    def test_clean_two_by_two(self):
        # tp=9 fn=1 fp=1 tn=9: sens=spec=0.9, var = 1/9 + 1/1 = 10/9
        st_ = summarize_counts(9, 1, 1, 9)
        assert st_.y_a == pytest.approx(LN9, abs=1e-15)
        assert st_.y_b == pytest.approx(LN9, abs=1e-15)
        assert st_.s_a == pytest.approx(10 / 9, abs=1e-15)
        assert st_.s_b == pytest.approx(10 / 9, abs=1e-15)

    def test_zero_cell_correction_applies_to_all_cells(self):
        st_ = summarize_counts(10, 0, 2, 8)
        # all four cells shifted by 0.5
        assert st_.y_a == pytest.approx(math.log(10.5 / 0.5), abs=1e-12)
        assert st_.y_b == pytest.approx(math.log(8.5 / 2.5), abs=1e-12)
        assert st_.s_a == pytest.approx(1 / 10.5 + 1 / 0.5, abs=1e-12)
        assert st_.s_b == pytest.approx(1 / 8.5 + 1 / 2.5, abs=1e-12)

    def test_no_correction_when_all_cells_positive(self):
        # tp=7 fn=2 fp=3 tn=5: the uncorrected closed form, no 0.5 added
        st_ = summarize_counts(7, 2, 3, 5)
        assert st_.y_a == pytest.approx(math.log(7 / 2), abs=1e-15)
        assert st_.y_b == pytest.approx(math.log(5 / 3), abs=1e-15)
        assert st_.s_a == pytest.approx(1 / 7 + 1 / 2, abs=1e-15)
        assert st_.s_b == pytest.approx(1 / 5 + 1 / 3, abs=1e-15)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            summarize_counts(-1, 1, 1, 1)

    def test_empty_margin_rejected(self):
        with pytest.raises(DataError):
            summarize_counts(0, 0, 3, 4)
        with pytest.raises(DataError):
            summarize_counts(3, 4, 0, 0)

    def test_id_passthrough(self):
        assert summarize_counts(9, 1, 1, 9, id="s7").id == "s7"


class TestRocSpace:
    def test_origin_maps_to_center(self):
        pts = to_roc_space([(0.0, 0.0)])
        assert pts[0] == pytest.approx((0.5, 0.5))

    def test_orientation(self):
        # high y_a means high sensitivity; high y_b means high specificity
        # i.e. LOW false positive rate
        [(fpr, sens)] = to_roc_space([(3.0, 3.0)])
        assert sens > 0.9
        assert fpr < 0.1

    def test_vectorized_order_preserved(self):
        pts = to_roc_space([(0.0, 0.0), (2.0, 1.0)])
        assert len(pts) == 2
        assert pts[0] == pytest.approx((0.5, 0.5))

    @pytest.mark.parametrize(
        "points", [[(1, 2, 3)], [(1,)], [(1.0, 2.0), (1.0, 2.0, 3.0)], [(1.0,), (1.0, 2.0)]]
    )
    def test_rejects_points_that_are_not_pairs(self, points):
        with pytest.raises(ValueError):
            to_roc_space(points)

    @pytest.mark.parametrize("points", [[(0.3, -1.2), (2, 1)], np.array([[0.3, -1.2], [2.0, 1.0]])])
    def test_returns_an_m_by_2_float_array(self, points):
        pts = to_roc_space(points)
        assert type(pts) is np.ndarray
        assert pts.dtype == np.float64 and pts.shape == (2, 2)
        assert to_roc_space([]).shape == (0, 2)

    @pytest.mark.filterwarnings("error")
    def test_extreme_logits_saturate_without_warnings(self):
        assert to_roc_space([(800.0, -800.0), (-800.0, 800.0)]).tolist() == [[1.0, 1.0], [0.0, 0.0]]
        assert to_roc_space([(-1e308, 1e308), (math.inf, -math.inf)]).tolist() == [
            [0.0, 0.0], [1.0, 1.0]
        ]
        assert (expit(-800.0), expit(800.0)) == (0.0, 1.0)

    @given(st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)), max_size=20))
    def test_matches_the_scalar_loop(self, points):
        # the loop the array kernel replaced; np.exp may round differently in the last place
        expected = [(1.0 - scalar_expit(v), scalar_expit(u)) for u, v in points]
        got = to_roc_space(points)
        assert got == pytest.approx(np.reshape(expected, (-1, 2)), rel=4 * ULP1, abs=2 * ULP1)
        assert got[:, 1].tolist() == [expit(u) for u, _ in points]


class TestSrocCurve:
    def test_passes_through_summary_point(self):
        beta = (1.2, 0.8)
        sigma = Sym2(0.4, 0.1, 0.3)
        fpr0 = 1.0 - expit(beta[1])
        [(fpr, sens)] = sroc_curve(beta, sigma, [fpr0])
        assert fpr == pytest.approx(fpr0, abs=1e-12)
        assert sens == pytest.approx(expit(beta[0]), abs=1e-12)

    def test_monotone_with_correlation_sign(self):
        # rising fpr means falling specificity logit, so a negative
        # sens/spec covariance (the usual threshold trade-off) yields the
        # classic upward curve and a positive one slopes down
        beta = (1.2, 0.8)
        grid = [0.1, 0.3, 0.5]
        down = [p[1] for p in sroc_curve(beta, Sym2(0.4, 0.1, 0.3), grid)]
        assert down[0] > down[1] > down[2]
        up = [p[1] for p in sroc_curve(beta, Sym2(0.4, -0.1, 0.3), grid)]
        assert up[0] < up[1] < up[2]

    def test_zero_covariance_is_flat(self):
        beta = (1.2, 0.8)
        sigma = Sym2(0.4, 0.0, 0.3)
        pts = sroc_curve(beta, sigma, [0.1, 0.5, 0.9])
        sens = [p[1] for p in pts]
        assert sens[0] == pytest.approx(sens[2], abs=1e-12)

    def test_rejects_degenerate_spec_axis(self):
        with pytest.raises(ValueError):
            sroc_curve((1.0, 1.0), Sym2(0.4, 0.0, 0.0), [0.5])

    def test_rejects_fpr_outside_open_interval(self):
        sigma = Sym2(0.4, 0.1, 0.3)
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                sroc_curve((1.0, 1.0), sigma, [bad])

    @pytest.mark.parametrize(
        "grid,named", [([0.2, math.nan, 0.0], "nan"), ([0.2, 1.5, math.nan], "1.5")]
    )
    def test_error_names_the_first_bad_point(self, grid, named):
        with pytest.raises(ValueError, match=f"fpr grid point {named} outside"):
            sroc_curve((1.0, 1.0), Sym2(0.4, 0.1, 0.3), grid)

    @given(
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-0.9, 0.9),
        st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=20),
    )
    def test_matches_the_scalar_loop(self, beta_a, beta_b, rho, grid):
        # the loop the array kernel replaced, with logit and the math.exp expit
        sigma = Sym2(0.5, rho * math.sqrt(0.5 * 0.3), 0.3)
        slope = sigma.a12 / sigma.a22
        expected = [(t, scalar_expit(beta_a + slope * (logit(1.0 - t) - beta_b))) for t in grid]
        got = sroc_curve((beta_a, beta_b), sigma, grid)
        assert got == pytest.approx(np.reshape(expected, (-1, 2)), rel=4 * ULP1, abs=2 * ULP1)


class TestStudyValidation:
    def test_rejects_nonfinite_effect(self):
        with pytest.raises(ValueError):
            Study(y_a=math.nan, y_b=0.0, s_a=0.1, s_b=0.1)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            Study(y_a=0.0, y_b=0.0, s_a=0.0, s_b=0.1)
