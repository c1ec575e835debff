"""The check-report builder and its pass rule."""

import math

import pytest

from rclab import SCHEMA, report, worst


def test_report_fills_the_format():
    rep = report("x-check", "sym2", k=1, residual=0.5, tolerance=1.0)
    assert rep == {"schema": SCHEMA, "check": "x-check", "algebra": "sym2",
                   "k": 1, "residual": 0.5, "tolerance": 1.0, "pass": True}


def test_one_nan_residual_fails():
    residuals = [1e-14, math.nan, 3e-13]
    assert math.isnan(worst(residuals))
    rep = report("x-check", "rank1", max_residual=worst(residuals),
                 tolerance=1e-10)
    assert rep["pass"] is False
    assert report("x-check", "rank1", residual=1e-12, ratio_spread=math.nan,
                  tolerance=1e-10)["pass"] is False
    assert report("x-check", "rank1", residual=math.inf,
                  tolerance=math.inf)["pass"] is False


def test_every_residual_and_the_condition_must_hold():
    assert report("x-check", "rank1", residual=1e-12, constant_residual=1e-3,
                  tolerance=1e-6)["pass"] is False
    assert report("x-check", "rank1", ok=False, max_residual=0.0,
                  tolerance=1e-6)["pass"] is False
    assert report("x-check", "rank1", ok=True, max_residual=0.0,
                  tolerance=1e-6)["pass"] is True


def test_exact_reports_need_a_condition():
    with pytest.raises(ValueError):
        report("x-check", "rank1", rows=[])
    with pytest.raises(ValueError):
        report("x-check", "rank1", tolerance=1e-6)
    assert report("x-check", "rank1", ok=True, rows=[])["pass"] is True
    assert report("x-check", "rank1", ok=False, rows=[])["pass"] is False


def test_worst_matches_max_on_finite_values():
    assert worst([]) == 0.0
    assert worst([0.25, 3.0, 1.0]) == 3.0
    assert worst(iter([2.0, math.nan, 5.0])) != worst([2.0, 5.0])
