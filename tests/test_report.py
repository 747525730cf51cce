"""Report.add reduces the sampled residuals it is handed to one number."""

import math

import numpy as np
import pytest

from bigtangent.report import Report, largest


def test_largest_absolute_value_over_scalars_and_arrays_of_any_shape():
    assert largest(-3.0) == 3.0
    assert largest(np.float64(-0.25)) == 0.25
    assert largest(np.array([[1.0, -2.0], [0.5, 0.0]])) == 2.0
    assert largest(np.zeros((2, 0, 3)), [0.125, -0.5], -0.75, np.full((2, 2, 2), 0.5)) == 0.75
    assert type(largest(np.arange(3))) is float


def test_several_residuals_in_one_call():
    rep = Report("t", tol=1.0)
    assert rep.add("split", np.array([0.25, -0.5]), np.array([[-0.75]]), 0.125)
    assert rep["split"]["max_residual"] == 0.75
    assert not rep.add("one too large", np.zeros(3), -1.5)
    assert rep["one too large"]["max_residual"] == 1.5
    assert rep.max_residual == 1.5


def test_no_values_record_zero_and_pass():
    rep = Report("t")
    assert rep.add("empty array", np.empty((0, 4)))
    assert rep.add("nothing")
    assert [e["max_residual"] for e in rep.entries] == [0.0, 0.0]
    assert rep.passed and rep.max_residual == 0.0
    assert Report("none").max_residual == 0.0


@pytest.mark.parametrize("where", range(3))
def test_a_nan_anywhere_fails_the_identity(where):
    residuals = [np.array([0.5, 0.25]), 0.125, np.array([[1e-3]])]
    nan_at = [np.array([0.5, np.nan]), np.nan, np.array([[np.nan]])][where]
    residuals[where] = nan_at
    rep = Report("t", tol=1.0)
    rep.add("before", 0.5)
    assert not rep.add("nan", *residuals)
    entry = rep["nan"]
    assert math.isnan(entry["max_residual"]) and entry["pass"] is False
    # the report's largest residual keeps the NaN of an entry after the first
    assert math.isnan(rep.max_residual)
    assert not rep.passed


def test_add_bool_is_a_residual_of_zero_or_one_against_one_half():
    rep = Report("t", tol=1e-12)
    assert rep.add_bool("yes", True)
    assert not rep.add_bool("no", False)
    assert rep.entries == [
        {"identity": "yes", "max_residual": 0.0, "tol": 0.5, "pass": True},
        {"identity": "no", "max_residual": 1.0, "tol": 0.5, "pass": False},
    ]


def test_tolerance_is_keyword_only_and_defaults_to_the_report():
    rep = Report("t", tol=1e-3)
    rep.add("default", 2e-3)
    rep.add("own", 2e-3, tol=1e-2)
    assert [(e["tol"], e["pass"]) for e in rep.entries] == [(1e-3, False), (1e-2, True)]
