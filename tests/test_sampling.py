"""Tests for the residual accumulator every checker reduces samples
with, and for the JSON form of reports."""

import json
import math

import numpy as np
import pytest

from algebroids.expr import Chart
from algebroids.sampling import Report, Residual, polynomial, polynomial_draws, random_polynomial


def test_residual_starts_at_zero_and_keeps_largest_magnitude():
    r = Residual()
    assert r.value == 0.0
    r.update(-3.0)
    r.update(2)
    assert r.value == 3.0
    r.update(np.array([[0.5, -4.0], [1.0, 2.0]]))
    assert r.value == 4.0 and type(r.value) is float
    r.update(np.float64(-5.5))
    assert r.value == 5.5


def test_residual_empty_array_counts_as_zero():
    assert Residual().update(np.zeros((3, 0))).value == 0.0
    assert Residual().update(1e-3).update(np.array([])).value == 1e-3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_residual_non_finite_is_inf(bad):
    assert Residual().update(bad).value == math.inf
    assert Residual().update(np.array([0.0, bad, 1.0])).value == math.inf
    # Later finite values do not hide it.
    assert Residual().update(bad).update(7.0).value == math.inf
    assert Residual().update(7.0).update(np.array([bad])).value == math.inf


def test_report_json_writes_non_finite_numbers_as_null():
    rep = Report(command="t", seed=1, samples=2)
    rep.add("finite", 1e-12, 1e-8)
    rep.add("nan", math.nan, 1e-8)
    rep.extra["curvature_max_value"] = math.inf
    rep.extra["residuals"] = {"S1": -math.inf, "S2": 0.5}

    def reject(name):
        raise ValueError(name)

    doc = json.loads(rep.to_json(), parse_constant=reject)
    assert doc["checks"][0] == {"name": "finite", "max_residual": 1e-12, "tolerance": 1e-8, "pass": True}
    assert doc["checks"][1] == {
        "name": "nan", "max_residual": None, "tolerance": 1e-8, "pass": False, "non_finite": True,
    }
    assert doc["curvature_max_value"] is None
    assert doc["residuals"] == {"S1": None, "S2": 0.5}


def test_random_polynomial_is_its_draws():
    # The draws alone move the stream as the polynomial does, and give it back.
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(5):
        assert random_polynomial(Chart(3), a) == polynomial(polynomial_draws(3, b))
    assert a.bit_generator.state == b.bit_generator.state
