"""Tests for the reduction every check hands its defects to, and for
the JSON form of reports."""

import json
import math

import numpy as np
import pytest

from algebroids.expr import Chart
from algebroids.sampling import Report, polynomial, polynomial_draws, random_polynomial, sup


def test_residual_starts_at_zero_and_keeps_largest_magnitude():
    assert sup() == 0.0 and type(sup()) is float
    assert sup(-3.0, 2) == 3.0
    r = sup(-3.0, 2, np.array([[0.5, -4.0], [1.0, 2.0]]))
    assert r == 4.0 and type(r) is float
    assert sup(-3.0, 2, np.array([[0.5, -4.0], [1.0, 2.0]]), np.float64(-5.5)) == 5.5


def test_residual_empty_array_counts_as_zero():
    assert sup(np.zeros((3, 0))) == 0.0
    assert sup(1e-3, np.array([])) == 1e-3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_residual_non_finite_is_inf(bad):
    assert sup(bad) == math.inf
    assert sup(np.array([0.0, bad, 1.0])) == math.inf
    # Later finite values do not hide it.
    assert sup(bad, 7.0) == math.inf
    assert sup(7.0, np.array([bad])) == math.inf


class _RefResidual:
    """The running accumulator ``sup`` replaced, kept as its reference:
    ``value`` is the largest absolute value seen (0.0 before any), or
    ``inf`` once any value is NaN or +-inf."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def update(self, values) -> "_RefResidual":
        if isinstance(values, (float, int)):
            v = abs(values)
        else:
            a = np.abs(np.asarray(values, dtype=float))
            if a.size == 0:
                return self
            v = float(a.max())
        if not math.isfinite(v):
            v = math.inf
        if v > self.value:
            self.value = float(v)
        return self


def _random_part(rng):
    """A scalar or an array as checks hand them over: a Python float or
    int, an np.float64, a 0-d, empty or 1- to 3-d array, with -0.0, NaN
    and +-inf at random positions now and then."""
    kind = rng.integers(6)
    if kind == 0:
        return float(rng.normal() * 10.0 ** rng.integers(-12, 3))
    if kind == 1:
        return int(rng.integers(-9, 10))
    if kind == 2:
        return np.float64(rng.normal())
    if kind == 3:
        return np.zeros(tuple(rng.integers(0, 3, size=rng.integers(1, 3))) + (0,))
    shape = () if kind == 4 else tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
    a = np.asarray(rng.normal(size=shape) * 10.0 ** rng.integers(-12, 3, size=shape))
    for special in (-0.0, math.nan, math.inf, -math.inf):
        if rng.uniform() < 0.15:
            a[tuple(rng.integers(0, n) for n in a.shape)] = special
    return a


def test_sup_is_the_running_accumulator_bit_for_bit():
    rng = np.random.default_rng(2026)
    seen = set()
    for _ in range(400):
        parts = [_random_part(rng) for _ in range(rng.integers(0, 6))]
        ref = _RefResidual()
        for part in parts:
            ref.update(part)
        got = sup(*parts)
        assert type(got) is float and got.hex() == ref.value.hex()
        seen.add("inf" if math.isinf(got) else "zero" if got == 0.0 else "finite")
        # Report.add reduces one array as the accumulator does, and
        # stores a residual that is already reduced unchanged.
        flat = np.concatenate([np.ravel(p) for p in parts] + [np.zeros(0)])
        check = Report(command="t", seed=0, samples=1).add("x", flat, 1.0)
        assert check.max_residual.hex() == _RefResidual().update(flat).value.hex()
        assert Report(command="t", seed=0, samples=1).add("x", got, 1.0).max_residual.hex() == got.hex()
    assert seen == {"inf", "zero", "finite"}


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
