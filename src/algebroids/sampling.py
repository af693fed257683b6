"""Seeded sampling plans and check reports.

Every checker in the package draws its random points, sections and
fiber vectors from a SamplePlan so that a (model, seed, samples)
triple determines the verdict byte-for-byte.  A check hands its defect
arrays to ``Report.add``, which reduces them to one residual through
``sup``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .expr import Chart, _sample_point

__all__ = [
    "SamplePlan", "sup", "Check", "Report", "polynomial_draws", "polynomial_jets",
    "EquivarianceError", "FlowRegionError", "CenterDegeneracyError",
]


class SamplePlan:
    """A seeded source of sample points and random tensors.

    ``samples`` is the nominal evaluation budget; checkers split it
    between random section draws and points per draw.
    """

    def __init__(self, seed: int = 42, samples: int = 200):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.seed = int(seed)
        self.samples = int(samples)
        self.rng = np.random.default_rng(self.seed)

    def fork(self, tag: str) -> "SamplePlan":
        """Independent sub-plan, deterministic in (seed, tag) across
        processes (the tag digest must not depend on the interpreter's
        salted string hashing)."""
        sub = SamplePlan.__new__(SamplePlan)
        sub.seed = self.seed
        sub.samples = self.samples
        sub.rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, zlib.crc32(tag.encode("utf-8"))])
        )
        return sub

    def points(self, chart: Chart, n: int) -> list[np.ndarray]:
        return [_sample_point(chart, self.rng) for _ in range(n)]

    def point(self, chart: Chart) -> np.ndarray:
        return _sample_point(chart, self.rng)

    def split_budget(self, per_draw: int = 20) -> tuple[int, int]:
        """Split the budget into (number of random draws, points per draw)."""
        draws = max(1, self.samples // per_draw)
        pts = max(1, min(per_draw, self.samples))
        return draws, pts


def polynomial_draws(dim: int, rng: np.random.Generator) -> list[tuple[float, tuple[int, ...]]]:
    """A random polynomial of degree <= 2 with coefficients in [-1, 1],
    the component of the stock random section, as (coefficient,
    monomial) terms: the constant, each linear term, and each quadratic
    monomial with probability 1/2, drawn in that order.  A monomial is
    the tuple of its coordinate indices, () for the constant."""
    terms = [(float(rng.uniform(-1, 1)), ())]
    terms += [(float(rng.uniform(-1, 1)), (i,)) for i in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            if rng.uniform() < 0.5:
                terms.append((float(rng.uniform(-1, 1)), (i, j)))
    return terms


def polynomial_jets(polys, points):
    """The 2-jets at ``points`` of ``polys``, one ``polynomial_draws``
    term list each: ``val[p, a]`` f_a, ``jac[p, a, j]`` d_j f_a and
    ``hess[p, a, j, i]`` d_i d_j f_a, views of one array.  Bit for bit
    the tapes of the folded Expr sum of the terms and of its symbolic
    partials (the tests' ``reference.polynomial``): a term's product is
    c * x_i * x_j, left to right; a value or first
    partial is the ``math.fsum`` of its terms at the point; a second
    partial is c, or c + c on the diagonal (the degree is at most 2)."""
    x = np.array(points, dtype=float)
    (p, n), m = x.shape, len(polys)
    v = np.zeros((p, m + m * n + m * n * n))
    val, jac = v[:, :m], v[:, m : m + m * n].reshape(p, m, n)
    hess = np.moveaxis(v[:, m + m * n :].reshape(p, n, m, n), -3, -1)

    def product(c, mono):
        """c times the coordinates of ``mono`` at each point, left to right."""
        out = np.full(p, c)
        for i in mono:
            out = out * x[:, i]
        return out

    def fsums(terms):
        """The ``math.fsum`` of the terms at each point."""
        return [math.fsum(t) for t in np.reshape(terms, (len(terms), p)).T.tolist()]

    for a, terms in enumerate(polys):
        f, df = [], [[] for _ in range(n)]  # the terms of f_a and of each d_j f_a
        for c, mono in terms:
            f.append(product(c, mono))
            for t, i in enumerate(mono):
                rest = mono[:t] + mono[t + 1 :]
                df[i].append(product(c, rest))
                for j in rest:
                    hess[:, a, i, j] += c
        val[:, a] = fsums(f)
        jac[:, a] = np.transpose([fsums(d) for d in df])
    return val, jac, hess


def sup(*defects) -> float:
    """The residual of sampled defects: the largest absolute entry over
    scalars and arrays of any shape (0.0 for none, or only empty
    arrays), or ``inf`` once any entry is NaN or +-inf, so a check that
    met a value it could not measure fails instead of dropping it."""
    peaks = [np.abs(np.asarray(d, dtype=float)).max(initial=0.0) for d in defects]
    v = float(np.max(peaks, initial=0.0))  # np.max keeps a NaN peak; the builtin max drops it
    return v if math.isfinite(v) else math.inf


def _finite_or_none(v):
    """``v`` with every non-finite float in it, also inside dicts and
    lists, replaced by None: JSON has no inf or NaN."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_none(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_none(x) for x in v]
    return v


@dataclass
class Check:
    """One named residual check."""

    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_residual < self.tolerance)

    def as_dict(self) -> dict:
        finite = math.isfinite(self.max_residual)
        d = {
            "name": self.name,
            "max_residual": float(self.max_residual) if finite else None,
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }
        if not finite:
            d["non_finite"] = True
        return d


@dataclass
class Report:
    """Machine-readable verification report.

    Deterministic for a fixed (model, seed, samples); wall time is
    deliberately not part of the JSON payload so identical runs emit
    byte-identical documents.
    """

    command: str
    seed: int
    samples: int
    checks: list[Check] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, name: str, max_residual, tolerance: float) -> Check:
        """Record the check ``name`` of the defects ``max_residual`` (a
        scalar or an array of any shape), reduced by ``sup``."""
        c = Check(name, sup(max_residual), float(tolerance))
        self.checks.append(c)
        return c

    def merge(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                Check(prefix + c.name, c.max_residual, c.tolerance)
            )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        d = {
            "report_version": 1,
            "command": self.command,
            "seed": self.seed,
            "samples": self.samples,
            "checks": [c.as_dict() for c in self.checks],
            "pass": self.passed,
        }
        d.update(_finite_or_none(self.extra))
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, allow_nan=False) + "\n"

    def table(self) -> str:
        lines = [f"{'check':<44} {'max residual':>14} {'tolerance':>11} verdict"]
        for c in self.checks:
            lines.append(
                f"{c.name:<44} {c.max_residual:>14.3e} {c.tolerance:>11.1e} "
                + ("pass" if c.passed else "FAIL")
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# The refusals of the groupoid and IM-form checkers, kept here so that
# the command line catches them without importing those checkers;
# ``groupoid`` and ``imforms`` export them under their own names.


class EquivarianceError(Exception):
    """A splitting failed its equivariance precondition; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class FlowRegionError(Exception):
    """A left-invariant flow left the padded sampling region."""


class CenterDegeneracyError(Exception):
    """The fiberwise center does not have constant rank over the sample."""
