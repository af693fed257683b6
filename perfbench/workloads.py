"""Workloads, their jobs, and the known-answer verdict table.

A job is one verdict: one ``algebroids`` CLI command over a shipped
model (or an ``example`` family) at a seed and a sample count. Every
workload is a closed loop with one caller: a job starts only after the
previous verdict is back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

STOCK_SEED = 42
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@cache
def _reasons() -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {w["name"]: w["why"] for w in spec["workloads"]}


@dataclass(frozen=True)
class Expect:
    """Known answer for one job.

    ``failing`` names the checks that must be present and fail; every
    other check in the report must pass. ``flatness`` is the list that
    ``classify`` must report, in its order.
    """

    exit_code: int = 0
    failing: frozenset = frozenset()
    flatness: tuple | None = None


# The table is written by hand from the fixtures' documented intent
# (tools/generate_models.py) and the CLI and acceptance tests. It pins
# verdicts, never residual values, and is never regenerated from the
# code under test.
VERDICTS = {
    # bad_structure perturbs [e1, e2] by x1*e3 in the rotation action
    # algebroid. Jacobi fails (the documented intent), and so does the
    # anchor morphism: rho([e1, e2]) moves by x1*rho(e3), which is not 0,
    # while [rho(e1), rho(e2)] does not move.
    ("verify-algebroid", "bad_structure"): Expect(1, frozenset({"jacobi", "anchor_morphism"})),
    # bad_u has a non-closed mixed tensor U: S3 fails (CLI test).
    ("check-structure", "bad_u"): Expect(1, frozenset({"S3"})),
    # On bad_u's semidirect carrier Jacobi fails, so the two identities
    # that go through the bracket [a, b] fail. Identity 1 involves only
    # the symbol -U and the anchor, and U is anchor-skew, so it holds.
    ("curvature", "bad_u"): Expect(1, frozenset({"im_identity_2", "im_identity_3"})),
    # Flatness classes (CLI test and the fixtures' intent).
    ("classify", "product_so3"): Expect(flatness=("totally", "leafwise", "kernel")),
    ("classify", "principal_flat"): Expect(flatness=("kernel",)),
    ("classify", "bad_u"): Expect(flatness=("kernel",)),
}
PASS = Expect()


@dataclass(frozen=True)
class Job:
    command: str
    model: str | None  # model file stem under models/, or None
    extra: tuple = ()
    seed: int = STOCK_SEED
    samples: int = 200

    @property
    def label(self) -> str:
        parts = [self.command, *self.extra]
        if self.model:
            parts.append(self.model)
        return " ".join(parts) + f" @{self.seed}"

    def cli_args(self, models_dir: str) -> list[str]:
        args = [self.command, *self.extra]
        if self.model:
            args += ["--model", f"{models_dir}/{self.model}.json"]
        return args + ["--seed", str(self.seed), "--samples", str(self.samples), "--json"]

    @property
    def expect(self) -> Expect:
        return VERDICTS.get((self.command, self.model), PASS)


@dataclass(frozen=True)
class Workload:
    name: str
    fresh_process: bool  # one process per job, else one session process
    samples: int
    models: tuple  # loaded by the set-up probe
    make_jobs: Callable[[int, int], list[Job]]

    def jobs(self, seed: int) -> list[Job]:
        return self.make_jobs(seed, self.samples)

    @property
    def why(self) -> str:
        """Why the workload was chosen; the one copy is in BENCHMARK.json."""
        return _reasons()[self.name]


def _symbolic_jobs(seed: int, samples: int) -> list[Job]:
    spec = [
        ("verify-algebroid", "so3_radial"),
        ("verify-algebroid", "product_so3"),
        ("verify-algebroid", "principal_flat"),
        ("verify-algebroid", "bad_structure"),
        ("verify-ideal", "so3_radial"),
        ("verify-ideal", "product_so3"),
        ("verify-im", "product_so3"),
        ("verify-im", "principal_flat"),
        ("coupling", "principal_flat", "--roundtrip"),
        ("coupling", "product_so3", "--roundtrip"),
        ("check-structure", "product_so3"),
        ("check-structure", "bad_u"),
        ("check-structure", "principal_flat", "--kernel-flat"),
        ("build-semidirect", "principal_flat"),
        ("curvature", "principal_flat"),
        ("curvature", "bad_u"),
        ("classify", "product_so3"),
        ("classify", "principal_flat"),
        ("classify", "bad_u"),
        ("rank-one", "rank_one"),
        ("rank-one", "rank_one", "--witness", "kernel"),
        ("rank-one", "principal_flat", "--witness", "kernel"),
    ]
    return [Job(c, m, tuple(x), seed, samples) for c, m, *x in spec]


GROUPOID_SO3_LIE_SEEDS = 3


def _groupoid_jobs(seed: int, samples: int) -> list[Job]:
    # groupoid-verify on so3 costs about 8 s at any sample count (the
    # Bianchi check has a fixed point count), so it runs at one seed, as
    # does the cheap so2 model. lie-functor on so3 runs at three seeds:
    # the median of the six latencies is then the mean of two of them,
    # mostly groupoid flows and the evaluations they drive, not start-up,
    # and a pass is long enough (20-30 s) that a 30 s run holds one.
    jobs = [
        Job("groupoid-verify", "so2_groupoid", (), seed, samples),
        Job("lie-functor", "so2_groupoid", (), seed, samples),
        Job("groupoid-verify", "so3_radial_groupoid", (), seed, samples),
    ]
    return jobs + [
        Job("lie-functor", "so3_radial_groupoid", (), seed + k, samples)
        for k in range(GROUPOID_SO3_LIE_SEEDS)
    ]


# Families in factory.EXAMPLE_NAMES order.
EXAMPLE_FAMILIES = (
    "product",
    "lie_algebra_bundle",
    "transitive",
    "action",
    "principal_type",
    "principal_type_flat",
    "rank_one",
)
SESSION_NEW_SEEDS = 3


def _session_jobs(seed: int, samples: int) -> list[Job]:
    # New seeds write new cache entries; the repeated first seed reads
    # them back and must reproduce its reports byte for byte.
    seeds = [seed + k for k in range(SESSION_NEW_SEEDS)] + [seed]
    return [Job("example", None, (family,), s, samples) for s in seeds for family in EXAMPLE_FAMILIES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "symbolic-cli",
            True,
            60,
            ("so3_radial", "product_so3", "principal_flat", "bad_structure", "bad_u", "rank_one"),
            _symbolic_jobs,
        ),
        Workload(
            "groupoid-cli",
            True,
            4,
            ("so2_groupoid", "so3_radial_groupoid"),
            _groupoid_jobs,
        ),
        Workload(
            "example-session",
            False,
            10,
            (),
            _session_jobs,
        ),
    )
}


def check_verdict(job: Job, code, stdout: str) -> str | None:
    """Compare one job's outcome with the table; return why it is wrong,
    or None when it matches."""
    expect = job.expect
    if code != expect.exit_code:
        return f"exit code {code}, expected {expect.exit_code}"
    try:
        report = json.loads(stdout)
        checks = {c["name"]: bool(c["pass"]) for c in report["checks"]}
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {e}"
    missing = expect.failing - checks.keys()
    if missing:
        return f"expected failing checks missing: {sorted(missing)}"
    for name, passed in sorted(checks.items()):
        if passed == (name in expect.failing):
            return f"check {name} {'passed' if passed else 'failed'}, expected the opposite"
    if expect.flatness is not None and tuple(report.get("flatness", ())) != expect.flatness:
        return f"flatness {report.get('flatness')}, expected {list(expect.flatness)}"
    return None
