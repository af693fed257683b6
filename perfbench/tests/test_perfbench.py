"""Tests of the benchmark itself: tracer arithmetic, speed-gauge
arithmetic, the verdict comparator, tracing transparency and the metric
lists.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from gauge import REFERENCE_CHUNK_S, SpeedGauge  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, check_verdict  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class Boom(Exception):
    pass


def test_self_time_on_nested_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock, error_type=Boom)

    def leaf():
        clock.t += 1.0

    def leaf_in_leaf():
        clock.t += 0.25
        leaf_w()

    def failing_leaf():
        clock.t += 0.5
        raise Boom

    def inner():
        clock.t += 2.0
        leaf_w()
        clock.t += 0.5

    def outer():
        clock.t += 3.0
        inner_w()
        outer_leaf_w()
        with pytest.raises(Boom):
            failing_w()
        clock.t += 1.0

    leaf_w = tr.wrap("expr.leaf", leaf, leaf=True)
    outer_leaf_w = tr.wrap("imforms.fd", leaf_in_leaf, leaf=True)
    failing_w = tr.wrap("expr.bad", failing_leaf, leaf=True)
    inner_w = tr.wrap("algebroid.inner", inner)
    outer_w = tr.wrap("cli.outer", outer)
    outer_w()

    # [calls, inclusive, self, errors]
    assert tr.stats["expr.leaf"] == [2, 2.0, 2.0, 0]
    assert tr.stats["imforms.fd"] == [1, 1.25, 0.25, 0]
    assert tr.stats["expr.bad"] == [1, 0.5, 0.5, 1]
    assert tr.stats["algebroid.inner"] == [1, 3.5, 2.5, 0]
    assert tr.stats["cli.outer"] == [1, 9.25, 4.0, 0]
    # Only non-leaf calls get span records, each with its parent id.
    assert [(s[0], s[1], s[2]) for s in tr.spans] == [(2, 1, "algebroid.inner"), (1, 0, "cli.outer")]
    # Leaves add up per parent span, including a leaf called by a leaf.
    assert tr.leaves == {
        (2, "expr.leaf"): [1, 1.0],
        (1, "imforms.fd"): [1, 1.25],
        (1, "expr.leaf"): [1, 1.0],
        (1, "expr.bad"): [1, 0.5],
    }

    m = run.layer_metrics([tr.as_dict()])
    assert m["cli.self_s"] == 4.0
    assert m["algebroid.self_s"] == 2.5
    assert m["imforms.self_s"] == 0.25
    assert m["expr.self_s"] == 2.5
    assert m["expr.eval_errors"] == 1
    # Self times partition the root span.
    assert sum(m[f"{layer}.self_s"] for layer in run.LAYERS) == 9.25


def test_speed_gauge_scaling():
    gauge = SpeedGauge(min_span=0.2)
    # One chunk at the reference speed, one at half of it.
    gauge.samples = [(0.05, REFERENCE_CHUNK_S), (0.15, 2 * REFERENCE_CHUNK_S), (0.5, REFERENCE_CHUNK_S)]
    # Mean speed 0.75; the chunks' own CPU time is taken out first.
    assert gauge.scale(0.0, 0.2) == pytest.approx((0.2 - 3 * REFERENCE_CHUNK_S) * 0.75)
    assert gauge.scale(0.1, 0.3) == pytest.approx((0.2 - 2 * REFERENCE_CHUNK_S) * 0.5)
    # A shorter window reads the speed over min_span about its middle.
    assert gauge.scale(0.06, 0.07) == pytest.approx(0.01 * 0.75)
    with pytest.raises(RuntimeError):
        gauge.scale(0.8, 1.2)
    with SpeedGauge(period=0.01) as live:
        time.sleep(0.1)
    assert live.samples and live.scale(live.samples[0][0], live.samples[-1][0]) > 0


def _report(checks, **extra):
    doc = {"checks": [{"name": n, "pass": p} for n, p in checks.items()]}
    doc.update(extra)
    return json.dumps(doc)


def test_comparator_catches_flipped_check_and_exit_code():
    good = Job("verify-algebroid", "so3_radial")
    assert check_verdict(good, 0, _report({"jacobi": True, "anchor_morphism": True})) is None
    assert "jacobi" in check_verdict(good, 0, _report({"jacobi": False, "anchor_morphism": True}))
    assert "exit code" in check_verdict(good, 1, _report({"jacobi": True, "anchor_morphism": True}))

    bad = Job("check-structure", "bad_u")
    assert check_verdict(bad, 1, _report({"S1": True, "S2": True, "S3": False})) is None
    assert "S3" in check_verdict(bad, 1, _report({"S1": True, "S2": True, "S3": True}))
    assert "exit code" in check_verdict(bad, 0, _report({"S1": True, "S2": True, "S3": False}))
    assert "missing" in check_verdict(bad, 1, _report({"S1": True, "S2": False}))

    cls = Job("classify", "principal_flat")
    assert check_verdict(cls, 0, _report({}, flatness=["kernel"])) is None
    assert "flatness" in check_verdict(cls, 0, _report({}, flatness=["leafwise", "kernel"]))
    assert "unreadable" in check_verdict(cls, 0, "Traceback ...")


@pytest.mark.parametrize(
    "args",
    [
        ["check-structure", "--model", "models/bad_u.json"],
        ["classify", "--model", "models/product_so3.json"],
    ],
)
def test_tracing_keeps_reports_byte_identical(args, tmp_path):
    args = args + ["--seed", "7", "--samples", "20", "--json"]
    env = run.child_env()
    plain = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", *args], cwd=run.ROOT, env=env, capture_output=True
    )
    trace_out = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(trace_out), "--", *args],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
    )
    assert plain.returncode == traced.returncode
    assert plain.stdout and plain.stdout == traced.stdout
    trace = json.loads(trace_out.read_text())
    assert trace["stats"]["expr.evaluate"][0] > 0
    assert trace["gauges"]["expr.fold_cache.entries"] > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    # BENCHMARK.json holds the one copy of each workload's reason.
    assert [WORKLOADS[w["name"]].why for w in spec["workloads"]] == [w["why"] for w in spec["workloads"]]
