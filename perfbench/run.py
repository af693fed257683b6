"""Time-to-verdict benchmark for the algebroids checking library.

    python3 perfbench/run.py --workload symbolic-cli --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/results/baseline.json

Run from the root of a checkout: the package is imported from ``src``
and the shipped ``models``. One run measures set-up time, then runs
passes over the workload's job list until the next pass would end past
``--seconds`` (at least one pass; a pass takes 15 to 30 s, so a run of
30 s mostly holds one). Every time is read at a fixed CPU speed by the
speed gauge in ``gauge.py``. Every verdict is checked against the
known-answer table in ``workloads.py``, and a repeated (job, seed) must
reproduce its report byte for byte.

With ``--trace 0`` the end-to-end metrics are reported. With
``--trace 1`` untraced and traced passes alternate, at least one of
each whatever ``--seconds`` is, and the per-layer metrics come from the
traced ones. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full result (environment, inputs, every verdict) is written under
``perfbench/out/`` or to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gauge import REFERENCE_CHUNK_S, SpeedGauge, pin_to_one_cpu
from tracer import LAYERS
from workloads import STOCK_SEED, WORKLOADS, Job, Workload, check_verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# Jobs run one at a time on small matrices, on the one CPU the speed
# gauge watches; one BLAS thread keeps them there.
BLAS_THREADS = "1"

SETUP_PROBE = (
    "import sys\n"
    "import algebroids.cli\n"
    "from algebroids.modelio import load_model\n"
    "for path in sys.argv[1:]:\n"
    "    load_model(path)\n"
)

END_TO_END = (
    ("suite_s", "s"),
    ("verdict_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics in the order of the metric-to-module map in README.md.
_TIMED = (
    "expr.evaluate",
    "expr.differentiate",
    "algebroid.check_axioms",
    "algebroid.bracket",
    "imforms.check_im_form",
    "imforms.check_structure_equations",
    "imforms.fd_partial",
    "factory.make_example",
    "groupoid.differentiate_to_im",
    "groupoid.check_groupoid_properties",
    "groupoid.expm",
)
_CALLED = (
    "modelio.load_model",
    "expr.evaluate",
    "expr.differentiate",
    "expr.fold",
    "algebroid.check_axioms",
    "imforms.fd_partial",
    "groupoid.expm",
)
_GAUGES = ("expr.fold_cache.entries", "expr.diff_cache.entries")


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.self_s", "s"))
        names += [(f"{n}.calls", "count") for n in _CALLED if n.startswith(layer + ".")]
        names += [(f"{n}.s", "s") for n in _TIMED if n.startswith(layer + ".")]
        names += [(n, "count") for n in _GAUGES if n.startswith(layer + ".")]
        if layer == "expr":
            names.append(("expr.eval_errors", "count"))
        if layer == "sampling":
            names.append(("sampling.points", "count"))
    names.append(("trace.overhead_s", "s"))
    return names


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the trace of each of its processes.

    Times and counts add up over processes; cache sizes take the largest."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    gauges: dict[str, int] = {}
    for t in traces:
        for name, row in t["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in t["gauges"].items():
            gauges[k] = max(gauges.get(k, 0), v)
    zero = [0, 0.0, 0.0, 0]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(r[2] for n, r in stats.items() if n.split(".", 1)[0] == layer)
    for n in _TIMED:
        out[f"{n}.s"] = stats.get(n, zero)[1]
    for n in _CALLED:
        out[f"{n}.calls"] = stats.get(n, zero)[0]
    for n in _GAUGES:
        out[n] = gauges.get(n, 0)
    out["expr.eval_errors"] = sum(r[3] for n, r in stats.items() if n.startswith("expr."))
    out["sampling.points"] = counters.get("sampling.points", 0)
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv: list[str], env: dict, err) -> tuple[int, str, int, tuple[float, float]]:
    """Run one process to its end; return (exit code, stdout, peak RSS
    in KiB, (start, end) perf_counter window). stderr is appended to the
    open file ``err``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
    try:
        with proc.stdout:
            out = proc.stdout.read().decode("utf-8", "replace")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # wait4, not wait: it also returns the child's own peak RSS.
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss, (start, end)


@dataclass
class Pass:
    """One pass as measured: perf_counter windows, read at the reference
    speed by ``scaled`` once the speed gauge has stopped."""

    traced: bool
    window: tuple[float, float]
    verdicts: list[tuple[float, float]]
    peak_rss_kb: int
    layers: dict | None = None

    def scaled(self, gauge: SpeedGauge) -> dict:
        suite_s = gauge.scale(*self.window)
        wall = self.window[1] - self.window[0]
        layers = None
        if self.layers is not None:
            # Layer times are read at the pass's mean speed; counts stay.
            layers = {
                k: v * suite_s / wall if k.endswith("_s") or k.endswith(".s") else v
                for k, v in self.layers.items()
            }
        return {
            "traced": self.traced,
            "suite_s": suite_s,
            "suite_wall_s": wall,
            "latencies_s": [gauge.scale(*w) for w in self.verdicts],
            "latencies_wall_s": [e - s for s, e in self.verdicts],
            "peak_rss_kb": self.peak_rss_kb,
            "layers": layers,
        }


@dataclass
class RunState:
    workdir: Path
    env: dict
    err: object
    first_output: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, index: int, job: Job, code, out: str, error: str | None, err_from: int) -> None:
        self.attempted += 1
        reason = error or check_verdict(job, code, out)
        if reason is None:
            first = self.first_output.setdefault(job, out)
            if first != out:
                reason = "report differs from the earlier run of the same (job, seed)"
        if reason is not None:
            self.err.flush()
            with open(self.err.name, "rb") as fh:
                fh.seek(err_from)
                tail = fh.read().decode("utf-8", "replace")[-400:]
            self.failures.append({"pass": index, "job": job.label, "reason": reason, "stderr": tail})


def run_pass(index: int, workload: Workload, jobs: list[Job], traced: bool, state: RunState) -> Pass:
    py = sys.executable
    traces: list[dict] = []
    verdicts: list[tuple[float, float]] = []
    peak = 0
    start = time.perf_counter()
    if workload.fresh_process:
        for i, job in enumerate(jobs):
            trace_path = state.workdir / f"trace-{index}-{i}.json"
            if traced:
                argv = [py, str(HERE / "child.py"), str(trace_path), "--"]
            else:
                argv = [py, "-m", "algebroids.cli"]
            err_from = state.err.tell()
            code, out, rss, window = spawn(argv + job.cli_args("models"), state.env, state.err)
            verdicts.append(window)
            peak = max(peak, rss)
            state.record(index, job, code, out, None, err_from)
            if traced and trace_path.exists():
                traces.append(json.loads(trace_path.read_text()))
        window = (start, time.perf_counter())
    else:
        trace_path = state.workdir / f"trace-{index}.json"
        argv = [py, str(HERE / "session.py"), json.dumps([j.cli_args("models") for j in jobs])]
        if traced:
            argv.append(str(trace_path))
        err_from = state.err.tell()
        code, out, peak, window = spawn(argv, state.env, state.err)
        lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        for i, job in enumerate(jobs):
            if i < len(lines):
                row = lines[i]
                # perf_counter is CLOCK_MONOTONIC, shared with the session process.
                verdicts.append((row["start"], row["end"]))
                state.record(index, job, row["code"], row["out"], row["error"], err_from)
            else:
                state.record(index, job, None, "", f"session exited with {code} before this job", err_from)
        if traced and trace_path.exists():
            traces.append(json.loads(trace_path.read_text()))
    layers = layer_metrics(traces) if traced else None
    return Pass(traced, window, verdicts, peak, layers)


def setup_windows(workload: Workload, env: dict, err) -> list[tuple[float, float]]:
    argv = [sys.executable, "-c", SETUP_PROBE] + [f"models/{m}.json" for m in workload.models]
    windows = []
    for _ in range(SETUP_REPEATS):
        code, _, _, window = spawn(argv, env, err)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        windows.append(window)
    return windows


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "algebroids").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, machine: dict) -> dict:
    workload = WORKLOADS[name]
    jobs = workload.jobs(seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    env = child_env()
    cpu = pin_to_one_cpu()
    with open(workdir / "stderr.log", "w+b") as err, SpeedGauge() as gauge:
        state = RunState(workdir, env, err)
        setups = setup_windows(workload, env, err)
        measured: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(measured) % 2 == 1
            measured.append(run_pass(len(measured), workload, jobs, traced, state))
            elapsed = time.perf_counter() - start
            covered = {p.traced for p in measured} >= ({False, True} if trace else {False})
            if covered and elapsed + elapsed / len(measured) > seconds:
                break
    passes = [p.scaled(gauge) for p in measured]
    setup_s = [gauge.scale(*w) for w in setups]
    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    suite_s = statistics.median(p["suite_s"] for p in plain)
    metrics = {
        "suite_s": suite_s,
        "verdict_p50_s": statistics.median(x for p in plain for x in p["latencies_s"]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in plain) / 1024.0,
    }
    units = dict(END_TO_END)
    if trace:
        layers = {
            k: statistics.median(p["layers"][k] for p in traced_passes) for k in traced_passes[0]["layers"]
        }
        layers["trace.overhead_s"] = statistics.median(p["suite_s"] for p in traced_passes) - suite_s
        units = dict(per_layer_names())
        reported = {k: layers[k] for k in units}
    else:
        reported = metrics
    failed = len(state.failures)
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": machine,
        "pinned_cpu": cpu,
        "speed_gauge": {
            "reference_chunk_s": REFERENCE_CHUNK_S,
            "samples": len(gauge.samples),
            "median_chunk_s": statistics.median(c for _, c in gauge.samples),
        },
        "inputs": {
            "samples": workload.samples,
            "fresh_process_per_job": workload.fresh_process,
            "jobs": [j.label for j in jobs],
            "setup_models": list(workload.models),
        },
        "end_to_end": metrics,
        "error_rate": failed / state.attempted,
        "setup_s_samples": setup_s,
        "setup_wall_s_samples": [e - s for s, e in setups],
        "passes": passes,
        "failures": state.failures,
        "result": {
            "correct": failed == 0,
            "attempted": state.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
        },
    }


def _print_summary(doc: dict) -> None:
    print(f"workload {doc['workload']} seed {doc['seed']} trace {doc['trace']}: {doc['why']}")
    for k, v in doc["result"]["metrics"].items():
        print(f"  {k:<40} {v['value']:>14.6g} {v['unit']}")
    print(f"  {'error_rate':<40} {doc['error_rate']:>14.6g} ratio  ({doc['result']['failed']}/{doc['result']['attempted']})")
    for f in doc["failures"]:
        print(f"  FAILED {f['job']}: {f['reason']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=STOCK_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="where to write the full result document")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0 (numpy seeds are non-negative)")
    if not (ROOT / "src" / "algebroids" / "cli.py").is_file() or not (ROOT / "models").is_dir():
        print(f"run.py: no algebroids source tree at {ROOT} (need src/algebroids and models/)", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    machine = environment()  # before any run pins the process to one CPU
    if args.workload == "all":
        docs = [
            run_workload(name, args.seed, args.seconds, bool(trace), out_dir / f"{name}-trace{trace}", machine)
            for name in WORKLOADS
            for trace in (0, 1)
        ]
        for doc in docs:
            _print_summary(doc)
        result = {
            "correct": all(d["result"]["correct"] for d in docs),
            "attempted": sum(d["result"]["attempted"] for d in docs),
            "failed": sum(d["result"]["failed"] for d in docs),
            "metrics": {
                f"{d['workload']}/{k}": v for d in docs for k, v in d["result"]["metrics"].items()
            },
        }
        full = {"runs": docs, "result": result}
    else:
        workdir = out_dir / f"{args.workload}-trace{args.trace}"
        full = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir, machine)
        _print_summary(full)
        result = full["result"]
    stem = "all" if args.workload == "all" else f"{args.workload}-trace{args.trace}"
    out_path = args.out or out_dir / f"{stem}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(full, indent=1) + "\n")
    print(f"full result: {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
