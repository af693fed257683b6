"""Compare the CLI reports of the working tree with those of a revision.

    python3 tools/report_diff.py REV [--samples N]

Exports REV with ``git archive`` into a temporary directory, then runs
the benchmark's 35 jobs on both trees, each in a fresh process at seed
42 and N samples (default 200, the CLI's stock count) with ``--json``:
the 22 symbolic-cli and 6 groupoid-cli jobs of ``perfbench/workloads.py``
and one ``example`` job per family, two processes at a time. Every job whose stdout bytes or
exit code differ between the trees is listed, followed by how its
report moved: every check's ``max_residual`` as old -> new, every other
field that changed, and one ``VERDICT CHANGED`` line per changed check
verdict, overall verdict, verdict field or exit code. Exit code 0 if
no job differs, 1 otherwise.

A change that claims byte-identical reports runs this against its
parent, e.g. ``python3 tools/report_diff.py HEAD~1``, and again at the
sample counts the benchmark's workloads use (60, 4 and 10), where
bounded memos fill and empty at other points. A change that moves
residual bits on purpose shows by the listing that only residuals
moved.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import EXAMPLE_FAMILIES, STOCK_SEED, WORKLOADS, Job  # noqa: E402

WORKERS = 2  # processes at a time; the reports do not depend on it
# Report fields other than the checks that state a verdict.
VERDICT_FIELDS = ("pass", "flatness", "connection_predicate")


def jobs(samples: int) -> list[Job]:
    out = WORKLOADS["symbolic-cli"].make_jobs(STOCK_SEED, samples)
    out += WORKLOADS["groupoid-cli"].make_jobs(STOCK_SEED, samples)
    return out + [Job("example", None, (f,), STOCK_SEED, samples) for f in EXAMPLE_FAMILIES]


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_job(tree: Path, job: Job) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, "-m", "algebroids.cli", *job.cli_args("models")]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def _residual(check: dict) -> str:
    r = check.get("max_residual")
    return "non-finite" if r is None else repr(r)


def _fields(doc: dict, prefix: str = "") -> dict:
    """The report's fields other than its checks, nested dicts flattened
    to dotted names."""
    out = {}
    for key, value in doc.items():
        if key == "checks" and not prefix:
            continue
        if isinstance(value, dict):
            out.update(_fields(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def explain(old: tuple[int, bytes], new: tuple[int, bytes]) -> list[str]:
    """How one job's (exit code, stdout) moved from old to new, as
    indented lines: each check's max_residual as old -> new, each other
    changed field, and a ``VERDICT CHANGED`` line for each changed
    verdict or exit code."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"  VERDICT CHANGED: exit code {old[0]} -> {new[0]}")
    try:
        before, after = json.loads(old[1]), json.loads(new[1])
    except ValueError:
        return lines + ["  (stdout is not a JSON report on both sides)"]
    checks_before = {c["name"]: c for c in before.get("checks", [])}
    checks_after = {c["name"]: c for c in after.get("checks", [])}
    for name in [*checks_before, *(n for n in checks_after if n not in checks_before)]:
        a, b = checks_before.get(name), checks_after.get(name)
        if a is None or b is None:
            side = "new" if a is None else "old"
            lines.append(f"  VERDICT CHANGED: check {name} only in the {side} report")
            continue
        moved = "" if _residual(a) == _residual(b) else f" -> {_residual(b)}"
        lines.append(f"  {name}: {_residual(a)}{moved}")
        if a.get("tolerance") != b.get("tolerance"):
            lines.append(f"  {name} tolerance: {a.get('tolerance')!r} -> {b.get('tolerance')!r}")
        if a.get("pass") != b.get("pass"):
            lines.append(f"  VERDICT CHANGED: {name} pass {a.get('pass')} -> {b.get('pass')}")
    fields_before, fields_after = _fields(before), _fields(after)
    for key in [*fields_before, *(k for k in fields_after if k not in fields_before)]:
        a, b = fields_before.get(key), fields_after.get(key)
        if a != b:
            verdict = key in VERDICT_FIELDS
            lead = "VERDICT CHANGED: " if verdict else ""
            lines.append(f"  {lead}{key}: {a!r} -> {b!r}")
    return lines


def diff_trees(theirs: Path, ours: Path, todo: list[Job], rev: str) -> tuple[list[str], int]:
    """Run the jobs on both trees; the lines to print (each differing
    job with its ``explain`` lines) and the number of jobs whose stdout
    or exit code differ."""
    with ThreadPoolExecutor(WORKERS) as pool:
        new = list(pool.map(lambda j: run_job(ours, j), todo))
        old = list(pool.map(lambda j: run_job(theirs, j), todo))
    lines, differ = [], 0
    for job, a, b in zip(todo, old, new):
        if a != b:
            differ += 1
            what = "exit code" if a[0] != b[0] else "stdout"
            lines.append(f"DIFFERS ({what}: {rev} exit {a[0]}, working tree exit {b[0]}): {job.label}")
            lines += explain(a, b)
    codes = sorted({c for c, _ in new})
    tally = ", ".join(f"exit {c}: {sum(1 for k, _ in new if k == c)}" for c in codes)
    lines.append(f"working tree: {tally}")
    lines.append(f"{len(todo) - differ} of {len(todo)} jobs identical to {rev} in --json stdout and exit code")
    return lines, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare with, e.g. HEAD~1")
    ap.add_argument("--samples", type=int, default=200, help="--samples of every job (default 200)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        export(args.rev, other)
        lines, differ = diff_trees(other, ROOT, jobs(args.samples), args.rev)
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
