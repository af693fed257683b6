"""Compare the CLI reports of the working tree with those of a revision.

    python3 tools/report_diff.py REV [--samples N]

Exports REV with ``git archive`` into a temporary directory, then runs
the benchmark's 35 jobs on both trees, each in a fresh process at seed
42 and N samples (default 200, the CLI's stock count) with ``--json``:
the 22 symbolic-cli and 6 groupoid-cli jobs of ``perfbench/workloads.py``
and one ``example`` job per family, two processes at a time. Every job whose stdout bytes or
exit code differ between the trees is listed. Exit code 0 if none
differs, 1 otherwise.

A change that claims byte-identical reports runs this against its
parent, e.g. ``python3 tools/report_diff.py HEAD~1``, and again at the
sample counts the benchmark's workloads use (60, 4 and 10), where
bounded memos fill and empty at other points.
"""

from __future__ import annotations

import argparse
import io
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare with, e.g. HEAD~1")
    ap.add_argument("--samples", type=int, default=200, help="--samples of every job (default 200)")
    args = ap.parse_args(argv)
    todo = jobs(args.samples)
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        export(args.rev, other)
        with ThreadPoolExecutor(WORKERS) as pool:
            ours = list(pool.map(lambda j: run_job(ROOT, j), todo))
            theirs = list(pool.map(lambda j: run_job(other, j), todo))
    differ = 0
    for job, (code_a, out_a), (code_b, out_b) in zip(todo, theirs, ours):
        if (code_a, out_a) != (code_b, out_b):
            differ += 1
            what = "exit code" if code_a != code_b else "stdout"
            print(f"DIFFERS ({what}: {args.rev} exit {code_a}, working tree exit {code_b}): {job.label}")
    codes = sorted({c for c, _ in ours})
    tally = ", ".join(f"exit {c}: {sum(1 for k, _ in ours if k == c)}" for c in codes)
    print(f"working tree: {tally}")
    print(f"{len(todo) - differ} of {len(todo)} jobs identical to {args.rev} in --json stdout and exit code")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
