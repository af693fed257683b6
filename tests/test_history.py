"""A report does not depend on the process's history: the same job gives
the same stdout and exit code in a fresh process under any string-hash
seed, and in one long process after other jobs, in either order. The
memos keyed by exact points and the caches of compiled expressions are
shared across a process, so this guards them."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

JOBS = [
    ["verify-algebroid", "--model", "models/so3_radial.json"],
    ["verify-ideal", "--model", "models/product_so3.json"],
    ["verify-im", "--model", "models/product_so3.json"],
    ["example", "product"],
    ["example", "action"],
    ["example", "rank_one"],
]
STOCK = ["--seed", "42", "--samples", "10", "--json"]

# Runs each argument list of argv[1] in this process, in order, and
# prints one JSON line per run with its exit code and stdout.
SESSION = """
import contextlib, io, json, sys
from algebroids.cli import run
for args in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(args)
    print(json.dumps([code, buf.getvalue()]))
"""


def _session(job_list, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", SESSION, json.dumps(job_list)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def test_reports_do_not_depend_on_process_history():
    jobs = [args + STOCK for args in JOBS]
    fresh = [(args, seed) for seed in ("0", "123") for args in jobs]
    both_orders = jobs + jobs[::-1]
    with ThreadPoolExecutor(2) as pool:
        session = pool.submit(_session, both_orders)
        runs = list(pool.map(lambda a: _session([a[0]], a[1])[0], fresh))
        long_run = session.result()
    by_seed = {seed: runs[i * len(jobs):(i + 1) * len(jobs)] for i, seed in enumerate(("0", "123"))}
    assert by_seed["0"] == by_seed["123"]
    assert long_run[: len(jobs)] == by_seed["0"]
    assert long_run[len(jobs):] == by_seed["0"][::-1]
    # The jobs ran and wrote reports.
    assert all(code == 0 and out.startswith("{") for code, out in by_seed["0"])
