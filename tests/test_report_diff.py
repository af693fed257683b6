"""tools/report_diff.py: how a differing job's report moved."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


report_diff = _load_tool()


def report(*checks, **extra):
    doc = {
        "checks": [
            {"max_residual": r, "name": n, "pass": r is not None and r < 1e-8, "tolerance": 1e-8}
            | ({} if r is not None else {"non_finite": True})
            for n, r in checks
        ],
        "command": "verify-algebroid",
        "pass": all(r is not None and r < 1e-8 for _, r in checks),
        "report_version": 1,
        "samples": 10,
        "seed": 42,
        **extra,
    }
    return json.dumps(doc, sort_keys=True).encode() + b"\n"


def test_explain_lists_residuals_old_to_new():
    old = (0, report(("jacobi", 3.66e-15), ("anchor_morphism", 0.0)))
    new = (0, report(("jacobi", 3.55e-15), ("anchor_morphism", 0.0)))
    assert report_diff.explain(old, new) == [
        "  jacobi: 3.66e-15 -> 3.55e-15",
        "  anchor_morphism: 0.0",
    ]


def test_explain_marks_changed_verdicts():
    old = (0, report(("jacobi", 1e-15), ("ideal_anchor", 0.0)))
    new = (1, report(("jacobi", 0.5), ("ideal_anchor", None)))
    lines = report_diff.explain(old, new)
    assert "  VERDICT CHANGED: exit code 0 -> 1" in lines
    assert "  jacobi: 1e-15 -> 0.5" in lines
    assert "  VERDICT CHANGED: jacobi pass True -> False" in lines
    assert "  ideal_anchor: 0.0 -> non-finite" in lines
    assert "  VERDICT CHANGED: ideal_anchor pass True -> False" in lines
    assert "  VERDICT CHANGED: pass: True -> False" in lines
    assert sum(line.startswith("  VERDICT CHANGED") for line in lines) == 4


def test_explain_reads_other_fields_and_missing_checks():
    old = (0, report(("S3", 0.0), flatness=["kernel"], residuals={"kernel_flat": 0.0}))
    new = (0, report(flatness=["kernel", "leafwise"], residuals={"kernel_flat": 1e-17}))
    lines = report_diff.explain(old, new)
    assert "  VERDICT CHANGED: check S3 only in the old report" in lines
    assert "  VERDICT CHANGED: flatness: ['kernel'] -> ['kernel', 'leafwise']" in lines
    assert "  residuals.kernel_flat: 0.0 -> 1e-17" in lines
    assert report_diff.explain((3, b""), (3, b"{}")) == [
        "  (stdout is not a JSON report on both sides)"
    ]


def _tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "models", dest / "models")
    return dest


def _perturb(tree: Path, stem: str, entry: str) -> None:
    """Add ``entry`` to the structure function [e1, e2]^1 of a model."""
    path = tree / "models" / f"{stem}.json"
    doc = json.loads(path.read_text())
    pair = doc["algebroid"]["structure"]["1,2"]
    pair[0] = f"({pair[0]}) + {entry}"
    path.write_text(json.dumps(doc))


def test_explain_on_a_perturbed_tree(tmp_path):
    base = _tree(tmp_path / "base")
    moved = _tree(tmp_path / "moved")
    # A perturbation below the tolerance moves residuals only; a large
    # one breaks Jacobi.
    _perturb(moved, "so3_radial", "1e-12*x1")
    _perturb(moved, "product_so3", "x1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import Job

    todo = [
        Job("verify-algebroid", "so3_radial", (), 42, 4),
        Job("verify-algebroid", "product_so3", (), 42, 4),
        Job("verify-algebroid", "bad_structure", (), 42, 4),
    ]
    lines, differ = report_diff.diff_trees(base, moved, todo, "base")
    text = "\n".join(lines)
    assert differ == 2
    first, second = text.split("DIFFERS")[1:]
    assert first.startswith(" (stdout: base exit 0, working tree exit 0): verify-algebroid so3_radial @42")
    assert "  jacobi: " in first and " -> " in first and "VERDICT CHANGED" not in first
    assert second.startswith(" (exit code: base exit 0, working tree exit 1): verify-algebroid product_so3")
    assert "  VERDICT CHANGED: exit code 0 -> 1" in second
    assert "  VERDICT CHANGED: jacobi pass True -> False" in second
    assert lines[-1] == "1 of 3 jobs identical to base in --json stdout and exit code"
