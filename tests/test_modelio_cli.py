"""Tests for model loading, the CLI contract, report determinism, the
reach of every library function and the package's exports."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import algebroids
from algebroids import cli, imforms
from algebroids.bundles import PointMap
from algebroids.cli import SUBCOMMANDS, run
from algebroids.modelio import MODEL_SCHEMA, ExampleSpec, ModelError, _conforms, load_model
from algebroids.sampling import SamplePlan

MODELS = Path(__file__).resolve().parent.parent / "models"


def invoke(args):
    """Run the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(args)
    return code, buf.getvalue()


def test_load_product_model_sections():
    m = load_model(str(MODELS / "product_so3.json"))
    assert m.has("chart") and m.has("algebroid") and m.has("ideal")
    assert m.has("im_form") and m.has("coupling")
    assert m.algebroid().rank == 5
    assert m.ideal().k == 3


def test_load_errors(tmp_path):
    # Anchor with the wrong number of columns: the refusal names the
    # anchor and the rank it must match.
    doc = {
        "schema_version": 1,
        "chart": {"dim": 2},
        "algebroid": {"rank": 4, "anchor": [["0", "0"], ["0", "0"]]},
    }
    p = tmp_path / "bad_dim.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ModelError) as ei:
        load_model(str(p))
    assert "rank" in str(ei.value) and "anchor" in str(ei.value)

    # Expression with a syntax error reports the offset.
    doc["algebroid"] = {"rank": 2, "anchor": [["x1 +* x2", "0"], ["0", "0"]]}
    p2 = tmp_path / "bad_expr.json"
    p2.write_text(json.dumps(doc))
    with pytest.raises(ModelError) as ei:
        load_model(str(p2))
    assert "offset 4" in str(ei.value)

    # Schema violation carries a JSON-pointer-style path.
    p3 = tmp_path / "bad_schema.json"
    p3.write_text(json.dumps({"schema_version": 1, "chart": {"dim": 0}}))
    with pytest.raises(ModelError) as ei:
        load_model(str(p3))
    assert "/chart/dim" in str(ei.value)


def test_every_model_fixture_loads():
    for path in sorted(MODELS.glob("*.json")):
        load_model(str(path))


def _integer_pointers(schema, pointer=""):
    """The JSON pointer of every integer field of ``schema``."""
    if schema.get("type") == "integer":
        yield pointer
    for key, sub in schema.get("properties", {}).items():
        yield from _integer_pointers(sub, f"{pointer}/{key}")


# Each integer field of MODEL_SCHEMA, with a shipped model that has it
# and a subcommand that loads that model.
INTEGER_FIELDS = {
    "/chart/dim": ("product_so3", "verify-algebroid"),
    "/algebroid/rank": ("product_so3", "verify-algebroid"),
    "/ideal/k": ("product_so3", "verify-ideal"),
    "/coupling/base/rank": ("product_so3", "check-structure"),
    "/coupling/fiber/rank": ("product_so3", "check-structure"),
    "/groupoid/ambient": ("so2_groupoid", "groupoid-verify"),
}


def test_the_integer_fields_are_those_of_the_schema():
    assert sorted(_integer_pointers(MODEL_SCHEMA)) == sorted(INTEGER_FIELDS)


@pytest.mark.parametrize("pointer", sorted(INTEGER_FIELDS))
def test_a_float_for_an_integer_field_is_a_model_error(tmp_path, capsys, pointer):
    # JSON Schema counts 3.0 as an integer, so the schema lets it
    # through; a dimension or rank is never rounded, and the float is
    # refused at its path.
    model, command = INTEGER_FIELDS[pointer]
    doc = json.loads((MODELS / f"{model}.json").read_text())
    *parents, key = pointer.strip("/").split("/")
    sec = doc
    for name in parents:
        sec = sec[name]
    sec[key] = float(sec[key])
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke([command, "--model", str(p), "--json", "--samples", "4"])
    assert (code, out) == (3, "")
    where = pointer.rsplit("/", 1)[0]
    assert capsys.readouterr().err == f"model error: at {where}: {key} must be a positive integer, not {sec[key]!r}\n"


def test_an_infinite_chart_bound_is_a_model_error(tmp_path, capsys):
    # 1e400 parses as inf; the sampler cannot draw from an infinite side.
    doc = json.loads((MODELS / "product_so3.json").read_text())
    doc["chart"]["bounds"][0][1] = "BOUND"
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc).replace('"BOUND"', "1e400"))
    code, out = invoke(["verify-algebroid", "--model", str(p), "--json", "--samples", "4"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "model error: at /chart: non-finite coordinate bound in [-1.0, inf]\n"


def _places(value, path=()):
    """The path of every value within ``value``, its own included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield from _places(sub, path + (key,))


# Values a mutation puts in place of another: wrong types, a bool where
# an integer or the const 1 goes, floats with and without a fraction,
# empty strings and containers.
REPLACEMENTS = (True, False, None, 0, 1, -1, 3, 1.0, 3.0, 1.5, "", "x", [], [[]], ["1"], {})
# Structure keys the "a,b" pattern refuses, or matches only up to the
# final newline.
BAD_KEYS = ("0,1", "1,2\n", "a,b", "1,2,3", "1, 2", "01,2", ",", "1,2 ")


def _mutate(doc, rng):
    """A copy of ``doc`` changed at one seeded place: a replaced value,
    an emptied, shortened or lengthened list, or an object with a key
    removed (a required one, often), an unknown key or a bad pair key."""
    out = json.loads(json.dumps(doc))
    places = list(_places(out))
    path = places[rng.integers(len(places))]
    parent, value = None, out
    for key in path:
        parent, value = value, value[key]
    kinds = ["replace"] if parent is not None else []
    if isinstance(value, dict):
        kinds += ["unknown key", "bad pair key"] + (["drop key"] if value else [])
    if isinstance(value, list):
        kinds += ["empty", "append"] + (["pop"] if value else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind == "replace":
        parent[path[-1]] = REPLACEMENTS[rng.integers(len(REPLACEMENTS))]
    elif kind == "unknown key":
        value["unknown"] = "0"
    elif kind == "bad pair key":
        value[BAD_KEYS[rng.integers(len(BAD_KEYS))]] = ["0"]
    elif kind == "drop key":
        del value[sorted(value)[rng.integers(len(value))]]
    elif kind == "empty":
        value.clear()
    elif kind == "append":
        value.append(json.loads(json.dumps(value[0])) if value else "0")
    else:
        value.pop()
    return out


def test_every_shipped_model_conforms_on_the_fast_path():
    # A shipped model is read by the strict reading alone: jsonschema is
    # never imported to load it.
    for path in sorted(MODELS.glob("*.json")):
        assert _conforms(json.loads(path.read_text()), MODEL_SCHEMA), path.name


def test_the_strict_reading_never_passes_what_jsonschema_refuses(tmp_path):
    # A document the strict reading passes is one jsonschema finds no
    # error in; where it is in doubt, jsonschema decides and load_model
    # words its first error in path order.
    from jsonschema import Draft202012Validator

    validator = Draft202012Validator(MODEL_SCHEMA)
    rng = np.random.default_rng(2024)
    outcomes = {(True, True): 0, (False, True): 0, (False, False): 0}
    p = tmp_path / "model.json"
    for path in sorted(MODELS.glob("*.json")):
        doc = json.loads(path.read_text())
        mutants = [_mutate(doc, rng) for _ in range(60)]
        for sec in (doc.get("algebroid"), doc.get("coupling", {}).get("fiber")):
            if sec is not None:
                for key in BAD_KEYS:
                    sec.setdefault("structure", {})[key] = ["0"] * sec["rank"]
                    mutants.append(json.loads(json.dumps(doc)))
                    del sec["structure"][key]
        for mutant in mutants:
            errors = sorted(validator.iter_errors(mutant), key=lambda e: list(e.absolute_path))
            conforms = _conforms(mutant, MODEL_SCHEMA)
            assert not (conforms and errors), mutant
            outcomes[conforms, not errors] += 1
            if errors:
                p.write_text(json.dumps(mutant))
                with pytest.raises(ModelError) as ei:
                    load_model(str(p))
                pointer = "/" + "/".join(str(k) for k in errors[0].absolute_path)
                assert str(ei.value) == f"schema violation at {pointer}: {errors[0].message}"
    # Every outcome occurs: mutants that conform, doubts jsonschema
    # passes (such as 3.0 for an integer), and refusals.
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["verify-algebroid", "--model", "bad_structure"], ("jsonschema", "groupoid", "imforms", "rankone", "factory")),
        (["verify-algebroid", "--model", "so3_radial"], ("jsonschema", "groupoid", "imforms", "rankone", "factory")),
        (["check-structure", "--model", "bad_u"], ("jsonschema", "groupoid", "factory", "rankone")),
    ],
)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, unloaded):
    # A fresh process: a CLI run imports the checkers its subcommand
    # runs, the model sections it builds and nothing else; jsonschema
    # only to word a refusal.
    *args, model = argv
    args += [str(MODELS / f"{model}.json"), "--json", "--samples", "4"]
    snippet = (
        "import json, sys, algebroids.cli;"
        f"code = algebroids.cli.run({args!r});"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    out = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert code == (0 if model == "so3_radial" else 1)
    assert "algebroids.modelio" in loaded and "algebroids.algebroid" in loaded
    assert [m for m in unloaded if m in loaded or f"algebroids.{m}" in loaded] == []


def test_classify_product_json():
    code, out = invoke(
        ["classify", "--model", str(MODELS / "product_so3.json"), "--json", "--samples", "60"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flatness"] == ["totally", "leafwise", "kernel"]
    assert doc["pass"] is True


def test_check_structure_bad_u_fails():
    code, out = invoke(
        ["check-structure", "--model", str(MODELS / "bad_u.json"), "--json", "--samples", "60"]
    )
    assert code == 1
    doc = json.loads(out)
    s3 = next(c for c in doc["checks"] if c["name"] == "S3")
    assert s3["max_residual"] > 1e-3 and not s3["pass"]


def test_exit_codes():
    assert run(["no-such-command"]) == 2
    # A tolerance JSON cannot carry, or one no residual can pass, is a
    # usage error.
    for tol in ("inf", "nan", "0", "-1"):
        assert run(["classify", "--model", str(MODELS / "product_so3.json"), "--tol", tol]) == 2
    code, _ = invoke(["classify", "--model", "/does/not/exist.json"])
    assert code == 3
    # Missing required section.
    code, _ = invoke(["classify", "--model", str(MODELS / "so2_groupoid.json")])
    assert code == 3


def test_fork_deterministic_across_processes():
    # Sub-plan derivation must not depend on the interpreter's salted
    # string hashing, or separate CLI invocations would disagree.
    import os

    from algebroids.sampling import SamplePlan

    local = SamplePlan(seed=42, samples=10).fork("tag").rng.uniform()
    snippet = (
        "from algebroids.sampling import SamplePlan;"
        "print(repr(SamplePlan(seed=42, samples=10).fork('tag').rng.uniform()))"
    )
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", snippet], env=env, capture_output=True, text=True
        )
        assert float(out.stdout) == local


def test_json_reports_byte_identical():
    args = [
        "check-structure",
        "--model",
        str(MODELS / "principal_flat.json"),
        "--json",
        "--samples",
        "80",
        "--seed",
        "42",
    ]
    _, out1 = invoke(args)
    _, out2 = invoke(args)
    assert out1 == out2
    assert out1.endswith("\n")


def test_json_report_schema_fields():
    from jsonschema import Draft202012Validator

    from algebroids.modelio import REPORT_SCHEMA

    code, out = invoke(
        ["verify-algebroid", "--model", str(MODELS / "so3_radial.json"), "--json", "--samples", "60"]
    )
    doc = json.loads(out)
    for key in ("report_version", "command", "seed", "samples", "checks", "pass"):
        assert key in doc
    for c in doc["checks"]:
        assert set(c) == {"name", "max_residual", "tolerance", "pass"}
    Draft202012Validator(REPORT_SCHEMA).validate(doc)
    # The shipped schema documents track the in-code definitions.
    shipped = json.loads(
        (MODELS.parent / "schemas" / "report.schema.json").read_text()
    )
    assert shipped == REPORT_SCHEMA


def test_verify_algebroid_broken_structure():
    code, out = invoke(
        ["verify-algebroid", "--model", str(MODELS / "bad_structure.json"), "--json", "--samples", "80"]
    )
    assert code == 1
    doc = json.loads(out)
    jac = next(c for c in doc["checks"] if c["name"] == "jacobi")
    assert jac["max_residual"] > 1e-3
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["jacobi", "anchor_morphism"]
    # The declared span is not an ideal either.
    code, out = invoke(
        ["verify-ideal", "--model", str(MODELS / "bad_structure.json"), "--json", "--samples", "80"]
    )
    assert code == 1
    doc = json.loads(out)
    assert not next(c for c in doc["checks"] if c["name"] == "ideal_anchor")["pass"]


def test_chart_inside_excluded_ball_is_a_model_error(tmp_path, capsys):
    # Every point of this box lies within 0.1 of the origin, which the
    # chart excludes: no sample point exists.
    doc = json.loads((MODELS / "so3_radial.json").read_text())
    doc["chart"]["bounds"] = [[0.01, 0.02], [-0.01, 0.01], [-0.01, 0.01]]
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, _ = invoke(["verify-algebroid", "--model", str(p), "--samples", "20"])
    assert code == 3
    assert "model error" in capsys.readouterr().err


def test_chart_without_sample_points_is_a_model_error(tmp_path, capsys):
    # The farthest corner of this box lies just outside the excluded
    # ball, so the chart is accepted, but the sliver outside the ball is
    # too small for the sampler to hit.
    doc = json.loads((MODELS / "product_so3.json").read_text())
    doc["chart"]["bounds"] = [[0, 0.0708], [0, 0.0708]]
    doc["chart"]["excluded_origin"] = True
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, _ = invoke(["verify-algebroid", "--model", str(p), "--samples", "20"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("model error:") and "excluded ball" in err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flow_leaving_the_chart_is_a_model_error(tmp_path, capsys, seed):
    # A chart that is mostly excluded ball: the stencil of the sampled
    # operator steps from a sample point into the ball, where the flow
    # guard refuses it.  That is a property of the model, not a failed
    # check.
    doc = json.loads((MODELS / "so3_radial_groupoid.json").read_text())
    doc["chart"]["bounds"] = [[0, 0.11]] * 3
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke(["lie-functor", "--model", str(p), "--samples", "4", "--seed", str(seed)])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("model error:") and "left the padded sampling region" in err


@pytest.mark.parametrize(
    "name, params, message",
    [
        # Too few omega rows for the three pairs of a 3-dimensional chart.
        ("principal_type", {"dim": 3, "omega": [["0", "0", "0"]]}, "increasing pair"),
        ("transitive", {"dim": 2, "omega": [["1"], ["1"]]}, "increasing pair"),
        ("transitive", {"dim": 2, "omega": [["1", "0"]]}, "entries"),
        ("product", {"bogus": 1}, "unknown product parameters"),
        # An entry that does not parse: a ParseError, not a traceback.
        ("transitive", {"theta": [["("], ["0"]]}, "expected number, identifier or '('"),
        ("principal_type", {"theta": [["(", "0", "0"], ["0", "0", "0"]]}, "expected number, identifier or '('"),
        ("principal_type", {"dim": 1, "theta": [["x2", "0", "0"]]}, "coordinate x2 out of range"),
        # The default theta = x2 E_1 dx1 reads x2, which a line lacks; it
        # is refused before evaluation.
        ("principal_type", {"dim": 1}, "not dimension 1"),
        # A theta of the wrong shape is refused before it is read: a
        # fiber-valued theta is dim rows of k entries, a scalar one dim
        # entries.
        ("transitive", {"theta": 5}, "theta must be 2 rows of 1 entries"),
        ("principal_type", {"theta": [["1"]]}, "theta must be 2 rows of 3 entries"),
        ("principal_type_flat", {"theta": 5}, "theta must be 2 entries"),
        ("principal_type_flat", {"dim": 3, "theta": ["1"]}, "theta must be 3 entries"),
        ("rank_one", {"theta": 5}, "theta must be 2 entries"),
        ("rank_one", {"U1": [["0", "0"]]}, "U1 must be 2 rows of 2 entries"),
        # verify_skew is a JSON boolean, not any value with a truth value.
        ("rank_one", {"verify_skew": "no"}, "verify_skew must be true or false, not 'no'"),
        ("rank_one", {"verify_skew": 0}, "verify_skew must be true or false, not 0"),
    ],
)
def test_bad_example_parameters_are_model_errors(tmp_path, capsys, name, params, message):
    p = tmp_path / "model.json"
    doc = {"schema_version": 1, "chart": {"dim": 2}, "example": {"name": name, "params": params}}
    p.write_text(json.dumps(doc))
    code, out = invoke(["example", name, "--model", str(p), "--samples", "20", "--json"])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("model error:") and message in err


def _model_with_anchor(tmp_path, expr, entry=(0, 0), model="so3_radial"):
    """A shipped model (so3_radial by default) with one anchor entry replaced."""
    doc = json.loads((MODELS / f"{model}.json").read_text())
    i, j = entry
    doc["algebroid"]["anchor"][i][j] = expr
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_nan_residual_fails_its_check(tmp_path):
    from jsonschema import Draft202012Validator

    from algebroids.modelio import REPORT_SCHEMA

    # exp(700)^2 overflows to inf and inf * 0 is NaN at every point: the
    # NaN must fail the check, not be dropped as max(0.0, nan) drops it.
    model = _model_with_anchor(tmp_path, "exp(700)*exp(700)*x1*(x2 - x2)")
    code, out = invoke(["verify-ideal", "--model", model, "--json", "--samples", "40"])
    assert code == 1
    # Strict JSON: the residual is null and flagged, not the bare token
    # Infinity, which strict parsers reject.
    doc = json.loads(out, parse_constant=_reject_constant)
    Draft202012Validator(REPORT_SCHEMA).validate(doc)
    for name in ("jacobi", "anchor_morphism", "ideal_anchor"):
        check = next(c for c in doc["checks"] if c["name"] == name)
        assert check["max_residual"] is None and check["non_finite"] is True
        assert not check["pass"]
    assert doc["pass"] is False
    finite = next(c for c in doc["checks"] if c["name"] == "ideal_bracket")
    assert "non_finite" not in finite


def test_infinite_anchor_fails_the_axioms(tmp_path):
    import warnings

    # The anchor entry is +-inf away from x1 = 0. The axioms, read from
    # jets, meet inf - inf or inf * 0 as a NaN entry: a non-finite
    # failure (exit 1), not an evaluation error, and no numpy warning.
    model = _model_with_anchor(tmp_path, "exp(700)*exp(700)*x1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["verify-algebroid", "--model", model, "--json", "--samples", "40"])
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    for check in doc["checks"]:
        assert check["max_residual"] is None and check["non_finite"] is True


def test_infinite_anchor_fails_the_im_identities(tmp_path):
    import warnings

    # The same, for the IM identities: [a, b] and rho(a) are read from
    # jets, so product_so3 with an anchor entry +-inf away from x1 = 0
    # fails im_identity_2 and im_identity_3 as non-finite (exit 1), where
    # the expanded bracket raised inf - inf (exit 3), and numpy warns of
    # nothing.
    model = _model_with_anchor(tmp_path, "exp(700)*exp(700)*x1", (0, 3), "product_so3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["verify-im", "--model", model, "--json", "--samples", "40"])
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert [c["name"] for c in doc["checks"]] == ["im_identity_2", "im_identity_3"]
    for check in doc["checks"]:
        assert check["max_residual"] is None and check["non_finite"] is True


def _model_with_coupling_entry(tmp_path, model, section, key, expr):
    """A shipped model with one entry of a coupling section replaced:
    ``key`` leads from ``doc["coupling"][section]`` to the entry."""
    doc = json.loads((MODELS / f"{model}.json").read_text())
    entry = doc["coupling"][section]
    for step in key[:-1]:
        entry = entry[step]
    entry[key[-1]] = expr
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_infinite_christoffel_fails_the_structure_equations(tmp_path):
    import warnings

    # principal_flat with its Christoffel entry Gamma_1 +-inf away from
    # x1 = 0. Gamma_1 and its partials are +-inf or NaN: S1-S3 contract them
    # with the fiber bracket and the mixed tensor, so each is non-finite
    # (exit 1), and numpy warns of nothing.
    model = _model_with_coupling_entry(
        tmp_path, "principal_flat", "nablaL", (0, 0, 0), "exp(700)*exp(700)*x1"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["check-structure", "--model", model, "--json", "--samples", "40"])
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert [c["name"] for c in doc["checks"]] == ["S1", "S2", "S3"]
    for check in doc["checks"]:
        assert check["max_residual"] is None and check["non_finite"] is True


def test_infinite_christoffel_leaves_no_flatness_class(tmp_path):
    import warnings

    # The same model: the curvature of its connection is non-finite, so
    # it is not kernel flat; U is untouched and not leafwise flat either.
    model = _model_with_coupling_entry(
        tmp_path, "principal_flat", "nablaL", (0, 0, 0), "exp(700)*exp(700)*x1"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["classify", "--model", model, "--json", "--samples", "40"])
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["residuals"]["kernel_flat_curvature"] is None
    assert doc["residuals"]["totally_flat_U"] is None
    assert doc["flatness"] == []


def test_infinite_christoffel_fails_the_roundtrip_without_a_warning(tmp_path):
    import warnings

    # The same model through coupling --roundtrip: the rebuilt connection
    # and connection form differ from the originals by inf - inf, so both
    # roundtrip checks are non-finite (exit 1), and numpy warns of nothing.
    model = _model_with_coupling_entry(
        tmp_path, "principal_flat", "nablaL", (0, 0, 0), "exp(700)*exp(700)*x1"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["coupling", "--roundtrip", "--model", model, "--json", "--samples", "40"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out, parse_constant=_reject_constant)["checks"]}
    for name in ("roundtrip_fiber_connection", "roundtrip_connection_form"):
        assert checks[name]["max_residual"] is None and checks[name]["non_finite"] is True


@pytest.mark.parametrize(
    "name,params,message",
    [
        ("transitive", {"fiber": "so3", "fiber_rank": 5}, "has rank 3, not fiber_rank 5"),
        ("transitive", {"fiber": "so3_center", "fiber_rank": 1}, "has rank 4, not fiber_rank 1"),
        ("transitive", {"fiber_rank": 0}, "positive integer, not 0"),
        ("transitive", {"fiber_rank": 2.7}, "positive integer, not 2.7"),
        ("transitive", {"fiber_rank": True}, "positive integer, not True"),
        ("principal_type_flat", {"fiber": "so3_center", "fiber_rank": 3}, "has rank 4, not fiber_rank 3"),
        ("principal_type_flat", {"fiber_rank": -1}, "positive integer, not -1"),
        # The same holds for every dim and base_rank.
        ("product", {"dim": 2.5}, "dim must be a positive integer, not 2.5"),
        ("transitive", {"dim": "2"}, "dim must be a positive integer, not '2'"),
        ("product", {"dim": True}, "dim must be a positive integer, not True"),
        ("product", {"dim": 0}, "dim must be a positive integer, not 0"),
        ("lie_algebra_bundle", {"base_rank": 1.5}, "base_rank must be a positive integer, not 1.5"),
        ("lie_algebra_bundle", {"dim": 2.0}, "dim must be a positive integer, not 2.0"),
        ("principal_type", {"dim": -2}, "dim must be a positive integer, not -2"),
        ("principal_type_flat", {"dim": 3.5}, "dim must be a positive integer, not 3.5"),
        ("rank_one", {"dim": "3"}, "dim must be a positive integer, not '3'"),
    ],
)
def test_a_fiber_rank_the_fiber_cannot_have_is_a_model_error(tmp_path, capsys, name, params, message):
    # A fiber_rank, dim or base_rank that is not a positive int, or a
    # fiber_rank that is not the rank of the named fiber algebra, is
    # refused rather than rounded or ignored.
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"schema_version": 1, "chart": {"dim": 2}, "example": {"name": name, "params": params}}))
    code, out = invoke(["example", name, "--model", str(p), "--json", "--samples", "10"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("model error:") and message in err


@pytest.mark.parametrize(
    "name,params,rank",
    [
        ("transitive", {"fiber_rank": 2}, 4),
        ("transitive", {"fiber": "so3", "fiber_rank": 3}, 5),
        ("principal_type_flat", {"fiber": "so3_center", "fiber_rank": 4}, 6),
    ],
)
def test_a_fiber_rank_the_fiber_has_is_kept(tmp_path, name, params, rank):
    from algebroids.factory import ExampleSpec, make_example

    assert make_example(ExampleSpec(name, dict(params))).algebroid.rank == rank
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"schema_version": 1, "chart": {"dim": 2}, "example": {"name": name, "params": params}}))
    code, _ = invoke(["example", name, "--model", str(p), "--json", "--samples", "10"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["coupling"],
        ["coupling", "--roundtrip"],
        ["check-structure"],
        ["check-structure", "--kernel-flat"],
        ["build-semidirect"],
        ["curvature"],
        ["classify"],
        ["rank-one"],
        ["rank-one", "--witness", "principal_type"],
    ],
)
def test_a_mixed_tensor_that_is_not_anchor_skew_is_a_model_error(tmp_path, capsys, argv):
    # rank_one with U(e1, d1) = 1: on the identity anchor U(e1, rho(e1))
    # + U(e1, rho(e1)) = 2, so the coupling is refused as it loads.
    model = _model_with_coupling_entry(tmp_path, "rank_one", "U", (0, 0, 0), "1")
    code, out = invoke(argv + ["--model", model, "--json", "--samples", "4"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("model error:") and "anchor-skew" in err


def _line_coupling(tmp_path):
    """A coupling on a 1-dimensional chart: base rank 1 anchored by 1,
    an abelian rank-1 fiber, a zero connection and a zero mixed tensor."""
    doc = {
        "schema_version": 1,
        "chart": {"dim": 1, "bounds": [[-1.0, 1.0]], "excluded_origin": False},
        "coupling": {
            "base": {"rank": 1, "anchor": [["1"]], "structure": {}},
            "fiber": {"rank": 1, "structure": {}},
            "nablaL": [[["0"]]],
            "U": [[["0"]]],
        },
    }
    p = tmp_path / "line.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("argv", [["curvature"], ["check-structure", "--kernel-flat"]])
def test_a_two_form_subcommand_on_a_line_is_a_model_error(tmp_path, capsys, argv):
    # A 2-form on a 1-dimensional chart has no component to check, so the
    # two subcommands that build one refuse the chart and name its
    # dimension.
    code, out = invoke(argv + ["--model", _line_coupling(tmp_path), "--json", "--samples", "4"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("model error:") and "dimension 1" in err


@pytest.mark.parametrize("argv", [["check-structure"], ["classify"], ["coupling", "--roundtrip"]])
def test_the_other_coupling_subcommands_run_on_a_line(tmp_path, argv):
    code, _ = invoke(argv + ["--model", _line_coupling(tmp_path), "--json", "--samples", "4"])
    assert code == 0


def test_infinite_connection_form_fails_the_rank_one_equations(tmp_path):
    import warnings

    # rank_one with theta_1 +-inf away from x1 = 0: its trivialized S2 and
    # S3 are those of the rank-one coupling, so both are non-finite (exit
    # 1), and numpy warns of nothing; the anchor is finite, so
    # tangentiality still passes.
    model = _model_with_coupling_entry(
        tmp_path, "rank_one", "nablaL", (0, 0, 0), "exp(700)*exp(700)*x1"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["rank-one", "--model", model, "--json", "--samples", "40"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out, parse_constant=_reject_constant)["checks"]}
    for name in ("S2_trivialized", "S3_trivialized"):
        assert checks[name]["max_residual"] is None and checks[name]["non_finite"] is True
    assert checks["tangential_representatives"]["pass"]


def test_infinite_fiber_bracket_fails_the_kernel_flat_variant(tmp_path):
    # product_so3 with the fiber bracket [e1, e2]^3 +-inf away from x1 =
    # 0: S1 is non-finite, and so is U_center_valued, since the center of
    # the fiber is unknown where its bracket is not finite. The SVD of
    # the non-finite adjoint matrices never returned; a fresh process
    # with a timeout sees a hang as a failure.
    model = _model_with_coupling_entry(
        tmp_path, "product_so3", "fiber", ("structure", "1,2", 2), "exp(700)*exp(700)*x1"
    )
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "algebroids.cli",
         "check-structure", "--kernel-flat", "--model", model, "--json", "--samples", "40"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (out.returncode, out.stderr) == (1, "")
    checks = {c["name"]: c for c in json.loads(out.stdout, parse_constant=_reject_constant)["checks"]}
    for name in ("S1", "U_center_valued"):
        assert checks[name]["max_residual"] is None and checks[name]["non_finite"] is True


@pytest.mark.parametrize(
    "entry, rank",
    [
        # +-inf away from x1 = 0, so at every sample point.
        ("exp(700)*exp(700)*x1", None),
        # inf where x1 > 0.507, and at least 1 elsewhere.
        ("1 + exp(700*x1)*exp(700*x1)", 2),
    ],
)
def test_a_non_finite_anchor_has_no_rank(tmp_path, entry, rank):
    import warnings

    # rank_one with a base anchor entry that is not finite: the anchor
    # has no rank there, so the modal rank is that of the points where it
    # is finite, or null, and tangentiality, not measured there, fails as
    # non-finite.
    doc = json.loads((MODELS / "rank_one.json").read_text())
    doc["coupling"]["base"]["anchor"][1][1] = entry
    doc["coupling"]["verify_skew"] = False
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["rank-one", "--model", str(p), "--json", "--samples", "40"])
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["anchor_rank"] == rank
    tang = next(c for c in doc["checks"] if c["name"] == "tangential_representatives")
    assert tang["max_residual"] is None and tang["non_finite"] is True


def test_a_non_finite_witness_cochain_fails(tmp_path):
    import warnings

    # rank_one's principal-type witness with Z_1 +-inf away from x1 = 0:
    # the shifted 2-cochain is not finite there, so lambda_matches_pullback
    # fails as non-finite (exit 1), with no numpy warning.
    doc = json.loads((MODELS / "rank_one.json").read_text())
    doc["rank_one_witness"]["Z"][0] = "exp(700)*exp(700)*x1"
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["rank-one", "--witness", "principal_type", "--model", str(p), "--json", "--samples", "40"])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out, parse_constant=_reject_constant)["checks"]}
    assert checks["lambda_matches_pullback"]["non_finite"] is True
    assert all(c["pass"] for name, c in checks.items() if name != "lambda_matches_pullback")


@pytest.mark.parametrize(
    "name, params, failing",
    [
        ("principal_type_flat", {"omega": [["exp(700)*exp(700)*x1"]]}, "twist_center_valued"),
        (
            "principal_type",
            {"theta": [["exp(700)*exp(700)*x2", "0", "0"], ["0", "0", "0"]]},
            "curvature_equals_ad_of_twist",
        ),
    ],
)
def test_a_non_finite_twist_is_refused_without_a_warning(tmp_path, name, params, failing):
    import warnings

    # An example whose twist 2-form or connection form is +-inf away from
    # x1 = 0 fails its precondition as non-finite, and the refusal is the
    # report (exit 1), with no numpy warning on the way.
    p = tmp_path / "model.json"
    p.write_text(json.dumps({"schema_version": 1, "chart": {"dim": 2}, "example": {"name": name, "params": params}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = invoke(["example", name, "--model", str(p), "--json", "--samples", "10"])
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["refused"] and doc["pass"] is False
    check = next(c for c in doc["checks"] if c["name"] == failing)
    assert check["max_residual"] is None and check["non_finite"] is True


def test_a_subcommand_reads_the_sections_load_model_built(monkeypatch):
    # load_model builds every section of the model; the subcommand then
    # reads those builds and builds none of them again.
    from algebroids import modelio

    built = []

    class CountedIMOneForm(imforms.IMOneForm):
        def __init__(self, *args):
            built.append("im_form")
            super().__init__(*args)

    parse = modelio.ModelFile._parse

    def counted_parse(self, text, where):
        if where.startswith("/rank_one_witness/"):
            built.append("witness expression")
        return parse(self, text, where)

    # The builder imports IMOneForm from imforms when it builds.
    monkeypatch.setattr(imforms, "IMOneForm", CountedIMOneForm)
    monkeypatch.setattr(modelio.ModelFile, "_parse", counted_parse)
    code, _ = invoke(["verify-im", "--model", str(MODELS / "product_so3.json"), "--json", "--samples", "20"])
    assert code == 0
    assert built == ["im_form"]
    built.clear()
    code, _ = invoke(
        ["rank-one", "--model", str(MODELS / "rank_one.json"), "--witness", "kernel", "--json", "--samples", "20"]
    )
    assert code == 0
    # The witness holds five expressions: Omega (1), Z (2) and theta (2).
    assert built == ["witness expression"] * 5


def test_the_rank_one_handler_leaves_the_model_witness_whole(monkeypatch):
    # The handler takes the kind out of its own copy of the witness, not
    # out of the model's, which every reader shares.
    from algebroids import cli

    loaded = []

    def load(path):
        loaded.append(load_model(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_model", load)
    code, _ = invoke(
        ["rank-one", "--model", str(MODELS / "rank_one.json"), "--witness", "kernel", "--json", "--samples", "20"]
    )
    assert code == 0
    (model,) = loaded
    assert model.witness() is model.witness()
    assert model.witness()["kind"] == "principal_type"
    assert sorted(model.witness()) == ["Omega", "Z", "kind", "theta"]


def test_runs_in_one_process_share_no_parsed_state():
    # The parser is built once per process: a run with --kernel-flat and
    # --tol must leave nothing behind for the next run without them.
    from algebroids import cli

    assert cli._parser() is cli._parser()
    model = str(MODELS / "principal_flat.json")
    argvs = [
        ["check-structure", "--model", model, "--kernel-flat", "--tol", "1e-3", "--json", "--samples", "40"],
        ["check-structure", "--model", model, "--json", "--samples", "40"],
    ]
    in_process = [invoke(argv) for argv in argvs]
    assert in_process[0][1] != in_process[1][1]
    for argv, (code, out) in zip(argvs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "algebroids.cli", *argv], capture_output=True, text=True
        )
        assert (fresh.returncode, fresh.stdout) == (code, out), fresh.stderr


@pytest.mark.parametrize(
    "expr",
    [
        "exp(700)*exp(700)*x1 - exp(700)*exp(700)*(x1 + 1)",
        "sin(exp(700)*exp(700)*x1)",
        "cos(exp(700)*exp(700)*x1)",
        "(exp(700)*x1)^2",
    ],
    ids=["inf_minus_inf_sum", "sin_of_inf", "cos_of_inf", "power_overflow"],
)
def test_non_finite_evaluation_exits_3(tmp_path, capsys, expr):
    model = _model_with_anchor(tmp_path, expr)
    code, _ = invoke(["verify-algebroid", "--model", model, "--samples", "40"])
    assert code == 3
    assert "evaluation error" in capsys.readouterr().err


def test_constant_beyond_the_float_range_exits_3(tmp_path, capsys):
    # The difference folds to one 10^400 constant, whose float()
    # overflows: an evaluation error (exit 3), not a traceback (exit 1).
    model = _model_with_anchor(tmp_path, "x1*10^400 - x1*10^400", entry=(2, 2))
    code, _ = invoke(["verify-algebroid", "--model", model, "--samples", "40"])
    assert code == 3
    assert "evaluation error" in capsys.readouterr().err


def test_verify_ideal_and_im():
    code, _ = invoke(
        ["verify-ideal", "--model", str(MODELS / "so3_radial.json"), "--json", "--samples", "60"]
    )
    assert code == 0
    code, out = invoke(
        ["verify-im", "--model", str(MODELS / "product_so3.json"), "--json", "--samples", "60"]
    )
    assert code == 0
    assert json.loads(out)["connection_predicate"] is True


def test_coupling_roundtrip_cli():
    code, out = invoke(
        ["coupling", "--roundtrip", "--model", str(MODELS / "product_so3.json"), "--json", "--samples", "60"]
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "roundtrip_fiber_connection" in names
    assert "roundtrip_connection_form" in names


def test_build_semidirect_cli():
    code, out = invoke(
        ["build-semidirect", "--model", str(MODELS / "product_so3.json"), "--json", "--samples", "60"]
    )
    assert code == 0 and json.loads(out)["rank"] == 5
    code, _ = invoke(
        ["build-semidirect", "--model", str(MODELS / "bad_u.json"), "--json", "--samples", "60"]
    )
    assert code == 1


def test_curvature_cli():
    code, out = invoke(
        ["curvature", "--model", str(MODELS / "principal_flat.json"), "--json", "--samples", "60"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["curvature_vanishes"] is False
    code, out = invoke(
        ["curvature", "--model", str(MODELS / "product_so3.json"), "--json", "--samples", "60"]
    )
    assert json.loads(out)["curvature_vanishes"] is True


def test_rank_one_cli():
    code, out = invoke(
        ["rank-one", "--model", str(MODELS / "rank_one.json"), "--json", "--samples", "60"]
    )
    assert code == 0
    code, out = invoke(
        [
            "rank-one",
            "--witness",
            "principal_type",
            "--model",
            str(MODELS / "rank_one.json"),
            "--json",
            "--samples",
            "60",
        ]
    )
    assert code == 0


def test_groupoid_verify_cli():
    code, out = invoke(
        ["groupoid-verify", "--model", str(MODELS / "so2_groupoid.json"), "--json", "--samples", "60"]
    )
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    for want in ("delta_alpha", "structure_equation", "bianchi", "delta_Omega"):
        assert want in names


@pytest.mark.parametrize("command", ["groupoid-verify", "lie-functor"])
@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda g: g["splitting"][0].pop(), "splitting must be a k x d", id="short_splitting_row"),
        pytest.param(lambda g: g["splitting"].append(["0"] * 3), "splitting must be a k x d", id="extra_splitting_row"),
        pytest.param(lambda g: g["ideal_frame"][0].pop(), "one entry per basis element", id="short_ideal_frame_row"),
        pytest.param(lambda g: g["complement"].append(["1", "0", "0"]), "complete the ideal frame", id="extra_complement"),
        pytest.param(lambda g: g["complement"][0].pop(), "one entry per basis element", id="short_complement_row"),
        pytest.param(lambda g: g["complement"][0].append("0"), "one entry per basis element", id="long_complement_row"),
        pytest.param(lambda g: g.update(basis=[g["basis"][0]] * 3), "linearly dependent", id="dependent_basis"),
        # E1 and E2 of so(3): their commutator E3 leaves the span.
        pytest.param(lambda g: g["basis"].pop(), "does not close", id="non_closed_basis"),
    ],
)
def test_a_malformed_groupoid_section_is_a_model_error(tmp_path, capsys, command, edit, message):
    doc = json.loads((MODELS / "so3_radial_groupoid.json").read_text())
    edit(doc["groupoid"])
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke([command, "--model", str(p), "--samples", "4", "--json"])
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert err.startswith("model error: /groupoid: ") and message in err
    assert "Traceback" not in err


# A shipped model with each section, and a subcommand that loads it.
SECTION_RUNS = {
    "algebroid": ("product_so3", "verify-algebroid"),
    "ideal": ("product_so3", "verify-ideal"),
    "im_form": ("product_so3", "verify-im"),
    "coupling": ("product_so3", "check-structure"),
    "groupoid": ("so3_radial_groupoid", "groupoid-verify"),
}

# One mutation of a section for each shape its constructor decides.
SHAPE_MISMATCHES = [
    pytest.param("algebroid", lambda s: s["anchor"].pop(), id="missing_anchor_row"),
    pytest.param("algebroid", lambda s: s["anchor"][0].pop(), id="short_anchor_row"),
    pytest.param("algebroid", lambda s: s["structure"]["1,2"].pop(), id="short_structure_vector"),
    pytest.param("ideal", lambda s: s.update(k=6), id="ideal_above_rank"),
    pytest.param("im_form", lambda s: s["l"].pop(), id="missing_symbol_row"),
    pytest.param("im_form", lambda s: s["l"][0].pop(), id="short_symbol_row"),
    pytest.param("im_form", lambda s: s["L"].pop(), id="missing_frame_value_block"),
    pytest.param("im_form", lambda s: s["L"][0].pop(), id="short_frame_value_block"),
    pytest.param("im_form", lambda s: s["L"][0][0].pop(), id="short_frame_value_vector"),
    pytest.param("coupling", lambda s: s["nablaL"].pop(), id="missing_christoffel_matrix"),
    pytest.param("coupling", lambda s: s["nablaL"][0][0].append("0"), id="long_christoffel_row"),
    pytest.param("coupling", lambda s: s["U"].pop(), id="missing_U_block"),
    pytest.param("coupling", lambda s: s["U"][0][0].append("0"), id="long_U_vector"),
    pytest.param("groupoid", lambda s: s["basis"][0].pop(), id="short_basis_element"),
    pytest.param("groupoid", lambda s: s["action"].pop(), id="missing_action_entry"),
    pytest.param("groupoid", lambda s: s["ideal_frame"][0].pop(), id="short_ideal_frame_row"),
    pytest.param("groupoid", lambda s: s["complement"][0].pop(), id="short_complement_row"),
    pytest.param("groupoid", lambda s: s["splitting"][0].pop(), id="short_splitting_row"),
]


@pytest.mark.parametrize("section, edit", SHAPE_MISMATCHES)
def test_a_shape_mismatch_is_a_model_error_naming_its_section(tmp_path, capsys, section, edit):
    model, command = SECTION_RUNS[section]
    doc = json.loads((MODELS / f"{model}.json").read_text())
    edit(doc[section])
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke([command, "--model", str(p), "--samples", "4", "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    first = err.splitlines()[0]
    assert first.startswith("model error:") and f"/{section}" in first
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "structure",
    [{"1,2\n": ["0", "1"]}, {"1,2": ["0", "1"], "1,2\n": ["1", "0"]}],
    ids=["alone", "beside_its_pair"],
)
def test_a_pair_key_with_a_final_newline_is_a_model_error(tmp_path, capsys, structure):
    # The schema's key pattern ends in $, which matches before a final
    # newline, so jsonschema passes "1,2\n"; it is refused, not read as
    # the pair (1, 2) in place of, or over, the vector keyed "1,2".
    doc = {
        "schema_version": 1,
        "chart": {"dim": 1},
        "algebroid": {"rank": 2, "anchor": [["0", "0"]], "structure": structure},
    }
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke(["verify-algebroid", "--model", str(p), "--samples", "4", "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("model error: at /algebroid/structure") and repr("1,2\n") in err


@pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN"])
def test_a_non_finite_basis_entry_is_a_model_error_saying_so(tmp_path, capsys, entry):
    # 1e400 parses as inf: the rank test called it linear dependence.
    doc = json.loads((MODELS / "so2_groupoid.json").read_text())
    doc["groupoid"]["basis"][0][3] = "ENTRY"
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc).replace('"ENTRY"', entry))
    code, out = invoke(["groupoid-verify", "--model", str(p), "--samples", "4", "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err.startswith("model error: /groupoid: ") and "non-finite" in err
    assert "linearly dependent" not in err


def test_a_witness_theta_of_the_wrong_length_is_refused_as_theta(tmp_path, capsys):
    # rank_one's chart is 2-dimensional: a third theta entry is refused
    # by its own name, not as the connection built from it.
    doc = json.loads((MODELS / "rank_one.json").read_text())
    doc["rank_one_witness"]["theta"].append("0")
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke(["rank-one", "--witness", "principal_type", "--model", str(p), "--samples", "4", "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err == "model error: theta must have one entry per chart direction\n"


def test_a_witness_U1_of_the_wrong_shape_is_refused_as_U1(tmp_path, capsys):
    # rank_one's base has 2 frame elements over a 2-dimensional chart: a
    # 2 x 3 U1 is refused by its own name, not as the coupling's U.
    doc = json.loads((MODELS / "rank_one.json").read_text())
    doc["rank_one_witness"] = {"kind": "kernel_flat", "theta": ["0", "0"], "U1": [["0"] * 3] * 2}
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke(["rank-one", "--witness", "kernel_flat", "--model", str(p), "--samples", "4", "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err == "model error: U1 must be indexed by base frame x chart direction\n"


def test_a_short_structure_vector_is_named_by_its_key(tmp_path, capsys):
    # The file keys structure vectors by 1-indexed pairs: the refusal
    # names the key "1,2" as written, not the pair (0, 1) counted from 0.
    doc = json.loads((MODELS / "product_so3.json").read_text())
    doc["algebroid"]["structure"]["1,2"].pop()
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    code, out = invoke(["verify-algebroid", "--model", str(p), "--samples", "4", "--json"])
    err = capsys.readouterr().err
    assert (code, out) == (3, "")
    assert err == "model error: at /algebroid/structure/1,2: the vector has 4 entries, not 5\n"


def test_example_cli():
    code, out = invoke(["example", "product", "--json", "--samples", "60"])
    assert code == 0
    assert json.loads(out)["flatness"] == ["totally", "leafwise", "kernel"]


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", "classify", "--model",
         str(MODELS / "product_so3.json"), "--json", "--samples", "60"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["pass"] is True


def test_importing_the_cli_does_not_load_scipy():
    # scipy.linalg alone costs more import time than the whole package,
    # and the groupoid flows exponentiate in numpy: neither importing
    # the CLI nor running groupoid-verify, which exponentiates every
    # flow, may load any scipy module.
    snippet = (
        "import sys, algebroids.cli;"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'));"
        f"code = algebroids.cli.run(['groupoid-verify', '--model', {str(MODELS / 'so2_groupoid.json')!r},"
        " '--json', '--samples', '4']);"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"


SRC = Path(algebroids.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# One run of each subcommand and option of the CI's "Symbolic
# subcommands" step, every example family, verify-algebroid with a
# tolerance, and the two groupoid subcommands on so2.
TRACED_RUNS = [
    ["verify-algebroid", "--tol", "1e-8", "--model", "models/so3_radial.json"],
    ["verify-ideal", "--model", "models/so3_radial.json"],
    ["verify-im", "--model", "models/product_so3.json"],
    ["coupling", "--roundtrip", "--model", "models/principal_flat.json"],
    ["check-structure", "--model", "models/principal_flat.json"],
    ["check-structure", "--kernel-flat", "--model", "models/principal_flat.json"],
    ["build-semidirect", "--model", "models/principal_flat.json"],
    ["curvature", "--model", "models/principal_flat.json"],
    ["classify", "--model", "models/principal_flat.json"],
    ["rank-one", "--model", "models/rank_one.json"],
    ["rank-one", "--witness", "principal_type", "--model", "models/principal_flat.json"],
    ["groupoid-verify", "--model", "models/so2_groupoid.json"],
    ["lie-functor", "--model", "models/so2_groupoid.json"],
    *(
        ["example", family]
        for family in (
            "product", "lie_algebra_bundle", "transitive", "action",
            "principal_type", "principal_type_flat", "rank_one",
        )
    ),
]

# The functions and methods of src/algebroids that neither the traced
# runs, nor the demos, nor the model generator call, by kind: the
# console entry point, error paths, code that runs only at import, and
# the Expr protocol (the operators and node builders a caller writes
# Exprs with, and the hash and repr of the value types).  A function
# only tests call belongs with them, in tests/reference.py.
UNREACHED = {
    "__init__.__getattr__": "import time",
    "cli.main": "entry point",
    "expr.Chart.__hash__": "Expr protocol",
    "expr.Chart.__repr__": "Expr protocol",
    "expr.EvalError.__init__": "error path",
    "expr.Expr.__add__": "Expr protocol",
    "expr.Expr.__neg__": "Expr protocol",
    "expr.Expr.__radd__": "Expr protocol",
    "expr.Expr.__repr__": "Expr protocol",
    "expr.Expr.__rmul__": "Expr protocol",
    "expr.Expr.__rsub__": "Expr protocol",
    "expr.Expr.__rtruediv__": "Expr protocol",
    "expr.Expr.__setattr__": "error path",
    "expr.Expr.__sub__": "Expr protocol",
    "expr.Expr.__truediv__": "Expr protocol",
    "expr.ParseError.__init__": "error path",
    "expr.log": "Expr protocol",
    "expr.sin": "Expr protocol",
    "modelio._refuse_schema_violation": "error path",
    "modelio._section": "import time",
    "modelio._section.<locals>.accessor": "import time",
    "sampling.EquivarianceError.__init__": "error path",
}

# CO_OPTIMIZED | CO_NEWLOCALS: a function's code, not a class body's.
_FUNCTION_FLAGS = 0x1 | 0x2


def _src_functions() -> dict:
    """The qualified name of every function and method defined in
    src/algebroids (nested ones included, lambdas and comprehensions
    not), keyed by (file, first line, name) of its code."""
    out = {}

    def walk(code, prefix):
        for c in code.co_consts:
            if not hasattr(c, "co_code") or not c.co_name.isidentifier():
                continue
            if c.co_flags & _FUNCTION_FLAGS == _FUNCTION_FLAGS:
                out[(c.co_filename, c.co_firstlineno, c.co_name)] = prefix + c.co_name
                walk(c, f"{prefix}{c.co_name}.<locals>.")
            else:
                walk(c, f"{prefix}{c.co_name}.")

    for path in SRC.glob("*.py"):
        walk(compile(path.read_text(), str(path), "exec"), f"{path.stem}.")
    return out


def _print_unreached_functions() -> None:
    """Run the TRACED_RUNS, the five demos and tools/generate_models.py
    (writing to a temporary directory) in this process under a call
    hook, and print the src/algebroids functions none of them called."""
    import contextlib
    import importlib.util
    import io
    import os
    import runpy
    import tempfile

    root = MODELS.parent
    os.chdir(root)
    spec = importlib.util.spec_from_file_location("generate_models", root / "tools" / "generate_models.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    called = set()

    def hook(frame, event, arg):
        called.add(frame.f_code)  # the global hook sees "call" events only

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        generator.OUT, generator.SCHEMAS = Path(tmp) / "models", Path(tmp) / "schemas"
        sys.settrace(hook)
        try:
            for argv in TRACED_RUNS:
                if run(argv + ["--samples", "4", "--json"]) != 0:
                    raise AssertionError(f"{argv} did not pass")
            for demo in sorted((root / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            generator.main()
        finally:
            sys.settrace(None)
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in called}
    print(json.dumps(sorted(name for key, name in _src_functions().items() if key not in reached)))


def test_every_src_function_is_reached_by_a_subcommand_demo_or_tool():
    # A fresh interpreter: a cache filled by an earlier test would spare
    # the traced runs some calls.
    assert {argv[0] for argv in TRACED_RUNS} == set(SUBCOMMANDS)
    assert set(UNREACHED.values()) == {"entry point", "error path", "import time", "Expr protocol"}
    snippet = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r});"
        "import test_modelio_cli; test_modelio_cli._print_unreached_functions()"
    )
    out = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == sorted(UNREACHED)


def test_the_chain_map_check_reads_the_pairs_symbol(monkeypatch):
    # The kernel-flat pair's symbol is the mixed tensor U, which the
    # check's reference reads from the coupling: the check must read the
    # pair, or a symbol off by one part in 1e6 would pass.
    def chain_map_check():
        rep = cli.run_example_suite(ExampleSpec("principal_type_flat", {}), SamplePlan(seed=42, samples=4), 1e-8)
        (check,) = [c for c in rep.checks if c.name == "chain_map_matches_base_cocycle"]
        return check

    assert chain_map_check().passed
    pair_of = imforms.kernel_flat_two_form

    def bent_pair(cd):
        pair = pair_of(cd)
        sym = pair.sym_map

        def value(p):
            S = np.array(sym.value(p))
            S[0, 1, 0] *= 1 + 1e-6  # U(e_1, d_2), which is 1 here
            return S

        pair.sym_map = PointMap(value, sym.partials)
        return pair

    monkeypatch.setattr(imforms, "kernel_flat_two_form", bent_pair)
    assert not chain_map_check().passed


def test_the_kernel_flat_pair_is_built_once_per_coupling(monkeypatch):
    # The structure equations and the chain-map check of
    # principal_type_flat both read the coupling's degree-2 pair: one
    # build serves both, and the next coupling gets its own.
    built = []

    class Counted(imforms.IMTwoForm):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(imforms, "IMTwoForm", Counted)
    spec = ExampleSpec("principal_type_flat", {})
    assert cli.run_example_suite(spec, SamplePlan(seed=42, samples=4), 1e-8).passed
    assert len(built) == 1
    assert cli.run_example_suite(spec, SamplePlan(seed=7, samples=4), 1e-8).passed
    assert len(built) == 2
    assert run(["check-structure", "--kernel-flat", "--model", str(MODELS / "principal_flat.json"), "--samples", "4"]) == 0
    assert len(built) == 3


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # A name left in __all__ after its definition was deleted does not
    # fail an import; it fails here.
    import importlib

    mod = importlib.import_module(f"algebroids.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_name_the_package_imports_resolves():
    # The package exports its names lazily, from one table of names to
    # the modules that define them.
    import importlib

    import algebroids

    imported = [(m, name) for m, names in algebroids._EXPORTS.items() for name in names]
    assert len(imported) > 30
    assert [(m, name) for m, name in imported if not hasattr(importlib.import_module(f"algebroids.{m}"), name)] == []
    assert sorted(algebroids.__all__) == sorted(name for _, name in imported)
    assert all(getattr(algebroids, name) is getattr(importlib.import_module(f"algebroids.{m}"), name) for m, name in imported)
