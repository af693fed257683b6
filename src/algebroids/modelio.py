"""Model-file loading and serialization.

Models are JSON documents with optional sections (chart, algebroid,
ideal, im_form, coupling, groupoid, example, rank_one_witness); all
expressions are strings in the surface grammar, structure functions are
keyed by 1-indexed increasing frame pairs "a,b", and matrices are
row-major nested arrays.

A loaded model builds only the sections it has: the IM-form and
coupling sections import ``imforms``, the groupoid section
``groupoid``, where they build.  A builder parses each expression at
its JSON path and passes the parsed lists to the section's
constructors, which decide every shape: a constructor's refusal, the
one a library caller gets, is a ModelError at the section's path.
A document is read against ``MODEL_SCHEMA`` by ``_conforms``, a
strict reading of the schema's keywords; jsonschema is imported only
when that reading is in doubt, to find and word the first violation.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .algebroid import IdealBundle, LieAlgebroid
from .bundles import Bundle, FiberBracket, LinearConnection
from .expr import Chart, Expr, ZERO, ParseError, parse, to_str

if TYPE_CHECKING:
    from .groupoid import ActionGroupoid
    from .imforms import CouplingData, IMOneForm

__all__ = ["ModelError", "ModelFile", "load_model", "MODEL_SCHEMA", "ExampleSpec", "EXAMPLE_NAMES"]


class ModelError(Exception):
    """Schema violation, expression parse failure, or a shape or value
    a constructor refuses; the message carries the JSON-pointer-ish
    path."""


_EXPR = {"type": "string", "minLength": 1}
_EXPR_ROW = {"type": "array", "items": _EXPR, "minItems": 1}
_EXPR_MATRIX = {"type": "array", "items": _EXPR_ROW, "minItems": 1}

_STRUCTURE = {
    "type": "object",
    "patternProperties": {r"^[1-9][0-9]*,[1-9][0-9]*$": _EXPR_ROW},
    "additionalProperties": False,
}

_ALGEBROID = {
    "type": "object",
    "required": ["rank", "anchor"],
    "properties": {
        "rank": {"type": "integer", "minimum": 1},
        "anchor": _EXPR_MATRIX,
        "structure": _STRUCTURE,
    },
    "additionalProperties": False,
}

MODEL_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "chart"],
    "properties": {
        "schema_version": {"const": 1},
        "chart": {
            "type": "object",
            "required": ["dim"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "bounds": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "excluded_origin": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "algebroid": _ALGEBROID,
        "ideal": {
            "type": "object",
            "required": ["k"],
            "properties": {"k": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "im_form": {
            "type": "object",
            "required": ["l", "L"],
            "properties": {
                "l": _EXPR_MATRIX,
                "L": {"type": "array", "items": _EXPR_MATRIX},
            },
            "additionalProperties": False,
        },
        "coupling": {
            "type": "object",
            "required": ["base", "fiber", "nablaL", "U"],
            "properties": {
                "base": _ALGEBROID,
                "fiber": {
                    "type": "object",
                    "required": ["rank"],
                    "properties": {
                        "rank": {"type": "integer", "minimum": 1},
                        "structure": _STRUCTURE,
                    },
                    "additionalProperties": False,
                },
                "nablaL": {"type": "array", "items": _EXPR_MATRIX},
                "U": {"type": "array", "items": _EXPR_MATRIX},
                "verify_skew": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "groupoid": {
            "type": "object",
            "required": ["ambient", "basis", "action", "ideal_frame"],
            "properties": {
                "ambient": {"type": "integer", "minimum": 1},
                "basis": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                    "minItems": 1,
                },
                "action": _EXPR_ROW,
                "ideal_frame": _EXPR_MATRIX,
                "complement": {"type": "array", "items": _EXPR_ROW},
                "splitting": _EXPR_MATRIX,
            },
            "additionalProperties": False,
        },
        "example": {
            "type": "object",
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "rank_one_witness": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"type": "string"},
                "h": _EXPR,
                "Z": _EXPR_ROW,
                "theta": _EXPR_ROW,
                "U1": _EXPR_MATRIX,
                "Omega": _EXPR_ROW,
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["report_version", "command", "seed", "samples", "checks", "pass"],
    "properties": {
        "report_version": {"const": 1},
        "command": {"type": "string"},
        "seed": {"type": "integer"},
        "samples": {"type": "integer", "minimum": 1},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "max_residual", "tolerance", "pass"],
                "properties": {
                    "name": {"type": "string"},
                    # null, with non_finite true, when a sample was NaN or inf.
                    "max_residual": {"type": ["number", "null"]},
                    "tolerance": {"type": "number"},
                    "pass": {"type": "boolean"},
                    "non_finite": {"type": "boolean"},
                },
                "additionalProperties": False,
            },
        },
        "pass": {"type": "boolean"},
    },
    "additionalProperties": True,
}

# The Python type of each JSON Schema type a document may hold: a bool
# is no integer or number, and a float such as 3.0 no integer.
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "boolean": (bool,),
    "integer": (int,),
    "number": (int, float),
}
_OBJECT_KEYWORDS = ("properties", "patternProperties", "additionalProperties")


def _conforms(value, schema: dict) -> bool:
    """Whether ``value`` surely satisfies ``schema``.  Only the keywords
    ``MODEL_SCHEMA`` uses are read, each strictly: any other keyword,
    or any doubt (a float for an integer, ``True`` for ``const: 1``, a
    key no property or pattern names), gives False, and jsonschema then
    decides."""
    for key, want in schema.items():
        if key == "$schema" or key in _OBJECT_KEYWORDS:
            continue
        if key == "type":
            ok = isinstance(want, str) and type(value) in _TYPES.get(want, ())
        elif key == "const":
            ok = type(value) is type(want) and value == want
        elif key == "required":
            ok = type(value) is dict and all(k in value for k in want)
        elif key == "minItems":
            ok = type(value) is list and len(value) >= want
        elif key == "maxItems":
            ok = type(value) is list and len(value) <= want
        elif key == "minLength":
            ok = type(value) is str and len(value) >= want
        elif key == "minimum":
            ok = type(value) in (int, float) and value >= want
        elif key == "items":
            ok = type(value) is list and all(_conforms(x, want) for x in value)
        else:
            return False
        if not ok:
            return False
    if not any(k in schema for k in _OBJECT_KEYWORDS):
        return True
    if type(value) is not dict:
        return False
    properties, patterns = schema.get("properties", {}), schema.get("patternProperties", {})
    for k, v in value.items():
        subschemas = [properties[k]] if k in properties else []
        subschemas += [sub for pattern, sub in patterns.items() if re.search(pattern, k)]
        if not subschemas or not all(_conforms(v, sub) for sub in subschemas):
            return False
    return True


def _refuse_schema_violation(raw) -> None:
    """Raise the ModelError of the first violation of ``MODEL_SCHEMA``
    that jsonschema finds in ``raw``, in path order; return if it finds
    none."""
    from jsonschema import Draft202012Validator

    errors = sorted(Draft202012Validator(MODEL_SCHEMA).iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ModelError(f"schema violation at {pointer}: {e.message}")


def _positive_int(v, what: str) -> int:
    """``v`` if it is a positive int (a bool is not), else a ValueError
    naming ``what``: a dimension or rank is never rounded."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError(f"{what} must be a positive integer, not {v!r}")
    return v


def _construct(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, where ``make`` builds an object from
    a section; its refusal of the input (a ValueError, such as a shape
    it does not take) is a ModelError prefixed with ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ModelError(f"{where}: {e}") from e


def _count(sec: dict, key: str, where: str) -> int:
    """The dimension or rank ``sec[key]`` of the section at ``where``.
    JSON Schema counts a float such as 3.0 as an integer, so the schema
    lets it through; it is refused here."""
    return _construct(f"at {where}", _positive_int, sec[key], key)


EXAMPLE_NAMES = (
    "product",
    "lie_algebra_bundle",
    "transitive",
    "action",
    "principal_type",
    "principal_type_flat",
    "rank_one",
)


@dataclass(frozen=True)
class ExampleSpec:
    """Family name plus family-specific parameters; validated by the
    matching builder before construction."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXAMPLE_NAMES:
            raise ValueError(
                f"unknown example family {self.name!r}; choose from {EXAMPLE_NAMES}"
            )


def _section(name: str):
    """The accessor of the model section ``name``, built by the decorated
    method: a model without the section is refused with a ModelError,
    and the first call's build is returned by every later call."""

    def accessor(build):
        @functools.wraps(build)
        def read(self):
            self.require(name)
            if name not in self._built:
                self._built[name] = build(self, self.raw[name])
            return self._built[name]

        return read

    return accessor


@dataclass
class ModelFile:
    """Validated in-memory model.  Each section is built once, by the
    first call of its accessor (``load_model`` calls them all), and that
    build is shared with every later caller, who must not change it.
    A builder only parses (``_exprs``) and reads the file format's own
    rules (counts, structure keys and the length of each keyed vector);
    the constructor it calls owns every other shape."""

    path: str
    raw: dict
    chart: Chart
    _built: dict = field(default_factory=dict)

    def has(self, section: str) -> bool:
        return section in self.raw

    def require(self, section: str):
        if section not in self.raw:
            raise ModelError(f"model is missing the '{section}' section")

    def _parse(self, text: str, where: str, chart: Chart | None = None) -> Expr:
        """``text`` parsed on ``chart`` (None: the model's chart); a
        parse error is a ModelError at ``where``."""
        try:
            return parse(text, chart or self.chart)
        except ParseError as e:
            raise ModelError(f"at {where}: {e}") from e

    def _exprs(self, value, where: str):
        """``value``, an expression string or nested lists of them,
        parsed with its nesting kept; each string is parsed at its own
        JSON path, such as ``/algebroid/anchor/0/1``."""
        if isinstance(value, str):
            return self._parse(value, where)
        return [self._exprs(x, f"{where}/{i}") for i, x in enumerate(value)]

    def _load_algebroid_section(self, sec: dict, where: str) -> LieAlgebroid:
        rank = _count(sec, "rank", where)
        anchor = self._exprs(sec["anchor"], f"{where}/anchor")
        structure = _structure_pairs(sec.get("structure", {}), rank, self, f"{where}/structure")
        return _construct(f"at {where}", LieAlgebroid, Bundle(self.chart, rank), anchor, structure)

    @_section("algebroid")
    def algebroid(self, sec: dict) -> LieAlgebroid:
        return self._load_algebroid_section(sec, "/algebroid")

    @_section("ideal")
    def ideal(self, sec: dict) -> IdealBundle:
        """The bundle of ideals, unverified: ``verify-ideal`` checks it."""
        A = self.algebroid()
        return _construct("at /ideal", IdealBundle, A, _count(sec, "k", "/ideal"), verify=False)

    @_section("im_form")
    def im_form(self, sec: dict) -> IMOneForm:
        from .imforms import IMOneForm

        A, ideal = self.algebroid(), self.ideal()
        l = self._exprs(sec["l"], "/im_form/l")
        frames = self._exprs(sec["L"], "/im_form/L")
        return _construct("at /im_form", IMOneForm, A, ideal, l, frames)

    @_section("coupling")
    def coupling(self, sec: dict) -> CouplingData:
        from .imforms import CouplingData

        B = self._load_algebroid_section(sec["base"], "/coupling/base")
        kk = _count(sec["fiber"], "rank", "/coupling/fiber")
        fb = Bundle(self.chart, kk)
        structure = _structure_pairs(sec["fiber"].get("structure", {}), kk, self, "/coupling/fiber/structure")
        fiber = _construct("at /coupling/fiber", FiberBracket, fb, structure)
        christoffel = self._exprs(sec["nablaL"], "/coupling/nablaL")
        nablaL = _construct("at /coupling/nablaL", LinearConnection, fb, christoffel)
        U = self._exprs(sec["U"], "/coupling/U")
        verify_skew = sec.get("verify_skew", True)
        return _construct("/coupling/U", CouplingData, B, fiber, nablaL, U, verify_skew=verify_skew)

    @_section("groupoid")
    def groupoid(self, sec: dict) -> ActionGroupoid:
        from .groupoid import ActionGroupoid, MatrixGroup

        N = _count(sec, "ambient", "/groupoid")
        group = _construct("/groupoid", MatrixGroup, N, sec["basis"])
        combined = Chart(N * N + self.chart.dim)
        action = [self._parse(x, f"/groupoid/action/{i}", combined) for i, x in enumerate(sec["action"])]
        ideal_frame = self._exprs(sec["ideal_frame"], "/groupoid/ideal_frame")
        complement = self._exprs(sec.get("complement", []), "/groupoid/complement")
        splitting = self._exprs(sec["splitting"], "/groupoid/splitting") if "splitting" in sec else None
        return _construct(
            "/groupoid", ActionGroupoid, group, self.chart, action, ideal_frame, complement, splitting
        )

    @_section("example")
    def example_spec(self, sec: dict) -> ExampleSpec:
        return ExampleSpec(sec["name"], sec.get("params", {}))

    @_section("rank_one_witness")
    def witness(self, sec: dict) -> dict:
        out: dict[str, Any] = {"kind": sec["kind"]}
        for key in ("h", "Z", "theta", "Omega", "U1"):
            if key in sec:
                out[key] = self._exprs(sec[key], f"/rank_one_witness/{key}")
        return out


# A structure key: two 1-indexed frame numbers.  The schema's pattern
# ends in $, which also matches before a final newline.
_PAIR_KEY = re.compile(r"([1-9][0-9]*),([1-9][0-9]*)")


def _structure_pairs(mapping: dict, r: int, model, where: str) -> list:
    """The "a,b" keyed structure entries (1-indexed, a < b) as one vector
    per increasing pair, in ``itertools.combinations`` order, zero where
    no key is given: the structure input of ``LieAlgebroid`` and
    ``FiberBracket``.  A vector of a length other than r is refused here,
    at its key as the file writes it; the constructors count pairs from
    0."""
    index = {pair: t for t, pair in enumerate(itertools.combinations(range(r), 2))}
    structure = [[ZERO] * r for _ in index]
    for key, vec in mapping.items():
        pair = _PAIR_KEY.fullmatch(key)
        if pair is None:
            raise ModelError(f"at {where}: pair key {key!r} is not of the form a,b")
        a, b = int(pair[1]) - 1, int(pair[2]) - 1
        if not (0 <= a < r and 0 <= b < r):
            raise ModelError(f"at {where}/{key}: frame index out of range for rank {r}")
        if a >= b:
            raise ModelError(f"at {where}/{key}: keys must have a < b")
        if len(vec) != r:
            raise ModelError(f"at {where}/{key}: the vector has {len(vec)} entries, not {r}")
        structure[index[a, b]] = model._exprs(vec, f"{where}/{key}")
    return structure


def load_model(path: str) -> ModelFile:
    """Load and validate a model file; schema violations report the
    JSON-pointer path, expression errors the entry's path and byte
    offset, and a shape a constructor refuses the section's path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as e:
        raise ModelError(f"model file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ModelError(f"invalid JSON in {path}: {e}") from e
    if not _conforms(raw, MODEL_SCHEMA):
        _refuse_schema_violation(raw)
    csec = raw["chart"]
    dim = _count(csec, "dim", "/chart")
    chart = _construct(
        "at /chart", Chart, dim, bounds=csec.get("bounds"), excluded_origin=csec.get("excluded_origin", False)
    )
    model = ModelFile(path=path, raw=raw, chart=chart)
    # Eagerly validate every supplied section so load errors surface here.
    for section in ("algebroid", "ideal", "im_form", "coupling", "groupoid"):
        if model.has(section):
            getattr(model, section)()
    if model.has("example"):
        model.example_spec()
    if model.has("rank_one_witness"):
        model.witness()
    return model


def _structure_to_json(table) -> dict:
    """The "a,b" keyed entries of a structure table on its increasing
    pairs (1-indexed), the zero vectors left out."""
    pairs = itertools.combinations(range(len(table)), 2)
    return {
        f"{a + 1},{b + 1}": [to_str(x) for x in table[a][b]]
        for a, b in pairs
        if any(x != ZERO for x in table[a][b])
    }


def algebroid_to_json(A: LieAlgebroid) -> dict:
    n, r = A.chart.dim, A.rank
    return {
        "rank": r,
        "anchor": [[to_str(A.anchor[i][a]) for a in range(r)] for i in range(n)],
        "structure": _structure_to_json(A.structure),
    }


def coupling_to_json(cd: CouplingData) -> dict:
    n, kk = cd.base.chart.dim, cd.k
    return {
        "base": algebroid_to_json(cd.base),
        "fiber": {"rank": kk, "structure": _structure_to_json(cd.fiber.c)},
        "nablaL": [
            [[to_str(x) for x in row] for row in cd.nablaL.christoffel[i]]
            for i in range(n)
        ],
        "U": [
            [[to_str(x) for x in vec] for vec in row]
            for row in cd.U
        ],
    }


def chart_to_json(chart: Chart) -> dict:
    return {
        "dim": chart.dim,
        "bounds": [list(b) for b in chart.bounds],
        "excluded_origin": chart.excluded_origin,
    }


def im_form_to_json(form: IMOneForm) -> dict:
    r, rV = form.algebroid.rank, form.value_rank
    return {
        "l": [[to_str(form.l[c][a]) for a in range(r)] for c in range(rV)],
        # L(e_a) on d_i at [a, i].
        "L": [[[to_str(x) for x in vec] for vec in op] for op in form.op_map.exprs],
    }
