"""Model-file loading and serialization.

Models are JSON documents with optional sections (chart, algebroid,
ideal, im_form, coupling, groupoid, example, rank_one_witness); all
expressions are strings in the surface grammar, structure functions are
keyed by 1-indexed increasing frame pairs "a,b", and matrices are
row-major nested arrays.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from jsonschema import Draft202012Validator

from .algebroid import IdealBundle, LieAlgebroid
from .bundles import Bundle, CoeffForm, FiberBracket, LinearConnection
from .expr import Chart, Expr, ZERO, ParseError, fold, neg, parse, to_str
from .groupoid import ActionGroupoid, MatrixGroup
from .imforms import CouplingData, IMOneForm

__all__ = ["ModelError", "ModelFile", "load_model", "MODEL_SCHEMA"]


class ModelError(Exception):
    """Schema violation, expression parse failure, or dimensional
    inconsistency; the message carries the JSON-pointer-ish path."""


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

_VALIDATOR = Draft202012Validator(MODEL_SCHEMA)


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
    build is shared with every later caller, who must not change it."""

    path: str
    raw: dict
    chart: Chart
    _built: dict = field(default_factory=dict)

    def has(self, section: str) -> bool:
        return section in self.raw

    def require(self, section: str):
        if section not in self.raw:
            raise ModelError(f"model is missing the '{section}' section")

    def _parse(self, text: str, where: str) -> Expr:
        try:
            return parse(text, self.chart)
        except ParseError as e:
            raise ModelError(f"at {where}: {e}") from e

    def _parse_groupoid_expr(self, text: str, combined: Chart, where: str) -> Expr:
        try:
            return parse(text, combined)
        except ParseError as e:
            raise ModelError(f"at {where}: {e}") from e

    def _load_algebroid_section(self, sec: dict, where: str) -> LieAlgebroid:
        rank = sec["rank"]
        anchor_rows = sec["anchor"]
        if len(anchor_rows) != self.chart.dim:
            raise ModelError(
                f"dimension mismatch between /chart (dim {self.chart.dim}) and "
                f"{where}/anchor ({len(anchor_rows)} rows)"
            )
        anchor = []
        for i, row in enumerate(anchor_rows):
            if len(row) != rank:
                raise ModelError(
                    f"dimension mismatch between {where}/rank ({rank}) and "
                    f"{where}/anchor/{i} ({len(row)} columns)"
                )
            anchor.append([self._parse(x, f"{where}/anchor/{i}") for x in row])
        structure = _structure_tensor(
            sec.get("structure", {}), rank, rank, self, where + "/structure"
        )
        return LieAlgebroid(Bundle(self.chart, rank), anchor, structure)

    @_section("algebroid")
    def algebroid(self, sec: dict) -> LieAlgebroid:
        return self._load_algebroid_section(sec, "/algebroid")

    @_section("ideal")
    def ideal(self, sec: dict) -> IdealBundle:
        """The bundle of ideals, unverified: ``verify-ideal`` checks it."""
        A = self.algebroid()
        k = sec["k"]
        if k > A.rank:
            raise ModelError(
                f"dimension mismatch between /ideal/k ({k}) and /algebroid/rank ({A.rank})"
            )
        return IdealBundle(A, k, verify=False)

    @_section("im_form")
    def im_form(self, sec: dict) -> IMOneForm:
        A = self.algebroid()
        ideal = self.ideal()
        rV, r, n = ideal.k, A.rank, self.chart.dim
        l_rows = sec["l"]
        if len(l_rows) != rV or any(len(row) != r for row in l_rows):
            raise ModelError(
                f"dimension mismatch: /im_form/l must be {rV} x {r} for "
                f"/ideal/k and /algebroid/rank"
            )
        l = [
            [self._parse(x, f"/im_form/l/{c}") for x in row]
            for c, row in enumerate(l_rows)
        ]
        L_rows = sec["L"]
        if len(L_rows) != r:
            raise ModelError(
                f"dimension mismatch: /im_form/L needs one block per frame "
                f"element ({r}), got {len(L_rows)}"
            )
        frames = []
        for a, block in enumerate(L_rows):
            if len(block) != n or any(len(vec) != rV for vec in block):
                raise ModelError(
                    f"dimension mismatch at /im_form/L/{a}: expected {n} rows "
                    f"of {rV} expressions"
                )
            comps = {
                (i,): [self._parse(x, f"/im_form/L/{a}/{i}") for x in vec]
                for i, vec in enumerate(block)
            }
            frames.append(CoeffForm(ideal.bundle, 1, comps))
        return IMOneForm(A, ideal, l, frames)

    @_section("coupling")
    def coupling(self, sec: dict) -> CouplingData:
        B = self._load_algebroid_section(sec["base"], "/coupling/base")
        kk = sec["fiber"]["rank"]
        fb = Bundle(self.chart, kk)
        fiber = FiberBracket(
            fb,
            _structure_tensor(
                sec["fiber"].get("structure", {}), kk, kk, self, "/coupling/fiber/structure"
            ),
        )
        n = self.chart.dim
        nab = sec["nablaL"]
        if len(nab) != n:
            raise ModelError(
                f"dimension mismatch: /coupling/nablaL needs {n} matrices for /chart"
            )
        mats = []
        for i, M in enumerate(nab):
            if len(M) != kk or any(len(row) != kk for row in M):
                raise ModelError(
                    f"dimension mismatch at /coupling/nablaL/{i}: expected "
                    f"{kk} x {kk} for /coupling/fiber/rank"
                )
            mats.append(
                [[self._parse(x, f"/coupling/nablaL/{i}") for x in row] for row in M]
            )
        nablaL = LinearConnection(fb, mats)
        U_rows = sec["U"]
        if len(U_rows) != B.rank:
            raise ModelError(
                f"dimension mismatch: /coupling/U needs one block per base "
                f"frame element ({B.rank}), got {len(U_rows)}"
            )
        U = []
        for a, block in enumerate(U_rows):
            if len(block) != n or any(len(vec) != kk for vec in block):
                raise ModelError(
                    f"dimension mismatch at /coupling/U/{a}: expected {n} rows "
                    f"of {kk} expressions"
                )
            U.append(
                [
                    [self._parse(x, f"/coupling/U/{a}/{i}") for x in vec]
                    for i, vec in enumerate(block)
                ]
            )
        verify_skew = sec.get("verify_skew", True)
        try:
            return CouplingData(B, fiber, nablaL, U, verify_skew=verify_skew)
        except ValueError as e:
            raise ModelError(f"/coupling/U: {e}") from e

    @_section("groupoid")
    def groupoid(self, sec: dict) -> ActionGroupoid:
        N = sec["ambient"]
        basis = []
        for b, flat in enumerate(sec["basis"]):
            if len(flat) != N * N:
                raise ModelError(
                    f"dimension mismatch at /groupoid/basis/{b}: expected "
                    f"{N * N} entries for ambient {N}"
                )
            basis.append(np.array(flat, dtype=float).reshape(N, N))
        try:
            group = MatrixGroup(N, basis)
        except ValueError as e:
            raise ModelError(f"/groupoid: {e}") from e
        combined = Chart(N * N + self.chart.dim)
        action = [
            self._parse_groupoid_expr(x, combined, f"/groupoid/action/{i}")
            for i, x in enumerate(sec["action"])
        ]
        if len(action) != self.chart.dim:
            raise ModelError(
                "dimension mismatch between /groupoid/action and /chart/dim"
            )
        ideal_frame = [
            [self._parse(x, f"/groupoid/ideal_frame/{j}") for x in row]
            for j, row in enumerate(sec["ideal_frame"])
        ]
        complement = [
            [self._parse(x, f"/groupoid/complement/{j}") for x in row]
            for j, row in enumerate(sec.get("complement", []))
        ]
        splitting = None
        if "splitting" in sec:
            splitting = [
                [self._parse(x, f"/groupoid/splitting/{c}") for x in row]
                for c, row in enumerate(sec["splitting"])
            ]
        try:
            return ActionGroupoid(
                group, self.chart, action, ideal_frame, complement, splitting
            )
        except ValueError as e:
            raise ModelError(f"/groupoid: {e}") from e

    @_section("example")
    def example_spec(self, sec: dict):
        from .factory import ExampleSpec

        return ExampleSpec(sec["name"], sec.get("params", {}))

    @_section("rank_one_witness")
    def witness(self, sec: dict) -> dict:
        out: dict[str, Any] = {"kind": sec["kind"]}
        if "h" in sec:
            out["h"] = self._parse(sec["h"], "/rank_one_witness/h")
        for key in ("Z", "theta", "Omega"):
            if key in sec:
                out[key] = [
                    self._parse(x, f"/rank_one_witness/{key}") for x in sec[key]
                ]
        if "U1" in sec:
            out["U1"] = [
                [self._parse(x, "/rank_one_witness/U1") for x in row]
                for row in sec["U1"]
            ]
        return out


def _structure_tensor(mapping: dict, r: int, vec_len: int, model, where: str):
    """Expand "a,b" keyed structure entries (1-indexed, a < b) into the
    full antisymmetric tensor."""
    structure = [[[ZERO] * vec_len for _ in range(r)] for _ in range(r)]
    for key, vec in mapping.items():
        a_s, b_s = key.split(",")
        a, b = int(a_s) - 1, int(b_s) - 1
        if not (0 <= a < r and 0 <= b < r):
            raise ModelError(f"at {where}/{key}: frame index out of range for rank {r}")
        if a >= b:
            raise ModelError(f"at {where}/{key}: keys must have a < b")
        if len(vec) != vec_len:
            raise ModelError(
                f"at {where}/{key}: expected {vec_len} expressions, got {len(vec)}"
            )
        exprs = [model._parse(x, f"{where}/{key}") for x in vec]
        for c in range(vec_len):
            structure[a][b][c] = exprs[c]
            structure[b][a][c] = fold(neg(exprs[c]))
    return structure


def load_model(path: str) -> ModelFile:
    """Load and validate a model file; schema violations report the
    JSON-pointer path, expression errors the byte offset, and
    dimensional inconsistencies both section names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as e:
        raise ModelError(f"model file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ModelError(f"invalid JSON in {path}: {e}") from e
    errors = sorted(_VALIDATOR.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ModelError(f"schema violation at {pointer}: {e.message}")
    csec = raw["chart"]
    try:
        chart = Chart(
            csec["dim"],
            bounds=csec.get("bounds"),
            excluded_origin=csec.get("excluded_origin", False),
        )
    except ValueError as e:
        raise ModelError(f"at /chart: {e}") from e
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


def algebroid_to_json(A: LieAlgebroid) -> dict:
    n, r = A.chart.dim, A.rank
    structure = {}
    for a in range(r):
        for b in range(a + 1, r):
            vec = [A.structure[a][b][c] for c in range(r)]
            if any(x != ZERO for x in vec):
                structure[f"{a + 1},{b + 1}"] = [to_str(x) for x in vec]
    return {
        "rank": r,
        "anchor": [[to_str(A.anchor[i][a]) for a in range(r)] for i in range(n)],
        "structure": structure,
    }


def coupling_to_json(cd: CouplingData) -> dict:
    n, kk = cd.base.chart.dim, cd.k
    fiber_structure = {}
    for a in range(kk):
        for b in range(a + 1, kk):
            vec = [cd.fiber.c[a][b][c] for c in range(kk)]
            if any(x != ZERO for x in vec):
                fiber_structure[f"{a + 1},{b + 1}"] = [to_str(x) for x in vec]
    base = algebroid_to_json(cd.base)
    return {
        "base": base,
        "fiber": {"rank": kk, "structure": fiber_structure},
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
    A = form.algebroid
    n, r, rV = A.chart.dim, A.rank, form.value_rank
    return {
        "l": [[to_str(form.l[c][a]) for a in range(r)] for c in range(rV)],
        "L": [
            [
                [to_str(x) for x in form.frame_values[a].component((i,))]
                for i in range(n)
            ]
            for a in range(r)
        ],
    }
