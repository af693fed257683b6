"""Immutable scalar expression trees over a coordinate chart.

Expressions are built from rational/float constants, chart coordinates,
sums, products, quotients, integer powers, negation and the elementary
functions sin, cos, exp, log.  They support exact symbolic partial
differentiation, floating point evaluation, constant folding and a
grammar-stable text form.

Coordinates are 1-indexed in the surface syntax (``x1``, ``x2``, ...)
and 0-indexed internally.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Chart",
    "Expr",
    "ExprError",
    "ParseError",
    "UnknownIdentifierError",
    "CoordinateRangeError",
    "EvalError",
    "PoleError",
    "DomainError",
    "SamplingError",
    "const",
    "coord",
    "add",
    "sub",
    "mul",
    "div",
    "pow_int",
    "neg",
    "sin",
    "cos",
    "exp",
    "log",
    "fold",
    "differentiate",
    "evaluate",
    "compile_tape",
    "Tape",
    "to_str",
    "parse",
    "substitute",
    "expr_equal",
    "ZERO",
    "ONE",
]

Number = Union[int, float, Fraction]

_POLE_TOL = 1e-12


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax error; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class CoordinateRangeError(ParseError):
    pass


class EvalError(ExprError):
    """Evaluation failure; carries the offending subtree."""

    def __init__(self, message: str, subtree: "Expr"):
        super().__init__(f"{message} in subexpression '{to_str(subtree)}'")
        self.subtree = subtree


class PoleError(EvalError):
    pass


class DomainError(EvalError):
    pass


class SamplingError(ValueError):
    """No sample point could be drawn from a chart: 10,000 uniform
    draws from its box all fell inside the excluded ball."""


class Chart:
    """A coordinate chart: dimension, per-coordinate bounds, an optional
    excluded ball around the origin (for models living on the punctured
    space)."""

    __slots__ = ("dim", "bounds", "excluded_origin")

    def __init__(
        self,
        dim: int,
        bounds: Sequence[Sequence[float]] | None = None,
        excluded_origin: bool = False,
    ):
        if dim < 1:
            raise ValueError("chart dimension must be >= 1")
        if bounds is None:
            bounds = [(-1.0, 1.0)] * dim
        if len(bounds) != dim:
            raise ValueError("one bound pair per coordinate required")
        bd = []
        for lo, hi in bounds:
            lo, hi = float(lo), float(hi)
            if not lo < hi:
                raise ValueError(f"empty coordinate interval [{lo}, {hi}]")
            bd.append((lo, hi))
        farthest_corner = [max(-lo, hi) for lo, hi in bd]
        if excluded_origin and float(np.linalg.norm(farthest_corner)) < 0.1:
            raise ValueError(
                "the chart bounds lie entirely inside the excluded ball "
                "of radius 0.1 around the origin"
            )
        self.dim = dim
        self.bounds = tuple(bd)
        self.excluded_origin = bool(excluded_origin)

    def contains(self, p: Sequence[float], pad: float = 0.0) -> bool:
        """Whether p lies in the box widened by pad and outside the
        excluded ball; a complex point is read by its real parts."""
        if len(p) != self.dim:
            return False
        for v, (lo, hi) in zip(p, self.bounds):
            if v.real < lo - pad or v.real > hi + pad:
                return False
        if self.excluded_origin and float(np.linalg.norm(np.real(p))) < 0.1:
            return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.dim == other.dim
            and self.bounds == other.bounds
            and self.excluded_origin == other.excluded_origin
        )

    def __hash__(self):
        return hash((self.dim, self.bounds, self.excluded_origin))

    def __repr__(self):
        return f"Chart(dim={self.dim}, excluded_origin={self.excluded_origin})"


# Node tags.
_CONST = "const"
_COORD = "coord"
_ADD = "add"
_MUL = "mul"
_DIV = "div"
_POW = "pow"
_NEG = "neg"
_FUNCS = ("sin", "cos", "exp", "log")


class Expr:
    """Immutable expression node.

    Do not mutate; construct through the module-level helpers or
    operator overloading.  Structural equality and hashing are
    supported so expressions can key caches.
    """

    __slots__ = ("op", "args", "value", "index", "exponent", "_hash")

    def __init__(self, op, args=(), value=None, index=None, exponent=None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(
            self, "_hash", hash((op, self.args, value, index, exponent))
        )

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        # A constant's type is part of it: 0.5 and 1/2 are two keys of
        # the fold and derivative caches.  Other nodes' values are None.
        return (
            self._hash == other._hash
            and self.op == other.op
            and (
                self.value is other.value
                or (type(self.value) is type(other.value) and self.value == other.value)
            )
            and self.index == other.index
            and self.exponent == other.exponent
            and self.args == other.args
        )

    def __hash__(self):
        return self._hash

    # Arithmetic sugar; results are constant-folded.
    def __add__(self, other):
        return fold(add(self, _wrap(other)))

    def __radd__(self, other):
        return fold(add(_wrap(other), self))

    def __sub__(self, other):
        return fold(sub(self, _wrap(other)))

    def __rsub__(self, other):
        return fold(sub(_wrap(other), self))

    def __mul__(self, other):
        return fold(mul(self, _wrap(other)))

    def __rmul__(self, other):
        return fold(mul(_wrap(other), self))

    def __truediv__(self, other):
        return fold(div(self, _wrap(other)))

    def __rtruediv__(self, other):
        return fold(div(_wrap(other), self))

    def __pow__(self, n):
        return fold(pow_int(self, n))

    def __neg__(self):
        return fold(neg(self))

    def __repr__(self):
        return f"Expr({to_str(self)!r})"


def _wrap(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, Fraction)):
        return const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


def const(v: Number) -> Expr:
    if isinstance(v, bool):
        raise TypeError("bool is not a number")
    if isinstance(v, int):
        v = Fraction(v)
    elif isinstance(v, float):
        if v == int(v) and abs(v) < 2**53:
            v = Fraction(int(v))
    elif not isinstance(v, Fraction):
        raise TypeError(f"bad constant type {type(v).__name__}")
    return Expr(_CONST, value=v)


def coord(i: int) -> Expr:
    if i < 0:
        raise ValueError("coordinate index must be >= 0")
    return Expr(_COORD, index=i)


def add(*terms) -> Expr:
    terms = tuple(_wrap(t) for t in terms)
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Expr(_ADD, terms)


def sub(a, b) -> Expr:
    return add(_wrap(a), neg(_wrap(b)))


def mul(*factors) -> Expr:
    factors = tuple(_wrap(f) for f in factors)
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Expr(_MUL, factors)


def div(num, den) -> Expr:
    return Expr(_DIV, (_wrap(num), _wrap(den)))


def pow_int(base, n: int) -> Expr:
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    return Expr(_POW, (_wrap(base),), exponent=n)


def neg(e) -> Expr:
    return Expr(_NEG, (_wrap(e),))


def sin(e) -> Expr:
    return Expr("sin", (_wrap(e),))


def cos(e) -> Expr:
    return Expr("cos", (_wrap(e),))


def exp(e) -> Expr:
    return Expr("exp", (_wrap(e),))


def log(e) -> Expr:
    return Expr("log", (_wrap(e),))


ZERO = const(0)
ONE = const(1)


def is_zero(e: Expr) -> bool:
    return e.op == _CONST and e.value == 0


def is_one(e: Expr) -> bool:
    return e.op == _CONST and e.value == 1


_fold_cache: dict[Expr, Expr] = {}


def fold(e: Expr) -> Expr:
    """Constant folding and neutral-element elimination.

    Idempotent: fold(fold(e)) is structurally equal to fold(e).  No
    canonical simplification beyond this is attempted.
    """
    cached = _fold_cache.get(e)
    if cached is not None:
        return cached
    out = _fold(e)
    _fold_cache[e] = out
    _fold_cache[out] = out
    return out


def _exact(v) -> bool:
    return isinstance(v, Fraction)


def _fold(e: Expr) -> Expr:
    op = e.op
    if op in (_CONST, _COORD):
        return e
    args = tuple(fold(a) for a in e.args)

    if op == _ADD:
        flat = []
        acc = Fraction(0)
        acc_float = 0.0
        any_float = False
        for a in args:
            sub_terms = a.args if a.op == _ADD else (a,)
            for t in sub_terms:
                if t.op == _CONST:
                    if _exact(t.value):
                        acc += t.value
                    else:
                        any_float = True
                        acc_float += t.value
                else:
                    flat.append(t)
        if any_float:
            c = float(acc) + acc_float
            if c != 0.0:
                flat.append(const(c))
        elif acc != 0:
            flat.append(const(acc))
        if not flat:
            return ZERO
        if len(flat) == 1:
            return flat[0]
        return Expr(_ADD, tuple(flat))

    if op == _MUL:
        flat = []
        acc = Fraction(1)
        acc_float = 1.0
        any_float = False
        for a in args:
            sub_factors = a.args if a.op == _MUL else (a,)
            for f in sub_factors:
                if f.op == _CONST:
                    if _exact(f.value):
                        acc *= f.value
                    else:
                        any_float = True
                        acc_float *= f.value
                else:
                    flat.append(f)
        if (not any_float and acc == 0) or (any_float and float(acc) * acc_float == 0.0):
            return ZERO
        if any_float:
            c = float(acc) * acc_float
            if c != 1.0:
                flat.insert(0, const(c))
        elif acc != 1:
            flat.insert(0, const(acc))
        if not flat:
            return ONE
        if len(flat) == 1:
            return flat[0]
        return Expr(_MUL, tuple(flat))

    if op == _DIV:
        num, den = args
        if is_zero(num):
            return ZERO
        if is_one(den):
            return num
        if num.op == _CONST and den.op == _CONST:
            if _exact(num.value) and _exact(den.value) and den.value != 0:
                return const(num.value / den.value)
            if den.value != 0:
                return const(float(num.value) / float(den.value))
        return Expr(_DIV, (num, den))

    if op == _POW:
        (base,) = args
        n = e.exponent
        if n == 0:
            return ONE
        if n == 1:
            return base
        if base.op == _CONST:
            v = base.value
            if _exact(v):
                if v == 0 and n < 0:
                    return Expr(_POW, (base,), exponent=n)
                return const(v**n)
            return const(float(v) ** n)
        return Expr(_POW, (base,), exponent=n)

    if op == _NEG:
        (a,) = args
        if a.op == _CONST:
            return const(-a.value)
        if a.op == _NEG:
            return a.args[0]
        return Expr(_NEG, (a,))

    if op in _FUNCS:
        (a,) = args
        if a.op == _CONST and _exact(a.value):
            if op == "sin" and a.value == 0:
                return ZERO
            if op == "cos" and a.value == 0:
                return ONE
            if op == "exp" and a.value == 0:
                return ONE
            if op == "log" and a.value == 1:
                return ZERO
        return Expr(op, (a,))

    raise ValueError(f"unknown node {op!r}")


_diff_cache: dict[tuple[Expr, int], Expr] = {}


def differentiate(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to coordinate ``i``
    (0-indexed), constant-folded."""
    if i < 0:
        raise ValueError("coordinate index must be >= 0")
    key = (e, i)
    cached = _diff_cache.get(key)
    if cached is not None:
        return cached
    out = fold(_diff(e, i))
    _diff_cache[key] = out
    return out


def _diff(e: Expr, i: int) -> Expr:
    op = e.op
    if op == _CONST:
        return ZERO
    if op == _COORD:
        return ONE if e.index == i else ZERO
    if op == _ADD:
        return add(*(differentiate(a, i) for a in e.args))
    if op == _MUL:
        terms = []
        for k, a in enumerate(e.args):
            da = differentiate(a, i)
            if is_zero(da):
                continue
            factors = list(e.args)
            factors[k] = da
            terms.append(mul(*factors))
        return add(*terms) if terms else ZERO
    if op == _DIV:
        u, v = e.args
        du, dv = differentiate(u, i), differentiate(v, i)
        return sub(div(du, v), div(mul(u, dv), pow_int(v, 2)))
    if op == _POW:
        (b,) = e.args
        n = e.exponent
        db = differentiate(b, i)
        if is_zero(db):
            return ZERO
        return mul(const(n), pow_int(b, n - 1), db)
    if op == _NEG:
        return neg(differentiate(e.args[0], i))
    if op == "sin":
        return mul(cos(e.args[0]), differentiate(e.args[0], i))
    if op == "cos":
        return neg(mul(sin(e.args[0]), differentiate(e.args[0], i)))
    if op == "exp":
        return mul(e, differentiate(e.args[0], i))
    if op == "log":
        return div(differentiate(e.args[0], i), e.args[0])
    raise ValueError(f"unknown node {op!r}")


def evaluate(e: Expr | Tape, p: Sequence[float]) -> float | tuple[float, ...]:
    """Evaluate at a point (sequence of chart.dim floats, or a complex
    numpy array, at which the values are complex).

    ``e`` is an Expr, whose float value is returned, or a ``Tape`` from
    ``compile_tape``, whose entries' values are returned as a tuple.
    An Expr is compiled into a tape of one entry first: the tape is the
    one evaluation path.

    The arithmetic and its order are those of a walk of the whole tree:
    a sum is ``math.fsum`` of its arguments in order, a product
    multiplies its arguments left to right starting from 1.0, and a
    quotient evaluates its denominator, checks it for a pole, then
    evaluates its numerator.  Each distinct subtree is evaluated once,
    which changes neither the value nor the first error raised.  A
    tape of many entries (``bundles.PointMap.exact``) also evaluates a
    subtree shared between entries once, and gives each entry the
    value it has alone and, in entry order, its first error.

    Raises PoleError for division by a near-zero denominator and
    DomainError for log of a nonpositive argument and for a result the
    float arithmetic cannot represent (a constant beyond the float
    range, exp or power overflow, an overflowing or inf - inf sum,
    sin/cos of inf), each reporting the offending subtree.  NaN
    produced by plain float arithmetic (such as inf * 0) is returned as
    is; the residual checkers fail on it.

    At a complex point the same tape runs in complex arithmetic with
    ``cmath``: a sum is ``math.fsum`` of the real parts and of the
    imaginary parts, a pole is a denominator of small modulus, and the
    exp and log guards read the real part.  At ``p + 0j`` the values
    are those at ``p`` to within a few ulps.  Where an infinity meets
    a zero, the complex run defers to the real one (``_run``): it
    raises the real run's error, and a non-finite entry has the real
    value with a NaN imaginary part.
    """
    if isinstance(e, Tape):
        return _run(e, p)
    return _run(compile_tape((e,)), p)[0]


# Tape opcodes, in the order _run tests them.
(
    _T_MUL, _T_ADD, _T_NEG, _T_COORD, _T_POLE, _T_DIV, _T_POW,
    _T_SIN, _T_COS, _T_EXP, _T_LOG, _T_CONST,
) = range(12)
_T_FUNC = {"sin": _T_SIN, "cos": _T_COS, "exp": _T_EXP, "log": _T_LOG}


class Tape:
    """Straight-line code for a list of Exprs, from ``compile_tape``.

    ``template`` holds one register per distinct subtree, the constants
    already converted to float; ``code`` holds ``(opcode, dst, a, b,
    node)`` instructions that fill the other registers in order, with
    the node kept to name it in an error; ``out`` reads the entries'
    registers off, in entry order.
    """

    __slots__ = ("template", "code", "out")

    def __init__(self, template, code, outs):
        self.template = template
        self.code = code
        self.out = _getter(tuple(outs))


def compile_tape(exprs: Sequence[Expr]) -> Tape:
    """Compile Exprs into one tape by value numbering.

    A node's number is keyed by its op, the numbers of its arguments,
    its exponent, and for leaves its index or its value's type and
    value, so structurally equal subtrees get one register however
    many entries share them, and no recursive ``Expr.__eq__`` runs.
    A constant's key holds its type, and a float's exact bits, so
    constants that compare equal but are not alike (``0`` and ``-0.0``;
    ``1/2`` and ``0.5``, which print differently) never share one.

    Entries are emitted in order, each depth first as ``evaluate``
    walks it (a quotient: denominator, pole check, numerator, divide),
    and a subtree at its first occurrence only.  Running the tape
    therefore does each entry's arithmetic in ``evaluate``'s order, and
    its first error is the first one a loop of ``evaluate`` over the
    entries would raise, naming an equal subtree.
    """
    numbers: dict[tuple, int] = {}
    by_id: dict[int, int] = {}  # the entries keep every node alive meanwhile
    template: list[float] = []
    code: list[tuple] = []
    append = code.append

    def emit(e: Expr) -> int:
        """Register of ``e``, emitting its code first if it is new."""
        op = e.op
        if op == _CONST:
            v = e.value
            key = (_CONST, type(v), v.hex() if type(v) is float else v)
            s = numbers.get(key)
            if s is None:
                s = numbers[key] = len(template)
                try:
                    template.append(float(v))
                except OverflowError:  # raised in evaluation order instead
                    template.append(0.0)
                    append((_T_CONST, s, None, None, e))
        elif op == _COORD:
            key = (_COORD, e.index)
            s = numbers.get(key)
            if s is None:
                s = numbers[key] = len(template)
                template.append(0.0)
                append((_T_COORD, s, e.index, None, e))
        elif op == _DIV:
            num, den = e.args
            d = by_id.get(id(den))
            if d is None:
                d = emit(den)
            append((_T_POLE, None, d, None, e))
            n = by_id.get(id(num))
            if n is None:
                n = emit(num)
            key = (_DIV, n, d)
            s = numbers.get(key)
            if s is not None:
                # An equal quotient came first, so neither argument
                # emitted anything and the pole check is the last line.
                code.pop()
            else:
                s = numbers[key] = len(template)
                template.append(0.0)
                append((_T_DIV, s, n, d, e))
        else:
            args = []
            for a in e.args:
                s = by_id.get(id(a))
                args.append(emit(a) if s is None else s)
            args = tuple(args)
            key = (op, args, e.exponent)
            s = numbers.get(key)
            if s is None:
                s = numbers[key] = len(template)
                template.append(0.0)
                if op == _MUL:
                    append((_T_MUL, s, _getter(args), None, e))
                elif op == _ADD:
                    append((_T_ADD, s, _getter(args), None, e))
                elif op == _POW:
                    append((_T_POW, s, args[0], e.exponent, e))
                elif op == _NEG:
                    append((_T_NEG, s, args[0], None, e))
                elif op in _T_FUNC:
                    append((_T_FUNC[op], s, args[0], None, e))
                else:
                    raise ValueError(f"unknown node {op!r}")
        by_id[id(e)] = s
        return s

    outs = []
    for e in exprs:
        s = by_id.get(id(e))
        outs.append(emit(e) if s is None else s)
    # emit reaches itself through its closure; without this the work
    # tables stay alive until a full garbage collection.
    del emit
    return Tape(template, code, outs)


def _getter(slots: tuple[int, ...]):
    """Reads the registers ``slots`` as a tuple (``itemgetter`` alone
    gives a bare value for one slot and refuses none)."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda r: tuple(r[k] for k in slots)


def _complex_fsum(vals) -> complex:
    """Compensated complex sum: ``math.fsum`` of the real parts and of
    the imaginary parts."""
    return complex(math.fsum([v.real for v in vals]), math.fsum([v.imag for v in vals]))


# The function tables of _exec: coordinate conversion, sum, sin, cos,
# exp, log.
_REAL_OPS = (float, math.fsum, math.sin, math.cos, math.exp, math.log)
_COMPLEX_OPS = (complex, _complex_fsum, cmath.sin, cmath.cos, cmath.exp, cmath.log)


def _is_complex_point(p) -> bool:
    """Whether ``p`` is a complex numpy array, which tapes evaluate in
    complex arithmetic; any other point is real."""
    return isinstance(p, np.ndarray) and p.dtype.kind == "c"


def _run(tape: Tape, p: Sequence[float]) -> tuple[float, ...]:
    """The values of a tape's entries at a point: one pass over its
    code, bit for bit ``evaluate`` on each entry, raising the first
    error a loop of ``evaluate`` over the entries would raise.

    Complex arithmetic turns inf * 0 into NaN parts, so a complex run
    can miss an error of the real one, or lose a value it has.  Where it
    raises or gives a non-finite entry, the tape also runs at the real
    part of the point: that run's first error is raised, and a
    non-finite entry takes that run's value as its real part and NaN as
    its imaginary part, the derivative a complex step carries being lost
    there."""
    if not _is_complex_point(p):
        return _exec(tape, p, _REAL_OPS)
    try:
        vals = _exec(tape, p, _COMPLEX_OPS)
    except EvalError:
        _exec(tape, p.real, _REAL_OPS)
        raise
    if cmath.isfinite(sum(vals)):
        return vals
    real = _exec(tape, p.real, _REAL_OPS)
    return tuple(z if cmath.isfinite(z) else complex(x, math.nan) for z, x in zip(vals, real))


def _exec(tape: Tape, p, ops) -> tuple:
    """One pass over a tape's code at a point, with the function table
    ``ops`` (``_REAL_OPS`` or ``_COMPLEX_OPS``)."""
    num, fsum, f_sin, f_cos, f_exp, f_log = ops
    r = tape.template[:]
    for op, d, a, b, e in tape.code:
        if op == _T_MUL:
            # Left to right from 1.0 in doubles, as ``r *= v`` would.
            r[d] = math.prod(a(r), start=1.0)
        elif op == _T_ADD:
            try:
                r[d] = fsum(a(r))
            except (ValueError, OverflowError):
                raise DomainError("non-finite sum", e) from None
        elif op == _T_NEG:
            r[d] = -r[a]
        elif op == _T_COORD:
            r[d] = num(p[a])
        elif op == _T_POLE:
            if abs(r[a]) < _POLE_TOL:
                raise PoleError("division by (near-)zero", e)
        elif op == _T_DIV:
            r[d] = r[a] / r[b]
        elif op == _T_POW:
            x = r[a]
            if b < 0 and abs(x) < _POLE_TOL:
                raise PoleError("negative power of (near-)zero", e)
            try:
                r[d] = x**b
            except OverflowError:
                raise DomainError("power overflow", e) from None
        elif op == _T_SIN or op == _T_COS:
            try:
                r[d] = f_sin(r[a]) if op == _T_SIN else f_cos(r[a])
            except ValueError:
                raise DomainError(f"{e.op} of an infinite argument", e) from None
        elif op == _T_EXP:
            x = r[a]
            if x.real > 700.0:
                raise DomainError("exp overflow", e)
            r[d] = f_exp(x)
        elif op == _T_LOG:
            x = r[a]
            if x.real <= 0.0:
                raise DomainError("log of nonpositive argument", e)
            r[d] = f_log(x)
        else:  # _T_CONST: a constant whose float() overflows
            raise DomainError("constant beyond the float range", e)
    return tape.out(r)


def substitute(e: Expr, mapping: Mapping[int, Expr]) -> Expr:
    """Replace coordinate nodes by expressions; indices not in the
    mapping are kept as-is.  Result is folded."""
    def rec(x: Expr) -> Expr:
        if x.op == _COORD:
            return mapping.get(x.index, x)
        if x.op in (_CONST,):
            return x
        new_args = tuple(rec(a) for a in x.args)
        if new_args == x.args:
            return x
        return Expr(x.op, new_args, value=x.value, index=x.index, exponent=x.exponent)

    return fold(rec(e))


# Printing.  Precedence levels: add < mul/div < pow < atom.
_P_ADD, _P_MUL, _P_POW, _P_ATOM = 1, 2, 3, 4


def to_str(e: Expr) -> str:
    return _render(e, _P_ADD)


def _render(e: Expr, ctx: int) -> str:
    op = e.op
    if op == _CONST:
        v = e.value
        if isinstance(v, Fraction):
            s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        else:
            s = repr(v)
        if (v < 0 or "/" in s) and ctx > _P_ADD:
            return f"({s})"
        return s
    if op == _COORD:
        return f"x{e.index + 1}"
    if op == _ADD:
        parts = [_render(e.args[0], _P_ADD)]
        for t in e.args[1:]:
            if t.op == _NEG:
                parts.append(" - " + _render(t.args[0], _P_MUL))
            elif t.op == _CONST and t.value < 0:
                parts.append(" - " + _render(const(-t.value), _P_MUL))
            else:
                parts.append(" + " + _render(t, _P_MUL))
        s = "".join(parts)
        return f"({s})" if ctx > _P_ADD else s
    if op == _MUL:
        s = "*".join(_render(a, _P_MUL + 1) if a.op in (_ADD, _DIV) else _render(a, _P_MUL) for a in e.args)
        return f"({s})" if ctx > _P_MUL else s
    if op == _DIV:
        num = _render(e.args[0], _P_MUL + 1) if e.args[0].op in (_ADD, _DIV) else _render(e.args[0], _P_MUL)
        den = _render(e.args[1], _P_POW)
        s = f"{num}/{den}"
        return f"({s})" if ctx > _P_MUL else s
    if op == _POW:
        b = _render(e.args[0], _P_ATOM)
        s = f"{b}^{e.exponent}"
        return f"({s})" if ctx > _P_POW else s
    if op == _NEG:
        inner = _render(e.args[0], _P_ATOM)
        s = f"-{inner}"
        return f"({s})" if ctx > _P_ADD else s
    if op in _FUNCS:
        return f"{op}({_render(e.args[0], _P_ADD)})"
    raise ValueError(f"unknown node {op!r}")


# Tokenizer / recursive-descent parser for the surface grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' integer)?
#   base   := number | ident | '(' expr ')' | func '(' expr ')' | '-' base
#   func in {sin, cos, exp, log}; ident matches x[1-9][0-9]*
# The integer after '^' may carry a sign.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_COORD_RE = re.compile(r"^x[1-9][0-9]*$")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            off = n - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        off = m.start("num") if m.group("num") else (m.start("ident") if m.group("ident") else m.start("op"))
        if m.group("num"):
            txt = m.group("num")
            if any(c in txt for c in ".eE"):
                tokens.append(("num", float(txt), off))
            else:
                tokens.append(("num", Fraction(int(txt)), off))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), off))
        else:
            tokens.append(("op", m.group("op"), off))
        pos = m.end()
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, symbol: str):
        kind, val, off = self.peek()
        if kind != "op" or val != symbol:
            raise ParseError(f"expected {symbol!r}", off)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = add(node, rhs) if val == "+" else sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = mul(node, rhs) if val == "*" else div(node, rhs)
            else:
                return node

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            sign = 1
            kind, val, off = self.peek()
            if kind == "op" and val == "-":
                self.advance()
                sign = -1
                kind, val, off = self.peek()
            if kind != "num" or not isinstance(val, Fraction) or val.denominator != 1:
                raise ParseError("expected integer exponent", off)
            self.advance()
            return pow_int(base, sign * int(val))
        return base

    def parse_base(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return const(val)
        if kind == "op" and val == "-":
            return neg(self.parse_base())
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Expr(val, (arg,))
            if _COORD_RE.match(val):
                idx = int(val[1:])
                if idx > self.chart.dim:
                    raise CoordinateRangeError(
                        f"coordinate {val} out of range for chart of dimension {self.chart.dim}",
                        off,
                    )
                return coord(idx - 1)
            raise UnknownIdentifierError(f"unknown identifier {val!r}", off)
        raise ParseError("expected number, identifier or '('", off)


def parse(text: str, chart: Chart) -> Expr:
    """Parse ``text`` against the surface grammar, folding the result."""
    p = _Parser(text, chart)
    node = p.parse_expr()
    kind, _, off = p.peek()
    if kind != "end":
        raise ParseError("trailing input", off)
    return fold(node)


def expr_equal(
    a: Expr,
    b: Expr,
    chart: Chart,
    tol: float = 1e-10,
) -> bool:
    """Probabilistic expression equality: evaluate both sides on 32
    random chart points, drawn with seed 7, and compare within ``tol``.
    Points at which either side fails to evaluate (poles) are resampled;
    a NaN or inf value on either side means the expressions are not
    equal."""
    rng = np.random.default_rng(7)
    tape = compile_tape((a, b))
    checked = 0
    attempts = 0
    while checked < 32:
        attempts += 1
        if attempts > 50 * 32:
            raise EvalError("could not find enough pole-free sample points", a)
        p = _sample_point(chart, rng)
        try:
            va, vb = evaluate(tape, p)
        except EvalError:
            continue
        if not (math.isfinite(va) and math.isfinite(vb)):
            return False
        if abs(va - vb) > tol * (1.0 + max(abs(va), abs(vb))):
            return False
        checked += 1
    return True


def _sample_point(chart: Chart, rng: np.random.Generator) -> np.ndarray:
    for _ in range(10000):
        p = np.array(
            [rng.uniform(lo, hi) for lo, hi in chart.bounds], dtype=float
        )
        if chart.excluded_origin and float(np.linalg.norm(p)) < 0.1:
            continue
        return p
    raise SamplingError(
        "could not sample a chart point outside the excluded ball; "
        "the bounds may lie almost entirely inside it"
    )
