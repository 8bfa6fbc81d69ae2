"""Theory files: declarations, the expression language, and rendering.

A theory file is line oriented, with # comments.  It declares a base
dimension, field and ghost families with integer index ranges, constant
tensors, one Lagrangian density, and any number of named operators,
derivations, and certificates:

    theory scalar
    dim 1
    field y parity even
    lagrangian 1/2 * d(y;x)^2

    operator shift role gauge {
      (xi, y, []) : 1
    }

Expressions are polynomials over the declared variables: rational literals,
+ - * ^, parentheses, base coordinates (x in dimension one, x0..x{n-1}
otherwise), d(ref; i1,...) for jets of a single variable reference,
sum(idx, lo..hi, body) for finite index sums, NAME[i,j] for components and
constant entries, and ~NAME for the antifield of a declared variable.  The
rendered jet form y[;x,x] is accepted back, so rendering and parsing are
mutually inverse on every theory this module produces.

Binder sugar in block entry keys, e.g. (C[q=1..3], a[mu=0..3,r=1..3], [mu]),
expands one declared line into one line per index combination; the bound
names are visible in the entry's expression.

Each statement's expression (the Lagrangian, a witness, a block entry under
all its bindings) is analysed once, then evaluated.  One pass records for
each node the index names it reads, whether a range proof over the sum and
binder ranges shows it cannot raise, whether it is a rational constant, the
constant factors that can zero a sum over it, and bounds on its term count
and expansion work; a statement whose bounded work passes
MAX_EXPANSION_WORK is refused there.  The evaluator built from these facts
evaluates each node once per binding of the names it reads, shares values
between nodes equal up to a renaming of bound names, and scales by
constants.  A sum whose body cannot raise binds only the index values where
a constant factor reading the index, such as g[m,al] in
sum(al, 0..3, g[m,al]*...), has a nonzero entry; every other sum binds every
value in order, so each error keeps its message and span.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations, product as iter_product
from math import comb, prod
from typing import Callable, Iterable, NamedTuple

from .derivations import GeneralizedVectorField
from .errors import (
    JetOrderError, ParseError, Record, SemanticError, SourceSpan, too_many_digits,
)
from .graded_poly import (
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    antifield_of,
    base_of_antifield,
    gp_sum,
    render_polynomial,
)
from .koszul_tate import ReductionCertificate
from .multiindex import MultiIndex
from .noether import ROLE_GAUGE, ROLE_NOETHER, ROLE_STAGE, LinearJetOperator

MAX_DIM = 9
MAX_COMPONENTS = 512
MAX_EXPONENT = 64
MAX_SUM_SPAN = 512
# bound on one statement's expansion steps, from its sum spans, binder
# ranges, term counts and exponents, checked before it is evaluated
MAX_EXPANSION_WORK = 1_000_000
MAX_STAGE = 32
_MAX_DEPTH = 64

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_COORD_RE = re.compile(r"x\d*\Z")
_RESERVED = frozenset({"d", "sum", "witness"})


def _is_reserved(name: str) -> bool:
    return name in _RESERVED or _COORD_RE.match(name) is not None


# ---------------------------------------------------------------------------
# model


class VarDecl(Record):
    """A declared field or ghost family with its index ranges."""

    name: str
    kind: Kind
    parity: Parity
    indices: tuple[tuple[str, int, int], ...]
    stage: int | None

    __slots__ = __match_args__ = ("name", "kind", "parity", "indices", "stage")

    def __init__(self, name, kind, parity, indices=(), stage=None) -> None:
        self._set_fields(name, kind, parity, indices, stage)

    def variable(self, comps: tuple[int, ...]) -> VariableId:
        if len(comps) != len(self.indices):
            raise SemanticError(
                f"{self.name} takes {len(self.indices)} indices, got {len(comps)}"
            )
        for c, (label, lo, hi) in zip(comps, self.indices):
            if not lo <= c <= hi:
                raise SemanticError(
                    f"index {label}={c} of {self.name} is outside {lo}..{hi}"
                )
        return VariableId(self.kind, self.name, comps, self.parity, self.stage)

    def components(self) -> list[VariableId]:
        ranges = [range(lo, hi + 1) for _, lo, hi in self.indices]
        return [self.variable(tuple(c)) for c in iter_product(*ranges)]


class ConstantTensor(Record):
    """A rational constant tensor, kept sparse."""

    name: str
    ranges: tuple[tuple[int, int], ...]
    entries: dict[tuple[int, ...], Fraction]
    builder: str | None

    __slots__ = __match_args__ = ("name", "ranges", "entries", "builder")

    def __init__(self, name, ranges, entries, builder=None) -> None:
        self._set_fields(name, ranges, entries, builder)

    def entry(self, idx: tuple[int, ...]) -> Fraction:
        if len(idx) != len(self.ranges):
            raise SemanticError(
                f"{self.name} takes {len(self.ranges)} indices, got {len(idx)}"
            )
        for c, (lo, hi) in zip(idx, self.ranges):
            if not lo <= c <= hi:
                raise SemanticError(f"index {c} of {self.name} is outside {lo}..{hi}")
        return self.entries.get(idx, Fraction(0))


def _perm_sign(tup: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(tup))
        for j in range(i + 1, len(tup))
        if tup[i] > tup[j]
    )
    return -1 if inversions % 2 else 1


def levi_civita(k: int) -> ConstantTensor:
    """Totally antisymmetric symbol on k letters, indices 1..k per axis."""
    entries = {p: Fraction(_perm_sign(p)) for p in permutations(range(1, k + 1))}
    return ConstantTensor("", ((1, k),) * k, entries, builder=f"levi_civita({k})")


def kronecker(k: int) -> ConstantTensor:
    """Identity matrix with indices 1..k."""
    entries = {(i, i): Fraction(1) for i in range(1, k + 1)}
    return ConstantTensor("", ((1, k), (1, k)), entries, builder=f"kronecker({k})")


def minkowski(n: int) -> ConstantTensor:
    """diag(1, -1, ..., -1) with indices 0..n-1."""
    entries = {(0, 0): Fraction(1)}
    for i in range(1, n):
        entries[(i, i)] = Fraction(-1)
    return ConstantTensor(
        "", ((0, n - 1), (0, n - 1)), entries, builder=f"minkowski({n})"
    )


# Each builder with its number of indices at a given size.
_BUILDERS = {
    "levi_civita": (levi_civita, lambda k: k),
    "kronecker": (kronecker, lambda k: 2),
    "minkowski": (minkowski, lambda n: 2),
}


class Theory(Record):
    """A parsed theory: declarations plus every named construct.

    A dict left out of the constructor starts empty.
    """

    name: str
    dim: int
    variables: dict[str, VarDecl]
    constants: dict[str, ConstantTensor]
    lagrangian: GradedPolynomial | None
    operators: dict[str, LinearJetOperator]
    derivations: dict[str, GeneralizedVectorField]
    certificates: dict[str, ReductionCertificate]

    __slots__ = __match_args__ = (
        "name", "dim", "variables", "constants", "lagrangian", "operators",
        "derivations", "certificates",
    )

    def __init__(
        self, name, dim, variables, constants=None, lagrangian=None,
        operators=None, derivations=None, certificates=None,
    ) -> None:
        self._set_fields(
            name,
            dim,
            variables,
            {} if constants is None else constants,
            lagrangian,
            {} if operators is None else operators,
            {} if derivations is None else derivations,
            {} if certificates is None else certificates,
        )


def _declared(theory: Theory, var: VariableId) -> bool:
    base = var
    if var.kind in (Kind.ANTIFIELD, Kind.ANTIGHOST):
        base = base_of_antifield(var)
    decl = theory.variables.get(base.name)
    try:
        return decl is not None and decl.variable(base.components) == base
    except SemanticError:  # wrong arity or an index out of range
        return False


class _Declared(dict):
    """_declared for one theory, each distinct variable checked once."""

    def __init__(self, theory: Theory):
        super().__init__()
        self.theory = theory

    def __missing__(self, var: VariableId) -> bool:
        found = self[var] = _declared(self.theory, var)
        return found


def _check_vars(
    declared: _Declared,
    poly: GradedPolynomial,
    where: str,
    kinds: tuple[Kind, ...],
) -> None:
    bad = [
        jv for jv in poly.variables()
        if not declared[jv.var] or jv.var.kind not in kinds
    ]
    if not bad:
        return
    # name the first in canonical order, not in the set's hash order
    jv = min(bad)
    if not declared[jv.var]:
        raise SemanticError(f"{where} uses undeclared variable {jv.var.render()}")
    raise SemanticError(
        f"{where} may not depend on {jv.var.render()} ({jv.var.kind.name.lower()})"
    )


_BASE_SECTOR = (Kind.FIELD, Kind.GHOST)
_ALL_KINDS = (Kind.FIELD, Kind.GHOST, Kind.ANTIFIELD, Kind.ANTIGHOST)


def validate_theory(theory: Theory) -> None:
    """Typing and declaration checks shared by the parser and programmatic use."""
    if not _NAME_RE.match(theory.name):
        raise SemanticError(f"theory name {theory.name!r} is not an identifier")
    if not 1 <= theory.dim <= MAX_DIM:
        raise SemanticError(f"dim must be between 1 and {MAX_DIM}")

    seen: set[str] = set()
    for name, decl in theory.variables.items():
        if name != decl.name or not _NAME_RE.match(name):
            raise SemanticError(f"bad variable name {name!r}")
        if _is_reserved(name):
            raise SemanticError(f"{name!r} is reserved")
        seen.add(name)
        if decl.kind not in (Kind.FIELD, Kind.GHOST):
            raise SemanticError(f"{name} must be declared as a field or a ghost")
        if decl.stage is not None and decl.kind is not Kind.GHOST:
            raise SemanticError(f"only ghosts carry a stage ({name})")
        if decl.stage is not None and not 0 <= decl.stage <= MAX_STAGE:
            raise SemanticError(f"stage of {name} must be between 0 and {MAX_STAGE}")
        for label, lo, hi in decl.indices:
            if not _NAME_RE.match(label):
                raise SemanticError(f"bad index name {label!r} on {name}")
            if lo > hi:
                raise SemanticError(f"empty index range {lo}..{hi} on {name}")
        _check_size(name, "components", [(lo, hi) for _, lo, hi in decl.indices], None)

    for name, const in theory.constants.items():
        if name != const.name or not _NAME_RE.match(name):
            raise SemanticError(f"bad constant name {name!r}")
        if _is_reserved(name) or name in seen:
            raise SemanticError(f"constant {name!r} clashes with another name")
        seen.add(name)
        for lo, hi in const.ranges:
            if lo > hi:
                raise SemanticError(f"empty range {lo}..{hi} on constant {name}")
        _check_size(f"constant {name}", "entries", const.ranges, None)
        for idx in const.entries:
            const.entry(idx)  # bounds check

    _check_stage_parities(theory)

    declared = _Declared(theory)
    if theory.lagrangian is not None:
        if not isinstance(theory.lagrangian, GradedPolynomial):
            raise SemanticError(
                "the lagrangian must be a GradedPolynomial, not"
                f" {type(theory.lagrangian).__name__}"
            )
        _check_vars(declared, theory.lagrangian, "the lagrangian", (Kind.FIELD,))
        if theory.lagrangian.parity() is not Parity.EVEN:
            raise SemanticError("the lagrangian must be even")

    for name, op in theory.operators.items():
        _check_operator(theory, declared, name, op)

    for name, vf in theory.derivations.items():
        for var, comp in vf.components.items():
            if not declared[var] or var.kind not in _BASE_SECTOR:
                raise SemanticError(
                    f"derivation {name} targets undeclared variable {var.render()}"
                )
            _check_vars(declared, comp, f"derivation {name}", _BASE_SECTOR)

    for label, cert in theory.certificates.items():
        try:
            labelled = resolve_component(theory, label)
        except (ParseError, SemanticError):
            raise SemanticError(f"certificate label {label!r} is not a declared component")
        if labelled.kind is not Kind.GHOST or labelled.stage is None:
            raise SemanticError(
                f"certificate {label} must be labelled by a stage ghost"
            )
        if cert.m_coeffs:
            for (var, _), poly in cert.m_coeffs.items():
                if not declared[var] or var.kind not in _BASE_SECTOR:
                    raise SemanticError(
                        f"certificate {label} references undeclared {var.render()}"
                    )
                _check_vars(declared, poly, f"certificate {label}", _BASE_SECTOR)
        if cert.witness is not None:
            _check_vars(declared, cert.witness, f"certificate {label}", _ALL_KINDS)


def _check_size(
    name: str, unit: str, ranges: Iterable[tuple[int, int]], span: SourceSpan | None
) -> None:
    """Refuse over MAX_COMPONENTS cells in the ranges; an empty range holds none."""
    if prod(max(hi - lo + 1, 0) for lo, hi in ranges) > MAX_COMPONENTS:
        message = f"{name} declares too many {unit}; the limit is {MAX_COMPONENTS}"
        raise SemanticError(message, span)


def _check_stage_parities(theory: Theory) -> None:
    plain = [d for d in theory.variables.values() if d.kind is Kind.GHOST and d.stage is None]
    staged = [d for d in theory.variables.values() if d.stage is not None]
    if not staged:
        return
    if not plain:
        raise SemanticError("stage ghosts require plain ghosts below them")
    parities = {d.parity for d in plain}
    if len(parities) > 1:
        raise SemanticError(
            "plain ghosts must share one parity when stage ghosts are declared"
        )
    base = parities.pop()
    for decl in staged:
        expected = Parity((int(base) + decl.stage + 1) % 2)
        if decl.parity is not expected:
            raise SemanticError(
                f"stage {decl.stage} ghost {decl.name} must be"
                f" {expected.name.lower()} over {base.name.lower()} plain ghosts"
            )


def _check_operator(
    theory: Theory, declared: _Declared, name: str, op: LinearJetOperator
) -> None:
    if op.dim != theory.dim:
        raise SemanticError(f"operator {name} has dim {op.dim}, theory has {theory.dim}")
    for (param, target, _), poly in op.coeffs.items():
        for var in (param, target):
            if not declared[var]:
                raise SemanticError(
                    f"operator {name} references undeclared {var.render()}"
                )
        # declarations only: LinearJetOperator keeps coefficients to field jets
        _check_vars(declared, poly, f"operator {name}", _ALL_KINDS)
        if op.role in (ROLE_GAUGE, ROLE_NOETHER):
            if param.kind is not Kind.GHOST or param.stage is not None:
                raise SemanticError(
                    f"operator {name}: parameter {param.render()} must be a plain ghost"
                )
            if target.kind is not Kind.FIELD:
                raise SemanticError(
                    f"operator {name}: target {target.render()} must be a field"
                )
        else:
            k = op.stage or 0
            if param.kind is not Kind.GHOST or param.stage != k:
                raise SemanticError(
                    f"operator {name}: parameter {param.render()} must be a"
                    f" stage {k} ghost"
                )
            want = None if k == 0 else k - 1
            if target.kind is not Kind.GHOST or target.stage != want:
                raise SemanticError(
                    f"operator {name}: target {target.render()} must be a ghost"
                    f" one stage below"
                )


# ---------------------------------------------------------------------------
# tokens


# Blanks and comments before a token are consumed with it, `bad` catches any
# other character and `end` the end of the text: every match succeeds
# without backtracking, and every character is matched in order.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r]|#[^\n]*)*(?:"
    r"(?P<newline>\n)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<dotdot>\.\.)"
    r"|(?P<punct>[()\[\]{},;:=~*+\-^/])"
    r"|(?P<bad>.)"
    r"|(?P<end>\Z))"
)


def _statements(text: str) -> list[list[tuple]]:
    """Tokenize text into statements; newlines inside (..) or [..] continue.

    A token is the tuple (kind, text, line, column, start), kind one of
    name, int, dotdot and punct; _span makes its SourceSpan when a node or
    an error needs one.
    """
    out: list[list[tuple]] = []
    current: list[tuple] = []
    depth = 0
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            break
        start = m.start(kind)
        if kind == "newline":
            if depth == 0 and current:
                out.append(current)
                current = []
            line += 1
            line_start = start + 1
            continue
        if kind == "bad":
            span = SourceSpan(line, start - line_start + 1, start, start + 1)
            raise ParseError(f"unexpected character {text[start]!r}", span)
        tok_text = m.group(kind)
        if kind == "punct":
            if tok_text in "([":
                depth += 1
            elif tok_text in ")]":
                depth = max(0, depth - 1)
        current.append((kind, tok_text, line, start - line_start + 1, start))
    if current:
        out.append(current)
    return out


def _span(tok: tuple) -> SourceSpan:
    _, text, line, column, start = tok
    return SourceSpan(line, column, start, start + len(text))


class _Stmt:
    """Cursor over one statement's tokens."""

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_text(self) -> str | None:
        return self.tokens[self.pos][1] if self.pos < len(self.tokens) else None

    def span(self) -> SourceSpan:
        return _span(self.peek() or self.tokens[-1])

    def take(self) -> tuple:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", _span(self.tokens[-1]))
        self.pos += 1
        return tok

    def expect_name(self, what: str = "a name") -> tuple:
        tok = self.take()
        if tok[0] != "name":
            raise ParseError(f"expected {what}, got {tok[1]!r}", _span(tok))
        return tok

    def expect(self, text: str) -> tuple:
        tok = self.take()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, got {tok[1]!r}", _span(tok))
        return tok

    def accept(self, text: str) -> bool:
        if self.peek_text() == text:
            self.pos += 1
            return True
        return False

    def expect_int(self) -> int:
        neg = self.accept("-")
        tok = self.take()
        if tok[0] != "int":
            raise ParseError(f"expected an integer, got {tok[1]!r}", _span(tok))
        try:
            value = int(tok[1])
        except ValueError:
            message = too_many_digits(f"integer of {len(tok[1])} digits")
            raise ParseError(message, _span(tok)) from None
        return -value if neg else value

    def expect_range(self) -> tuple[int, int]:
        lo = self.expect_int()
        self.expect("..")
        return lo, self.expect_int()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok[1]!r}", _span(tok))

    def expect_fraction(self) -> Fraction:
        num = self.expect_int()
        if self.accept("/"):
            den = self.expect_int()
            if den == 0:
                raise ParseError("zero denominator", self.span())
            return Fraction(num, den)
        return Fraction(num)


# ---------------------------------------------------------------------------
# expression AST: plain slotted classes, compared by identity


class _Num:
    __slots__ = ("value", "span")

    def __init__(self, value: Fraction, span: SourceSpan) -> None:
        self.value = value
        self.span = span


class _Ref:
    __slots__ = ("name", "args", "anti", "span", "explicit_args")

    def __init__(
        self,
        name: str,
        args: tuple[int | str, ...],
        anti: bool,
        span: SourceSpan,
        explicit_args: bool = False,
    ) -> None:
        self.name = name
        self.args = args
        self.anti = anti
        self.span = span
        self.explicit_args = explicit_args


class _D:
    __slots__ = ("base", "dirs", "span")

    def __init__(
        self, base: object, dirs: tuple[int | str, ...], span: SourceSpan
    ) -> None:
        self.base = base
        self.dirs = dirs
        self.span = span


class _Sum:
    __slots__ = ("index", "lo", "hi", "body", "span")

    def __init__(
        self, index: str, lo: int, hi: int, body: object, span: SourceSpan
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.body = body
        self.span = span


class _Unary:
    __slots__ = ("op", "operand", "span")

    def __init__(self, op: str, operand: object, span: SourceSpan) -> None:
        self.op = op
        self.operand = operand
        self.span = span


class _Binary:
    __slots__ = ("op", "left", "right", "span")

    def __init__(self, op: str, left: object, right: object, span: SourceSpan) -> None:
        self.op = op
        self.left = left
        self.right = right
        self.span = span


class _Pow:
    __slots__ = ("base", "exponent", "span")

    def __init__(self, base: object, exponent: int, span: SourceSpan) -> None:
        self.base = base
        self.exponent = exponent
        self.span = span


def _parse_index_arg(st: _Stmt) -> "int | str":
    tok = st.peek()
    if tok is None:
        raise ParseError("unexpected end of index list", st.span())
    if tok[0] == "name":
        st.take()
        return tok[1]
    return st.expect_int()


def _parse_index_list(st: _Stmt, *closers: str) -> list["int | str"]:
    """Comma separated index arguments, none if a closer comes first."""
    args: list[int | str] = []
    if st.peek_text() not in (*closers, None):
        args.append(_parse_index_arg(st))
        while st.accept(","):
            args.append(_parse_index_arg(st))
    return args


def _parse_expr(st: _Stmt, depth: int = 0) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    node = _parse_term(st, depth + 1)
    while st.peek_text() in ("+", "-"):
        tok = st.take()
        right = _parse_term(st, depth + 1)
        node = _Binary(tok[1], node, right, _span(tok))
    return node


def _parse_term(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    node = _parse_unary(st, depth + 1)
    while st.peek_text() == "*":
        tok = st.take()
        node = _Binary("*", node, _parse_unary(st, depth + 1), _span(tok))
    return node


def _parse_unary(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    if st.peek_text() == "-":
        tok = st.take()
        return _Unary("-", _parse_unary(st, depth + 1), _span(tok))
    return _parse_power(st, depth + 1)


def _parse_power(st: _Stmt, depth: int) -> object:
    node = _parse_atom(st, depth + 1)
    if st.peek_text() == "^":
        tok = st.take()
        exp = st.expect_int()
        if exp < 0 or exp > MAX_EXPONENT:
            raise ParseError(
                f"exponent must be between 0 and {MAX_EXPONENT}", _span(tok)
            )
        return _Pow(node, exp, _span(tok))
    return node


def _parse_atom(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    tok = st.peek()
    if tok is None:
        raise ParseError("expected an expression", st.span())
    kind, text = tok[0], tok[1]
    if kind == "int":
        return _Num(st.expect_fraction(), _span(tok))
    if text == "(":
        st.take()
        node = _parse_expr(st, depth + 1)
        st.expect(")")
        return node
    if text == "~":
        st.take()
        name = st.expect_name("a variable name")
        return _parse_ref_tail(st, name, anti=True)
    if kind == "name":
        st.take()
        if text == "d" and st.peek_text() == "(":
            return _parse_d(st, _span(tok), depth + 1)
        if text == "sum" and st.peek_text() == "(":
            return _parse_sum(st, _span(tok), depth + 1)
        return _parse_ref_tail(st, tok, anti=False)
    raise ParseError(f"unexpected {text!r} in expression", _span(tok))


def _parse_ref_tail(st: _Stmt, name_tok: tuple, anti: bool) -> object:
    name, span = name_tok[1], _span(name_tok)
    if not st.accept("["):
        return _Ref(name, (), anti, span)
    comps = _parse_index_list(st, ";", "]")
    ref = _Ref(name, tuple(comps), anti, span, explicit_args=True)
    if st.accept(";"):  # the rendered jet y[c;x,x], read as d(y[c];x,x)
        dirs = _parse_index_list(st, "]")
        st.expect("]")
        return _D(ref, tuple(dirs), span)
    st.expect("]")
    return ref


def _parse_d(st: _Stmt, span: SourceSpan, depth: int) -> object:
    st.expect("(")
    base = _parse_atom(st, depth + 1)
    if not isinstance(base, (_Ref, _D)):
        raise ParseError("d(...) applies to a single variable reference", span)
    dirs: list[int | str] = []
    if st.accept(";"):
        dirs.append(_parse_index_arg(st))
        while st.accept(","):
            dirs.append(_parse_index_arg(st))
    st.expect(")")
    return _D(base, tuple(dirs), span)


def _parse_sum(st: _Stmt, span: SourceSpan, depth: int) -> object:
    st.expect("(")
    index = st.expect_name("an index name")[1]
    st.expect(",")
    lo, hi = st.expect_range()
    st.expect(",")
    body = _parse_expr(st, depth + 1)
    st.expect(")")
    if hi - lo + 1 > MAX_SUM_SPAN:
        raise ParseError(f"sum range wider than {MAX_SUM_SPAN}", span)
    return _Sum(index, lo, hi, body, span)


# ---------------------------------------------------------------------------
# evaluation


class _Env:
    """What references resolve against: declarations and index bindings."""

    __slots__ = ("dim", "variables", "constants", "bindings")

    def __init__(
        self,
        dim: int,
        variables: dict[str, VarDecl],
        constants: dict[str, ConstantTensor],
        bindings: dict[str, int],
    ) -> None:
        self.dim = dim
        self.variables = variables
        self.constants = constants
        self.bindings = bindings


def _resolve_index(env: _Env, arg: "int | str", span: SourceSpan) -> int:
    if isinstance(arg, int):
        return arg
    if arg in env.bindings:
        return env.bindings[arg]
    raise SemanticError(f"unbound index {arg!r}", span)


def _resolve_direction(env: _Env, arg: "int | str", span: SourceSpan) -> int:
    if isinstance(arg, str):
        if arg in env.bindings:
            value = env.bindings[arg]
        elif _COORD_RE.match(arg):
            value = _coordinate_of(env, arg, span)
        else:
            raise SemanticError(f"unbound direction {arg!r}", span)
    else:
        value = arg
    if not 0 <= value < env.dim:
        raise SemanticError(f"direction {value} outside base dimension", span)
    return value


def _coordinate_of(env: _Env, name: str, span: SourceSpan) -> int:
    if name == "x":
        if env.dim != 1:
            raise SemanticError(
                f"write x0..x{env.dim - 1} in dimension {env.dim}", span
            )
        return 0
    try:
        k = int(name[1:])
    except ValueError:
        message = too_many_digits(f"integer of {len(name) - 1} digits")
        raise SemanticError(message, span) from None
    if k >= env.dim:
        raise SemanticError(f"coordinate {name} outside base dimension", span)
    return k


def _resolve_component(env: _Env, node: _Ref) -> VariableId:
    decl = env.variables.get(node.name)
    if decl is None:
        raise SemanticError(f"unknown variable {node.name!r}", node.span)
    comps = tuple(_resolve_index(env, a, node.span) for a in node.args)
    try:
        var = decl.variable(comps)
    except SemanticError as exc:
        raise SemanticError(str(exc), node.span) from None
    return antifield_of(var) if node.anti else var


def _jet_of(env: _Env, node: object) -> JetVariable:
    if isinstance(node, _Ref):
        return JetVariable(_resolve_component(env, node))
    if isinstance(node, _D):
        inner = _jet_of(env, node.base)
        dirs = tuple(_resolve_direction(env, d, node.span) for d in node.dirs)
        return JetVariable(
            inner.var, _multi_index(inner.mi.entries + dirs, node.span)
        )
    raise SemanticError("expected a variable reference", getattr(node, "span", None))


def _multi_index(entries: tuple[int, ...], span: SourceSpan) -> MultiIndex:
    try:
        return MultiIndex(entries)
    except JetOrderError as exc:
        raise SemanticError(str(exc), span) from None


def _leaf(env: _Env, node: object) -> "GradedPolynomial | Fraction | int":
    """The value of a reference or jet leaf; index values and constant
    entries stay numbers.  Every leaf error is raised here."""
    if not isinstance(node, _Ref):
        return GradedPolynomial.variable(_jet_of(env, node))
    if not node.anti and not node.explicit_args:
        if node.name in env.bindings:
            return env.bindings[node.name]
        if _COORD_RE.match(node.name):
            return GradedPolynomial.coordinate(
                _coordinate_of(env, node.name, node.span)
            )
    if not node.anti and node.name in env.constants:
        const = env.constants[node.name]
        idx = tuple(_resolve_index(env, a, node.span) for a in node.args)
        try:
            return const.entry(idx)
        except SemanticError as exc:
            raise SemanticError(str(exc), node.span) from None
    if node.name in env.variables:
        return GradedPolynomial.variable(_jet_of(env, node))
    raise SemanticError(f"unknown name {node.name!r}", node.span)


class _Facts(NamedTuple):
    """What _analyse records about one node of a statement's expression."""

    node: object
    const: bool  # the value is a rational number, not a polynomial
    safe: bool  # evaluating the node provably cannot raise
    free: frozenset[str] = frozenset()  # the bound names the value depends on
    kids: tuple["_Facts", ...] = ()
    run: Callable[[], object] | None = None  # a leaf's evaluator
    cheap: bool = False  # a leaf no dearer than a memo lookup
    values: int = 1  # how many values the free names take together
    terms: int = 1  # bound on the value's term count
    own: int = 1  # bound on the expansion steps of one evaluation, kids aside
    fanout: int = 1  # evaluations of each kid per evaluation
    shape: tuple = ()  # prefix form, bound names as 1-tuples; inside sums only
    # [number, nodes] of the shape up to renaming bound names, and the free
    # names in memo key order
    key: tuple[list, list[str]] | None = None
    factors: tuple[_Ref, ...] = ()  # constant entries of the node's * chain
    plan: tuple = ()  # a sum's zeroing factors, see _sum_run; a run's signs


class _Statement:
    """One statement's expression, evaluated at each binding of its binders.

    _analyse visits each node once and records its facts; _compile builds
    the evaluator from them, top down, knowing how often each node is
    reached.  Memo entries live as long as this object.
    """

    def __init__(self, ast: object, dim: int, variables: dict[str, VarDecl],
                 constants: dict[str, ConstantTensor], binders: tuple = ()):
        self.env = _Env(dim, variables, constants, {})
        self.memo: dict[tuple, object] = {}
        self.shapes: dict[tuple, list] = {}
        facts = _analyse(self, ast, {name: (lo, hi) for name, lo, hi in binders})
        # the root is reached once per binding
        self.work = visits = prod(hi - lo + 1 for _, lo, hi in binders)
        self.const = facts.const
        self.run = _compile(self, facts, visits)

    def __call__(self, bindings: dict[str, int]) -> GradedPolynomial:
        # every call binds the same names, and sums unbind their own
        self.env.bindings.update(bindings)
        value = self.run()
        return GradedPolynomial.scalar(value) if self.const else value


_CAP = MAX_EXPANSION_WORK + 1  # bounds past the budget are all alike


def _analyse(
    stmt: _Statement, node: object, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """The facts of node, evaluated with each name of scope bound within
    its interval; one visit per node."""
    kind = type(node)
    if kind is _Num:
        value = node.value
        shape = ("n", value.numerator, value.denominator)
        return _Facts(node, True, True, run=lambda: value, cheap=True, shape=shape)
    if kind is _Ref or kind is _D:
        facts = _analyse_leaf(stmt, node, scope)
    elif kind is _Sum:
        facts = _analyse_sum(stmt, node, scope)
    elif kind is _Binary and node.op == "*":
        return _analyse_factors(stmt, node, scope)
    elif kind is _Binary:
        facts = _analyse_terms(stmt, node, scope)
    elif kind is _Unary or kind is _Pow:
        arg = _analyse(stmt, node.operand if kind is _Unary else node.base, scope)
        t, k = arg.terms, (node.exponent if kind is _Pow else -1)  # -1: negation
        if k > 0:
            # (t terms)^k has at most C(t+k-1, k) terms; building it by k
            # products takes t times the terms of the powers below k
            terms, own = comb(t + k - 1, k), t * comb(t + k - 1, k - 1)
        else:
            terms = own = 1 if k == 0 else t
        facts = _Facts(
            node, arg.const, arg.safe, arg.free, (arg,), terms=min(terms, _CAP),
            own=min(own, _CAP), shape=("^", k) + arg.shape if scope else (),
        )
    else:
        raise SemanticError("malformed expression", getattr(node, "span", None))
    return _keyed(stmt, facts, scope)


def _keyed(
    stmt: _Statement, facts: _Facts, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """facts with the number of values of its free names and its memo key."""
    if not scope or facts.cheap:
        return facts
    values = prod(max(0, scope[n][1] - scope[n][0] + 1) for n in facts.free)
    # bound names are numbered by first occurrence: the free ones, in that
    # order, line up in the memo keys of nodes of one shape; a closed node
    # has one value, so its own number keys it
    numbers: dict[str, int] = {}
    canon = tuple([
        (numbers.setdefault(t[0], len(numbers)),) if type(t) is tuple else t
        for t in facts.shape
    ]) if facts.free else ("closed", id(facts.node))
    entry = stmt.shapes.setdefault(canon, [len(stmt.shapes), 0])
    entry[1] += 1
    names = [n for n in numbers if n in facts.free]
    return facts._replace(values=values, key=(entry, names))


def _chain(node: _Binary) -> tuple[list, list[_Binary]]:
    """The operands, left to right, of the run of * or of + and - whose top
    is node, and the run's binary nodes, innermost first.  The parser leaves
    a run a left-deep chain, walked here by a loop."""
    product, operands, links = node.op == "*", [], []
    while type(node) is _Binary and (node.op == "*") is product:
        links.append(node)
        operands.append(node.right)
        node = node.left
    operands.append(node)
    operands.reverse()
    links.reverse()
    return operands, links


def _analyse_terms(
    stmt: _Statement, node: _Binary, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """A run of one or more + and -, such as y+y+...+y, is one node whose
    kids are its operands, left to right.  One evaluation sums the operands
    at once, so it is charged their terms once."""
    operands, links = _chain(node)
    kids = tuple([_analyse(stmt, operand, scope) for operand in operands])
    const = safe = True
    terms, free = 0, frozenset()
    for kid in kids:
        const, safe = const and kid.const, safe and kid.safe
        terms, free = terms + kid.terms, free | kid.free
    terms = min(terms, _CAP)
    plan = ("+", *[link.op for link in links])
    return _Facts(
        node, const, safe, free, kids, terms=terms, own=terms,
        shape=("+", len(kids), *plan) + tuple(t for kid in kids for t in kid.shape)
        if scope else (),
        plan=plan,
    )


def _analyse_factors(
    stmt: _Statement, node: _Binary, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """A run of one or more *, such as y*y*...*y, multiplied left to right.

    Each stretch of the run whose partial products read the same bound
    names is one node; its kids are the node of the stretch before it, if
    any, and its own operands.  So each partial product is built once per
    value of the names it reads and charged its terms each time, as in a
    chain of binary products, and the nodes nest at most once per bound
    name however long the run."""
    operands, links = _chain(node)
    kids = [_analyse(stmt, operand, scope) for operand in operands]
    stretch, free = kids[:1], kids[0].free
    for k in range(1, len(kids)):
        if len(stretch) > 1 and not kids[k].free <= free:
            # links[k - 2] is the product of the first k operands
            stretch = [_product_facts(stmt, links[k - 2], stretch, scope)]
        stretch.append(kids[k])
        free = free | kids[k].free
    return _product_facts(stmt, node, stretch, scope)


def _product_facts(
    stmt: _Statement, node: _Binary, kids: list[_Facts],
    scope: dict[str, tuple[int, int]],
) -> _Facts:
    """The facts of a stretch of a run of *: one evaluation builds each
    partial product of kids, left to right, and is charged their terms."""
    terms, own = kids[0].terms, 0
    for kid in kids[1:]:
        terms = min(terms * kid.terms, _CAP)
        own = min(own + terms, _CAP)
    facts = _Facts(
        node, all(kid.const for kid in kids), all(kid.safe for kid in kids),
        frozenset().union(*[kid.free for kid in kids]), tuple(kids), terms=terms,
        own=own,
        shape=("*", len(kids)) + tuple(t for kid in kids for t in kid.shape)
        if scope else (),
        factors=tuple(f for kid in kids for f in kid.factors),
    )
    return _keyed(stmt, facts, scope)


def _analyse_sum(
    stmt: _Statement, node: _Sum, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """A sum whose body cannot raise gets a plan: for each constant factor
    reading the index, a map from its other arguments' values to the index
    values with a nonzero stored entry."""
    index, env = node.index, stmt.env
    body = _analyse(stmt, node.body, {**scope, index: (node.lo, node.hi)})
    safe = body.safe and index not in env.variables and index not in env.constants
    plan = []
    for ref in body.factors if safe else ():
        args = ref.args
        if index not in args:
            continue
        nonzero: dict[tuple, set[int]] = {}
        for key, value in env.constants[ref.name].entries.items():
            if not value or len(key) != len(args):
                continue
            hits = {k for k, a in zip(key, args) if a == index}
            if len(hits) == 1:
                rest = tuple(k for k, a in zip(key, args) if a != index)
                nonzero.setdefault(rest, set()).update(hits)
        plan.append((nonzero, [(a, isinstance(a, str)) for a in args if a != index]))
    # a plan factor binds at most its most entries for any other arguments
    fanout = min(
        [max(0, node.hi - node.lo + 1)]
        + [max(map(len, nonzero.values()), default=0) for nonzero, _ in plan]
    )
    return _Facts(
        node, body.const, safe, body.free - {index}, (body,),
        terms=min((fanout if index in body.free else 1) * body.terms, _CAP),
        own=min(fanout * body.terms, _CAP), fanout=fanout,
        shape=("s", (index,), node.lo, node.hi) + body.shape if scope else (),
        factors=tuple(f for f in body.factors if index not in f.args),
        plan=tuple(plan),
    )


def _analyse_leaf(
    stmt: _Statement, node: object, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """Leaves are evaluated by _leaf, which raises their errors.  A leaf
    that reads no bound name has one outcome, found here: its value, or an
    error raised again each time it is evaluated."""
    env = stmt.env
    b = env.bindings  # empty until the statement is evaluated
    shape = _leaf_shape(node, scope) if scope else ()
    free = frozenset(t[0] for t in shape if type(t) is tuple)
    by_leaf = lambda: _leaf(env, node)
    if not free:
        try:
            value = _leaf(env, node)
        except SemanticError:
            return _Facts(node, False, False, run=by_leaf, cheap=True, shape=shape)
        const = type(value) is not GradedPolynomial
        return _Facts(node, const, True, run=lambda: value, cheap=True, shape=shape)
    plain = type(node) is _Ref and not node.anti
    if plain and not node.explicit_args:  # a name in scope read as a value
        return _Facts(node, True, True, free, run=lambda: b[node.name], cheap=True,
                      shape=shape)
    # each check of _leaf (of _jet_of, for a jet) holds one index or direction
    # to an interval, so a leaf that passes them with its names at the low
    # ends of their ranges, and with each in turn at its high end, passes at
    # every binding between
    const = env.constants.get(node.name) if plain else None
    low = {n: scope[n][0] for n in free}
    highs = [{**low, n: scope[n][1]} for n in free if scope[n][1] != low[n]]
    safe = True
    for point in [low, *highs]:
        b.update(point)
        try:
            (_jet_of if const is None else _leaf)(env, node)
        except SemanticError:
            safe = False
            break
        finally:
            b.clear()
    if const is None:
        return _Facts(node, False, safe, free, run=by_leaf, shape=shape)
    entries, keys = const.entries, [(a, isinstance(a, str)) for a in node.args]
    if safe:
        by_leaf = lambda: entries.get(tuple([b[a] if k else a for a, k in keys]), 0)
    return _Facts(node, True, safe, free, run=by_leaf, cheap=True, shape=shape,
                  factors=(node,))


def _leaf_shape(node: object, scope: dict[str, tuple[int, int]]) -> tuple:
    def token(arg: "int | str") -> object:
        return (arg,) if arg in scope else arg

    if isinstance(node, _D):
        dirs = node.dirs
        return ("d", len(dirs), *map(token, dirs), *_leaf_shape(node.base, scope))
    index = not node.anti and not node.explicit_args and node.name in scope
    return ("r", (node.name,) if index else node.name, node.anti,
            node.explicit_args, len(node.args), *map(token, node.args))


def _compile(
    stmt: _Statement, facts: _Facts, visits: int, shared: bool = False
) -> Callable[[], object]:
    """The evaluator of a node reached at most visits times.

    The node is memoized, unless it is a leaf no dearer than a lookup, when
    its free names take fewer values than visits, or when another node has
    its shape and no ancestor, shared, does; so it is evaluated at most
    min(visits, facts.values) times, and those evaluations' steps count
    towards the statement's expansion work.  A raise is not remembered.
    """
    node = facts.node
    evals = min(visits, facts.values)
    stmt.work += evals * facts.own
    if stmt.work > MAX_EXPANSION_WORK:
        raise SemanticError(
            f"expansion work budget of {MAX_EXPANSION_WORK} steps exceeded", node.span
        )
    twin = facts.key is not None and facts.key[0][1] > 1
    runs = [
        _compile(stmt, kid, evals * facts.fanout, shared or twin) for kid in facts.kids
    ]
    if facts.run is not None:
        run = facts.run
    elif type(node) is _Sum:
        run = _sum_run(stmt, facts, *runs)
    elif type(node) is _Binary and node.op == "*":
        run = _run_of_factors(facts, runs)
    elif type(node) is _Binary:
        run = _run_of_terms(facts, runs)
    elif type(node) is _Unary:
        (f,) = runs
        run = lambda: -f()
    else:
        (f,), k = runs, node.exponent
        run = lambda: f() ** k
    if facts.key is None or (facts.values >= visits and (shared or not twin)):
        return run
    (number, _), names = facts.key
    memo, b = stmt.memo, stmt.env.bindings

    def memoized() -> object:
        key = (number, *[b[name] for name in names])
        value = memo.get(key)
        if value is None:
            value = memo[key] = run()
        return value

    return memoized


def _run_of_terms(
    facts: _Facts, runs: list[Callable[[], object]]
) -> Callable[[], object]:
    """Evaluate the operands of a run of + and -, left first, and add them
    up at once; a scalar is lifted to a polynomial only to be added to one."""
    signs = [1 if sign == "+" else -1 for sign in facts.plan]
    if facts.const:
        return lambda: sum([sign * f() for f, sign in zip(runs, signs)])
    lift = GradedPolynomial.scalar
    operands = list(zip(runs, signs, [kid.const for kid in facts.kids]))

    def run() -> object:
        plus, minus = [], []
        for f, sign, scalar in operands:
            value = lift(f()) if scalar else f()
            (plus if sign > 0 else minus).append(value)
        return gp_sum(plus, minus)

    return run


def _run_of_factors(
    facts: _Facts, runs: list[Callable[[], object]]
) -> Callable[[], object]:
    """Multiply the kids of a stretch of a run of *, left to right, each
    evaluated just before it is taken; a scalar times a polynomial is a
    scaling."""
    operands = list(zip(runs, [kid.const for kid in facts.kids]))
    (first, scalar), rest = operands[0], operands[1:]

    def run() -> object:
        value, const = first(), scalar
        for f, kid_const in rest:
            other = f()
            if const is kid_const:
                value = value * other
            elif const:
                value, const = other.scaled(value), False
            else:
                value = value.scaled(other)
        return value

    return run


def _sum_run(
    stmt: _Statement, facts: _Facts, evaluate: Callable[[], object]
) -> Callable[[], object]:
    """Evaluate the body of a sum at each value of its index, in order,
    skipping those where a factor of the plan has no nonzero stored entry:
    the body cannot raise, so they would add exactly zero and nothing else.
    """
    node, b = facts.node, stmt.env.bindings
    index, span, plan = node.index, node.span, facts.plan
    if index in stmt.env.variables or index in stmt.env.constants:
        def shadowing() -> object:
            raise SemanticError(f"sum index {index!r} shadows a declaration", span)

        return shadowing
    values = range(node.lo, node.hi + 1)
    total = sum if facts.const else gp_sum

    def run() -> object:
        saved = b.get(index)
        todo = values
        for nonzero, rest in plan:
            hits = nonzero.get(tuple([b[a] if named else a for a, named in rest]), ())
            todo = [v for v in todo if v in hits]
        parts = []
        for value in todo:
            b[index] = value
            parts.append(evaluate())
        if saved is None:
            b.pop(index, None)
        else:
            b[index] = saved
        return parts[0] if len(parts) == 1 else total(parts)

    return run


# ---------------------------------------------------------------------------
# statement parsing


def _parse_key_ref(st: _Stmt) -> tuple[_Ref, tuple[tuple[str, int, int], ...]]:
    """A block-entry reference and the binders it defines, e.g. a[mu=0..3,2]."""
    name = st.expect_name("a variable name")
    args: list[int | str] = []
    binders: list[tuple[str, int, int]] = []
    explicit = False
    if st.accept("["):
        explicit = True
        while st.peek_text() not in ("]", None):
            tok = st.peek()
            if tok[0] == "name":
                st.take()
                args.append(tok[1])
                if st.accept("="):
                    lo, hi = st.expect_range()
                    if hi - lo + 1 > MAX_SUM_SPAN or lo > hi:
                        raise ParseError(f"bad binder range {lo}..{hi}", _span(tok))
                    binders.append((tok[1], lo, hi))
            else:
                args.append(st.expect_int())
            if not st.accept(","):
                break
        st.expect("]")
    ref = _Ref(name[1], tuple(args), False, _span(name), explicit_args=explicit)
    return ref, tuple(binders)


def _parse_mi_literal(st: _Stmt) -> tuple[tuple["int | str", ...], SourceSpan]:
    span = _span(st.expect("["))
    entries = _parse_index_list(st, "]")
    st.expect("]")
    return tuple(entries), span


class _TheoryParser:
    def __init__(self, text: str):
        self.statements = _statements(text)
        self.index = 0
        self.theory_name: str | None = None
        self.dim: int | None = None
        self.variables: dict[str, VarDecl] = {}
        self.constants: dict[str, ConstantTensor] = {}
        self.lagrangian: GradedPolynomial | None = None
        self.operators: dict[str, LinearJetOperator] = {}
        self.derivations: dict[str, GeneralizedVectorField] = {}
        self.certificates: dict[str, ReductionCertificate] = {}

    # -- helpers

    def _statement(self, ast: object, binders: tuple = ()) -> _Statement:
        return _Statement(ast, self.dim, self.variables, self.constants, binders)

    def _next(self) -> _Stmt | None:
        if self.index >= len(self.statements):
            return None
        st = _Stmt(self.statements[self.index])
        self.index += 1
        return st

    def _fresh_name(self, tok: tuple, table: dict) -> str:
        if table is self.variables or table is self.constants:
            if tok[1] in self.variables or tok[1] in self.constants:
                raise SemanticError(f"duplicate declaration of {tok[1]}", _span(tok))
            if _is_reserved(tok[1]):
                raise SemanticError(f"{tok[1]!r} is reserved", _span(tok))
        elif tok[1] in table:
            raise SemanticError(f"duplicate declaration of {tok[1]}", _span(tok))
        return tok[1]

    def _expand_entry(
        self,
        acc: dict[tuple, GradedPolynomial],
        keys: tuple[tuple[_Ref, tuple[tuple[str, int, int], ...]], ...],
        mi: tuple[tuple["int | str", ...], SourceSpan] | None,
        st: _Stmt,
        binder_span: SourceSpan,
    ) -> None:
        """Parse the rest of a block entry, ": expr", from st, and add it
        into acc at every binding of its binders.

        The key is the resolved components of keys, followed by the resolved
        multi-index when mi (entries and span) is given; entries that land
        on the same key sum.  Binder errors are reported at binder_span.
        """
        st.expect(":")
        ast = _parse_expr(st)
        st.expect_end()
        binders = tuple(b for _, defined in keys for b in defined)
        names = [name for name, _, _ in binders]
        for label in names:
            if label in self.variables or label in self.constants:
                raise SemanticError(
                    f"binder {label!r} shadows a declaration", binder_span
                )
        if len(set(names)) != len(names):
            raise SemanticError("repeated binder name", binder_span)
        stmt = self._statement(ast, binders)
        env = _Env(self.dim, self.variables, self.constants, {})
        ranges = [range(lo, hi + 1) for _, lo, hi in binders]
        for values in iter_product(*ranges):
            bindings = dict(zip(names, values))
            env.bindings = bindings
            key = tuple(_resolve_component(env, ref) for ref, _ in keys)
            if mi is not None:
                entries, mi_span = mi
                dirs = tuple(_resolve_direction(env, e, mi_span) for e in entries)
                key += (_multi_index(dirs, mi_span),)
            poly = stmt(bindings)
            if key in acc:
                poly = acc[key] + poly
            acc[key] = poly

    # -- entry points

    def parse(self) -> Theory:
        st = self._next()
        if st is None:
            raise ParseError("empty theory file")
        st.expect("theory")
        self.theory_name = st.expect_name("the theory name")[1]
        st.expect_end()

        st = self._next()
        if st is None:
            raise ParseError("missing dim declaration")
        st.expect("dim")
        dim_span = st.span()
        self.dim = st.expect_int()
        if not 1 <= self.dim <= MAX_DIM:
            raise SemanticError(f"dim must be between 1 and {MAX_DIM}", dim_span)
        st.expect_end()

        while (st := self._next()) is not None:
            head = st.expect_name("a declaration keyword")
            if head[1] in ("field", "ghost"):
                self._parse_variable(st, head)
            elif head[1] == "constant":
                self._parse_constant(st, head)
            elif head[1] == "lagrangian":
                self._parse_lagrangian(st, head)
            elif head[1] == "operator":
                self._parse_operator(st)
            elif head[1] == "derivation":
                self._parse_derivation(st)
            elif head[1] == "certificate":
                self._parse_certificate(st)
            else:
                raise ParseError(f"unknown declaration {head[1]!r}", _span(head))

        theory = Theory(
            self.theory_name,
            self.dim,
            self.variables,
            self.constants,
            self.lagrangian,
            self.operators,
            self.derivations,
            self.certificates,
        )
        validate_theory(theory)
        return theory

    # -- declarations

    def _parse_variable(self, st: _Stmt, head: tuple) -> None:
        name_tok = st.expect_name("a variable name")
        name = self._fresh_name(name_tok, self.variables)
        indices: list[tuple[str, int, int]] = []
        if st.accept("["):
            while True:
                label = st.expect_name("an index name")[1]
                st.expect("=")
                indices.append((label, *st.expect_range()))
                if not st.accept(","):
                    break
            st.expect("]")
            ranges = [(lo, hi) for _, lo, hi in indices]
            _check_size(name, "components", ranges, _span(name_tok))
        st.expect("parity")
        parity_tok = st.expect_name("even or odd")
        if parity_tok[1] not in ("even", "odd"):
            raise ParseError("parity must be even or odd", _span(parity_tok))
        parity = Parity.EVEN if parity_tok[1] == "even" else Parity.ODD
        stage: int | None = None
        if st.accept("stage"):
            stage = st.expect_int()
        st.expect_end()
        kind = Kind.FIELD if head[1] == "field" else Kind.GHOST
        if stage is not None and kind is not Kind.GHOST:
            raise SemanticError("only ghosts carry a stage", _span(head))
        self.variables[name] = VarDecl(name, kind, parity, tuple(indices), stage)

    def _parse_constant(self, st: _Stmt, head: tuple) -> None:
        name_tok = st.expect_name("a constant name")
        name = self._fresh_name(name_tok, self.constants)
        declared_ranges: list[tuple[int, int]] | None = None
        if st.accept("["):
            declared_ranges = []
            while True:
                declared_ranges.append(st.expect_range())
                if not st.accept(","):
                    break
            st.expect("]")
            _check_size(f"constant {name}", "entries", declared_ranges, _span(name_tok))
        st.expect("=")
        tok = st.peek()
        if tok is None:
            raise ParseError("expected a constant value", st.span())
        if tok[0] == "name":
            builder_tok = st.take()
            if builder_tok[1] not in _BUILDERS:
                raise ParseError(
                    f"unknown constant builder {builder_tok[1]!r}", _span(builder_tok)
                )
            builder, arity = _BUILDERS[builder_tok[1]]
            st.expect("(")
            size = st.expect_int()
            st.expect(")")
            st.expect_end()
            if not 1 <= size <= MAX_DIM + 1:
                raise SemanticError(
                    f"builder size must be between 1 and {MAX_DIM + 1}",
                    _span(builder_tok),
                )
            # each of a builder's arity(size) axes takes size values
            ranges = [(1, size)] * arity(size)
            _check_size(f"constant {name}", "entries", ranges, _span(builder_tok))
            made = builder(size)
            const = ConstantTensor(name, made.ranges, made.entries, made.builder)
        else:
            entries = self._parse_constant_table(st, head)
            if declared_ranges is None:
                raise SemanticError(
                    f"constant {name} needs declared index ranges", _span(head)
                )
            const = ConstantTensor(name, tuple(declared_ranges), entries)
        if declared_ranges is not None and const.ranges != tuple(declared_ranges):
            raise SemanticError(
                f"declared ranges of {name} do not match its builder", _span(head)
            )
        self.constants[name] = const

    def _parse_constant_table(
        self, st: _Stmt, head: tuple
    ) -> dict[tuple[int, ...], Fraction]:
        st.expect("{")
        entries: dict[tuple[int, ...], Fraction] = {}

        def parse_entries(stmt: _Stmt) -> bool:
            while True:
                tok = stmt.peek()
                if tok is None:
                    return False
                if tok[1] == "}":
                    stmt.take()
                    stmt.expect_end()
                    return True
                stmt.expect("(")
                idx = [stmt.expect_int()]
                while stmt.accept(","):
                    idx.append(stmt.expect_int())
                stmt.expect(")")
                stmt.expect(":")
                value = stmt.expect_fraction()
                key = tuple(idx)
                if key in entries:
                    raise SemanticError(f"duplicate entry {key}", _span(tok))
                entries[key] = value
                stmt.accept(",")

        closed = parse_entries(st)
        while not closed:
            nxt = self._next()
            if nxt is None:
                raise ParseError("unterminated constant table", _span(head))
            closed = parse_entries(nxt)
        return entries

    def _parse_lagrangian(self, st: _Stmt, head: tuple) -> None:
        if self.lagrangian is not None:
            raise SemanticError("duplicate lagrangian", _span(head))
        ast = _parse_expr(st)
        st.expect_end()
        self.lagrangian = self._statement(ast)({})

    # -- blocks

    def _block_entries(self, opener: tuple) -> list[_Stmt]:
        entries: list[_Stmt] = []
        while True:
            st = self._next()
            if st is None:
                raise ParseError("unterminated block", _span(opener))
            if st.peek_text() == "}":
                st.take()
                st.expect_end()
                return entries
            entries.append(st)

    def _parse_operator(self, head_st: _Stmt) -> None:
        name_tok = head_st.expect_name("an operator name")
        name = self._fresh_name(name_tok, self.operators)
        head_st.expect("role")
        role_tok = head_st.expect_name("gauge, noether, or stage")
        stage: int | None = None
        if role_tok[1] == "gauge":
            role = ROLE_GAUGE
        elif role_tok[1] == "noether":
            role = ROLE_NOETHER
        elif role_tok[1] == "stage":
            role = ROLE_STAGE
            stage = head_st.expect_int()
        else:
            raise ParseError("role must be gauge, noether, or stage K", _span(role_tok))
        head_st.expect("{")
        head_st.expect_end()

        coeffs: dict[tuple[VariableId, VariableId, MultiIndex], GradedPolynomial] = {}
        for st in self._block_entries(name_tok):
            open_tok = st.expect("(")
            param_key = _parse_key_ref(st)
            st.expect(",")
            target_key = _parse_key_ref(st)
            st.expect(",")
            mi = _parse_mi_literal(st)
            st.expect(")")
            self._expand_entry(coeffs, (param_key, target_key), mi, st, _span(open_tok))
        try:
            self.operators[name] = LinearJetOperator(self.dim, role, coeffs, stage=stage)
        except SemanticError as exc:
            raise SemanticError(f"operator {name}: {exc}", _span(name_tok)) from None

    def _parse_derivation(self, head_st: _Stmt) -> None:
        name_tok = head_st.expect_name("a derivation name")
        name = self._fresh_name(name_tok, self.derivations)
        head_st.expect("{")
        head_st.expect_end()

        components: dict[tuple[VariableId], GradedPolynomial] = {}
        for st in self._block_entries(name_tok):
            target_key = _parse_key_ref(st)
            self._expand_entry(components, (target_key,), None, st, _span(name_tok))
        self.derivations[name] = GeneralizedVectorField(
            {target: poly for (target,), poly in components.items()}
        )

    def _parse_certificate(self, head_st: _Stmt) -> None:
        name_tok = head_st.expect_name("a certificate label")
        label_args: list[int] = []
        if head_st.accept("["):
            label_args.append(head_st.expect_int())
            while head_st.accept(","):
                label_args.append(head_st.expect_int())
            head_st.expect("]")
        label = name_tok[1]
        if label_args:
            label += "[" + ",".join(map(str, label_args)) + "]"
        if label in self.certificates:
            raise SemanticError(f"duplicate certificate {label}", _span(name_tok))
        head_st.expect("{")
        head_st.expect_end()

        m_coeffs: dict[tuple[VariableId, MultiIndex], GradedPolynomial] = {}
        witness: GradedPolynomial | None = None
        for st in self._block_entries(name_tok):
            tok = st.peek()
            if tok is not None and tok[1] == "witness":
                st.take()
                st.expect(":")
                ast = _parse_expr(st)
                st.expect_end()
                poly = self._statement(ast)({})
                witness = poly if witness is None else witness + poly
                continue
            open_tok = st.expect("(")
            target_key = _parse_key_ref(st)
            st.expect(",")
            mi = _parse_mi_literal(st)
            st.expect(")")
            self._expand_entry(m_coeffs, (target_key,), mi, st, _span(open_tok))
        m_coeffs = {k: p for k, p in m_coeffs.items() if not p.is_zero()}
        self.certificates[label] = ReductionCertificate(
            m_coeffs or None, witness
        )


def parse_theory(text: str) -> Theory:
    """Parse a theory file; raises ParseError or SemanticError."""
    return _TheoryParser(text).parse()


def parse_expression(text: str, theory: Theory) -> GradedPolynomial:
    """Parse one expression against a theory's declarations."""
    statements = _statements(text)
    if len(statements) != 1:
        raise ParseError("expected exactly one expression")
    st = _Stmt(statements[0])
    ast = _parse_expr(st)
    st.expect_end()
    return _Statement(ast, theory.dim, theory.variables, theory.constants)({})


# ---------------------------------------------------------------------------
# rendering


def _render_decl(decl: VarDecl) -> str:
    keyword = "field" if decl.kind is Kind.FIELD else "ghost"
    name = decl.name
    if decl.indices:
        inner = ",".join(f"{label}={lo}..{hi}" for label, lo, hi in decl.indices)
        name += f"[{inner}]"
    parity = "even" if decl.parity is Parity.EVEN else "odd"
    line = f"{keyword} {name} parity {parity}"
    if decl.stage is not None:
        line += f" stage {decl.stage}"
    return line


def _render_constant(const: ConstantTensor) -> list[str]:
    if const.builder is not None:
        return [f"constant {const.name} = {const.builder}"]
    ranges = ",".join(f"{lo}..{hi}" for lo, hi in const.ranges)
    lines = [f"constant {const.name}[{ranges}] = {{"]
    for idx in sorted(const.entries):
        value = const.entries[idx]
        lines.append(f"  ({','.join(map(str, idx))}): {value}")
    lines.append("}")
    return lines


def render_operator(
    name: str, op: LinearJetOperator, dim: int
) -> tuple[list[str], list[tuple[tuple[str, str, str], str]]]:
    """The block of op, and the strings it is built from: per coefficient, in
    sorted_keys() order, its rendered (parameter, target, multi-index) and
    polynomial, each rendered once."""
    role = op.role if op.role != ROLE_STAGE else f"stage {op.stage}"
    coeffs = [
        ((p.render(), t.render(), mi.render()),
         render_polynomial(op.coeffs[(p, t, mi)], dim))
        for p, t, mi in op.sorted_keys()
    ]
    body = [f"  ({', '.join(key)}) : {expr}" for key, expr in coeffs]
    return [f"operator {name} role {role} {{", *body, "}"], coeffs


def _render_derivation(name: str, vf: GeneralizedVectorField, dim: int) -> list[str]:
    lines = [f"derivation {name} {{"]
    for var in sorted(vf.components, key=lambda v: v.rank):
        poly = vf.components[var]
        lines.append(f"  {var.render()} : {render_polynomial(poly, dim)}")
    lines.append("}")
    return lines


def _render_certificate(
    label: str, cert: ReductionCertificate, dim: int
) -> list[str]:
    lines = [f"certificate {label} {{"]
    if cert.m_coeffs:
        for var, mi in sorted(cert.m_coeffs, key=lambda k: (k[0].rank, k[1])):
            poly = cert.m_coeffs[(var, mi)]
            lines.append(
                f"  ({var.render()}, {mi.render()}) : {render_polynomial(poly, dim)}"
            )
    if cert.witness is not None:
        lines.append(f"  witness : {render_polynomial(cert.witness, dim)}")
    lines.append("}")
    return lines


def render_theory(theory: Theory) -> str:
    """Deterministic text form; parse_theory inverts it exactly."""
    lines = [f"theory {theory.name}", f"dim {theory.dim}"]
    if theory.variables:
        lines.append("")
        lines.extend(_render_decl(d) for d in theory.variables.values())
    if theory.constants:
        lines.append("")
        for const in theory.constants.values():
            lines.extend(_render_constant(const))
    if theory.lagrangian is not None:
        lines.append("")
        lines.append(f"lagrangian {render_polynomial(theory.lagrangian, theory.dim)}")
    for name, op in theory.operators.items():
        lines.append("")
        lines.extend(render_operator(name, op, theory.dim)[0])
    for name, vf in theory.derivations.items():
        lines.append("")
        lines.extend(_render_derivation(name, vf, theory.dim))
    for label, cert in theory.certificates.items():
        lines.append("")
        lines.extend(_render_certificate(label, cert, theory.dim))
    return "\n".join(lines) + "\n"


def resolve_component(theory: Theory, text: str) -> VariableId:
    """Resolve a rendered component name like C[1] or ~y against a theory."""
    statements = _statements(text)
    if len(statements) != 1:
        raise ParseError(f"bad component reference {text!r}")
    st = _Stmt(statements[0])
    anti = st.accept("~")
    name_tok = st.expect_name("a variable name")
    ref = _parse_ref_tail(st, name_tok, anti)
    st.expect_end()
    if not isinstance(ref, _Ref):
        raise ParseError(f"bad component reference {text!r}")
    env = _Env(theory.dim, theory.variables, theory.constants, {})
    return _resolve_component(env, ref)
