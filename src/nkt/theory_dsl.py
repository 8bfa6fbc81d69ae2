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
all its bindings) evaluates each node once per binding of the index names
it uses.  A sum whose body is a * chain with a constant factor that reads
the sum's index, such as g[m,al] in sum(al, 0..3, g[m,al]*...), binds only
the index values where that factor has a nonzero stored entry.  It does so
only after a range proof over the statement's literal sum and binder
ranges shows that evaluating it cannot raise; a skipped binding adds
exactly zero, so values stay the same.  When the proof fails, every sum
binds every value in order, so each error keeps its message and span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import permutations, product as iter_product

from .config import max_jet_order
from .derivations import GeneralizedVectorField
from .errors import JetOrderError, ParseError, SemanticError, SourceSpan
from .graded_poly import (
    Density,
    GradedPolynomial,
    JetVariable,
    Kind,
    Parity,
    VariableId,
    antifield_of,
    base_of_antifield,
    coordinate_token,
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
MAX_STAGE = 32
_MAX_DEPTH = 64

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_COORD_RE = re.compile(r"x\d*\Z")
_RESERVED = frozenset({"d", "sum", "witness"})


def _is_reserved(name: str) -> bool:
    return name in _RESERVED or _COORD_RE.match(name) is not None


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class VarDecl:
    """A declared field or ghost family with its index ranges."""

    name: str
    kind: Kind
    parity: Parity
    indices: tuple[tuple[str, int, int], ...] = ()
    stage: int | None = None

    def arity(self) -> int:
        return len(self.indices)

    def component_count(self) -> int:
        n = 1
        for _, lo, hi in self.indices:
            n *= hi - lo + 1
        return n

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


@dataclass(frozen=True)
class ConstantTensor:
    """A rational constant tensor, kept sparse."""

    name: str
    ranges: tuple[tuple[int, int], ...]
    entries: dict[tuple[int, ...], Fraction]
    builder: str | None = None

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


@dataclass(frozen=True)
class Theory:
    """A parsed theory: declarations plus every named construct."""

    name: str
    dim: int
    variables: dict[str, VarDecl]
    constants: dict[str, ConstantTensor] = dc_field(default_factory=dict)
    lagrangian: Density | None = None
    operators: dict[str, LinearJetOperator] = dc_field(default_factory=dict)
    derivations: dict[str, GeneralizedVectorField] = dc_field(default_factory=dict)
    certificates: dict[str, ReductionCertificate] = dc_field(default_factory=dict)

    def fields(self) -> list[VariableId]:
        out: list[VariableId] = []
        for decl in self.variables.values():
            if decl.kind is Kind.FIELD:
                out.extend(decl.components())
        return out

    def ghosts(self) -> list[VariableId]:
        out: list[VariableId] = []
        for decl in self.variables.values():
            if decl.kind is Kind.GHOST:
                out.extend(decl.components())
        return out


def _declared(theory: Theory, var: VariableId) -> bool:
    base = var
    if var.kind in (Kind.ANTIFIELD, Kind.ANTIGHOST):
        base = base_of_antifield(var)
    decl = theory.variables.get(base.name)
    if decl is None or decl.kind is not base.kind:
        return False
    if decl.parity is not base.parity or decl.stage != base.stage:
        return False
    if len(base.components) != decl.arity():
        return False
    return all(
        lo <= c <= hi for c, (_, lo, hi) in zip(base.components, decl.indices)
    )


def _check_vars(
    theory: Theory,
    poly: GradedPolynomial,
    where: str,
    kinds: tuple[Kind, ...],
) -> None:
    bad = [
        jv for jv in poly.variables()
        if not _declared(theory, jv.var) or jv.var.kind not in kinds
    ]
    if not bad:
        return
    # name the first in canonical order, not in the set's hash order
    jv = min(bad)
    if not _declared(theory, jv.var):
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
        if name in seen:
            raise SemanticError(f"duplicate declaration of {name}")
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
        if decl.component_count() > MAX_COMPONENTS:
            raise SemanticError(f"{name} declares too many components")

    for name, const in theory.constants.items():
        if name != const.name or not _NAME_RE.match(name):
            raise SemanticError(f"bad constant name {name!r}")
        if _is_reserved(name) or name in seen:
            raise SemanticError(f"constant {name!r} clashes with another name")
        seen.add(name)
        count = 1
        for lo, hi in const.ranges:
            if lo > hi:
                raise SemanticError(f"empty range {lo}..{hi} on constant {name}")
            count *= hi - lo + 1
        if count > MAX_COMPONENTS:
            raise SemanticError(f"constant {name} declares too many entries")
        for idx in const.entries:
            const.entry(idx)  # bounds check

    _check_stage_parities(theory)

    if theory.lagrangian is not None:
        expr = theory.lagrangian.expr
        _check_vars(theory, expr, "the lagrangian", (Kind.FIELD,))
        if expr.parity() is not Parity.EVEN:
            raise SemanticError("the lagrangian must be even")

    for name, op in theory.operators.items():
        _check_operator(theory, name, op)

    for name, vf in theory.derivations.items():
        for var, comp in vf.components.items():
            if not _declared(theory, var) or var.kind not in _BASE_SECTOR:
                raise SemanticError(
                    f"derivation {name} targets undeclared variable {var.render()}"
                )
            _check_vars(theory, comp, f"derivation {name}", _BASE_SECTOR)

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
                if not _declared(theory, var) or var.kind not in _BASE_SECTOR:
                    raise SemanticError(
                        f"certificate {label} references undeclared {var.render()}"
                    )
                _check_vars(theory, poly, f"certificate {label}", _BASE_SECTOR)
        if cert.witness is not None:
            _check_vars(theory, cert.witness, f"certificate {label}", _ALL_KINDS)


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


def _check_operator(theory: Theory, name: str, op: LinearJetOperator) -> None:
    if op.dim != theory.dim:
        raise SemanticError(f"operator {name} has dim {op.dim}, theory has {theory.dim}")
    for (param, target, _), poly in op.coeffs.items():
        for var in (param, target):
            if not _declared(theory, var):
                raise SemanticError(
                    f"operator {name} references undeclared {var.render()}"
                )
        _check_vars(theory, poly, f"operator {name}", (Kind.FIELD,))
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


@dataclass(frozen=True)
class _Token:
    kind: str  # name | int | punct | dotdot | newline
    text: str
    span: SourceSpan


_TOKEN_RE = re.compile(
    r"(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<ws>[ \t\r]+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<dotdot>\.\.)"
    r"|(?P<punct>[()\[\]{},;:=~*+\-^/])"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(line, pos - line_start + 1, pos, pos + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup or ""
        tok_text = m.group()
        span = SourceSpan(line, m.start() - line_start + 1, m.start(), m.end())
        if kind == "newline":
            tokens.append(_Token("newline", tok_text, span))
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok_text, span))
        pos = m.end()
    tokens.append(_Token("newline", "\n", SourceSpan(line, 1, pos, pos)))
    return tokens


def _statements(tokens: list[_Token]) -> list[list[_Token]]:
    """Group tokens into statements; newlines inside (..) or [..] continue."""
    out: list[list[_Token]] = []
    current: list[_Token] = []
    depth = 0
    for tok in tokens:
        if tok.kind == "punct" and tok.text in "([":
            depth += 1
        elif tok.kind == "punct" and tok.text in ")]":
            depth = max(0, depth - 1)
        if tok.kind == "newline":
            if depth == 0:
                if current:
                    out.append(current)
                current = []
            continue
        current.append(tok)
    if current:
        out.append(current)
    return out


class _Stmt:
    """Cursor over one statement's tokens."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.sums: list[_Sum] = []  # every sum parsed from these tokens

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def span(self) -> SourceSpan:
        tok = self.peek() or self.tokens[-1]
        return tok.span

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.tokens[-1].span)
        self.pos += 1
        return tok

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.take()
        if tok.kind != "name":
            raise ParseError(f"expected {what}, got {tok.text!r}", tok.span)
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.span)
        return tok

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    def expect_int(self) -> int:
        neg = self.accept("-")
        tok = self.take()
        if tok.kind != "int":
            raise ParseError(f"expected an integer, got {tok.text!r}", tok.span)
        return -int(tok.text) if neg else int(tok.text)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.span)

    def expect_fraction(self) -> Fraction:
        num = self.expect_int()
        if self.accept("/"):
            den = self.expect_int()
            if den == 0:
                raise ParseError("zero denominator", self.span())
            return Fraction(num, den)
        return Fraction(num)


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class _Num:
    value: Fraction
    span: SourceSpan


@dataclass(frozen=True)
class _Ref:
    name: str
    args: tuple["int | str", ...]
    anti: bool
    span: SourceSpan
    explicit_args: bool = False


@dataclass(frozen=True)
class _BracketJet:
    name: str
    anti: bool
    comps: tuple["int | str", ...]
    dirs: tuple["int | str", ...]
    span: SourceSpan


@dataclass(frozen=True)
class _D:
    base: object
    dirs: tuple["int | str", ...]
    span: SourceSpan


@dataclass(frozen=True)
class _Sum:
    index: str
    lo: int
    hi: int
    body: object
    span: SourceSpan


@dataclass(frozen=True)
class _Unary:
    op: str
    operand: object
    span: SourceSpan


@dataclass(frozen=True)
class _Binary:
    op: str
    left: object
    right: object
    span: SourceSpan


@dataclass(frozen=True)
class _Pow:
    base: object
    exponent: int
    span: SourceSpan


def _parse_index_arg(st: _Stmt) -> "int | str":
    tok = st.peek()
    if tok is None:
        raise ParseError("unexpected end of index list", st.span())
    if tok.kind == "name":
        st.take()
        return tok.text
    return st.expect_int()


def _parse_expr(st: _Stmt, depth: int = 0) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    node = _parse_term(st, depth + 1)
    while True:
        tok = st.peek()
        if tok is not None and tok.text in ("+", "-"):
            st.take()
            right = _parse_term(st, depth + 1)
            node = _Binary(tok.text, node, right, tok.span)
        else:
            return node


def _parse_term(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    node = _parse_unary(st, depth + 1)
    while True:
        tok = st.peek()
        if tok is not None and tok.text == "*":
            st.take()
            node = _Binary("*", node, _parse_unary(st, depth + 1), tok.span)
        else:
            return node


def _parse_unary(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    tok = st.peek()
    if tok is not None and tok.text == "-":
        st.take()
        return _Unary("-", _parse_unary(st, depth + 1), tok.span)
    return _parse_power(st, depth + 1)


def _parse_power(st: _Stmt, depth: int) -> object:
    node = _parse_atom(st, depth + 1)
    tok = st.peek()
    if tok is not None and tok.text == "^":
        st.take()
        exp = st.expect_int()
        if exp < 0 or exp > MAX_EXPONENT:
            raise ParseError(
                f"exponent must be between 0 and {MAX_EXPONENT}", tok.span
            )
        return _Pow(node, exp, tok.span)
    return node


def _parse_atom(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.span())
    tok = st.peek()
    if tok is None:
        raise ParseError("expected an expression", st.span())
    if tok.kind == "int":
        span = tok.span
        return _Num(st.expect_fraction(), span)
    if tok.text == "(":
        st.take()
        node = _parse_expr(st, depth + 1)
        st.expect(")")
        return node
    if tok.text == "~":
        st.take()
        name = st.expect_name("a variable name")
        return _parse_ref_tail(st, name, anti=True)
    if tok.kind == "name":
        st.take()
        if tok.text == "d" and st.peek() is not None and st.peek().text == "(":
            return _parse_d(st, tok.span, depth + 1)
        if tok.text == "sum" and st.peek() is not None and st.peek().text == "(":
            return _parse_sum(st, tok.span, depth + 1)
        return _parse_ref_tail(st, tok, anti=False)
    raise ParseError(f"unexpected {tok.text!r} in expression", tok.span)


def _parse_ref_tail(st: _Stmt, name_tok: _Token, anti: bool) -> object:
    if not st.accept("["):
        return _Ref(name_tok.text, (), anti, name_tok.span)
    comps: list[int | str] = []
    if st.peek() is not None and st.peek().text not in (";", "]"):
        comps.append(_parse_index_arg(st))
        while st.accept(","):
            comps.append(_parse_index_arg(st))
    if st.accept(";"):
        dirs: list[int | str] = []
        if st.peek() is not None and st.peek().text != "]":
            dirs.append(_parse_index_arg(st))
            while st.accept(","):
                dirs.append(_parse_index_arg(st))
        st.expect("]")
        return _BracketJet(
            name_tok.text, anti, tuple(comps), tuple(dirs), name_tok.span
        )
    st.expect("]")
    return _Ref(name_tok.text, tuple(comps), anti, name_tok.span, explicit_args=True)


def _parse_d(st: _Stmt, span: SourceSpan, depth: int) -> object:
    st.expect("(")
    base = _parse_atom(st, depth + 1)
    if not isinstance(base, (_Ref, _BracketJet, _D)):
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
    index = st.expect_name("an index name").text
    st.expect(",")
    lo = st.expect_int()
    st.expect("..")
    hi = st.expect_int()
    st.expect(",")
    body = _parse_expr(st, depth + 1)
    st.expect(")")
    if hi - lo + 1 > MAX_SUM_SPAN:
        raise ParseError(f"sum range wider than {MAX_SUM_SPAN}", span)
    node = _Sum(index, lo, hi, body, span)
    st.sums.append(node)
    return node


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class _Env:
    dim: int
    variables: dict[str, VarDecl]
    constants: dict[str, ConstantTensor]
    bindings: dict[str, int]
    # Values of evaluated nodes keyed by (id(node), values of the node's free
    # names in bindings), and each node's free names keyed by id(node).  An env
    # lives for one statement, whose AST keeps those ids from being reused.
    memo: dict[tuple, GradedPolynomial] = dc_field(default_factory=dict)
    free: dict[int, tuple[str, ...]] = dc_field(default_factory=dict)
    # For the sums of a statement proven in range, keyed by id(node): one
    # pair per constant factor that zeroes the body, see _zeroing_factors.
    sparse: dict[int, tuple[tuple[dict, tuple], ...]] = dc_field(default_factory=dict)


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
    k = int(name[1:])
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
    if isinstance(node, _BracketJet):
        ref = _Ref(node.name, node.comps, node.anti, node.span, explicit_args=True)
        base = _resolve_component(env, ref)
        dirs = tuple(_resolve_direction(env, d, node.span) for d in node.dirs)
        return JetVariable(base, _multi_index(dirs, node.span))
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


def _free_names(env: _Env, node: object) -> tuple[str, ...]:
    """The names whose value in env.bindings can change what node evaluates to."""
    names = env.free.get(id(node))
    if names is not None:
        return names
    found: set[str] = set()
    if isinstance(node, _Ref):
        found.add(node.name)
        found.update(a for a in node.args if isinstance(a, str))
    elif isinstance(node, _BracketJet):
        found.update(a for a in node.comps + node.dirs if isinstance(a, str))
    elif isinstance(node, _D):
        found.update(_free_names(env, node.base))
        found.update(a for a in node.dirs if isinstance(a, str))
    elif isinstance(node, _Sum):
        found.update(_free_names(env, node.body))
        found.discard(node.index)
    elif isinstance(node, _Binary):
        found.update(_free_names(env, node.left), _free_names(env, node.right))
    elif isinstance(node, _Unary):
        found.update(_free_names(env, node.operand))
    elif isinstance(node, _Pow):
        found.update(_free_names(env, node.base))
    names = env.free[id(node)] = tuple(sorted(found))
    return names


def _eval(env: _Env, node: object) -> GradedPolynomial:
    """Evaluate node once per binding of its free names within env's statement.

    Only successful evaluations are kept, and evaluation order is unchanged
    but for the bindings _sum_values skips, which add zero and cannot raise,
    so every value and every error is what a fresh evaluation would give.
    Without bindings a node lies outside every sum of a statement without
    binders and is reached once, so it skips the memo, as literals do.
    """
    bindings = env.bindings
    if not bindings or type(node) is _Num:
        return _eval_node(env, node)
    key = (id(node), *map(bindings.get, _free_names(env, node)))
    value = env.memo.get(key)
    if value is None:
        value = env.memo[key] = _eval_node(env, node)
    return value


def _eval_node(env: _Env, node: object) -> GradedPolynomial:
    if isinstance(node, _Num):
        return GradedPolynomial.scalar(node.value)
    if isinstance(node, _Unary):
        return -_eval(env, node.operand)
    if isinstance(node, _Binary):
        left = _eval(env, node.left)
        right = _eval(env, node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right
    if isinstance(node, _Pow):
        return _eval(env, node.base) ** node.exponent
    if isinstance(node, _Sum):
        saved = env.bindings.get(node.index)
        if node.index in env.variables or node.index in env.constants:
            raise SemanticError(
                f"sum index {node.index!r} shadows a declaration", node.span
            )
        parts: list[GradedPolynomial] = []
        for value in _sum_values(env, node):
            env.bindings[node.index] = value
            parts.append(_eval(env, node.body))
        total = gp_sum(parts)
        if saved is None:
            env.bindings.pop(node.index, None)
        else:
            env.bindings[node.index] = saved
        return total
    if isinstance(node, (_D, _BracketJet)):
        return GradedPolynomial.variable(_jet_of(env, node))
    if isinstance(node, _Ref):
        return _eval_ref(env, node)
    raise SemanticError("malformed expression")


def _eval_ref(env: _Env, node: _Ref) -> GradedPolynomial:
    if not node.anti and not node.explicit_args:
        if node.name in env.bindings:
            return GradedPolynomial.scalar(Fraction(env.bindings[node.name]))
        if _COORD_RE.match(node.name):
            return GradedPolynomial.coordinate(
                _coordinate_of(env, node.name, node.span)
            )
    if not node.anti and node.name in env.constants:
        const = env.constants[node.name]
        idx = tuple(_resolve_index(env, a, node.span) for a in node.args)
        try:
            return GradedPolynomial.scalar(const.entry(idx))
        except SemanticError as exc:
            raise SemanticError(str(exc), node.span) from None
    if node.name in env.variables:
        return GradedPolynomial.variable(_jet_of(env, node))
    raise SemanticError(f"unknown name {node.name!r}", node.span)


# ---------------------------------------------------------------------------
# sparse contraction


def _statement_env(
    dim: int,
    variables: dict[str, VarDecl],
    constants: dict[str, ConstantTensor],
    st: _Stmt,
    ast: object,
    binders: tuple[tuple[str, int, int], ...] = (),
) -> _Env:
    """A fresh env for ast, the expression of statement st, under binders.

    When a sum of st multiplies its body by a constant factor and evaluating
    ast provably cannot raise, the env lets that sum skip the bindings where
    the factor is zero.  Statements without such a sum are not analysed.
    """
    env = _Env(dim, variables, constants, {})
    plans = {}
    for node in st.sums:
        factors = _zeroing_factors(constants, node.body, node.index, ())
        if factors:
            plans[id(node)] = factors
    if plans and _cannot_raise(env, ast, {b: (lo, hi) for b, lo, hi in binders}):
        env.sparse = plans
    return env


def _zeroing_factors(
    constants: dict[str, ConstantTensor],
    node: object,
    index: str,
    inner: tuple[str, ...],
) -> tuple[tuple[dict, tuple], ...]:
    """Constant factors of node's * chain whose zero entry makes node zero.

    The chain is followed into nested sums, whose indices go to inner; a
    factor counts when its arguments read index and otherwise only literals
    and names bound outside the sum of index.  A sum over index itself
    shadows it.  Each factor is given as its other arguments and a map from
    their values to the set of index values with a nonzero stored entry.
    """
    if isinstance(node, _Binary):
        if node.op != "*":
            return ()
        return _zeroing_factors(constants, node.left, index, inner) + _zeroing_factors(
            constants, node.right, index, inner
        )
    if isinstance(node, _Sum):
        if node.index == index:
            return ()
        return _zeroing_factors(constants, node.body, index, inner + (node.index,))
    if (
        isinstance(node, _Ref)
        and node.explicit_args
        and not node.anti
        and node.name in constants
        and index in node.args
        and not any(a in inner for a in node.args)
    ):
        args = node.args
        nonzero: dict[tuple, set[int]] = {}
        for key, value in constants[node.name].entries.items():
            if not value or len(key) != len(args):
                continue
            hits = {k for k, a in zip(key, args) if a == index}
            if len(hits) == 1:
                rest = tuple(k for k, a in zip(key, args) if a != index)
                nonzero.setdefault(rest, set()).update(hits)
        return ((nonzero, tuple(a for a in args if a != index)),)
    return ()


def _sum_values(env: _Env, node: _Sum) -> "range | list[int]":
    """The values of node's index to bind, in order.

    A sum with zeroing factors skips each value where one of them has no
    nonzero stored entry: the statement is proven in range, so that binding
    would have added exactly zero and raised nothing.
    """
    values = range(node.lo, node.hi + 1)
    factors = env.sparse.get(id(node))
    if factors is None:
        return values
    bindings = env.bindings
    for nonzero, rest in factors:
        key = tuple(bindings[a] if isinstance(a, str) else a for a in rest)
        hits = nonzero.get(key, ())
        values = [value for value in values if value in hits]
    return values


def _cannot_raise(
    env: _Env, node: object, scope: dict[str, tuple[int, int]]
) -> bool:
    """Whether evaluating node cannot raise while each name in scope is bound
    within its interval.

    The checks are those of _eval_node, on intervals in place of values;
    names outside scope are unbound.
    """
    if isinstance(node, _Num):
        return True
    if isinstance(node, _Unary):
        return _cannot_raise(env, node.operand, scope)
    if isinstance(node, _Pow):
        return _cannot_raise(env, node.base, scope)
    if isinstance(node, _Binary):
        return _cannot_raise(env, node.left, scope) and _cannot_raise(
            env, node.right, scope
        )
    if isinstance(node, _Sum):
        if node.index in env.variables or node.index in env.constants:
            return False
        return _cannot_raise(env, node.body, {**scope, node.index: (node.lo, node.hi)})
    if isinstance(node, _Ref) and not node.anti:
        if not node.explicit_args and node.name in scope:
            return True
        if not node.explicit_args and _COORD_RE.match(node.name):
            return _coordinate_in(env.dim, node.name)
        if node.name in env.constants:
            return _within(node.args, env.constants[node.name].ranges, scope)
    order = _jet_order(env, node, scope)
    return order is not None and order <= max_jet_order()


def _jet_order(
    env: _Env, node: object, scope: dict[str, tuple[int, int]]
) -> int | None:
    """The order of the jet _jet_of builds for node, or None if it may raise."""
    if isinstance(node, _D):
        inner = _jet_order(env, node.base, scope)
        if inner is None or not all(_direction_in(env, d, scope) for d in node.dirs):
            return None
        return inner + len(node.dirs)
    if not isinstance(node, (_Ref, _BracketJet)):
        return None
    decl = env.variables.get(node.name)
    if decl is None:
        return None
    comps, dirs = (node.args, ()) if isinstance(node, _Ref) else (node.comps, node.dirs)
    ranges = tuple((lo, hi) for _, lo, hi in decl.indices)
    if not _within(comps, ranges, scope):
        return None
    if not all(_direction_in(env, d, scope) for d in dirs):
        return None
    return len(dirs)


def _within(
    args: tuple["int | str", ...],
    ranges: tuple[tuple[int, int], ...],
    scope: dict[str, tuple[int, int]],
) -> bool:
    """Whether args resolve, one per range, to values inside their ranges."""
    if len(args) != len(ranges):
        return False
    for arg, (lo, hi) in zip(args, ranges):
        interval = scope.get(arg) if isinstance(arg, str) else (arg, arg)
        if interval is None or not (lo <= interval[0] and interval[1] <= hi):
            return False
    return True


def _direction_in(
    env: _Env, arg: "int | str", scope: dict[str, tuple[int, int]]
) -> bool:
    if isinstance(arg, str) and arg not in scope:
        return _COORD_RE.match(arg) is not None and _coordinate_in(env.dim, arg)
    return _within((arg,), ((0, env.dim - 1),), scope)


def _coordinate_in(dim: int, name: str) -> bool:
    return dim == 1 if name == "x" else int(name[1:]) < dim


# ---------------------------------------------------------------------------
# statement parsing


@dataclass(frozen=True)
class _KeyRef:
    """A block-entry reference that may carry fresh binder definitions."""

    ref: _Ref
    binders: tuple[tuple[str, int, int], ...]


def _parse_key_ref(st: _Stmt) -> _KeyRef:
    name = st.expect_name("a variable name")
    args: list[int | str] = []
    binders: list[tuple[str, int, int]] = []
    explicit = False
    if st.accept("["):
        explicit = True
        while st.peek() is not None and st.peek().text != "]":
            tok = st.peek()
            if tok.kind == "name":
                st.take()
                if st.accept("="):
                    lo = st.expect_int()
                    st.expect("..")
                    hi = st.expect_int()
                    if hi - lo + 1 > MAX_SUM_SPAN or lo > hi:
                        raise ParseError(f"bad binder range {lo}..{hi}", tok.span)
                    binders.append((tok.text, lo, hi))
                    args.append(tok.text)
                else:
                    args.append(tok.text)
            else:
                args.append(st.expect_int())
            if not st.accept(","):
                break
        st.expect("]")
    ref = _Ref(name.text, tuple(args), False, name.span, explicit_args=explicit)
    return _KeyRef(ref, tuple(binders))


def _parse_mi_literal(st: _Stmt) -> tuple[tuple["int | str", ...], SourceSpan]:
    span = st.expect("[").span
    entries: list[int | str] = []
    if st.peek() is not None and st.peek().text != "]":
        entries.append(_parse_index_arg(st))
        while st.accept(","):
            entries.append(_parse_index_arg(st))
    st.expect("]")
    return tuple(entries), span


def _binding_combinations(
    binders: tuple[tuple[str, int, int], ...], span: SourceSpan
) -> list[dict[str, int]]:
    names = [b[0] for b in binders]
    if len(set(names)) != len(names):
        raise SemanticError("repeated binder name", span)
    ranges = [range(lo, hi + 1) for _, lo, hi in binders]
    return [dict(zip(names, combo)) for combo in iter_product(*ranges)]


class _TheoryParser:
    def __init__(self, text: str):
        self.statements = _statements(_tokenize(text))
        self.index = 0
        self.theory_name: str | None = None
        self.dim: int | None = None
        self.variables: dict[str, VarDecl] = {}
        self.constants: dict[str, ConstantTensor] = {}
        self.lagrangian: Density | None = None
        self.operators: dict[str, LinearJetOperator] = {}
        self.derivations: dict[str, GeneralizedVectorField] = {}
        self.certificates: dict[str, ReductionCertificate] = {}

    # -- helpers

    def _env(
        self,
        st: _Stmt,
        ast: object,
        binders: tuple[tuple[str, int, int], ...] = (),
    ) -> _Env:
        assert self.dim is not None
        return _statement_env(
            self.dim, self.variables, self.constants, st, ast, binders
        )

    def _next(self) -> _Stmt | None:
        if self.index >= len(self.statements):
            return None
        st = _Stmt(self.statements[self.index])
        self.index += 1
        return st

    def _need_dim(self, span: SourceSpan) -> int:
        if self.dim is None:
            raise ParseError("dim must be declared first", span)
        return self.dim

    def _fresh_name(self, tok: _Token, table: dict) -> str:
        if table is self.variables or table is self.constants:
            if tok.text in self.variables or tok.text in self.constants:
                raise SemanticError(f"duplicate declaration of {tok.text}", tok.span)
            if _is_reserved(tok.text):
                raise SemanticError(f"{tok.text!r} is reserved", tok.span)
        elif tok.text in table:
            raise SemanticError(f"duplicate declaration of {tok.text}", tok.span)
        return tok.text

    def _expand_entry(
        self,
        acc: dict[tuple, GradedPolynomial],
        keys: tuple[_KeyRef, ...],
        mi: tuple[tuple["int | str", ...], SourceSpan] | None,
        st: _Stmt,
        ast: object,
        binder_span: SourceSpan,
    ) -> None:
        """Add one block entry, ast parsed from st, into acc at every binding
        of its binders.

        The key is the resolved components of keys, followed by the resolved
        multi-index when mi (entries and span) is given; entries that land
        on the same key sum.  Binder errors are reported at binder_span.
        """
        binders = tuple(b for key in keys for b in key.binders)
        for label, _, _ in binders:
            if label in self.variables or label in self.constants:
                raise SemanticError(
                    f"binder {label!r} shadows a declaration", binder_span
                )
        combinations = _binding_combinations(binders, binder_span)
        env = self._env(st, ast, binders)
        for bindings in combinations:
            env.bindings = bindings
            key = tuple(_resolve_component(env, k.ref) for k in keys)
            if mi is not None:
                entries, mi_span = mi
                dirs = tuple(_resolve_direction(env, e, mi_span) for e in entries)
                key += (_multi_index(dirs, mi_span),)
            poly = _eval(env, ast)
            if key in acc:
                poly = acc[key] + poly
            acc[key] = poly

    # -- entry points

    def parse(self) -> Theory:
        st = self._next()
        if st is None:
            raise ParseError("empty theory file")
        st.expect("theory")
        self.theory_name = st.expect_name("the theory name").text
        st.expect_end()

        st = self._next()
        if st is None:
            raise ParseError("missing dim declaration")
        st.expect("dim")
        self.dim = st.expect_int()
        if not 1 <= self.dim <= MAX_DIM:
            raise SemanticError(f"dim must be between 1 and {MAX_DIM}")
        st.expect_end()

        while (st := self._next()) is not None:
            head = st.expect_name("a declaration keyword")
            if head.text in ("field", "ghost"):
                self._parse_variable(st, head)
            elif head.text == "constant":
                self._parse_constant(st, head)
            elif head.text == "lagrangian":
                self._parse_lagrangian(st, head)
            elif head.text == "operator":
                self._parse_operator(st)
            elif head.text == "derivation":
                self._parse_derivation(st)
            elif head.text == "certificate":
                self._parse_certificate(st)
            else:
                raise ParseError(f"unknown declaration {head.text!r}", head.span)

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

    def _parse_variable(self, st: _Stmt, head: _Token) -> None:
        self._need_dim(head.span)
        name_tok = st.expect_name("a variable name")
        name = self._fresh_name(name_tok, self.variables)
        indices: list[tuple[str, int, int]] = []
        if st.accept("["):
            while True:
                label = st.expect_name("an index name").text
                st.expect("=")
                lo = st.expect_int()
                st.expect("..")
                hi = st.expect_int()
                indices.append((label, lo, hi))
                if not st.accept(","):
                    break
            st.expect("]")
        st.expect("parity")
        parity_tok = st.expect_name("even or odd")
        if parity_tok.text not in ("even", "odd"):
            raise ParseError("parity must be even or odd", parity_tok.span)
        parity = Parity.EVEN if parity_tok.text == "even" else Parity.ODD
        stage: int | None = None
        if st.accept("stage"):
            stage = st.expect_int()
        st.expect_end()
        kind = Kind.FIELD if head.text == "field" else Kind.GHOST
        if stage is not None and kind is not Kind.GHOST:
            raise SemanticError("only ghosts carry a stage", head.span)
        self.variables[name] = VarDecl(name, kind, parity, tuple(indices), stage)

    def _parse_constant(self, st: _Stmt, head: _Token) -> None:
        self._need_dim(head.span)
        name_tok = st.expect_name("a constant name")
        name = self._fresh_name(name_tok, self.constants)
        declared_ranges: list[tuple[int, int]] | None = None
        if st.accept("["):
            declared_ranges = []
            while True:
                lo = st.expect_int()
                st.expect("..")
                hi = st.expect_int()
                declared_ranges.append((lo, hi))
                if not st.accept(","):
                    break
            st.expect("]")
        st.expect("=")
        tok = st.peek()
        if tok is None:
            raise ParseError("expected a constant value", st.span())
        if tok.kind == "name":
            builder_tok = st.take()
            if builder_tok.text not in _BUILDERS:
                raise ParseError(
                    f"unknown constant builder {builder_tok.text!r}", builder_tok.span
                )
            builder, arity = _BUILDERS[builder_tok.text]
            st.expect("(")
            size = st.expect_int()
            st.expect(")")
            st.expect_end()
            if not 1 <= size <= MAX_DIM + 1:
                raise SemanticError(
                    f"builder size must be between 1 and {MAX_DIM + 1}",
                    builder_tok.span,
                )
            if size ** arity(size) > MAX_COMPONENTS:
                raise SemanticError(
                    f"constant {name} declares too many entries", builder_tok.span
                )
            made = builder(size)
            const = ConstantTensor(name, made.ranges, made.entries, made.builder)
        else:
            entries = self._parse_constant_table(st, head)
            if declared_ranges is None:
                raise SemanticError(
                    f"constant {name} needs declared index ranges", head.span
                )
            const = ConstantTensor(name, tuple(declared_ranges), entries)
        if declared_ranges is not None and const.ranges != tuple(declared_ranges):
            raise SemanticError(
                f"declared ranges of {name} do not match its builder", head.span
            )
        self.constants[name] = const

    def _parse_constant_table(
        self, st: _Stmt, head: _Token
    ) -> dict[tuple[int, ...], Fraction]:
        st.expect("{")
        entries: dict[tuple[int, ...], Fraction] = {}

        def parse_entries(stmt: _Stmt) -> bool:
            while True:
                tok = stmt.peek()
                if tok is None:
                    return False
                if tok.text == "}":
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
                    raise SemanticError(f"duplicate entry {key}", tok.span)
                entries[key] = value
                stmt.accept(",")

        closed = parse_entries(st)
        while not closed:
            nxt = self._next()
            if nxt is None:
                raise ParseError("unterminated constant table", head.span)
            closed = parse_entries(nxt)
        return entries

    def _parse_lagrangian(self, st: _Stmt, head: _Token) -> None:
        self._need_dim(head.span)
        if self.lagrangian is not None:
            raise SemanticError("duplicate lagrangian", head.span)
        ast = _parse_expr(st)
        st.expect_end()
        self.lagrangian = Density(_eval(self._env(st, ast), ast))

    # -- blocks

    def _block_entries(self, opener: _Token) -> list[_Stmt]:
        entries: list[_Stmt] = []
        while True:
            st = self._next()
            if st is None:
                raise ParseError("unterminated block", opener.span)
            if st.peek() is not None and st.peek().text == "}":
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
        if role_tok.text == "gauge":
            role = ROLE_GAUGE
        elif role_tok.text == "noether":
            role = ROLE_NOETHER
        elif role_tok.text == "stage":
            role = ROLE_STAGE
            stage = head_st.expect_int()
        else:
            raise ParseError("role must be gauge, noether, or stage K", role_tok.span)
        head_st.expect("{")
        head_st.expect_end()
        dim = self._need_dim(name_tok.span)

        coeffs: dict[tuple[VariableId, VariableId, MultiIndex], GradedPolynomial] = {}
        for st in self._block_entries(name_tok):
            open_tok = st.expect("(")
            param_key = _parse_key_ref(st)
            st.expect(",")
            target_key = _parse_key_ref(st)
            st.expect(",")
            mi = _parse_mi_literal(st)
            st.expect(")")
            st.expect(":")
            ast = _parse_expr(st)
            st.expect_end()
            self._expand_entry(
                coeffs, (param_key, target_key), mi, st, ast, open_tok.span
            )
        try:
            self.operators[name] = LinearJetOperator(dim, role, coeffs, stage=stage)
        except SemanticError as exc:
            raise SemanticError(f"operator {name}: {exc}", name_tok.span) from None

    def _parse_derivation(self, head_st: _Stmt) -> None:
        name_tok = head_st.expect_name("a derivation name")
        name = self._fresh_name(name_tok, self.derivations)
        head_st.expect("{")
        head_st.expect_end()
        self._need_dim(name_tok.span)

        components: dict[tuple[VariableId], GradedPolynomial] = {}
        for st in self._block_entries(name_tok):
            target_key = _parse_key_ref(st)
            st.expect(":")
            ast = _parse_expr(st)
            st.expect_end()
            self._expand_entry(components, (target_key,), None, st, ast, name_tok.span)
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
        label = name_tok.text
        if label_args:
            label += "[" + ",".join(map(str, label_args)) + "]"
        if label in self.certificates:
            raise SemanticError(f"duplicate certificate {label}", name_tok.span)
        head_st.expect("{")
        head_st.expect_end()
        self._need_dim(name_tok.span)

        m_coeffs: dict[tuple[VariableId, MultiIndex], GradedPolynomial] = {}
        witness: GradedPolynomial | None = None
        for st in self._block_entries(name_tok):
            tok = st.peek()
            if tok is not None and tok.text == "witness":
                st.take()
                st.expect(":")
                ast = _parse_expr(st)
                st.expect_end()
                poly = _eval(self._env(st, ast), ast)
                witness = poly if witness is None else witness + poly
                continue
            open_tok = st.expect("(")
            target_key = _parse_key_ref(st)
            st.expect(",")
            mi = _parse_mi_literal(st)
            st.expect(")")
            st.expect(":")
            ast = _parse_expr(st)
            st.expect_end()
            self._expand_entry(m_coeffs, (target_key,), mi, st, ast, open_tok.span)
        m_coeffs = {k: p for k, p in m_coeffs.items() if not p.is_zero()}
        self.certificates[label] = ReductionCertificate(
            m_coeffs or None, witness
        )


def parse_theory(text: str) -> Theory:
    """Parse a theory file; raises ParseError or SemanticError."""
    return _TheoryParser(text).parse()


def parse_expression(text: str, theory: Theory) -> GradedPolynomial:
    """Parse one expression against a theory's declarations."""
    statements = _statements(_tokenize(text))
    if len(statements) != 1:
        raise ParseError("expected exactly one expression")
    st = _Stmt(statements[0])
    ast = _parse_expr(st)
    st.expect_end()
    env = _statement_env(theory.dim, theory.variables, theory.constants, st, ast)
    return _eval(env, ast)


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


def _render_operator(name: str, op: LinearJetOperator, dim: int) -> list[str]:
    role = op.role if op.role != ROLE_STAGE else f"stage {op.stage}"
    lines = [f"operator {name} role {role} {{"]
    for param, target, mi in op.sorted_keys():
        poly = op.coefficient(param, target, mi)
        key = f"({param.render()}, {target.render()}, {mi.render()})"
        lines.append(f"  {key} : {render_polynomial(poly, dim)}")
    lines.append("}")
    return lines


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
        lines.append(
            f"lagrangian {render_polynomial(theory.lagrangian.expr, theory.dim)}"
        )
    for name, op in theory.operators.items():
        lines.append("")
        lines.extend(_render_operator(name, op, theory.dim))
    for name, vf in theory.derivations.items():
        lines.append("")
        lines.extend(_render_derivation(name, vf, theory.dim))
    for label, cert in theory.certificates.items():
        lines.append("")
        lines.extend(_render_certificate(label, cert, theory.dim))
    return "\n".join(lines) + "\n"


def resolve_component(theory: Theory, text: str) -> VariableId:
    """Resolve a rendered component name like C[1] or ~y against a theory."""
    statements = _statements(_tokenize(text))
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
