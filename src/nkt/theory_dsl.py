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

The tokenizer splits the text into statements of token strings with one
findall and refuses a bad character first.  A node or an error keeps a
location, (statement cursor, token index), which the error turns into a
SourceSpan: spans are scanned from the text only for an error.

Each statement's expression (the Lagrangian, a witness, a block entry under
all its bindings) is evaluated by one walk, _walk, and charged its work
while it is evaluated (see _spend).  A statement with no binders and no sum
is walked as parsed.  Any other is planned first: _analyse records for each
node the index names it reads, whether a range proof over the sum and
binder ranges shows it cannot raise, and the constant factors that can zero
a sum over it; _plan then wraps nodes in memos, so that each is evaluated
once per binding of the names it reads and shares values with the nodes
equal to it up to a renaming of bound names.  A sum whose body cannot raise
binds only the index values where a constant factor reading the index, such
as g[m,al] in sum(al, 0..3, g[m,al]*...), has a nonzero entry; every other
sum binds every value in order, so each error keeps its message and span.
References resolve through one table per parse (see _Env), so each
component is checked, and each jet variable made a polynomial, once.  The
parser makes each run of + and -, and each run of *, one node; a leading -x
is a run of one negated operand.  Sums and runs spread into one list of
weighted products, an unmemoized one inside spreading into the same list,
so a polynomial is added up only where a memo stores it or a factor needs
it, and at once, or when the list reaches _FOLD_AT products.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, permutations, product as iter_product
from math import comb, prod
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

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
    gp_sum_of_products,
    render_polynomial,
)
from .koszul_tate import ReductionCertificate
from .multiindex import MultiIndex
from .noether import ROLE_GAUGE, ROLE_NOETHER, LinearJetOperator

MAX_DIM = 9
MAX_COMPONENTS = 512
MAX_EXPONENT = 64
MAX_SUM_SPAN = 512
# bound on one statement's expansion steps, see _spend
MAX_EXPANSION_WORK = 1_000_000
MAX_STAGE = 32
_MAX_DEPTH = 64
# a list of weighted products this long is added up into one entry, so a
# statement holds few products at once, even one the budget refuses
_FOLD_AT = 4096

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_COORD_RE = re.compile(r"x[0-9]*\Z")
_RESERVED = frozenset({"d", "sum", "witness"})


# ---------------------------------------------------------------------------
# model


def _check_name(name: str, what: str, span: tuple | None) -> None:
    """Refuse a declared name that is no identifier or is reserved."""
    if not _NAME_RE.match(name):
        raise SemanticError(f"bad {what} name {name!r}", span)
    if name in _RESERVED or _COORD_RE.match(name):
        raise SemanticError(f"{name!r} is reserved", span)


def _check_size(
    name: str, unit: str, ranges: Iterable[tuple[int, int]], span: tuple | None
) -> None:
    """Refuse over MAX_COMPONENTS cells in the ranges; an empty range holds none."""
    if prod(max(hi - lo + 1, 0) for lo, hi in ranges) > MAX_COMPONENTS:
        message = f"{name} declares too many {unit}; the limit is {MAX_COMPONENTS}"
        raise SemanticError(message, span)


def _check_index(name: str, ranges: Sequence[tuple], idx: tuple[int, ...],
                 span: SourceSpan | tuple | None) -> None:
    """Refuse an index of name that its ranges do not hold; a range is
    (lo, hi), or (label, lo, hi) for a variable, whose label is named."""
    if len(idx) != len(ranges):
        raise SemanticError(f"{name} takes {len(ranges)} indices, got {len(idx)}", span)
    for c, bounds in zip(idx, ranges):
        if not bounds[-2] <= c <= bounds[-1]:
            *label, lo, hi = bounds
            which = f"{label[0]}={c}" if label else c
            raise SemanticError(f"index {which} of {name} is outside {lo}..{hi}", span)


class VarDecl(Record):
    """A declared field or ghost family with its index ranges.

    The constructor refuses a bad or reserved name, a kind other than field
    or ghost, a stage on a field or outside 0..MAX_STAGE, a bad index label,
    an empty range and over MAX_COMPONENTS components.  at maps "kind",
    "name", "stage" and each range's position to the location where the
    parser read it, which a refusal names; a record built in code has none.
    """

    name: str
    kind: Kind
    parity: Parity
    indices: tuple[tuple[str, int, int], ...] = ()
    stage: int | None = None

    def __init__(self, name, kind, parity, indices=(), stage=None, *, at=None) -> None:
        where = (at or {}).get
        _check_name(name, "variable", where("name"))
        if kind not in (Kind.FIELD, Kind.GHOST):
            raise SemanticError(f"{name} must be declared as a field or a ghost")
        if stage is not None and kind is not Kind.GHOST:
            raise SemanticError("only ghosts carry a stage", where("kind"))
        if stage is not None and not 0 <= stage <= MAX_STAGE:
            message = f"stage of {name} must be between 0 and {MAX_STAGE}"
            raise SemanticError(message, where("stage"))
        for i, (label, lo, hi) in enumerate(indices):
            if not _NAME_RE.match(label):
                raise SemanticError(f"bad index name {label!r} on {name}", where(i))
            if lo > hi:
                raise SemanticError(f"empty index range {lo}..{hi} on {name}", where(i))
        _check_size(name, "components", [r[1:] for r in indices], where("name"))
        super().__init__(name, kind, parity, indices, stage)

    def variable(self, comps: tuple[int, ...],
                 span: SourceSpan | tuple | None = None) -> VariableId:
        """The component at comps, refused at span when the ranges miss it."""
        _check_index(self.name, self.indices, comps, span)
        return VariableId(self.kind, self.name, comps, self.parity, self.stage)

    def components(self) -> list[VariableId]:
        ranges = [range(lo, hi + 1) for _, lo, hi in self.indices]
        return [self.variable(tuple(c)) for c in iter_product(*ranges)]


class ConstantTensor(Record):
    """A rational constant tensor, kept sparse.

    The constructor refuses a bad or reserved name, an empty range, over
    MAX_COMPONENTS cells and an entry outside the ranges.  at maps "name",
    each range's position and each entry's index to the location where the
    parser read it, which a refusal names; a record built in code has none.
    """

    name: str
    ranges: tuple[tuple[int, int], ...]
    entries: dict[tuple[int, ...], Fraction]
    builder: str | None = None

    def __init__(self, name, ranges, entries, builder=None, *, at=None) -> None:
        where = (at or {}).get
        _check_name(name, "constant", where("name"))
        for i, (lo, hi) in enumerate(ranges):
            if lo > hi:
                raise SemanticError(f"empty range {lo}..{hi} on constant {name}", where(i))
        _check_size(f"constant {name}", "entries", ranges, where("name"))
        super().__init__(name, ranges, entries, builder)
        for idx in entries:
            self.entry(idx, where(idx))

    def entry(self, idx: tuple[int, ...], span: SourceSpan | tuple | None = None) -> Fraction:
        """The entry at idx, refused at span when idx is outside the ranges."""
        _check_index(self.name, self.ranges, idx, span)
        return self.entries.get(idx, Fraction(0))


def _perm_sign(tup: tuple[int, ...]) -> Fraction:
    inversions = sum(
        1
        for i in range(len(tup))
        for j in range(i + 1, len(tup))
        if tup[i] > tup[j]
    )
    return Fraction(-1 if inversions % 2 else 1)


def levi_civita(name: str, k: int, *, at: dict | None = None) -> ConstantTensor:
    """Constant name, the antisymmetric symbol on k letters, indices 1..k per
    axis.  Each builder passes at on and makes its entries after the size check."""
    const = ConstantTensor(name, ((1, k),) * k, {}, f"levi_civita({k})", at=at)
    const.entries.update((p, _perm_sign(p)) for p in permutations(range(1, k + 1)))
    return const


def kronecker(name: str, k: int, *, at: dict | None = None) -> ConstantTensor:
    """Constant name, the identity matrix with indices 1..k."""
    const = ConstantTensor(name, ((1, k), (1, k)), {}, f"kronecker({k})", at=at)
    const.entries.update(((i, i), Fraction(1)) for i in range(1, k + 1))
    return const


def minkowski(name: str, n: int, *, at: dict | None = None) -> ConstantTensor:
    """Constant name, diag(1, -1, ..., -1) with indices 0..n-1."""
    const = ConstantTensor(name, ((0, n - 1),) * 2, {}, f"minkowski({n})", at=at)
    const.entries.update(((i, i), Fraction(-1 if i else 1)) for i in range(n))
    return const


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

    def __init__(
        self, name, dim, variables, constants=None, lagrangian=None,
        operators=None, derivations=None, certificates=None,
    ) -> None:
        super().__init__(
            name,
            dim,
            variables,
            {} if constants is None else constants,
            lagrangian,
            {} if operators is None else operators,
            {} if derivations is None else derivations,
            {} if certificates is None else certificates,
        )


class _Declared(dict):
    """Whether a variable, or the base of an antifield, is a declared
    component of one theory; each distinct variable is checked once."""

    def __init__(self, theory: Theory):
        super().__init__()
        self.theory = theory

    def __missing__(self, var: VariableId) -> bool:
        decl, kind, parity = self.theory.variables.get(var.name), var.kind, var.parity
        if kind in (Kind.ANTIFIELD, Kind.ANTIGHOST):  # declared as its base
            kind, parity = Kind(kind - 2), parity.flipped()
        comps = var.components
        self[var] = found = (
            decl is not None and (decl.kind, decl.parity, decl.stage) == (kind, parity, var.stage)
            and len(comps) == len(decl.indices)
            and all(lo <= c <= hi for c, (_, lo, hi) in zip(comps, decl.indices))
        )
        return found


def _check_vars(
    declared: _Declared,
    poly: GradedPolynomial,
    where: str,
    kinds: tuple[Kind, ...],
    at: tuple | None,
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
        raise SemanticError(f"{where} uses undeclared variable {jv.var.render()}", at)
    raise SemanticError(
        f"{where} may not depend on {jv.var.render()} ({jv.var.kind.name.lower()})", at
    )


_BASE_SECTOR = (Kind.FIELD, Kind.GHOST)
_ALL_KINDS = (Kind.FIELD, Kind.GHOST, Kind.ANTIFIELD, Kind.ANTIGHOST)


def validate_theory(theory: Theory, heads: dict[str, tuple] | None = None) -> None:
    """Checks across declarations, shared by the parser and programmatic use.

    Each VarDecl and ConstantTensor refused its own faults when it was made;
    this refuses a bad theory name or dim, a table key that is not its
    record's name, a constant named as a variable, wrong stage-ghost
    parities and a polynomial that reads what it may not.  A refused
    declaration is named at its head token, whose location the parser
    passes in heads under "keyword name" ("ghost C", "lagrangian").
    """
    at = (heads or {}).get
    if not _NAME_RE.match(theory.name):
        raise SemanticError(f"theory name {theory.name!r} is not an identifier")
    if not 1 <= theory.dim <= MAX_DIM:
        raise SemanticError(f"dim must be between 1 and {MAX_DIM}")
    for what, table in (("variable", theory.variables), ("constant", theory.constants)):
        for key, record in table.items():
            if key != record.name:
                raise SemanticError(f"{what} {record.name} is filed under {key!r}")
            if what == "constant" and key in theory.variables:
                raise SemanticError(f"constant {key!r} clashes with another name")

    _check_stage_parities(theory, at)

    declared = _Declared(theory)
    if theory.lagrangian is not None:
        if not isinstance(theory.lagrangian, GradedPolynomial):
            raise SemanticError(
                "the lagrangian must be a GradedPolynomial, not"
                f" {type(theory.lagrangian).__name__}"
            )
        head = at("lagrangian")
        _check_vars(declared, theory.lagrangian, "the lagrangian", (Kind.FIELD,), head)
        if theory.lagrangian.parity() is not Parity.EVEN:
            raise SemanticError("the lagrangian must be even", head)

    for name, op in theory.operators.items():
        _check_operator(theory, declared, name, op, at(f"operator {name}"))

    for name, vf in theory.derivations.items():
        head = at(f"derivation {name}")
        for var, comp in vf.components.items():
            if not declared[var] or var.kind not in _BASE_SECTOR:
                raise SemanticError(
                    f"derivation {name} targets undeclared variable {var.render()}", head
                )
            _check_vars(declared, comp, f"derivation {name}", _BASE_SECTOR, head)

    for label, cert in theory.certificates.items():
        head = at(f"certificate {label}")
        try:
            labelled = resolve_component(theory, label)
        except (ParseError, SemanticError):
            message = f"certificate label {label!r} is not a declared component"
            raise SemanticError(message, head)
        if labelled.kind is not Kind.GHOST or labelled.stage is None:
            raise SemanticError(
                f"certificate {label} must be labelled by a stage ghost", head
            )
        if cert.m_coeffs:
            for (var, _), poly in cert.m_coeffs.items():
                if not declared[var] or var.kind not in _BASE_SECTOR:
                    raise SemanticError(
                        f"certificate {label} references undeclared {var.render()}", head
                    )
                _check_vars(declared, poly, f"certificate {label}", _BASE_SECTOR, head)
        if cert.witness is not None:
            _check_vars(declared, cert.witness, f"certificate {label}", _ALL_KINDS, head)


def _check_stage_parities(theory: Theory, at: Callable) -> None:
    plain = [d for d in theory.variables.values() if d.kind is Kind.GHOST and d.stage is None]
    staged = [d for d in theory.variables.values() if d.stage is not None]
    if not staged:
        return
    if not plain:
        message = "stage ghosts require plain ghosts below them"
        raise SemanticError(message, at(f"ghost {staged[0].name}"))
    base = plain[0].parity
    for decl in plain:
        if decl.parity is not base:
            raise SemanticError(
                "plain ghosts must share one parity when stage ghosts are declared",
                at(f"ghost {decl.name}"),
            )
    for decl in staged:
        expected = Parity((int(base) + decl.stage + 1) % 2)
        if decl.parity is not expected:
            raise SemanticError(
                f"stage {decl.stage} ghost {decl.name} must be"
                f" {expected.name.lower()} over {base.name.lower()} plain ghosts",
                at(f"ghost {decl.name}"),
            )


def _check_operator(
    theory: Theory, declared: _Declared, name: str, op: LinearJetOperator,
    at: tuple | None,
) -> None:
    if op.dim != theory.dim:
        raise SemanticError(f"operator {name} has dim {op.dim}, theory has {theory.dim}", at)
    for (param, target, _), poly in op.coeffs.items():
        for var in (param, target):
            if not declared[var]:
                raise SemanticError(
                    f"operator {name} references undeclared {var.render()}", at
                )
        # declarations only: LinearJetOperator keeps coefficients to field jets
        _check_vars(declared, poly, f"operator {name}", _ALL_KINDS, at)
        if op.stage is None:
            if param.kind is not Kind.GHOST or param.stage is not None:
                raise SemanticError(
                    f"operator {name}: parameter {param.render()} must be a plain ghost",
                    at,
                )
            if target.kind is not Kind.FIELD:
                raise SemanticError(
                    f"operator {name}: target {target.render()} must be a field", at
                )
        else:
            if param.kind is not Kind.GHOST or param.stage != op.stage:
                raise SemanticError(
                    f"operator {name}: parameter {param.render()} must be a"
                    f" stage {op.stage} ghost", at
                )
            want = None if op.stage == 0 else op.stage - 1
            if target.kind is not Kind.GHOST or target.stage != want:
                raise SemanticError(
                    f"operator {name}: target {target.render()} must be a ghost"
                    f" one stage below", at
                )


# ---------------------------------------------------------------------------
# tokens


# Blanks and comments before a token are consumed with it.  The group takes
# a newline, a name, an integer, '..' or a punctuation mark; the catch-all
# `.` outside it takes any other character, which the group then misses.  On
# a text that ends in a newline, every match succeeds without backtracking,
# and every character is matched in order.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r]|#[^\n]*)*"
    r"(?:(\n|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\.\.|[()\[\]{},;:=~*+\-^/])|.)"
)


def _statements(text: str) -> list[list[str | None]]:
    """Tokenize text into statements; newlines inside (..) or [..] continue.

    Each statement is a list of token strings ended by the sentinel None; a
    name is an ASCII identifier and an integer is ASCII decimal digits.  A character no token
    takes is refused here, before any statement is parsed.
    """
    tokens = _TOKEN_RE.findall(text + "\n")
    if "" in tokens:  # a character that the catch-all took
        at = next(m.end() - 1 for m in _TOKEN_RE.finditer(text + "\n") if not m.group(1))
        raise ParseError(f"unexpected character {text[at]!r}", _text_span(text, at, at + 1))
    out, current, depth = [], [], 0
    for tok in tokens:
        if tok == "\n":
            if not depth and current:
                current.append(None)
                out.append(current)
                current = []
            continue
        if tok in "([":
            depth += 1
        elif depth and tok in ")]":
            depth -= 1
        current.append(tok)
    if current:
        current.append(None)
        out.append(current)
    return out


def _text_span(text: str, start: int, end: int) -> SourceSpan:
    """The span of text[start:end]; lines and columns count from 1."""
    return SourceSpan(text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start),
                      start, end)


class _Stmt:
    """Cursor over one statement's tokens, up to the sentinel None.

    A location is (cursor, token) or (cursor, first, last token); the error
    given one calls span_of, and the parser's span_of finds the span.
    """

    __slots__ = ("source", "index", "tokens", "pos")

    def __init__(self, source: "_TheoryParser", index: int):
        self.source, self.index = source, index
        self.tokens, self.pos = source.statements[index], 0

    def span_of(self, first: int, last: int | None = None) -> SourceSpan:
        return self.source.span_of(self.index, first, last)

    def here(self) -> tuple:
        """The location of the next token, or of the last at the end."""
        return self, min(self.pos, len(self.tokens) - 2)

    def last(self) -> tuple:
        """The location of the token just taken."""
        return self, self.pos - 1

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            raise ParseError("unexpected end of line", (self, self.pos - 1))
        self.pos += 1
        return tok

    def expect_name(self, what: str = "a name") -> str:
        tok = self.take()
        if not tok.isidentifier():
            raise ParseError(f"expected {what}, got {tok!r}", (self, self.pos - 1))
        return tok

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok != text:
            raise ParseError(f"expected {text!r}, got {tok!r}", (self, self.pos - 1))

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect_int(self) -> int:
        neg = self.accept("-")
        tok = self.take()
        if not tok.isdecimal():
            raise ParseError(f"expected an integer, got {tok!r}", (self, self.pos - 1))
        try:
            value = int(tok)
        except ValueError:
            message = too_many_digits(f"integer of {len(tok)} digits")
            raise ParseError(message, (self, self.pos - 1)) from None
        return -value if neg else value

    def expect_range(self) -> tuple[int, int]:
        lo = self.expect_int()
        self.expect("..")
        return lo, self.expect_int()

    def expect_end(self) -> None:
        tok = self.tokens[self.pos]
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok!r}", (self, self.pos))

    def expect_fraction(self) -> "Fraction | int":
        """A rational literal: an int, or a Fraction num/den."""
        num = self.expect_int()
        if self.accept("/"):
            den = self.expect_int()
            if den == 0:  # at the 0 just taken, not at the token after it
                raise ParseError("zero denominator", (self, self.pos - 1))
            return Fraction(num, den)
        return num


# ---------------------------------------------------------------------------
# expression AST: plain slotted classes, compared by identity; span is the
# node's location (see _Stmt)


class _Num:
    __slots__ = ("value", "span")

    def __init__(self, value, span):
        self.value, self.span = value, span


class _Ref:
    __slots__ = ("name", "args", "anti", "span", "explicit_args")

    def __init__(self, name, args, anti, span, explicit_args):
        self.name, self.args, self.anti = name, args, anti
        self.span, self.explicit_args = span, explicit_args


class _D:
    __slots__ = ("base", "dirs", "span")

    def __init__(self, base, dirs, span):
        self.base, self.dirs, self.span = base, dirs, span


class _Sum:
    """plan is (values, lookups): the index values, in order, and for each
    constant factor that can zero the body, the getter of its other names'
    values and a map from those to the values it leaves (see _spread).  A
    sum starts with every value and no lookup."""

    __slots__ = ("index", "lo", "hi", "body", "span", "plan")

    def __init__(self, index, lo, hi, body, span):
        self.index, self.lo, self.hi, self.body, self.span = index, lo, hi, body, span
        self.plan = (range(lo, hi + 1), ())


class _Run:
    """A run of + and - (op "+") or of * (op "*"), left to right: signs[i]
    is the sign of operands[i] in a run of +.  The run's span is its last
    operator's location.  A leading -x is a run of + of the one operand x,
    signed - and located at the -."""

    __slots__ = ("op", "operands", "signs", "span")

    def __init__(self, op, operands, signs, span):
        self.op, self.operands, self.signs, self.span = op, operands, signs, span


class _Pow:
    __slots__ = ("base", "exponent", "span")

    def __init__(self, base, exponent, span):
        self.base, self.exponent, self.span = base, exponent, span


# nodes only a planned tree holds, each at the span of the node it stands for


class _Index:
    """A bound index name, read as a value."""

    __slots__ = ("name", "span")

    def __init__(self, name, span):
        self.name, self.span = name, span


class _Memo:
    """node, with a table of its values keyed by what get reads from the bindings."""

    __slots__ = ("node", "table", "get", "span")

    def __init__(self, node, table, get):
        self.node, self.table, self.get, self.span = node, table, get, node.span


def _parse_index_arg(st: _Stmt) -> "int | str":
    tok = st.tokens[st.pos]
    if tok is None:
        raise ParseError("unexpected end of index list", st.here())
    if tok.isidentifier():
        st.pos += 1
        return tok
    return st.expect_int()


def _comma_list(st: _Stmt, read: Callable[[_Stmt], object]) -> list:
    """One item read by read, then one more after each comma."""
    items = [read(st)]
    while st.accept(","):
        items.append(read(st))
    return items


def _parse_index_list(st: _Stmt, *closers: str) -> list["int | str"]:
    """Comma separated index arguments, none if a closer comes first."""
    if st.tokens[st.pos] in (*closers, None):
        return []
    return _comma_list(st, _parse_index_arg)


def _parse_expr(st: _Stmt, depth: int = 0) -> object:
    return _parse_run(st, depth, ("+", "-"), _parse_term)


def _parse_term(st: _Stmt, depth: int) -> object:
    return _parse_run(st, depth, ("*",), _parse_unary)


def _parse_run(
    st: _Stmt, depth: int, ops: tuple[str, ...], read: Callable[[_Stmt, int], object]
) -> object:
    """The operands read, joined by the operators ops, as one run node.

    A parenthesized run of the same operators that stands first is absorbed,
    as a left to right reading takes it; a later one, or a negated one,
    stays one operand."""
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.here())
    node = read(st, depth + 1)
    if st.tokens[st.pos] not in ops:
        return node
    op = ops[0]
    if type(node) is _Run and node.op == op and len(node.operands) > 1:
        operands, signs = [*node.operands], [*node.signs]
    else:
        operands, signs = [node], ["+"]
    while (tok := st.tokens[st.pos]) in ops:
        signs.append(tok)
        span = (st, st.pos)
        st.pos += 1
        operands.append(read(st, depth + 1))
    return _Run(op, operands, signs if op == "+" else (), span)


def _parse_unary(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.here())
    if st.tokens[st.pos] == "-":
        at = (st, st.pos)
        st.pos += 1
        return _Run("+", [_parse_unary(st, depth + 1)], ["-"], at)
    return _parse_power(st, depth + 1)


def _parse_power(st: _Stmt, depth: int) -> object:
    node = _parse_atom(st, depth + 1)
    if st.tokens[st.pos] == "^":
        at = (st, st.pos)
        st.pos += 1
        exp = st.expect_int()
        if exp < 0 or exp > MAX_EXPONENT:
            raise ParseError(f"exponent must be between 0 and {MAX_EXPONENT}", at)
        return _Pow(node, exp, at)
    return node


def _parse_atom(st: _Stmt, depth: int) -> object:
    if depth > _MAX_DEPTH:
        raise ParseError("expression nested too deeply", st.here())
    tok = st.tokens[st.pos]
    if tok is None:
        raise ParseError("expected an expression", st.here())
    at = (st, st.pos)
    if tok.isdecimal():
        return _Num(st.expect_fraction(), at)
    if tok == "(":
        st.pos += 1
        node = _parse_expr(st, depth + 1)
        st.expect(")")
        return node
    if tok == "~":
        st.pos += 1
        st.expect_name("a variable name")
        return _parse_ref_tail(st, True)
    if tok.isidentifier():
        st.pos += 1
        if tok == "d" and st.tokens[st.pos] == "(":
            return _parse_d(st, at, depth + 1)
        if tok == "sum" and st.tokens[st.pos] == "(":
            return _parse_sum(st, at, depth + 1)
        return _parse_ref_tail(st, False)
    raise ParseError(f"unexpected {tok!r} in expression", at)


def _parse_ref_tail(st: _Stmt, anti: bool) -> object:
    """A reference whose name is the token just taken."""
    name, at = st.tokens[st.pos - 1], (st, st.pos - 1)
    if not st.accept("["):
        return _Ref(name, (), anti, at, False)
    comps = _parse_index_list(st, ";", "]")
    ref = _Ref(name, tuple(comps), anti, at, True)
    if st.accept(";"):  # the rendered jet y[c;x,x], read as d(y[c];x,x)
        dirs = _parse_index_list(st, "]")
        st.expect("]")
        return _D(ref, tuple(dirs), at)
    st.expect("]")
    return ref


def _parse_d(st: _Stmt, at: tuple, depth: int) -> object:
    st.expect("(")
    base = _parse_atom(st, depth + 1)
    if not isinstance(base, (_Ref, _D)):
        raise ParseError("d(...) applies to a single variable reference", at)
    dirs = _comma_list(st, _parse_index_arg) if st.accept(";") else []
    st.expect(")")
    return _D(base, tuple(dirs), at)


def _parse_sum(st: _Stmt, at: tuple, depth: int) -> object:
    st.expect("(")
    index = st.expect_name("an index name")
    st.expect(",")
    lo, hi = st.expect_range()
    st.expect(",")
    body = _parse_expr(st, depth + 1)
    st.expect(")")
    if hi - lo + 1 > MAX_SUM_SPAN:
        raise ParseError(f"sum range wider than {MAX_SUM_SPAN}", at)
    return _Sum(index, lo, hi, body, at)


# ---------------------------------------------------------------------------
# evaluation


class _Env:
    """What references resolve against: declarations, index bindings, and
    the table of one parse, shared by its statements, which maps (name,
    component values, anti) to the VariableId that VarDecl.variable
    accepted, and each JetVariable to its one-term polynomial.  A parse
    never withdraws or redefines a declaration, so a hit skips only checks
    that would pass again.  work is the statement's work so far, see _spend."""

    __slots__ = ("dim", "variables", "constants", "bindings", "table", "work")

    def __init__(self, dim, variables, constants, bindings, table):
        self.dim, self.variables, self.constants = dim, variables, constants
        self.bindings, self.table, self.work = bindings, table, 0


def _resolve_index(env: _Env, arg: "int | str", span: tuple) -> int:
    if isinstance(arg, int):
        return arg
    if arg in env.bindings:
        return env.bindings[arg]
    raise SemanticError(f"unbound index {arg!r}", span)


def _resolve_direction(env: _Env, arg: "int | str", span: tuple) -> int:
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


def _coordinate_of(env: _Env, name: str, span: tuple) -> int:
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
    b = env.bindings
    try:
        comps = tuple([b[a] if type(a) is str else a for a in node.args])
    except KeyError as exc:
        raise SemanticError(f"unbound index {exc.args[0]!r}", node.span) from None
    key = (node.name, comps, node.anti)
    var = env.table.get(key)
    if var is None:
        var = decl.variable(comps, node.span)
        var = env.table[key] = antifield_of(var) if node.anti else var
    return var


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


def _multi_index(entries: tuple[int, ...], span: tuple) -> MultiIndex:
    try:
        return MultiIndex(entries)
    except JetOrderError as exc:
        raise SemanticError(str(exc), span) from None


def _leaf(env: _Env, node: object) -> "GradedPolynomial | Fraction | int":
    """The value of a reference or jet leaf; index values and constant
    entries stay numbers.  Every leaf error is raised here."""
    if isinstance(node, _Ref):
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
            return _integral(const.entry(idx, node.span))
        if node.name not in env.variables:
            raise SemanticError(f"unknown name {node.name!r}", node.span)
    jv = _jet_of(env, node)
    poly = env.table.get(jv)
    if poly is None:
        poly = env.table[jv] = GradedPolynomial.variable(jv)
    return poly


def _integral(q: Fraction) -> "Fraction | int":
    """q, as an int when it is one: products' weights multiply faster."""
    return q.numerator if q.denominator == 1 else q


class _Facts(NamedTuple):
    """What _analyse records about one node of a statement's expression."""

    node: object  # a leaf's is what the walk reads instead, see _analyse_leaf
    safe: bool  # evaluating the node provably cannot raise
    free: frozenset[str] = frozenset()  # the bound names the value depends on
    kids: tuple["_Facts", ...] = ()
    values: int = 1  # how many values the free names take together
    fanout: int = 1  # evaluations of each kid per evaluation
    shape: tuple = ()  # see _shape; inside sums only
    # [nodes, memo] of the shape, and the free names in memo key order; none
    # for a leaf no dearer than a memo lookup
    key: tuple[list, list[str]] | None = None
    # constant entries whose zero zeroes the value: a constant leaf's own,
    # those of a run of *'s factors, and those of a sum's body not reading
    # its index
    factors: tuple[_Ref, ...] = ()


class _Statement:
    """One statement's expression, evaluated by _walk at each binding of its
    binders.

    A statement with no binders and no sum is walked as parsed.  Any other
    is planned first: _analyse visits each node once and records its facts,
    and _plan rewrites the tree from them, top down, knowing how often each
    node is reached.  Memo entries live as long as this object; table is the
    parse's resolution table (see _Env).
    """

    def __init__(self, ast: object, dim: int, variables: dict[str, VarDecl],
                 constants: dict[str, ConstantTensor], table: dict, binders: tuple = ()):
        self.env = _Env(dim, variables, constants, {}, table)
        self.ast = ast
        if binders or not _sum_free(ast):
            self.shapes: dict[tuple, int] = {}
            self.memos: dict[object, list] = {}
            self.probes: dict[tuple, bool] = {}
            facts = _analyse(self, ast, {name: (lo, hi) for name, lo, hi in binders})
            # the root is reached once per binding
            self.ast = _plan(facts, prod(hi - lo + 1 for _, lo, hi in binders))

    def __call__(self, bindings: dict[str, int]) -> GradedPolynomial:
        # every call binds the same names, and sums unbind their own
        self.env.bindings.update(bindings)
        value = _walk(self.env, self.ast)
        return value if type(value) is GradedPolynomial else GradedPolynomial.scalar(value)


def _spend(env: _Env, steps: int, node: object) -> None:
    """Charge steps to the statement's work, over all its bindings, and
    refuse it at node once the work passes MAX_EXPANSION_WORK, so a refusal,
    like an error, comes in the order of evaluation.  The work is charged
    as it is done, from the sizes of the values built: a sum, each time it
    is evaluated, the index values it binds (_spread); a product, as it is
    added to a list, the terms of its one factor, or its factor count plus
    the product of its factors' term counts (_product); a power of a base of
    t terms to k, before it is built, t * C(t+k-1, k-1), the term pairs its
    k products take at most (_power).  A memoized run or sum that a sum or
    a run of + adds is one product of its value, so it is charged its terms
    at each use: planned work is at most the unplanned walk's plus those
    terms, and can pass it (10 steps against 6 on
    sum(i,0..1, (0)^0 + (x0 + C[2])), whose memo is built but not reused)."""
    work = env.work = env.work + steps
    if work > MAX_EXPANSION_WORK:
        raise SemanticError(
            f"expansion work budget of {MAX_EXPANSION_WORK} steps exceeded", node.span
        )


def _added(parts: list) -> object:
    """The sum of a list of weighted products: a number when no product has
    a factor, else their sum, accumulated in one numerator map by
    gp_sum_of_products."""
    if len(parts) == 1 and parts[0][1] == 1 and len(parts[0][0]) == 1:
        return parts[0][0][0]  # one polynomial, as it is
    for factors, _ in parts:
        if factors:
            return gp_sum_of_products(parts)
    return sum([w for _, w in parts])


def _product(env: _Env, parts: list, w: object, operands: Sequence, node: object) -> None:
    """Add w times the product of operands' values, read in order, to parts:
    numbers scale the weight, polynomials are the factors; a product of
    weight 0 is left out, and an added one is charged at node.  A list
    _FOLD_AT long is added up into one product, of one polynomial or of
    none."""
    factors, steps, b = [], 1, env.bindings
    for operand in operands:
        kind = type(operand)  # leaves are read in place, not walked
        if kind is _Index:
            v = b[operand.name]
        elif kind is _Num:
            v = operand.value
        elif kind is _Ref or kind is _D:
            v = _leaf(env, operand)
        else:
            v = _walk(env, operand)
        if type(v) is GradedPolynomial:
            factors.append(v)
            steps *= len(v._terms)
        else:
            w = v if w == 1 else w * v  # a Fraction times 1 costs a Fraction
    if w:
        if n := len(factors):
            _spend(env, n + steps if n > 1 else steps, node)
        parts.append((factors, w))
        if len(parts) >= _FOLD_AT:
            value = _added(parts)
            parts[:] = [([value], 1) if type(value) is GradedPolynomial else ([], value)]


def _power(env: _Env, base: object, node: _Pow) -> object:
    """base to node's exponent; a polynomial base is charged at node first."""
    k = node.exponent
    if k and type(base) is GradedPolynomial:
        t = len(base._terms)
        _spend(env, t * comb(t + k - 1, k - 1), node)
    return base ** k


def _sum_free(node: object) -> bool:
    """Whether node holds no sum, so that it is walked unplanned."""
    kind = type(node)
    if kind is _Run:
        return all(map(_sum_free, node.operands))
    return _sum_free(node.base) if kind is _Pow else kind is not _Sum


def _walk(env: _Env, node: object) -> "GradedPolynomial | Fraction | int":
    """The value of a node, planned or not, its operands read left to right:
    a memo's from its table, a run's or a sum's spread into one list of
    weighted products and added up.  Every error is a leaf's, raised by
    _leaf, the budget's, or that of a sum whose index shadows a declaration."""
    kind = type(node)
    if kind is _Memo:
        key = node.get(env.bindings)
        value = node.table.get(key)
        if value is None:
            value = node.table[key] = _walk(env, node.node)
        return value
    if kind is _Run or kind is _Sum:
        parts: list = []
        _spread(env, node, parts, 1)
        return _added(parts)
    if kind is _Pow:
        return _power(env, _walk(env, node.base), node)
    if kind is _Num:
        return node.value
    if kind is _Index:
        return env.bindings[node.name]
    return _leaf(env, node)


def _spread(env: _Env, node: "_Run | _Sum", parts: list, w: object) -> None:
    """Add w times the value of a run or a sum to parts.  A run of * adds
    one product; a run of + and - adds each operand at its signed weight, a
    sum its body at each index value its plan leaves, in order, so a run or
    a sum among them spreads into the same parts.  A plan leaves out only
    values where a constant factor of a body that cannot raise has no
    nonzero stored entry: they would add exactly zero."""
    if type(node) is _Run:
        if node.op == "*":
            _product(env, parts, w, node.operands, node)
            return
        for operand, sign in zip(node.operands, node.signs):
            kind = type(operand)
            if kind is _Run or kind is _Sum:
                _spread(env, operand, parts, w if sign == "+" else -w)
            else:
                _product(env, parts, w if sign == "+" else -w, (operand,), operand)
        return
    index, b = node.index, env.bindings
    if index in env.variables or index in env.constants:
        raise SemanticError(f"sum index {index!r} shadows a declaration", node.span)
    values, lookups = node.plan
    todo = values
    for get, hits in lookups:
        found = hits.get(get(b), ())  # some of values, in order
        todo = found if todo is values else [v for v in todo if v in found]
    if not todo:
        return
    _spend(env, len(todo), node)
    body, saved = node.body, b.get(index)
    spread, alone = type(body) is _Run or type(body) is _Sum, (body,)
    for value in todo:
        b[index] = value
        if spread:
            _spread(env, body, parts, w)
        else:
            _product(env, parts, w, alone, body)
    if saved is None:
        b.pop(index, None)
    else:
        b[index] = saved


def _analyse(
    stmt: _Statement, node: object, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """The facts of node, evaluated with each name of scope bound within
    its interval; one visit per node."""
    kind = type(node)
    if kind is _Num:
        value = node.value
        shape = _shape(stmt, ("n", value.numerator, value.denominator)) if scope else ()
        return _Facts(node, True, shape=shape)
    if kind is _Run:
        return _analyse_run(stmt, node, scope)
    if kind is _Ref or kind is _D:
        return _analyse_leaf(stmt, node, scope)
    if kind is _Sum:
        facts = _analyse_sum(stmt, node, scope)
    elif kind is _Pow:
        arg = _analyse(stmt, node.base, scope)
        facts = _Facts(
            node, arg.safe, arg.free, (arg,),
            shape=_shape(stmt, ("^", node.exponent), [arg]) if scope else (),
        )
    else:
        raise SemanticError("malformed expression", getattr(node, "span", None))
    return _keyed(stmt, facts, scope)


def _keyed(
    stmt: _Statement, facts: _Facts, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """facts with the number of values of its free names and its memo key."""
    if not scope:
        return facts
    values = prod(max(0, scope[n][1] - scope[n][0] + 1) for n in facts.free)
    # the free names, in the order of the shape's numbering, line up in the
    # memo keys of nodes of one shape; a closed node has one value, so it
    # keys its own memo
    number, names = facts.shape
    ident = number if facts.free else facts.node
    entry = stmt.memos.get(ident)
    if entry is None:
        entry = stmt.memos[ident] = [0, {}]
    entry[0] += 1
    return facts._replace(values=values, key=(entry, [n for n in names if n in facts.free]))


def _shape(
    stmt: _Statement, tokens: tuple, kids: Sequence[_Facts] = ()
) -> tuple[int, tuple[str, ...]]:
    """(number, bound names) of a node whose prefix form is its tokens, bound
    names as 1-tuples, then its kids' forms: the number is equal for the
    nodes of equal forms up to renaming bound names, which are listed in
    order of first occurrence.  A kid enters as its number and its names'
    renaming, so a node costs its own tokens, not its whole form."""
    numbers: dict[str, int] = {}
    canon = [(numbers.setdefault(t[0], len(numbers)),) if type(t) is tuple else t
             for t in tokens]
    for kid in kids:
        number, names = kid.shape
        canon += (number, tuple([numbers.setdefault(n, len(numbers)) for n in names]))
    return stmt.shapes.setdefault(tuple(canon), len(stmt.shapes)), tuple(numbers)


def _analyse_run(
    stmt: _Statement, node: _Run, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """A run is one node whose kids are its operands, left to right."""
    kids = [_analyse(stmt, operand, scope) for operand in node.operands]
    facts = _Facts(
        node, all(kid.safe for kid in kids), frozenset().union(*[kid.free for kid in kids]),
        tuple(kids),
        shape=_shape(stmt, (node.op, len(kids), *node.signs), kids) if scope else (),
        factors=tuple(f for kid in kids for f in kid.factors) if node.op == "*" else (),
    )
    return _keyed(stmt, facts, scope)


def _analyse_sum(
    stmt: _Statement, node: _Sum, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """A sum whose body cannot raise gets a plan on its node: for each
    constant factor reading the index, the getter of its other names' values
    and a map from those to the index values, in order, with a nonzero
    stored entry."""
    index, env = node.index, stmt.env
    body = _analyse(stmt, node.body, {**scope, index: (node.lo, node.hi)})
    safe = body.safe and index not in env.variables and index not in env.constants
    fanout = max(0, node.hi - node.lo + 1)
    values, lookups = node.plan[0], []
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
        # a plan factor binds at most its most entries for any other arguments
        fanout = min(fanout, max(map(len, nonzero.values()), default=0))
        get, hits = _by_names([a for a in args if a != index], nonzero)
        ordered = {key: tuple([v for v in values if v in hits[key]]) for key in hits}
        lookups.append((get, ordered))
    node.plan = (values, lookups)
    return _Facts(
        node, safe, body.free - {index}, (body,), fanout=fanout,
        shape=_shape(stmt, ("s", (index,), node.lo, node.hi), [body]) if scope else (),
        factors=tuple(f for f in body.factors if index not in f.args),
    )


def _analyse_leaf(
    stmt: _Statement, node: object, scope: dict[str, tuple[int, int]]
) -> _Facts:
    """Leaves are evaluated by _leaf, which raises their errors.  The facts
    of a leaf no dearer than a memo lookup hold what the walk reads instead,
    and no key: a leaf that reads no bound name has one outcome, found here,
    its value as a _Num, or an error raised again each time it is read; a
    bound name read as a value is an _Index; a constant entry that cannot
    raise is a _Memo prefilled with the constant's nonzero entries."""
    env = stmt.env
    b = env.bindings  # empty until the statement is evaluated
    shape = _shape(stmt, _leaf_shape(node, scope)) if scope else ()
    free = frozenset(shape[1] if scope else ())  # a leaf binds no name itself
    if not free:
        try:
            value = _leaf(env, node)
        except SemanticError:
            return _Facts(node, False, shape=shape)
        return _Facts(_Num(value, node.span), True, shape=shape)
    plain = type(node) is _Ref and not node.anti
    if plain and not node.explicit_args:  # a name in scope read as a value
        return _Facts(_Index(node.name, node.span), True, free, shape=shape)
    # each check of _leaf (of _jet_of, for a jet) holds one index or direction
    # to an interval, so a leaf that passes them with its names at the low
    # ends of their ranges, and with each in turn at its high end, passes at
    # every binding between
    const = env.constants.get(node.name) if plain else None
    # leaves of one shape whose names run over the same ranges probe alike
    probe = (shape[0], *[scope[n] for n in shape[1]])
    safe = stmt.probes.get(probe)
    if safe is None:
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
        stmt.probes[probe] = safe
    if const is None:
        return _keyed(stmt, _Facts(node, safe, free, shape=shape), scope)
    if safe:
        entries = {k: _integral(q) for k, q in const.entries.items() if q}
        get, entries = _by_names(node.args, entries)
        return _Facts(_Memo(node, entries, get), True, free, shape=shape, factors=(node,))
    return _Facts(node, False, free, shape=shape, factors=(node,))


def _by_names(args: Sequence["int | str"], table: dict) -> tuple[Callable, dict]:
    """table, whose keys are index tuples lined up with args, keyed instead
    by what the getter returned reads from the bindings, the values of
    args' names; keys whose literals differ from args' are dropped."""
    named = [i for i, a in enumerate(args) if isinstance(a, str)]
    if len(named) == len(args) > 1:  # the getter reads whole keys
        return itemgetter(*args), table
    pick = _getter(named)
    return _getter([args[i] for i in named]), {
        pick(key): value for key, value in table.items()
        if all(k == a for k, a in zip(key, args) if not isinstance(a, str))
    }


def _getter(keys: Sequence) -> Callable:
    """itemgetter(*keys), which gives () for no keys."""
    return itemgetter(*keys) if keys else _no_key


def _no_key(bindings: dict) -> tuple:
    return ()


def _leaf_shape(node: object, scope: dict[str, tuple[int, int]]) -> tuple:
    def token(arg: "int | str") -> object:
        return (arg,) if arg in scope else arg

    if isinstance(node, _D):
        dirs = node.dirs
        return ("d", len(dirs), *map(token, dirs), *_leaf_shape(node.base, scope))
    index = not node.anti and not node.explicit_args and node.name in scope
    return ("r", (node.name,) if index else node.name, node.anti,
            node.explicit_args, len(node.args), *map(token, node.args))


def _plan(facts: _Facts, visits: int, shared: bool = False) -> object:
    """The node of facts, reached at most visits times, its kids planned in
    place and itself wrapped in a _Memo where that saves evaluations.

    A node is memoized, unless it has no key, when its free names take fewer
    values than visits, or when another node has its shape and no ancestor,
    shared, does; so it is evaluated at most min(visits, facts.values)
    times.  A raise is not remembered.
    """
    node = facts.node
    twin = facts.key is not None and facts.key[0][0] > 1
    kids = [
        _plan(kid, min(visits, facts.values) * facts.fanout, shared or twin)
        for kid in facts.kids
    ]
    kind = type(node)
    if kind is _Run:
        node.operands = kids
    elif kind is _Sum:
        (node.body,) = kids
    elif kind is _Pow:
        (node.base,) = kids
    if facts.key is None or (facts.values >= visits and (shared or not twin)):
        return node
    (_, memo), names = facts.key
    # nodes of one shape share a memo, keyed by their free names' values
    return _Memo(node, memo, _getter(names))


# ---------------------------------------------------------------------------
# statement parsing


def _parse_key_ref(st: _Stmt) -> tuple[_Ref, tuple[tuple[str, int, int], ...]]:
    """A block-entry reference and the binders it defines, e.g. a[mu=0..3,2]."""
    name = st.expect_name("a variable name")
    at = st.last()
    binders: list[tuple[str, int, int]] = []

    def index_or_binder(st: _Stmt) -> "int | str":
        tok = st.tokens[st.pos]
        if tok is None or not tok.isidentifier():
            return st.expect_int()
        at = st.here()
        st.pos += 1
        if st.accept("="):
            lo, hi = st.expect_range()
            if hi - lo + 1 > MAX_SUM_SPAN or lo > hi:
                raise ParseError(f"bad binder range {lo}..{hi}", at)
            binders.append((tok, lo, hi))
        return tok

    args: list[int | str] = []
    explicit = st.accept("[")
    if explicit:
        if st.tokens[st.pos] not in ("]", None):
            args = _comma_list(st, index_or_binder)
        st.expect("]")
    return _Ref(name, tuple(args), False, at, explicit), tuple(binders)


def _declared_ranges(st: _Stmt, at: dict, labelled: bool) -> tuple[tuple, ...]:
    """A declaration's ranges after its '[' and up to its ']': lo..hi, or
    i=lo..hi when labelled; at keeps each lo..hi's location by position."""
    def read(st: _Stmt) -> tuple[tuple, tuple]:
        label = ()
        if labelled:
            label = (st.expect_name("an index name"),)
            st.expect("=")
        first = st.pos
        return (*label, *st.expect_range()), (st, first, st.pos - 1)

    ranges, wheres = zip(*_comma_list(st, read))
    st.expect("]")
    at.update(enumerate(wheres))
    return ranges


def _parse_mi_literal(st: _Stmt) -> tuple[tuple["int | str", ...], tuple]:
    st.expect("[")
    at = st.last()
    entries = _parse_index_list(st, "]")
    st.expect("]")
    return tuple(entries), at


class _TheoryParser:
    def __init__(self, text: str):
        self.text, self.statements, self.scan = text, _statements(text), None
        self.index = 0
        # the statement of each declaration's head, for validate_theory; a
        # location here would hold this parser in a reference cycle
        self.heads: dict[str, int] = {}
        self.theory_name: str | None = None
        self.dim: int | None = None
        self.variables: dict[str, VarDecl] = {}
        self.constants: dict[str, ConstantTensor] = {}
        self.lagrangian: GradedPolynomial | None = None
        self.operators: dict[str, LinearJetOperator] = {}
        self.derivations: dict[str, GeneralizedVectorField] = {}
        self.certificates: dict[str, ReductionCertificate] = {}
        self.table: dict = {}  # the resolution table of this parse, see _Env

    # -- helpers

    def span_of(self, index: int, first: int, last: int | None = None) -> SourceSpan:
        """The span that a location (parser, index, first[, last]) names.  The
        statements hold the text's tokens in order, newlines aside, so a
        token's span is found by scanning the text again, once per parser:
        scan keeps each token's (start, end) and the count of tokens before
        each statement."""
        if self.scan is None:
            spans = [m.span(1) for m in _TOKEN_RE.finditer(self.text + "\n")
                     if m.group(1) != "\n"]
            self.scan = spans, [0, *accumulate(len(t) - 1 for t in self.statements)]
        spans, skips = self.scan
        head = skips[index] + first
        tail = head if last is None else head - first + last
        return _text_span(self.text, spans[head][0], spans[tail][1])

    def _statement(self, ast: object, binders: tuple = ()) -> _Statement:
        return _Statement(ast, self.dim, self.variables, self.constants, self.table, binders)

    def _next(self) -> _Stmt | None:
        if self.index >= len(self.statements):
            return None
        st = _Stmt(self, self.index)
        self.index += 1
        return st

    def _fresh_name(self, st: _Stmt, what: str, *tables: dict) -> str:
        """The name that st declares next, which none of tables holds yet;
        heads keeps st's index under "keyword name"."""
        name = st.expect_name(what)
        if any(name in table for table in tables):
            raise SemanticError(f"duplicate declaration of {name}", st.last())
        self.heads[f"{st.tokens[0]} {name}"] = st.index
        return name

    def _expand_entry(
        self,
        acc: dict[tuple, GradedPolynomial],
        keys: tuple[tuple[_Ref, tuple[tuple[str, int, int], ...]], ...],
        mi: tuple[tuple["int | str", ...], tuple] | None,
        st: _Stmt,
        binder_span: tuple,
    ) -> None:
        """Parse the rest of a block entry, ": expr", from st, and add it
        into acc at every binding of its binders.

        The key is the resolved components of keys, followed by the resolved
        multi-index when mi (entries and location) is given; entries that
        land on the same key sum.  Binder errors are reported at binder_span.
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
        env = stmt.env
        bindings, refs = env.bindings, [ref for ref, _ in keys]
        for values in iter_product(*[range(lo, hi + 1) for _, lo, hi in binders]):
            bindings.update(zip(names, values))  # the keys resolve before the entry
            key = tuple([_resolve_component(env, ref) for ref in refs])
            if mi is not None:
                entries, mi_span = mi
                dirs = tuple([_resolve_direction(env, e, mi_span) for e in entries])
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
        self.theory_name = st.expect_name("the theory name")
        st.expect_end()

        st = self._next()
        if st is None:
            raise ParseError("missing dim declaration")
        st.expect("dim")
        dim_at = st.here()
        self.dim = st.expect_int()
        if not 1 <= self.dim <= MAX_DIM:
            raise SemanticError(f"dim must be between 1 and {MAX_DIM}", dim_at)
        st.expect_end()

        while (st := self._next()) is not None:
            head = st.expect_name("a declaration keyword")
            if head in ("field", "ghost"):
                self._parse_variable(st, head)
            elif head == "constant":
                self._parse_constant(st)
            elif head == "lagrangian":
                self._parse_lagrangian(st)
            elif head == "operator":
                self._parse_operator(st)
            elif head == "derivation":
                self._parse_derivation(st)
            elif head == "certificate":
                self._parse_certificate(st)
            else:
                raise ParseError(f"unknown declaration {head!r}", st.last())

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
        validate_theory(theory, {key: (self, i, 0) for key, i in self.heads.items()})
        return theory

    # -- declarations

    def _parse_variable(self, st: _Stmt, head: str) -> None:
        name = self._fresh_name(st, "a variable name", self.variables, self.constants)
        at = {"kind": (st, 0), "name": st.last()}
        indices = _declared_ranges(st, at, True) if st.accept("[") else ()
        st.expect("parity")
        parity = st.expect_name("even or odd")
        if parity not in ("even", "odd"):
            raise ParseError("parity must be even or odd", st.last())
        stage: int | None = None
        if st.accept("stage"):
            first = st.pos
            stage = st.expect_int()
            at["stage"] = (st, first, st.pos - 1)
        st.expect_end()
        kind = Kind.FIELD if head == "field" else Kind.GHOST
        parity = Parity.EVEN if parity == "even" else Parity.ODD
        self.variables[name] = VarDecl(name, kind, parity, indices, stage, at=at)

    def _parse_constant(self, st: _Stmt) -> None:
        name = self._fresh_name(st, "a constant name", self.variables, self.constants)
        at = {"name": st.last()}
        declared: ConstantTensor | None = None
        if st.accept("["):  # refused, if need be, before a table's body is read
            declared = ConstantTensor(name, _declared_ranges(st, at, False), {}, at=at)
        st.expect("=")
        tok = st.tokens[st.pos]
        if tok is None:
            raise ParseError("expected a constant value", st.here())
        if tok.isidentifier():
            builder_at = st.here()
            st.pos += 1
            if tok not in _BUILDERS:
                raise ParseError(f"unknown constant builder {tok!r}", builder_at)
            builder, arity = _BUILDERS[tok]
            st.expect("(")
            size = st.expect_int()
            st.expect(")")
            st.expect_end()
            if not 1 <= size <= MAX_DIM + 1:
                message = f"builder size must be between 1 and {MAX_DIM + 1}"
                raise SemanticError(message, builder_at)
            # each of a builder's arity(size) axes takes size values
            ranges = [(1, size)] * arity(size)
            _check_size(f"constant {name}", "entries", ranges, builder_at)
            const = builder(name, size, at=at)
            if declared is not None and const.ranges != declared.ranges:
                message = f"declared ranges of {name} do not match its builder"
                raise SemanticError(message, (st, 0))
        else:
            self._parse_constant_table(st, declared)
            if declared is None:
                raise SemanticError(
                    f"constant {name} needs declared index ranges", (st, 0)
                )
            const = declared
        self.constants[name] = const

    def _parse_constant_table(self, st: _Stmt, const: ConstantTensor | None) -> None:
        """Read a constant table into const.entries, each index checked at
        the span of its (...); with no const, the table is read and dropped."""
        head = (st, 0)
        st.expect("{")
        entries = {} if const is None else const.entries

        def parse_entries(stmt: _Stmt) -> bool:
            while True:
                tok = stmt.tokens[stmt.pos]
                if tok is None:
                    return False
                if tok == "}":
                    stmt.pos += 1
                    stmt.expect_end()
                    return True
                first = stmt.pos
                stmt.expect("(")
                key = tuple(_comma_list(stmt, _Stmt.expect_int))
                stmt.expect(")")
                if const is not None:
                    const.entry(key, (stmt, first, stmt.pos - 1))
                stmt.expect(":")
                value = Fraction(stmt.expect_fraction())
                if key in entries:
                    raise SemanticError(f"duplicate entry {key}", (stmt, first))
                entries[key] = value
                stmt.accept(",")

        closed = parse_entries(st)
        while not closed:
            nxt = self._next()
            if nxt is None:
                raise ParseError("unterminated constant table", head)
            closed = parse_entries(nxt)

    def _parse_lagrangian(self, st: _Stmt) -> None:
        if self.lagrangian is not None:
            raise SemanticError("duplicate lagrangian", (st, 0))
        self.heads["lagrangian"] = st.index
        ast = _parse_expr(st)
        st.expect_end()
        self.lagrangian = self._statement(ast)({})

    # -- blocks

    def _block_entries(self, opener: tuple) -> list[_Stmt]:
        entries: list[_Stmt] = []
        while True:
            st = self._next()
            if st is None:
                raise ParseError("unterminated block", opener)
            if st.tokens[st.pos] == "}":
                st.pos += 1
                st.expect_end()
                return entries
            entries.append(st)

    def _parse_operator(self, head_st: _Stmt) -> None:
        name = self._fresh_name(head_st, "an operator name", self.operators)
        name_at = head_st.last()
        head_st.expect("role")
        role = head_st.expect_name("gauge, noether, or stage")
        stage: int | None = None
        if role == "stage" or role == ROLE_NOETHER and head_st.accept("stage"):
            stage = head_st.expect_int()
        elif role not in (ROLE_GAUGE, ROLE_NOETHER):
            raise ParseError("role must be gauge, noether, or stage K", head_st.last())
        reading = ROLE_GAUGE if role == "stage" else role  # `role stage K` is a symmetry
        head_st.expect("{")
        head_st.expect_end()

        coeffs: dict[tuple[VariableId, VariableId, MultiIndex], GradedPolynomial] = {}
        for st in self._block_entries(name_at):
            st.expect("(")
            param_key = _parse_key_ref(st)
            st.expect(",")
            target_key = _parse_key_ref(st)
            st.expect(",")
            mi = _parse_mi_literal(st)
            st.expect(")")
            self._expand_entry(coeffs, (param_key, target_key), mi, st, (st, 0))
        try:
            self.operators[name] = LinearJetOperator(self.dim, reading, coeffs, stage=stage)
        except SemanticError as exc:
            raise SemanticError(f"operator {name}: {exc}", name_at) from None

    def _parse_derivation(self, head_st: _Stmt) -> None:
        name = self._fresh_name(head_st, "a derivation name", self.derivations)
        name_at = head_st.last()
        head_st.expect("{")
        head_st.expect_end()

        components: dict[tuple[VariableId], GradedPolynomial] = {}
        for st in self._block_entries(name_at):
            target_key = _parse_key_ref(st)
            self._expand_entry(components, (target_key,), None, st, name_at)
        self.derivations[name] = GeneralizedVectorField(
            {target: poly for (target,), poly in components.items()}
        )

    def _parse_certificate(self, head_st: _Stmt) -> None:
        label = head_st.expect_name("a certificate label")
        name_at = head_st.last()
        if head_st.accept("["):
            label_args = _comma_list(head_st, _Stmt.expect_int)
            head_st.expect("]")
            label += "[" + ",".join(map(str, label_args)) + "]"
        if label in self.certificates:
            raise SemanticError(f"duplicate certificate {label}", name_at)
        self.heads[f"certificate {label}"] = head_st.index
        head_st.expect("{")
        head_st.expect_end()

        m_coeffs: dict[tuple[VariableId, MultiIndex], GradedPolynomial] = {}
        witness: GradedPolynomial | None = None
        for st in self._block_entries(name_at):
            if st.accept("witness"):
                st.expect(":")
                ast = _parse_expr(st)
                st.expect_end()
                poly = self._statement(ast)({})
                witness = poly if witness is None else witness + poly
                continue
            st.expect("(")
            target_key = _parse_key_ref(st)
            st.expect(",")
            mi = _parse_mi_literal(st)
            st.expect(")")
            self._expand_entry(m_coeffs, (target_key,), mi, st, (st, 0))
        m_coeffs = {k: p for k, p in m_coeffs.items() if not p.is_zero()}
        self.certificates[label] = ReductionCertificate(
            m_coeffs or None, witness
        )


def parse_theory(text: str) -> Theory:
    """Parse a theory file; raises ParseError or SemanticError."""
    return _TheoryParser(text).parse()


def parse_expression(text: str, theory: Theory) -> GradedPolynomial:
    """Parse one expression against a theory's declarations."""
    parser = _TheoryParser(text)
    if len(parser.statements) != 1:
        raise ParseError("expected exactly one expression")
    st = parser._next()
    ast = _parse_expr(st)
    st.expect_end()
    return _Statement(ast, theory.dim, theory.variables, theory.constants, {})({})


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
    reading = "noether " if op.role == ROLE_NOETHER else ""
    role = op.role if op.stage is None else f"{reading}stage {op.stage}"
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
    parser = _TheoryParser(text)
    if len(parser.statements) != 1:
        raise ParseError(f"bad component reference {text!r}")
    st = parser._next()
    anti = st.accept("~")
    st.expect_name("a variable name")
    ref = _parse_ref_tail(st, anti)
    st.expect_end()
    if not isinstance(ref, _Ref):
        raise ParseError(f"bad component reference {text!r}")
    env = _Env(theory.dim, theory.variables, theory.constants, {}, {})
    return _resolve_component(env, ref)
