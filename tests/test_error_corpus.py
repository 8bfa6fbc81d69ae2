"""A pinned corpus of malformed theory files: each input's outcome, pinned.

The corpus is seeded mutations of the bundled theories, the files that CI
runs, and hand-written malformed inputs: bad characters after comments and
inside multi-line ( ... ), unbalanced brackets, a lone '.', Unicode digits,
an empty file.  For each input, tests/error_digests.json holds the digest of
its parse outcome: the error's class, message, line, column, start and end,
or the digest of the canonical text of the theory that parses.  Refusals
that validate_theory makes of a whole theory were recorded when they named
no span; they must now name one, with the message otherwise unchanged.

Re-record only when the corpus itself changes:

    PYTHONPATH=src python tests/test_error_corpus.py --record
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import traceback
import weakref
from functools import cache
from pathlib import Path

import pytest

from nkt import theory_dsl
from nkt.errors import NktError
from nkt.theory_dsl import parse_theory, render_theory

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "error_digests.json"
MUTATIONS_PER_THEORY = 40

# characters a mutation inserts or substitutes: the grammar's punctuation,
# comment and line marks, and characters the tokenizer must refuse, digits
# other than ASCII among them ('\u0663' is the Arabic-Indic digit three)
POOL = (
    "()[]{},;:=~*+-^/#\n\t\r .0129xy_"
    "@$!?'\"\\\u0663\u00b2\u00e9\ufeff\u00a0"
)

CI_FILES = {
    "hostile_sum": "theory hostile_sum\ndim 1\nfield y parity even\nlagrangian"
    " sum(i,1..500, sum(j,1..500, sum(k,1..500, i*j*k*y)))\n",
    "hostile_power": "theory hostile_power\ndim 2\nfield y parity even\nlagrangian"
    " (y + d(y;x0) + d(y;x1) + d(y;x0,x1) + x0 + x1)^40\n",
    # the byte 0xff as Python reads undecodable bytes
    "not_utf8": b"theory not_utf8\ndim 1\nfield y parity even\nlagrangian y\377\n".decode(
        "utf-8", "surrogateescape"
    ),
    "long_literal": "theory long_literal\ndim 1\nfield y parity even\nlagrangian "
    + "7" * 5000 + "*y^2\n",
    "flat": "theory flat\ndim 1\nfield y parity even\nlagrangian "
    + "+".join(["y"] * 2000) + "\n",
    "comment_in_parens": "theory t\ndim 1\nfield y parity even\nlagrangian (y +"
    "  # a comment\n  y @ y)\n",
    "stray_close": "theory t\ndim 1\nfield y parity even\nlagrangian y ) + $y\n",
}

HEAD = "theory t\ndim 2\nfield y parity even\nfield a[i=1..2] parity even\n"
HAND = {
    "empty": "",
    "blank": "  \n\t\n",
    "only_comment": "# nothing here\n",
    "bom": "\ufefftheory t\ndim 1\n",
    "bad_after_comment": "theory t # name\n@dim 1\n",
    "bad_in_comment": "theory t # @$\u00e9\ndim 1\n",
    "bad_in_parens": HEAD + "lagrangian (y\n  + y\n  * ?)\n",
    "bad_in_brackets": HEAD + "lagrangian a[1,\n  $]\n",
    "bad_after_comment_in_parens": HEAD + "lagrangian (y + # note\n # more\n ! y)\n",
    "unclosed_paren": HEAD + "lagrangian (y + y\n",
    "unclosed_paren_then_decl": HEAD + "lagrangian (y + y\noperator o role gauge {\n}\n",
    "stray_close_paren": HEAD + "lagrangian y)\n",
    "stray_close_bracket": HEAD + "lagrangian y]]\n",
    "extra_open_bracket": HEAD + "lagrangian a[[1]\n",
    "mismatched": HEAD + "lagrangian (a[1)]\n",
    "stray_brace": HEAD + "lagrangian y }\n",
    "unclosed_block": HEAD + "derivation s {\n  y : y\n",
    "unclosed_table": HEAD + "constant k[0..1] = {\n  (0): 1\n",
    "lone_dot": HEAD + "lagrangian y . y\n",
    "dot_in_range": "theory t\ndim 1\nfield a[i=0.2] parity even\n",
    "three_dots": "theory t\ndim 1\nfield a[i=0...2] parity even\n",
    "trailing_dot": HEAD + "lagrangian y.\n",
    "unicode_dim": "theory t\ndim \u0663\nfield y parity even\nlagrangian y\n",
    "unicode_coefficient": HEAD + "lagrangian \u0662*y\n",
    "unicode_range": "theory t\ndim 1\nfield a[i=0..\u0663] parity even\nlagrangian a[\u0663]\n",
    "unicode_direction": HEAD + "lagrangian d(y;x\u0661)\n",
    "superscript": HEAD + "lagrangian y\u00b2\n",
    "tab_and_cr": HEAD + "lagrangian\ty\r+ @\n",
    "end_of_line": "theory\n",
    "dim_missing_value": "theory t\ndim\n",
    "expression_cut": HEAD + "lagrangian y +\n",
    "d_cut": HEAD + "lagrangian d(y;\n",
    "sum_cut": HEAD + "lagrangian sum(i, 1..2\n",
    "zero_denominator": HEAD + "lagrangian 1/0 * y\n",
    "unknown_name": HEAD + "lagrangian y + w\n",
    "index_out_of_range": HEAD + "lagrangian a[3]\n",
    "direction_out_of_range": HEAD + "lagrangian d(y;x2)\n",
    "budget": HEAD + "lagrangian (y + a[1] + a[2] + d(y;x0) + d(y;x1) + x0 + x1)^40\n",
    "trailing_token": "theory t u\n",
    # refused by validate_theory once the whole theory is read
    "lagrangian_reads_a_ghost": HEAD + "ghost c parity even\nlagrangian y*c\n",
    "lagrangian_is_odd": HEAD + "field p parity odd\n  lagrangian p\n",
    "stage_without_plain_ghosts": HEAD + "ghost e parity even stage 0\n",
    "gauge_target_is_a_ghost": HEAD + "ghost c parity odd\n"
    "operator o role gauge {\n  (c, c, []) : 1\n}\n",
    "derivation_reads_an_antifield": HEAD + "derivation s {\n  y : ~y\n}\n",
    "certificate_label_undeclared": HEAD + "certificate q {\n  witness : y\n}\n",
}


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        step = rng.randrange(6)
        if step == 0:  # insert
            text = text[:at] + rng.choice(POOL) + text[at:]
        elif step == 1:  # delete
            text = text[:at] + text[at + 1:]
        elif step == 2:  # substitute
            text = text[:at] + rng.choice(POOL) + text[at + 1:]
        elif step == 3:  # swap two neighbours
            text = text[:at] + text[at + 1:at + 2] + text[at:at + 1] + text[at + 2:]
        else:  # repeat or drop a line
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [lines[k]] * (2 if step == 4 else 0)
            text = "\n".join(lines)
    return text


def corpus() -> dict[str, str]:
    inputs = dict(CI_FILES)
    inputs.update(HAND)
    for path in sorted((ROOT / "theories").glob("*.nkt")):
        text = path.read_text()
        for k in range(MUTATIONS_PER_THEORY):
            rng = random.Random(f"{path.stem}:{k}")
            inputs[f"{path.stem}:{k}"] = _mutate(text, rng)
    return inputs


def _outcome(text: str) -> tuple[tuple, bool]:
    """(the outcome to digest, whether validate_theory refused the theory)."""
    try:
        theory = parse_theory(text)
    except NktError as exc:
        span = getattr(exc, "span", None)
        where = (None,) * 4 if span is None else (
            span.line, span.column, span.start, span.end
        )
        frames = traceback.extract_tb(exc.__traceback__)
        whole = any(frame.name == "validate_theory" for frame in frames)
        return (type(exc).__name__, str(exc), *where), whole
    return ("ok", render_theory(theory)), False


def _without_span(outcome: tuple) -> tuple:
    """An error outcome as it reads without a span."""
    name, message, line, column, _, _ = outcome
    if line is not None:
        message = message[: -len(f" (line {line}, column {column})")]
    return (name, message, None, None, None, None)


def _digest(outcome: tuple) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:24]


@cache
def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


CORPUS = corpus()


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_parse_outcome_is_pinned(key: str) -> None:
    pinned = _pinned()
    outcome, whole = _outcome(CORPUS[key])
    if key not in pinned["whole_theory"]:
        assert not whole
        assert _digest(outcome) == pinned["digests"][key], outcome
        return
    # recorded without a span: now the span of the refused declaration,
    # named at the end of the message
    _, message, line, column, start, end = outcome
    assert whole and line is not None, outcome
    assert message.endswith(f" (line {line}, column {column})")
    assert 0 <= start < end <= len(CORPUS[key])
    assert _digest(_without_span(outcome)) == pinned["digests"][key], outcome


def test_the_corpus_is_the_pinned_one() -> None:
    assert sorted(CORPUS) == sorted(_pinned()["digests"])


def test_no_parser_outlives_its_parse(monkeypatch) -> None:
    # with the cyclic collector off, reference counting alone frees each
    # parser once parse_theory returns or raises (a bad character is refused
    # before one is made): nothing it holds, such as the locations of its
    # declarations' heads, refers back to it
    parsers = []

    class Tracked(theory_dsl._TheoryParser):
        def __init__(self, text: str) -> None:
            super().__init__(text)
            parsers.append(weakref.ref(self))

    monkeypatch.setattr(theory_dsl, "_TheoryParser", Tracked)
    bundled = [path.read_text() for path in sorted((ROOT / "theories").glob("*.nkt"))]
    gc.collect()
    gc.disable()
    try:
        for key, text in [*CORPUS.items(), *enumerate(bundled)]:
            try:
                parse_theory(text)
            except NktError:
                pass
            assert [ref for ref in parsers if ref() is not None] == [], key
    finally:
        gc.enable()


def _record() -> None:
    digests, whole_theory = {}, []
    for key in sorted(CORPUS):
        outcome, whole = _outcome(CORPUS[key])
        digests[key] = _digest(_without_span(outcome) if whole else outcome)
        if whole:
            whole_theory.append(key)
    DIGESTS.write_text(
        json.dumps({"digests": digests, "whole_theory": whole_theory}, indent=1) + "\n"
    )


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
