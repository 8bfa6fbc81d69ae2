"""Exception types shared across the package."""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token or construct in a theory file."""

    line: int
    column: int
    start: int
    end: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class NktError(Exception):
    """Base class for all errors raised by this package."""


def too_many_digits(what: str) -> str:
    """The refusal of an integer that int() and str() will not convert."""
    limit = sys.get_int_max_str_digits()
    return f"{what} exceeds the limit of {limit} digits for int/str conversion"


class JetOrderError(NktError):
    """A jet order exceeded the configured bound."""


class ParseError(NktError):
    """Theory or expression text could not be parsed."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{message} ({span})"
        super().__init__(message)


class SemanticError(NktError):
    """Parsed text is well-formed but violates a declaration or typing rule."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{message} ({span})"
        super().__init__(message)
