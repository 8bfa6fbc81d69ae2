"""Exceptions, source spans and the immutable-record base of the package."""

from __future__ import annotations

import sys

_setattr = object.__setattr__


class Record:
    """Base of nkt's immutable records, each a slotted class.

    A record annotates its fields in its class body, names them in order in
    ``__match_args__``, and takes them in that order in ``__init__``, which
    sets them past the frozen ``__setattr__`` (``_set_fields``).  It behaves
    as a frozen dataclass: ``==`` compares class and field tuple, ``hash`` is
    the hash of the field tuple, ``repr`` reads ``Name(field=value, ...)``,
    and assignment raises ``dataclasses.FrozenInstanceError``.  Not being a
    dataclass, it is changed by building a new one, not by
    ``dataclasses.replace``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return (self.__class__, self._values())

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SourceSpan(Record):
    """Location of a token or construct in a theory file."""

    line: int
    column: int
    start: int
    end: int

    __slots__ = __match_args__ = ("line", "column", "start", "end")

    def __init__(self, line: int, column: int, start: int, end: int) -> None:
        _setattr(self, "line", line)
        _setattr(self, "column", column)
        _setattr(self, "start", start)
        _setattr(self, "end", end)

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


class _SpannedError(NktError):
    """An error that may name its source span, at the end of its message."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{message} ({span})"
        super().__init__(message)


class ParseError(_SpannedError):
    """Theory or expression text could not be parsed."""


class SemanticError(_SpannedError):
    """Parsed text is well-formed but violates a declaration or typing rule."""
