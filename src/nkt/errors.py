"""Exceptions, source spans and the immutable-record base of the package."""

from __future__ import annotations

import sys


class _RecordType(type):
    """Reads a record's fields, in order, from its annotations (see Record)."""

    def __new__(mcls, name: str, bases: tuple, ns: dict) -> type:
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__match_args__"] = fields
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        cls = super().__new__(mcls, name, bases, ns)
        # each slot's setter reaches past the frozen __setattr__
        cls._setters = tuple([vars(cls)[f].__set__ for f in fields])
        return cls


class Record(metaclass=_RecordType):
    """Base of nkt's immutable records, each a slotted class.

    A record declares its fields once, as annotations in its class body; a
    field's class-body value is its default.  The annotations, in order,
    become ``__match_args__`` and the slots, and a class's own ``__slots__``
    names only its extra slots.  ``__init__`` takes the fields by position
    or by name, fills in the defaults and raises ``TypeError`` for a
    missing, surplus or unknown argument; a record that normalizes its
    arguments defines its own and ends it in ``super().__init__(...)``.
    A record behaves as a frozen dataclass: ``==`` compares class and field
    tuple, ``hash`` is the hash of the field tuple, ``repr`` reads
    ``Name(field=value, ...)`` and assignment raises
    ``dataclasses.FrozenInstanceError``.  ``copy`` and ``pickle`` rebuild it
    through its constructor; ``dataclasses.replace`` does not apply.  An
    interned record (VariableId) compares and hashes by identity instead.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that is not one value per field."""
        names, call = cls.__match_args__, f"{cls.__qualname__}()"
        if len(args) > len(names):
            raise TypeError(f"{call} takes {len(names)} arguments, got {len(args)}")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{call} got an unexpected argument {name!r}")
            if name in given:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        given = {**cls._defaults, **given, **kwargs}
        for name in names:
            if name not in given:
                raise TypeError(f"{call} missing argument {name!r}")
        return [given[name] for name in names]

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
    """An error that may name its source span, at the end of its message.

    span is a SourceSpan or a location, a tuple (cursor, *where) that the
    cursor turns into one with cursor.span_of(*where): a parser keeps
    locations, and a span is computed only for an error made.
    """

    def __init__(self, message: str, span: SourceSpan | tuple | None = None):
        if type(span) is tuple:
            span = span[0].span_of(*span[1:])
        self.span = span
        if span is not None:
            message = f"{message} ({span})"
        super().__init__(message)


class ParseError(_SpannedError):
    """Theory or expression text could not be parsed."""


class SemanticError(_SpannedError):
    """Parsed text is well-formed but violates a declaration or typing rule."""
