"""Global limits.

The jet order bound keeps runaway derivative towers from exhausting memory.
It can be raised per-process through the NKT_MAX_JET_ORDER environment
variable, a positive integer; every operation that raises a jet order checks
it.  The variable is read once, when this module is imported, and again only
by reload(): `nkt` calls reload() on entry, so each command sees the
environment it was started in, and code that changes the variable in-process
calls reload() for the change to take effect.  reload() refuses a value that
is not a positive integer; the read at import falls back to the default
instead, so that importing nkt never fails.
"""

from __future__ import annotations

import os

from .errors import NktError

DEFAULT_MAX_JET_ORDER = 8

_ENV_VAR = "NKT_MAX_JET_ORDER"


def _read_max_jet_order() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_JET_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise NktError(f"{_ENV_VAR} must be a positive integer, not {raw!r}")
    return value


try:
    _max_jet_order = _read_max_jet_order()
except NktError:
    _max_jet_order = DEFAULT_MAX_JET_ORDER


def reload() -> None:
    """Read NKT_MAX_JET_ORDER again; later checks use the bound it sets.

    Raises NktError, naming the variable and its value, when the value is
    not a positive integer; the bound in force is then left as it was.
    """
    global _max_jet_order
    _max_jet_order = _read_max_jet_order()


def max_jet_order() -> int:
    """Return the jet order bound (entries per multi-index) last read."""
    return _max_jet_order
