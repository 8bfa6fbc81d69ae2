"""Global limits.

The jet order bound keeps runaway derivative towers from exhausting memory.
It can be raised per-process through the NKT_MAX_JET_ORDER environment
variable; every operation that raises a jet order checks it.  The variable
is read once, when this module is imported, and again only by reload():
`nkt` calls reload() on entry, so each command sees the environment it was
started in, and code that changes the variable in-process calls reload()
for the change to take effect.
"""

from __future__ import annotations

import os

DEFAULT_MAX_JET_ORDER = 8

_ENV_VAR = "NKT_MAX_JET_ORDER"


def _read_max_jet_order() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_JET_ORDER
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_JET_ORDER
    return value if value > 0 else DEFAULT_MAX_JET_ORDER


_max_jet_order = _read_max_jet_order()


def reload() -> None:
    """Read NKT_MAX_JET_ORDER again; later checks use the bound it sets."""
    global _max_jet_order
    _max_jet_order = _read_max_jet_order()


def max_jet_order() -> int:
    """Return the jet order bound (entries per multi-index) last read."""
    return _max_jet_order
