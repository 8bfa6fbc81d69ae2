"""Every dataclass annotation in the package resolves to a real name."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import nkt


def _package_dataclasses() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(nkt.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"nkt.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.append(obj)
    return found


def test_every_dataclass_has_resolvable_type_hints() -> None:
    classes = _package_dataclasses()
    assert any(cls.__name__ == "ReductionCertificate" for cls in classes)
    for cls in classes:
        typing.get_type_hints(cls)
