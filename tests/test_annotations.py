"""Every annotated class in the package resolves its hints, and none is a dataclass."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import nkt

SRC = Path(__file__).resolve().parent.parent / "src"


def _package_modules() -> list:
    return [
        importlib.import_module(f"nkt.{info.name}")
        for info in pkgutil.iter_modules(nkt.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]


def _package_classes() -> list[type]:
    return [
        obj
        for module in _package_modules()
        for _, obj in inspect.getmembers(module, inspect.isclass)
        if obj.__module__ == module.__name__
    ]


def test_every_annotated_class_has_resolvable_type_hints() -> None:
    classes = [cls for cls in _package_classes() if "__annotations__" in vars(cls)]
    assert any(cls.__name__ == "ReductionCertificate" for cls in classes)
    for cls in classes:
        typing.get_type_hints(cls)


def test_no_class_is_a_dataclass_and_no_module_binds_dataclasses() -> None:
    for module in _package_modules():
        assert not {"dataclass", "dataclasses"} & set(vars(module)), module.__name__
    assert not [cls for cls in _package_classes() if dataclasses.is_dataclass(cls)]


def test_importing_the_command_line_loads_neither_dataclasses_nor_randgen() -> None:
    # -S keeps site hooks, which may import anything, out of the picture
    code = (
        "import sys, nkt.cli; unwanted = {'dataclasses', 'inspect', 'random', 'nkt.randgen'}; "
        "print(sorted(unwanted & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
