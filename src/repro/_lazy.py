"""Lazy package facades (PEP 562).

A package ``__init__`` names the submodule behind each public name and
hands the result of :func:`lazy_exports` to the module-level
``__getattr__`` / ``__dir__``; the submodule is imported the first time
one of its names is read.  ``import repro.experiments.cli`` therefore
loads only the modules a warm rerun executes (docs/architecture.md,
"What a process imports").
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module name, relative to ``package`` when it starts
    with a dot, to the public names it defines.  A resolved name is stored
    on the package, so only its first lookup imports anything.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | source.keys())

    return __getattr__, __dir__
