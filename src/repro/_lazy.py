"""Lazy package namespaces (PEP 562).

Every package ``__init__`` under :mod:`repro` declares its public names once,
in an export map ``{submodule: (name, ...)}``, and hands it to
:func:`lazy_exports`.  Importing a package then costs nothing beyond the
package itself: a name's submodule is imported on first attribute access, so
solving the CTMC never pays for the simulator, the service tier or their
third-party dependencies.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from its export map.

    ``exports`` maps a submodule name relative to ``package`` to the public
    names it provides.  ``__getattr__`` imports the owning submodule on first
    access and caches the value in the package namespace.
    """
    origin = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return __getattr__, __dir__, sorted(origin)
