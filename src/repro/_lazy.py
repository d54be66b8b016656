"""Lazy package attributes (PEP 562, as in Scientific Python SPEC 1).

A package lists its public names once: as imports under
``if TYPE_CHECKING:``, where type checkers and linters read them, and in
``__all__``.  At run time those imports never execute; :func:`attach`
serves each name on first access instead, so importing one submodule of
a package (``repro.core.config``, say) does not import its siblings
(``repro.core.cluster`` and numpy).  The import lines are the one record
of where a name lives: :func:`attach` reads them back from the
package's source on the first lazy lookup.
"""

from __future__ import annotations

import ast
import functools
import importlib
import sys


def attach(package: str):
    """``(__getattr__, __dir__)`` serving ``package``'s public names.

    Call it as ``__getattr__, __dir__ = attach(__name__)`` in the
    package's ``__init__``.  A resolved name is stored on the package,
    so later lookups are plain attribute reads.
    """
    def __getattr__(name: str):
        try:
            module, attr = _origins(package)[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        namespace = vars(sys.modules[package])
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


@functools.cache
def _origins(package: str) -> dict[str, tuple[str, str]]:
    """``{name: (module, attribute)}`` from the ``from ... import``
    statements under ``if TYPE_CHECKING:`` in ``package``'s source."""
    spec = sys.modules[package].__spec__
    tree = ast.parse(spec.loader.get_source(package))
    origins = {}
    for node in tree.body:
        if not (isinstance(node, ast.If)
                and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    origins[alias.asname or alias.name] = (stmt.module,
                                                           alias.name)
    return origins
