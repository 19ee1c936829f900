"""PEP 562 lazy exports for package ``__init__`` modules.

Every process pays for what ``import repro`` pulls in before its first
sweep, and a sampling run touches little of the package, so the lazy
packages name their public objects without importing the modules that
define them: ``__getattr__, __dir__, __all__ = attach(__name__, {name:
module})``.  Lazy at package ``__init__`` level only -- a module keeps
its own top-level imports, so importing a name pays for its defining
module at import time and no cost moves into a timed region.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping

__all__ = ["attach"]


def attach(package: str, exports: Mapping[str, str]):
    """The ``(__getattr__, __dir__, __all__)`` of a lazily exporting package.

    First access to a name imports its module and caches the object on
    the package; an unknown name raises :class:`AttributeError`, which
    lets ``from package import submodule`` fall through to the importer.
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__, list(exports)
