"""Digests of the package's own source: the code half of the cache keys.

A cached value is keyed by what decides it, and the code that computes
it is part of that: :data:`repro.runtime.CODE_SALT` digests every
module of the package, so any source edit misses the result cache, and
:data:`repro.sim.memsys.WALK_SCHEMA` digests only the modules that turn
a stream into a profile, so a timing-model edit keeps the walk tier.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

#: the ``repro`` package directory
PACKAGE = Path(__file__).resolve().parent


def module_path(module: str) -> Path:
    """The source file of ``repro.a.b``: ``a/b.py`` or
    ``a/b/__init__.py`` under :data:`PACKAGE`."""
    path = PACKAGE.joinpath(*module.split(".")[1:])
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def source_digest(modules: tuple[str, ...] | None = None) -> str:
    """sha256 over the package-relative path and the bytes of each
    named module's source, or of every ``.py`` file of the package
    when no module is named."""
    paths = PACKAGE.rglob("*.py") if modules is None else map(module_path, modules)
    h = hashlib.sha256()
    for rel, path in sorted((p.relative_to(PACKAGE).as_posix(), p) for p in paths):
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()
