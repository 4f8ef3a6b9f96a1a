"""Both cache tags are digests of the code that decides what they key.

``CODE_SALT`` digests every source file of the package, so any edit
misses the result cache.  ``WALK_SCHEMA`` digests only the modules that
turn a stream into a profile (``WALK_MODULES``), so a timing-model edit
keeps the walk tier warm and a walk edit empties it.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.memsys import WALK_MODULES
from repro.source import PACKAGE, module_path

#: ``repro`` modules the walk modules import that decide no profile
NOT_WALK = {"repro.obs", "repro.memo", "repro.errors", "repro.source"}

MODEL_EDIT = ("sim/machine.py", "MERGE_CPI = 2.0", "MERGE_CPI = 2.5")
WALK_EDIT = ("sim/stackdist.py", "_MAX_STEPS = 8", "_MAX_STEPS = 9")


def repro_imports(module: str) -> set[str]:
    """The ``repro`` modules ``module`` imports, anywhere in its body."""
    package = module.split(".")
    if module_path(module).name != "__init__.py":
        package = package[:-1]
    found = set()
    for node in ast.walk(ast.parse(module_path(module).read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("repro.")}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + (node.module or "").split(".")).strip(".")
            if target.split(".")[0] != "repro":
                continue
            for alias in node.names:
                sub = f"{target}.{alias.name}"
                found.add(sub if module_path(sub).exists() else target)
    return found


def test_walk_modules_cover_the_walks_imports():
    for module in WALK_MODULES:
        assert module_path(module).is_file(), module
        for imported in repro_imports(module):
            assert imported in WALK_MODULES or imported in NOT_WALK, (
                f"{module} imports {imported}: list it in WALK_MODULES "
                "or, if it decides no profile, in NOT_WALK"
            )


def test_import_resolution():
    assert repro_imports("repro.sim.memsys") >= {
        "repro.obs",
        "repro.sim.stackdist",
        "repro.sim.cache",
        "repro.config",
    }


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the package that a test may edit."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(PACKAGE, tmp_path / "repro", ignore=ignore)
    return tmp_path


def edit(root: Path, relpath: str, old: str, new: str) -> None:
    path = root / "repro" / relpath
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args],
        cwd=root,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )


def tags(root: Path) -> list[str]:
    out = run(
        root,
        "-c",
        "from repro.runtime import CODE_SALT; "
        "from repro.sim.memsys import WALK_SCHEMA; "
        "print(CODE_SALT, WALK_SCHEMA)",
    )
    return out.stdout.split()


def test_tags_follow_the_source(package_copy):
    salt, walk = tags(package_copy)
    assert walk.startswith("repro.walk/")
    edit(package_copy, *MODEL_EDIT)
    model_salt, model_walk = tags(package_copy)
    assert model_salt != salt
    assert model_walk == walk
    edit(package_copy, *WALK_EDIT)
    walk_salt, walk_walk = tags(package_copy)
    assert walk_salt not in (salt, model_salt)
    assert walk_walk != walk


def test_a_code_edit_misses_the_cache(package_copy):
    """After a model edit, a second run over a filled cache simulates
    every cell and reads every walk from the walk tier; after a walk
    edit it misses both."""
    cache = package_copy / "cache"

    def session(name: str) -> tuple[list[dict], dict]:
        run(
            package_copy,
            *("-m", "repro", "fig10", "--workloads", "spmv"),
            *("--cache-dir", str(cache), "--manifest", f"{name}.json"),
            *("--telemetry", f"{name}-snap.json"),
        )
        manifest = json.loads((package_copy / f"{name}.json").read_text())
        snap = json.loads((package_copy / f"{name}-snap.json").read_text())
        return [e["cached"] for e in manifest["entries"]], snap["counters"]

    cached, _ = session("fill")
    assert cached and not any(cached)
    cached, _ = session("again")
    assert all(cached)

    edit(package_copy, *MODEL_EDIT)
    cached, counters = session("model")
    assert not any(cached)
    assert counters["sim.memsys.walk_cache.disk_hits"] > 0
    assert "sim.memsys.walk_cache.misses" not in counters

    edit(package_copy, *WALK_EDIT)
    cached, counters = session("walk")
    assert not any(cached)
    assert "sim.memsys.walk_cache.disk_hits" not in counters
    assert counters["sim.memsys.walk_cache.misses"] > 0
