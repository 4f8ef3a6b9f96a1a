"""The docs name only code that exists.

Every backticked repo path (``tests/``, ``benchmarks/``, ``src/``,
``examples/``; the part before ``::``) in README.md, DESIGN.md and
EXPERIMENTS.md must exist, and every backticked ``repro.…`` name must
import or resolve as an attribute.  A line that says "deleted in PR n"
names history and is exempt.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_CODE = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"(?:tests|benchmarks|src|examples)/\S*")
#: a dotted name, with ``{a,b}`` alternatives and a trailing ``.*``
_NAME = re.compile(r"repro(?:\.(?:\w+|\{\w+(?:,\w+)*\}))*(?:\.\*)?")
_HISTORY = re.compile(r"deleted in PR \d+")


def mentions(doc: str):
    """``(line, kind, text)`` for every path and name ``doc`` cites."""
    lines = (REPO / doc).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if _HISTORY.search(line):
            continue
        for code in _CODE.findall(line):
            if path := _PATH.match(code):
                yield number, "path", path.group().split("::")[0]
            elif _NAME.fullmatch(code):
                yield number, "name", code


def expand(name: str) -> list[str]:
    """``repro.a.{b,c}.*`` -> ``["repro.a.b", "repro.a.c"]``."""
    name = name.removesuffix(".*")
    match = re.search(r"\{([^}]*)\}", name)
    if match is None:
        return [name]
    head, tail = name[: match.start()], name[match.end() :]
    return [
        full for alt in match.group(1).split(",") for full in expand(head + alt + tail)
    ]


def resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_cite_paths_and_names():
    kinds = {kind for doc in DOCS for _, kind, _ in mentions(doc)}
    assert kinds == {"path", "name"}


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    missing = [
        f"{doc}:{line}: {path}"
        for line, kind, path in mentions(doc)
        if kind == "path" and not any(REPO.glob(path.rstrip("/")))
    ]
    assert not missing


@pytest.mark.parametrize("doc", DOCS)
def test_cited_names_resolve(doc):
    missing = [
        f"{doc}:{line}: {name}"
        for line, kind, cited in mentions(doc)
        if kind == "name"
        for name in expand(cited)
        if not resolves(name)
    ]
    assert not missing


def test_expand_and_resolve():
    assert expand("repro.obs.{live,report}") == ["repro.obs.live", "repro.obs.report"]
    assert expand("repro.kernels.*") == ["repro.kernels"]
    assert resolves("repro.sim.memsys.WALK_SCHEMA")
    assert not resolves("repro.sim.prefetcher.NoSuchPrefetcher")
