"""Scoped cache-model selection for tests that hold the fast walk to
the golden-reference one."""

from contextlib import contextmanager

from repro.sim.memsys import configure_reference


@contextmanager
def cache_model(name: str):
    """Run the enclosed walks on the ``"fast"`` stack-distance model or
    the ``"reference"`` ``Cache``; the fast model is restored after."""
    configure_reference(name == "reference")
    try:
        yield
    finally:
        configure_reference(False)
