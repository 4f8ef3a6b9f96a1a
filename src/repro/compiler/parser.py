"""TACO-style tensor-expression parser.

Grammar (whitespace-insensitive)::

    assignment := ref "=" expr
    expr       := ref (("*" | "+") ref)?
    ref        := NAME "(" index ("," index)* ")"
    index      := lowercase letter

Examples: ``Z(i) = A(i,j) * B(j)``, ``Z(i,j) = A(i,j) + B(i,j)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ReproError


class ExpressionError(ReproError):
    """The expression is malformed or outside the supported subset."""


@dataclass(frozen=True)
class TensorRef:
    """One tensor access, e.g. ``A(i,j)``."""

    name: str
    indices: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.name}({','.join(self.indices)})"


@dataclass(frozen=True)
class ParsedExpression:
    """A parsed assignment ``output = lhs op rhs`` (or ``output = lhs``).

    ``op`` is ``'*'``, ``'+'`` or ``None`` (a pure copy, which the
    lowering rejects).
    """

    output: TensorRef
    lhs: TensorRef
    op: str | None
    rhs: TensorRef | None

    @property
    def operands(self) -> tuple[TensorRef, ...]:
        return (self.lhs,) if self.rhs is None else (self.lhs, self.rhs)

    def index_classes(self) -> dict[str, str]:
        """Classify each index:

        * ``free``        — appears in the output (copied through)
        * ``contracted``  — only in inputs, joined multiplicatively
          (summed out)
        * ``elementwise`` — in the output and in *both* inputs
        """
        out = set(self.output.indices)
        classes: dict[str, str] = {}
        all_input = [set(ref.indices) for ref in self.operands]
        every_input = set.intersection(*all_input) if all_input else set()
        union_input = set.union(*all_input) if all_input else set()
        for idx in sorted(union_input):
            if idx not in out:
                classes[idx] = "contracted"
            elif len(self.operands) == 2 and idx in every_input:
                classes[idx] = "elementwise"
            else:
                classes[idx] = "free"
        return classes


_REF = re.compile(r"\s*([A-Za-z_]\w*)\s*\(\s*([a-z](?:\s*,\s*[a-z])*)\s*\)")


def _parse_ref(text: str, pos: int) -> tuple[TensorRef, int]:
    m = _REF.match(text, pos)
    if not m:
        raise ExpressionError(
            f"expected a tensor reference at ...{text[pos:pos + 20]!r}"
        )
    indices = tuple(tok.strip() for tok in m.group(2).split(","))
    if len(set(indices)) != len(indices):
        raise ExpressionError(
            f"repeated index within one reference: {m.group(0)!r}"
        )
    return TensorRef(m.group(1), indices), m.end()


def parse_expression(text: str) -> ParsedExpression:
    """Parse one assignment of the supported grammar."""
    output, pos = _parse_ref(text, 0)
    rest = text[pos:].lstrip()
    if not rest.startswith("="):
        raise ExpressionError("expected '=' after the output reference")
    pos = text.index("=", pos) + 1

    lhs, pos = _parse_ref(text, pos)
    rest = text[pos:].strip()
    if not rest:
        expr = ParsedExpression(output, lhs, None, None)
    else:
        op = rest[0]
        if op not in "*+":
            raise ExpressionError(f"unsupported operator {op!r}")
        pos = text.index(op, pos) + 1
        rhs, pos = _parse_ref(text, pos)
        if text[pos:].strip():
            raise ExpressionError(
                "only single binary expressions are supported"
            )
        expr = ParsedExpression(output, lhs, op, rhs)

    _validate(expr)
    return expr


def _validate(expr: ParsedExpression) -> None:
    input_indices = set()
    for ref in expr.operands:
        input_indices |= set(ref.indices)
    missing = set(expr.output.indices) - input_indices
    if missing:
        raise ExpressionError(
            f"output indices {sorted(missing)} appear in no input"
        )
    if expr.op == "+":
        shapes = {ref.indices for ref in expr.operands}
        if len(shapes) != 1 or expr.output.indices not in shapes:
            raise ExpressionError(
                "addition requires identically-indexed operands and "
                "output (element-wise join)"
            )
