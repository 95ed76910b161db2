"""Error taxonomy shared across the library.

DomainError marks inputs outside a formula's domain of validity; the message
always names the violated constraint. InternalCheckError marks a disagreement
between two computation routes that must agree exactly, which indicates a bug
rather than bad input. Every such exact comparison goes through agree, so
each one fails with the same message shape, "label: left != right".
"""

from __future__ import annotations

from typing import TypeVar

T = TypeVar("T")


class DomainError(ValueError):
    """Input outside the mathematical domain of the requested operation."""


class InternalCheckError(RuntimeError):
    """Two independent exact routes produced different values."""


def agree(label: str, left: T, right: T) -> T:
    """left, after checking that it equals right, the value of a second exact
    route; otherwise InternalCheckError names the label and both values."""
    if left != right:
        raise InternalCheckError(f"{label}: {left} != {right}")
    return left
