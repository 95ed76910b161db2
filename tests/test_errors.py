"""The cross-check primitive agree, and where InternalCheckError is raised."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import fanodelta
from fanodelta import InternalCheckError
from fanodelta.errors import agree

PACKAGE = Path(fanodelta.__file__).resolve().parent


class TestAgree:
    def test_returns_left_when_the_routes_agree(self):
        left = Fraction(2, 3)
        assert agree("label", left, Fraction(4, 6)) is left
        pair = (Fraction(1), Fraction(1, 2))
        assert agree("pair", pair, (1, Fraction(1, 2))) is pair

    def test_message_names_the_label_and_both_values(self):
        with pytest.raises(InternalCheckError) as caught:
            agree("iterated cone: composition vs closed form", Fraction(5, 9), Fraction(1, 2))
        assert str(caught.value) == "iterated cone: composition vs closed form: 5/9 != 1/2"


class _RaiseSites(ast.NodeVisitor):
    """(module, enclosing function) of every `raise InternalCheckError`."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.functions: list[str] = []
        self.sites: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "InternalCheckError":
            where = self.functions[-1] if self.functions else "<module>"
            self.sites.append((self.module, where))
        self.generic_visit(node)


def test_internal_check_error_is_raised_only_by_agree():
    # Every exact two-route comparison goes through agree, so each one fails
    # with the same message shape.
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _RaiseSites(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites.extend(visitor.sites)
    assert sites == [("errors", "agree")]
