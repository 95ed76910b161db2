"""Guards on the source of the command-line front end. Each command's result
is a value that the text renderer and the payload function format, so no
renderer parses payload text back into a value or rebuilds a polynomial or
profile from it."""

import ast
from pathlib import Path

import fanodelta.cli

SOURCE = ast.parse(Path(fanodelta.cli.__file__).read_text(encoding="utf-8"))


class _References(ast.NodeVisitor):
    """The enclosing function of every use of a name, as a bare name or as
    an attribute; the import that binds it is not a use."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: list[str] = []
        self.sites: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def _use(self, name: str) -> None:
        if name == self.name:
            self.sites.append(self.functions[-1] if self.functions else "<module>")

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)


def _sites(name):
    visitor = _References(name)
    visitor.visit(SOURCE)
    return visitor.sites


def test_parse_rational_is_used_only_by_the_rational_converter():
    # Text and JSON format the computed values; only flag and payload input
    # text is parsed.
    assert _sites("parse_rational") == ["rational"]


def test_no_polynomial_or_profile_is_rebuilt_from_text():
    imported = {
        alias.asname or alias.name
        for node in ast.walk(SOURCE) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in ("Polynomial", "CalabiProfile"):
        assert name not in imported
        assert _sites(name) == []
