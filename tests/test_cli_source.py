"""Guards on the command-line front end. Each input text is read once, by
its converter, and each command's result is a value that the text renderer
and the payload function format, so no renderer parses payload text back
into a value or rebuilds a polynomial or profile from it."""

import ast
from fractions import Fraction
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


def test_each_input_text_is_read_once(monkeypatch, capsys):
    # The converters turn each flag's text into a value once; the library
    # takes the values, and text and JSON format the computed ones.
    read = []
    make = Fraction.__new__

    def spy(cls, *args, **kwargs):
        read.extend(arg for arg in args if isinstance(arg, str))
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    argv = ["bundle", "--n", "1", "--r", "2", "--delta-v", "1/2", "--a", "1/3", "--json"]
    assert fanodelta.cli.main(argv) == 0
    assert sorted(read) == ["0", "1/2", "1/3", "2"]
    assert capsys.readouterr().err == ""


def test_no_polynomial_or_profile_is_rebuilt_from_text():
    imported = {
        alias.asname or alias.name
        for node in ast.walk(SOURCE) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in ("Polynomial", "CalabiProfile"):
        assert name not in imported
        assert _sites(name) == []
