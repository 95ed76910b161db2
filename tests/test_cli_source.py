"""Guards on the command-line front end. Each input text is read once, by
its converter, and each command's result is a value that the text renderer
and the payload function format, so no renderer parses payload text back
into a value or rebuilds a polynomial or profile from it."""

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import fanodelta.cli
from fanodelta.bundle import DeltaBreakdown
from fanodelta.cone import ChainStep
from fanodelta.oracles import OracleReport

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


def test_one_reader_reads_every_json_input():
    # Outside the command table and argparse a converter sees a JSON value
    # only through _Flag.read, which only _read_inputs calls (run_check's
    # other read is of the payload file); it reads a --check payload's
    # inputs and each --grid row.
    for converter in ("integer", "rational", "delta"):
        assert set(_sites(converter)) <= {"<module>", "delta"}, converter
    assert sorted(_sites("convert")) == ["<module>", "build_parser", "read"]
    assert sorted(_sites("read")) == ["_read_inputs", "run_check"]
    assert sorted(_sites("_read_inputs")) == ["_load_grid_file", "run_check"]
    # The bundle and cone results and the grid rows build their
    # (FanoBase, boundary) pair with one function.
    assert sorted(_sites("_branch_case")) == ["<module>", "<module>", "_handle_verify"]
    for name in ("FanoBase", "BundleBoundary", "ConeBoundary"):
        assert set(_sites(name)) <= {"_branch_case", "_handle_verify"}, name


def test_no_polynomial_or_profile_is_rebuilt_from_text():
    imported = {
        alias.asname or alias.name
        for node in ast.walk(SOURCE) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in ("Polynomial", "CalabiProfile"):
        assert name not in imported
        assert _sites(name) == []


def test_every_command_names_its_payload_writer():
    # No default: each entry names the writer beside its text renderer, and
    # every writer is a function of this module.
    assert "payload" not in fanodelta.cli._Command._field_defaults
    for command in fanodelta.cli.COMMANDS.values():
        assert command.payload.__module__ == fanodelta.cli.__name__


def test_only_diagnose_writes_to_stderr():
    # Every diagnostic line is cut at MAX_DIAGNOSTIC by the one writer.
    assert _sites("stderr") == ["_diagnose"]


def _fields_read(function, value):
    """The attributes that function reads from its parameter named value."""
    [node] = [
        node for node in ast.walk(SOURCE)
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return {
        attribute.attr for attribute in ast.walk(node)
        if isinstance(attribute, ast.Attribute)
        and isinstance(attribute.value, ast.Name) and attribute.value.id == value
    }


def test_payload_writers_name_the_fields_they_read():
    # A breakdown row takes each DeltaBreakdown field by its own name, a
    # step's row writes every ChainStep field, and a report's row every
    # OracleReport field but agrees, which status covers.
    assert tuple(inspect.signature(fanodelta.cli._breakdown_row).parameters) == (
        DeltaBreakdown.__slots__
    )
    assert _fields_read("_step_text", "step") == set(ChainStep._fields)
    assert _fields_read("_report_text", "report") == set(OracleReport.__slots__) - {"agrees"}
