"""The value model has one owner: exactarith.Immutable alone decides how a
value of the package is compared and hashed, Immutable.__init__ sets every
field, and every slot of a value type is one of its fields, none a cache.
The payloads have one owner too: cli.py alone writes JSON, and a value type
holds values only."""

import ast
from pathlib import Path

import fanodelta

PACKAGE = Path(fanodelta.__file__).resolve().parent


def package_classes():
    """(module file name, class node) for every class under the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                yield path.name, node


def class_attributes(node):
    """(name, node) for each name a class body defines or assigns."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name, item
        elif isinstance(item, ast.Assign):
            yield from ((target.id, item) for target in item.targets
                        if isinstance(target, ast.Name))


def test_only_immutable_defines_equality_and_hashing():
    defined = [
        (module, cls.name, name)
        for module, cls in package_classes()
        for name, _ in class_attributes(cls)
        if name in ("__eq__", "__hash__")
    ]
    assert defined == [
        ("exactarith.py", "Immutable", "__eq__"),
        ("exactarith.py", "Immutable", "__hash__"),
    ]


def test_every_slot_is_a_field():
    slots = {
        (module, cls.name): ast.literal_eval(item.value)
        for module, cls in package_classes()
        for name, item in class_attributes(cls)
        if name == "__slots__"
    }
    assert ("exactarith.py", "Polynomial") in slots
    caches = [(key, slot) for key, names in slots.items() for slot in names
              if slot.startswith("_")]
    assert caches == []


def test_only_exactarith_reaches_object_setattr():
    reached = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert [name for name in reached if name != "exactarith.py"] == []


def is_super_init(node):
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__" and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Name) and node.func.value.func.id == "super"
    )


def test_every_value_init_calls_super_init_once():
    calls = {
        (module, cls.name): sum(is_super_init(node) for node in ast.walk(item))
        for module, cls in package_classes()
        if any(isinstance(base, ast.Name) and base.id == "Immutable" for base in cls.bases)
        for name, item in class_attributes(cls)
        if name == "__init__"
    }
    assert ("exactarith.py", "Polynomial") in calls
    assert {key: count for key, count in calls.items() if count != 1} == {}


def test_no_value_type_writes_json():
    defined = [
        (module, cls.name)
        for module, cls in package_classes()
        for name, _ in class_attributes(cls)
        if name == "to_json_dict"
    ]
    assert defined == []


def test_only_cli_defines_a_payload_writer():
    writers = [
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and ("json" in node.name or "payload" in node.name)
    ]
    assert writers and {module for module, _ in writers} == {"cli.py"}, writers
