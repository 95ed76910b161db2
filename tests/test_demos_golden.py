"""Byte-for-byte golden output of the demos.

The fixture golden_demos.json holds the exact stdout of each demos/*.py,
run in process with runpy. The demos print exact values, polynomials and
profile coefficients, so a refactor that changes a single printed byte
fails here. Regenerate the fixture only for a deliberate output change:

    PYTHONPATH=src python tests/test_demos_golden.py
"""

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().with_name("golden_demos.json")
DEMOS = sorted(FIXTURE.parent.parent.joinpath("demos").glob("*.py"))


def _stdout_of(demo: Path) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(str(demo), run_name="__main__")
    return buffer.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_demo(golden):
    assert set(golden) == {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_stdout_is_byte_identical(golden, demo):
    assert _stdout_of(demo) == golden[demo.name]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({demo.name: _stdout_of(demo) for demo in DEMOS}, indent=2) + "\n",
        encoding="utf-8",
    )
