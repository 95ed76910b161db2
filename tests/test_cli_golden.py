"""Byte-for-byte golden output of every computing subcommand and of the
verification reports.

The fixture golden_cli.json holds the exact stdout of each argv below, in
text and --json form, plus the bytes of the file that calabi --csv writes.
golden_verify.json and golden_verify_deep.json are the report files that
verify --json and verify --deep --json write. They pin the rendered output,
not just substrings of it, so a refactor of the CLI or of an oracle kernel
that changes a single byte fails here. Regenerate them only for a
deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from fanodelta.cli import EXIT_OK, main

FIXTURE = Path(__file__).resolve().with_name("golden_cli.json")
CSV_NAME = "profile.csv"

CASES = {
    "bundle": ["bundle", "--n", "1", "--r", "2", "--delta-v", "1"],
    "bundle-ge1": [
        "bundle", "--n", "2", "--r", "3", "--delta-v", "ge1", "--a", "1/2", "--b", "1/4",
    ],
    "bundle-small-slope": [
        "bundle", "--n", "2", "--r", "1/2", "--delta-v", "3/2", "--a", "2/3",
    ],
    "bundle-base-minimizer": ["bundle", "--n", "1", "--r", "2", "--delta-v", "1/2"],
    "cone": ["cone", "--n", "2", "--r", "1", "--delta-v", "ge1", "--c", "1/4"],
    "cone-upper-bound": ["cone", "--n", "1", "--r", "5", "--delta-v", "1"],
    "cone-iterate": ["cone-iterate", "--n", "2", "--d", "3", "--i", "3"],
    "cone-iterate-delta0": [
        "cone-iterate", "--n", "3", "--d", "2", "--i", "2", "--delta0", "1/2",
    ],
    "branched-cone": ["branched-cone", "--n", "2", "--k", "2", "--d", "3", "--l", "1"],
    "branched-cone-pair": [
        "branched-cone", "--n", "3", "--k", "2", "--d", "3", "--l", "1", "--delta-pair", "1/2",
    ],
    "angle-small-lambda": ["angle", "--n", "2", "--lambda", "2/3"],
    "angle-large-lambda": ["angle", "--n", "3", "--lambda", "2"],
    "calabi": ["calabi", "--n", "1", "--r", "2"],
    "calabi-beta": ["calabi", "--n", "2", "--r", "3", "--beta", "3/4", "--mu", "1/2"],
}
CSV_CASE = ["calabi", "--n", "1", "--r", "2", "--csv", CSV_NAME, "--samples", "5"]
VERIFY_CASES = {
    "golden_verify.json": ["verify", "--json"],
    "golden_verify_deep.json": ["verify", "--deep", "--json"],
}


def _all_cases():
    for name, argv in CASES.items():
        yield name, argv
        yield f"{name} --json", argv + ["--json"]
    yield "calabi --csv", CSV_CASE


def _run(argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == EXIT_OK, argv
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert set(golden["stdout"]) == {name for name, _ in _all_cases()}


@pytest.mark.parametrize("name,argv", list(_all_cases()), ids=[n for n, _ in _all_cases()])
def test_stdout_is_byte_identical(golden, name, argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(argv, capsys) == golden["stdout"][name]
    if argv is CSV_CASE:
        assert (tmp_path / CSV_NAME).read_bytes().decode("utf-8") == golden["csv"]


@pytest.mark.parametrize("name", list(VERIFY_CASES))
def test_verify_report_is_byte_identical(name, capsys, tmp_path):
    report = tmp_path / name
    _run(VERIFY_CASES[name] + [str(report)], capsys)
    assert report.read_bytes() == FIXTURE.with_name(name).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    stdout = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, argv in _all_cases():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main(list(argv)) == EXIT_OK, argv
            stdout[name] = buffer.getvalue()
        csv = Path(CSV_NAME).read_bytes().decode("utf-8")
        for name, argv in VERIFY_CASES.items():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv + [str(FIXTURE.with_name(name))]) == EXIT_OK, argv
    FIXTURE.write_text(
        json.dumps({"stdout": stdout, "csv": csv}, indent=2) + "\n", encoding="utf-8"
    )
