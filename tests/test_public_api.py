"""The package's public surface: __all__, the demos' imports, and the
examples in README, which are run here exactly as written."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import fanodelta
from fanodelta.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

PUBLIC = {
    # types
    "BranchedConeSpec", "BundleBoundary", "ConeBoundary", "DeltaKnowledge",
    "FanoBase", "HypersurfaceConeSpec",
    # bundle and cone
    "beta_zero", "branched_cone_delta", "bundle_delta", "centroid_phi",
    "cone_bundle_consistency", "cone_delta", "iterated_hypersurface_chain",
    "smooth_threshold_relation",
    # angles
    "optimal_angle_interval", "semistable_range_lambda_ge_1",
    # Calabi profiles
    "edge_angles", "futaki_closed_form", "futaki_invariant",
    "hermite_admissible_profile", "ode_residual", "perturbed_admissible_profile",
    "ricci_bound_margin", "ricci_pointwise_residual", "solve_profile",
    "verify_positive_interior",
    # oracles
    "futaki_quadrature", "midpoint_centroid_bound", "midpoint_centroid_offset",
    "riemann_error_bound", "riemann_s_limit", "run_verification",
    "telescoping_iterated_cone",
    # errors
    "DomainError", "InternalCheckError",
}


def _fenced(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_all_is_exactly_the_public_api():
    assert len(fanodelta.__all__) == len(set(fanodelta.__all__)) == 35
    assert set(fanodelta.__all__) == PUBLIC
    for name in fanodelta.__all__:
        assert getattr(fanodelta, name) is not None


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demos_import_only_public_names(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fanodelta"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(fanodelta.__all__)


def test_readme_library_example_runs_and_its_values_hold():
    (block,) = _fenced("python")
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, expected = line.partition("#")
        if not expected:
            exec(code, namespace)
            continue
        actual = eval(code, namespace)
        assert actual == eval(expected, namespace), line
        checked.append(actual)
    assert checked == [Fraction(6, 7), ("V0",), Fraction(2, 3)]


README_COMMANDS = [
    shlex.split(line)[1:]
    for block in _fenced("sh")
    for line in block.splitlines()
    if line.startswith("fano-delta ")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_exits_cleanly(argv, tmp_path, monkeypatch, capsys):
    # Two of the commands write files, so each runs in its own directory.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_readme_lists_every_subcommand():
    commands = {argv[0] for argv in README_COMMANDS}
    assert commands == {
        "bundle", "cone", "cone-iterate", "branched-cone", "angle", "calabi", "verify",
    }
