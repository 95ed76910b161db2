"""Command-line interface: subcommands, JSON payloads, exit codes, the
--check round trip, and reuse of the one parser across calls."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanodelta import (
    ConeBoundary, DeltaKnowledge, FanoBase, beta_zero, cone_delta, solve_profile,
)
from fanodelta.calabi import CalabiProfile
from fanodelta.cli import (
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    FLOAT_RANGE_MARKER,
    MAX_CSV_STEPS,
    MAX_DIAGNOSTIC,
    MAX_DIMENSION,
    MAX_ITERATIONS,
    _breakdown_json,
    _knowledge,
    build_parser,
    delta,
    integer,
    main,
)
from fanodelta.oracles import default_branch_grid


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def digit_limit(limit):
    """Lower the interpreter's int-to-str digit limit for the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestBundleCommand:
    def test_human_output(self, capsys):
        code, out, err = run_cli(
            ["bundle", "--n", "1", "--r", "2", "--delta-v", "1"], capsys
        )
        assert code == EXIT_OK
        assert "6/7" in out
        assert "V0" in out
        assert "K-unstable" in out

    def test_json_payload(self, capsys):
        code, out, err = run_cli(
            ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema"] == "1"
        assert payload["command"] == "bundle"
        assert payload["inputs"] == {
            "n": 1,
            "r": "2",
            "delta_v": "1",
            "a": "0",
            "b": "0",
        }
        assert payload["result"]["value"] == "6/7"
        assert payload["result"]["minimizers"] == ["V0"]

    def test_boundary_flags(self, capsys):
        code, out, err = run_cli(
            [
                "bundle",
                "--n",
                "2",
                "--r",
                "3",
                "--delta-v",
                "1",
                "--a",
                "1/2",
                "--b",
                "1/4",
                "--json",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["result"]["value"] == "152/215"

    def test_lower_bound_knowledge(self, capsys):
        code, out, err = run_cli(
            ["bundle", "--n", "1", "--r", "2", "--delta-v", "ge1", "--json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["value"] == "6/7"
        assert payload["result"]["branches"]["base"] is None


class TestConeCommands:
    def test_cone_value(self, capsys):
        code, out, err = run_cli(
            ["cone", "--n", "1", "--r", "1", "--delta-v", "1", "--c", "0", "--json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["value"] == "3/4"
        assert payload["result"]["proof_coverage"] == "full"

    def test_cone_iterate(self, capsys):
        code, out, err = run_cli(
            ["cone-iterate", "--n", "2", "--d", "3", "--i", "2", "--json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["value"] == "5/9"
        assert payload["result"]["telescoped_value"] == "5/9"
        assert len(payload["result"]["steps"]) == 2

    @settings(max_examples=80, deadline=None)
    @given(
        nd=st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n + 1))),
        i=st.integers(1, 60),
        delta0=st.sampled_from(["ge1", "1", "0", "3/4", "2"]),
    )
    @example(nd=(3, 2), i=2200, delta0="ge1")
    def test_cone_iterate_bytes_equal_the_fraction_reference(self, nd, i, delta0):
        # delta0 = 1 ties the base and V0 branches at the first step.
        n, d = nd
        argv = ["cone-iterate", "--n", str(n), "--d", str(d), "--i", str(i), "--delta0", delta0]
        text, payload = _reference_cone_iterate(n, d, i, delta0)
        assert _stdout_of(argv) == text
        assert _stdout_of(argv + ["--json"]) == payload

    def test_too_many_iterations_are_refused_before_any_step(self, capsys, monkeypatch):
        def no_step(spec):
            raise AssertionError("a chain step ran")

        monkeypatch.setattr("fanodelta.cli.iterated_hypersurface_chain", no_step)
        argv = ["cone-iterate", "--n", "2", "--d", "3", "--i", str(MAX_ITERATIONS + 1)]
        assert run_cli(argv, capsys) == (
            EXIT_DOMAIN, "",
            f"domain error: i must be <= {MAX_ITERATIONS}, got {MAX_ITERATIONS + 1}\n",
        )

    def test_the_iteration_limit_itself_is_accepted(self, capsys):
        code, out, err = run_cli(
            ["cone-iterate", "--n", "2", "--d", "3", "--i", str(MAX_ITERATIONS)], capsys
        )
        assert (code, err) == (EXIT_OK, "")
        assert out.count("  after step ") == MAX_ITERATIONS

    def test_branched_cone(self, capsys):
        code, out, err = run_cli(
            ["branched-cone", "--n", "2", "--k", "2", "--d", "3", "--l", "1", "--json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["value"] == "1"

    def test_branched_cone_human_verdict(self, capsys):
        code, out, err = run_cli(
            ["branched-cone", "--n", "2", "--k", "2", "--d", "3", "--l", "1"], capsys
        )
        assert code == EXIT_OK
        assert "K-semistable" in out


class TestAngleCommand:
    def test_small_lambda(self, capsys):
        code, out, err = run_cli(
            ["angle", "--n", "2", "--lambda", "2/3", "--json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["endpoint"] == "3/4"
        assert payload["result"]["semistable_closed"] is True

    def test_large_lambda(self, capsys):
        code, out, err = run_cli(
            ["angle", "--n", "3", "--lambda", "2", "--json"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["result"]["endpoint"] == "1/2"
        assert payload["result"]["semistable_closed"] is False


class TestCalabiCommand:
    def test_defaults_to_threshold_twist(self, capsys):
        code, out, err = run_cli(["calabi", "--n", "1", "--r", "2", "--json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["inputs"]["beta"] == "6/7"
        assert payload["result"]["c1"] == "13/14"
        assert payload["result"]["c2"] == "-9/14"
        assert payload["result"]["beta1"] == "1"
        assert payload["result"]["beta2"] == "5/7"
        assert payload["result"]["ricci_margin"] == "1/14"
        assert payload["result"]["ode_residual_zero"] is True
        assert payload["result"]["futaki_invariant"] == "4/3"

    def test_csv_emission(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, out, err = run_cli(
            [
                "calabi",
                "--n",
                "1",
                "--r",
                "2",
                "--csv",
                str(target),
                "--samples",
                "5",
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "tau,phi,tau_decimal,phi_decimal"
        assert len(lines) == 6
        assert lines[1].startswith("1,0,")
        assert lines[-1].startswith("3,0,")

    @pytest.mark.parametrize(
        "n,r", [(2, Fraction(3, 2)), (3, Fraction(5, 2)), (5, Fraction(13, 7))]
    )
    def test_csv_bytes_equal_the_fraction_loop(self, n, r, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, out, err = run_cli(
            ["calabi", "--n", str(n), "--r", str(r), "--csv", str(target),
             "--samples", "1001"],
            capsys,
        )
        assert code == EXIT_OK
        assert target.read_bytes() == _reference_calabi_csv(n, r, 1001).encode("utf-8")

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        r=st.integers(1, 60).flatmap(
            lambda q: st.integers(q + 1, 5 * q).map(lambda p: Fraction(p, q))
        ),
        beta=st.sampled_from([None, Fraction(1, 2), Fraction(1), Fraction(7, 3)]),
        samples=st.integers(2, 400),
    )
    def test_csv_bytes_equal_the_fraction_loop_for_any_input(
        self, n, r, beta, samples, tmp_path_factory
    ):
        target = tmp_path_factory.mktemp("csv") / "profile.csv"
        argv = ["calabi", "--n", str(n), "--r", str(r), "--csv", str(target),
                "--samples", str(samples)]
        if beta is not None:
            argv += ["--beta", str(beta)]
        assert main(argv) == EXIT_OK
        assert target.read_bytes() == _reference_calabi_csv(n, r, samples, beta).encode("utf-8")

    def test_a_sample_that_disagrees_with_phi_is_an_internal_error(
        self, capsys, tmp_path, monkeypatch
    ):
        phi = CalabiProfile.phi
        monkeypatch.setattr(CalabiProfile, "phi", lambda self, tau: phi(self, tau) + 1)
        target = tmp_path / "profile.csv"
        code, out, err = run_cli(
            ["calabi", "--n", "2", "--r", "3", "--csv", str(target), "--samples", "9"], capsys
        )
        assert code == EXIT_INTERNAL
        assert err.startswith(
            "internal check failed: phi sample by integer progression vs phi: "
        )
        assert len(err.splitlines()) == 1
        assert out == ""
        assert not target.exists()

    def test_a_row_over_the_digit_limit_is_a_domain_error(self, capsys, tmp_path):
        # At n = 200, r = 7/3 the payload's longest integer has 262 digits and
        # the CSV's has 685, so only the rows exceed the lowest allowed limit.
        target = tmp_path / "profile.csv"
        with digit_limit(640):
            code, out, err = run_cli(
                ["calabi", "--n", "200", "--r", "7/3", "--csv", str(target), "--samples", "101"],
                capsys,
            )
        assert code == EXIT_DOMAIN
        assert err == (
            "domain error: exact value has more than 640 digits, "
            "the interpreter's int-to-str conversion limit\n"
        )
        assert out == ""
        assert not target.exists()

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_a_value_over_the_digit_limit_leaves_no_csv(self, form, capsys, tmp_path):
        # At n = 600 every row of a 2-sample CSV is short (phi is 0 at both
        # edges), while c2 has more than 640 digits: the output is formatted,
        # and refused, before the file is written.
        target = tmp_path / "profile.csv"
        with digit_limit(640):
            code, out, err = run_cli(
                ["calabi", "--n", "600", "--r", "7/3", "--csv", str(target), "--samples", "2",
                 *form],
                capsys,
            )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("domain error: exact value has more than 640 digits")
        assert not target.exists()

    def test_unwritable_csv_path_is_a_parse_error(self, capsys, tmp_path):
        # A missing directory or an empty path fails to open; /dev/full
        # opens but fails to write.
        targets = [tmp_path / "nodir" / "profile.csv", ""]
        if os.path.exists("/dev/full"):
            targets.append("/dev/full")
        for target in targets:
            code, out, err = run_cli(
                ["calabi", "--n", "1", "--r", "2", "--csv", str(target)], capsys
            )
            assert code == EXIT_PARSE, target
            assert len(err.splitlines()) == 1
            assert out == ""

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_too_few_samples_is_a_domain_error_with_or_without_csv(
        self, samples, capsys, tmp_path
    ):
        target = tmp_path / "profile.csv"
        argv = ["calabi", "--n", "1", "--r", "2", "--samples", samples]
        for extra in ([], ["--csv", str(target)]):
            code, out, err = run_cli(argv + extra, capsys)
            assert code == EXIT_DOMAIN
            assert err == f"domain error: samples must be >= 2, got {samples}\n"
            assert out == ""
        assert not target.exists()

    def test_too_many_samples_is_a_domain_error_with_or_without_csv(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        argv = ["calabi", "--n", "1", "--r", "2", "--samples", "100001"]
        for extra in ([], ["--csv", str(target)]):
            code, out, err = run_cli(argv + extra, capsys)
            assert code == EXIT_DOMAIN
            assert err == "domain error: samples must be <= 100000, got 100001\n"
            assert out == ""
        assert not target.exists()

    @pytest.mark.parametrize("n, samples", [("500", "1401"), ("6", "100000")])
    def test_csv_over_the_step_limit_is_a_domain_error(self, n, samples, capsys, tmp_path):
        # The bound is checked before any sample is computed and before the
        # file is opened, so an unwritable path is refused by it too.
        assert MAX_CSV_STEPS == 700_000
        argv = ["calabi", "--n", n, "--r", "3", "--samples", samples]
        steps = int(samples) * (int(n) + 2)
        for target in (tmp_path / "profile.csv", tmp_path / "nodir" / "profile.csv"):
            code, out, err = run_cli(argv + ["--csv", str(target)], capsys)
            assert (code, out) == (EXIT_DOMAIN, "")
            assert err == f"domain error: --csv samples * (n + 2) must be <= 700000, got {steps}\n"
            assert not target.exists()
        # Without --csv no sample is taken, and nothing is refused.
        assert run_cli(argv, capsys)[0] == EXIT_OK

    def test_csv_at_the_step_limit_is_written(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, _, err = run_cli(
            ["calabi", "--n", "68", "--r", "3", "--csv", str(target), "--samples", "10000"],
            capsys,
        )
        assert 10000 * (68 + 2) == MAX_CSV_STEPS
        assert (code, err) == (EXIT_OK, "")
        assert len(target.read_text(encoding="utf-8").splitlines()) == 1 + 10000

    @pytest.mark.parametrize(
        "extra, calls", [([], 2), (["--beta", "1/2", "--json"], 1)], ids=["default", "beta"]
    )
    def test_beta_zero_is_computed_once_per_profile(self, extra, calls, capsys, monkeypatch):
        # The default twist and the profile each compute beta0; the edge
        # angles, the Ricci margin and the result read the profile's, and
        # the Futaki closed form reads the centroid.
        counted = []
        for module in ("bundle", "calabi", "cli"):
            monkeypatch.setattr(
                f"fanodelta.{module}.beta_zero",
                lambda *args: counted.append(args) or beta_zero(*args),
            )
        assert run_cli(["calabi", "--n", "2", "--r", "3", *extra], capsys)[0] == EXIT_OK
        assert len(counted) == calls


class TestExitCodes:
    def test_malformed_rational_is_a_parse_error(self, capsys):
        code, out, err = run_cli(
            ["bundle", "--n", "1", "--r", "x", "--delta-v", "1"], capsys
        )
        assert code == EXIT_PARSE
        assert "error" in err

    def test_exponent_notation_is_a_parse_error(self, capsys):
        # Fraction would expand "1e10000000" into ten million digits.
        code, out, err = run_cli(
            ["bundle", "--n", "1", "--r", "1e3", "--delta-v", "1"], capsys
        )
        assert code == EXIT_PARSE
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "1/2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["bundle", "--r", "2", "--delta-v", "1", "--n"],
            ["cone-iterate", "--n", "2", "--d", "3", "--i"],
            ["calabi", "--n", "2", "--r", "3", "--samples"],
        ],
        ids=["n", "i", "samples"],
    )
    def test_integer_text_beyond_ascii_digits_is_a_parse_error(self, argv, text, capsys):
        # int reads "1_0" as 10 and any Unicode digit; the grammar is an
        # optional sign and ASCII digits, as in a rational.
        code, out, err = run_cli(argv + [text], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: argument {argv[-1]}: invalid integer value: {text!r}\n"

    def test_integer_text_may_carry_a_sign_and_surrounding_whitespace(self):
        assert [integer(text) for text in (" 7\n", "+7", "-7")] == [7, 7, -7]

    def test_missing_required_flag_is_a_parse_error(self, capsys):
        code, out, err = run_cli(["bundle", "--n", "1"], capsys)
        assert code == EXIT_PARSE

    def test_no_subcommand_is_a_parse_error(self, capsys):
        code, out, err = run_cli([], capsys)
        assert code == EXIT_PARSE

    def test_out_of_domain_slope_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            ["bundle", "--n", "1", "--r", "-2", "--delta-v", "1"], capsys
        )
        assert code == EXIT_DOMAIN
        assert "domain error" in err
        assert err.count("\n") == 1

    def test_out_of_range_boundary_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--b", "1"], capsys
        )
        assert code == EXIT_DOMAIN

    def test_bad_side_conditions_are_domain_errors(self, capsys):
        code, out, err = run_cli(
            ["branched-cone", "--n", "2", "--k", "4", "--d", "3", "--l", "2"], capsys
        )
        assert code == EXIT_DOMAIN
        assert "gcd" in err

    def test_branched_order_below_two_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            ["branched-cone", "--n", "2", "--k", "1", "--d", "3", "--l", "1"], capsys
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == "domain error: k must satisfy k >= 2, got 1\n"

    def test_branched_spec_above_the_degree_window_is_a_domain_error(self, capsys):
        # A valid spec (r = 1) with d = 5 > n+2 and no --delta-pair.
        code, out, err = run_cli(
            ["branched-cone", "--n", "2", "--k", "2", "--d", "5", "--l", "1"], capsys
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == (
            "domain error: delta_pair is required outside n+1 <= d <= n+2: "
            "no automatic semistability guarantee for d=5, n=2\n"
        )

    # Inputs within the digit limit whose derived d*l - 1 is beyond it: in
    # the first a side condition fails and names d*l - 1; in the second
    # every side condition holds and the result records d*l - 1.
    NINES = "9" * 4000
    ORDER = 10**4299 + 7
    BRANCHED_PAST_THE_DIGIT_LIMIT = {
        "failing": ["branched-cone", "--n", "1", "--k", "3", "--d", NINES, "--l", NINES],
        "holding": ["branched-cone", "--n", "2000", "--k", str(ORDER), "--d", "2001",
                    "--l", str(pow(2001, -1, ORDER)), "--delta-pair", "1"],
    }

    @staticmethod
    def _digit_limit_refusal(code, out, err):
        assert (code, out) == (EXIT_DOMAIN, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("domain error: exact value has more than")

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("case", sorted(BRANCHED_PAST_THE_DIGIT_LIMIT))
    def test_a_derived_branched_value_over_the_digit_limit_is_a_domain_error(
        self, case, form, capsys
    ):
        argv = self.BRANCHED_PAST_THE_DIGIT_LIMIT[case] + form
        self._digit_limit_refusal(*run_cli(argv, capsys))

    def test_a_branched_payload_over_the_digit_limit_is_a_domain_error(self, capsys, tmp_path):
        inputs = {"n": 2000, "k": self.ORDER, "d": 2001, "l": pow(2001, -1, self.ORDER),
                  "delta_pair": "1"}
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(
            {"schema": "1", "command": "branched-cone", "inputs": inputs, "result": {}}
        ))
        self._digit_limit_refusal(*run_cli(["--check", str(path)], capsys))

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["bundle", "--n", "x", "--r", "1", "--delta-v", "1"],
             "argument --n: invalid integer value: 'x'"),
            (["bundle", "--n", "1", "--r", "x", "--delta-v", "1"],
             "argument --r: invalid rational value: 'x'"),
            (["bundle", "--n", "1", "--r", "1", "--delta-v", "x"],
             "argument --delta-v: invalid delta value: 'x'"),
            (["calabi", "--n", "1", "--r", "2", "--samples", "x"],
             "argument --samples: invalid integer value: 'x'"),
        ],
        ids=["integer", "rational", "delta", "samples"],
    )
    def test_a_malformed_flag_names_its_converter(self, argv, line, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_PARSE
        assert out == ""
        assert err == f"error: {line}\n"

    @pytest.mark.parametrize("text", ["1_0", "2 / 3", "\u0663"])
    def test_a_rational_outside_the_ascii_grammar_is_a_parse_error(self, text, capsys):
        # Fraction reads "1_0" and "2 / 3" on some Python versions only, and
        # any Unicode digit; the same text exits 2 on every version.
        code, out, err = run_cli(["bundle", "--n", "1", "--r", text, "--delta-v", "1"], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: argument --r: invalid rational value: {text!r}\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["calabi", "--n", "2", "--r", "3", "--beta", "-1/2"],
             "beta must satisfy beta > 0, got -1/2"),
            (["cone", "--n", "2", "--r", "-3/2", "--delta-v", "1"],
             "r must satisfy r > 0, got -3/2"),
            (["bundle", "--n", "1", "--r", "2", "--delta-v", "-1/2"],
             "delta(V) must be >= 0, got -1/2"),
        ],
        ids=["beta", "r", "delta-v"],
    )
    def test_a_negative_fraction_is_read_as_the_flag_value(self, argv, line, capsys):
        # A separate "-1/2" token is the value, not an unknown option.
        assert run_cli(argv, capsys) == (EXIT_DOMAIN, "", f"domain error: {line}\n")

    def test_degenerate_angle_is_a_domain_error(self, capsys):
        code, out, err = run_cli(["angle", "--n", "2", "--lambda", "1/5"], capsys)
        assert code == EXIT_DOMAIN

    # The value's numerator has about 3700 digits, below the default limit.
    HUGE = ["bundle", "--n", "2000", "--r", "7/3", "--delta-v", "1", "--a", "1/7"]

    def test_value_over_the_digit_limit_is_a_domain_error(self, capsys):
        with digit_limit(640):
            code, out, err = run_cli(self.HUGE, capsys)
        assert code == EXIT_DOMAIN
        assert len(err.splitlines()) == 1
        assert "digits" in err
        assert out == ""

    def test_json_value_over_the_digit_limit_is_a_domain_error(self, capsys):
        with digit_limit(640):
            code, out, err = run_cli(self.HUGE + ["--json"], capsys)
        assert code == EXIT_DOMAIN
        assert len(err.splitlines()) == 1
        assert "digits" in err
        assert out == ""

    ITERATE = ["cone-iterate", "--n", "2", "--d", "3", "--i", "3"]

    @pytest.mark.parametrize(
        "module, name, label",
        [
            ("fanodelta.cli", "telescoping_iterated_cone", "composition vs telescoping"),
            ("fanodelta.cone", "iterated_hypersurface_closed_form", "composition vs closed form"),
        ],
    )
    def test_disagreeing_routes_are_an_internal_error(
        self, module, name, label, capsys, monkeypatch
    ):
        # One route off by one: agree stops the command with exit 4 and a
        # single stderr line that names both values.
        true_route = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(f"{module}.{name}", lambda spec: true_route(spec) + 1)
        code, out, err = run_cli(self.ITERATE, capsys)
        assert code == EXIT_INTERNAL
        assert out == ""
        (line,) = err.splitlines()
        assert line == f"internal check failed: iterated cone: {label}: 1/2 != 3/2"

    def test_disagreeing_futaki_routes_are_an_internal_error(self, capsys, monkeypatch):
        # calabi computes the Futaki invariant as an exact integral and in
        # closed form; a closed form off by one stops it with exit 4.
        true_route = importlib.import_module("fanodelta.cli").futaki_closed_form
        monkeypatch.setattr(
            "fanodelta.cli.futaki_closed_form", lambda n, r: true_route(n, r) + 1
        )
        code, out, err = run_cli(["calabi", "--n", "1", "--r", "2"], capsys)
        assert code == EXIT_INTERNAL
        assert out == ""
        (line,) = err.splitlines()
        assert line == (
            "internal check failed: futaki invariant: integral vs closed form: 4/3 != 7/3"
        )


DIMENSION_ARGVS = {
    "bundle": ["--r", "2", "--delta-v", "1"],
    "cone": ["--r", "2", "--delta-v", "1"],
    "cone-iterate": ["--d", "3", "--i", "2"],
    "branched-cone": ["--k", "2", "--d", "3", "--l", "1"],
    "angle": ["--lambda", "1/2"],
    "calabi": ["--r", "2"],
}
ENORMOUS = 10**20


class TestDimensionLimit:
    def _refused_quickly(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == f"domain error: n must be <= {MAX_DIMENSION}, got {ENORMOUS}\n"

    @pytest.mark.parametrize("command", sorted(DIMENSION_ARGVS))
    def test_an_enormous_flag_is_refused_before_computing(self, command, capsys):
        # calabi's default beta is beta0(n, r), computed after the check.
        self._refused_quickly([command, "--n", str(ENORMOUS), *DIMENSION_ARGVS[command]], capsys)

    def test_an_enormous_check_payload_is_refused_before_computing(self, capsys, tmp_path):
        code, out, err = run_cli(["calabi", "--n", "1", "--r", "2", "--json"], capsys)
        payload = json.loads(out)
        payload["inputs"]["n"] = ENORMOUS
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        self._refused_quickly(["--check", str(path)], capsys)

    def test_an_iteration_count_over_the_limit_in_a_check_payload_is_refused(
        self, capsys, tmp_path
    ):
        argv = ["cone-iterate", "--n", "2", "--d", "3", "--i"]
        code, out, err = run_cli([*argv, "2", "--json"], capsys)
        payload = json.loads(out)
        payload["inputs"]["i"] = MAX_ITERATIONS + 1
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        line = f"domain error: i must be <= {MAX_ITERATIONS}, got {MAX_ITERATIONS + 1}\n"
        assert run_cli([*argv, str(MAX_ITERATIONS + 1)], capsys) == (EXIT_DOMAIN, "", line)
        start = time.perf_counter()
        assert run_cli(["--check", str(path)], capsys) == (EXIT_DOMAIN, "", line)
        assert time.perf_counter() - start < 1

    def test_an_enormous_grid_row_is_refused_before_computing(self, capsys, tmp_path):
        grid, report = tmp_path / "grid.json", tmp_path / "report.json"
        grid.write_text(json.dumps({"cone": [[ENORMOUS, "2", "0", "1"]]}))
        self._refused_quickly(["verify", "--grid", str(grid), "--json", str(report)], capsys)
        assert not report.exists()

    @pytest.mark.parametrize("command", ["bundle", "cone", "angle"])
    def test_the_limit_itself_is_accepted(self, command, capsys):
        argv = [command, "--n", str(MAX_DIMENSION), *DIMENSION_ARGVS[command]]
        assert run_cli(argv, capsys)[0] == EXIT_OK


class TestDeltaText:
    """The delta converter's value for a delta text, and the DeltaKnowledge
    every command builds from that value without reading the text again."""

    def test_delta_text_matches_the_constructors(self):
        assert delta(" GE1 ") == "ge1"
        assert _knowledge(delta(" GE1 ")) == DeltaKnowledge.at_least_one()
        assert delta("13/14") == Fraction(13, 14)
        assert _knowledge(delta("13/14")) == DeltaKnowledge.exact(Fraction(13, 14))
        assert _knowledge(delta("1")).value == 1

    def test_delta_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a rational: 'at least one'"):
            delta("at least one")


class TestCheckRoundTrip:
    COMMANDS = [
        ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--json"],
        ["bundle", "--n", "2", "--r", "3", "--delta-v", "ge1", "--a", "1/2", "--json"],
        ["cone", "--n", "2", "--r", "1", "--delta-v", "ge1", "--json"],
        ["cone-iterate", "--n", "2", "--d", "3", "--i", "3", "--json"],
        ["branched-cone", "--n", "2", "--k", "2", "--d", "3", "--l", "1", "--json"],
        ["angle", "--n", "2", "--lambda", "2/3", "--json"],
        ["calabi", "--n", "1", "--r", "2", "--json"],
    ]

    def test_every_payload_reproduces_byte_for_byte(self, capsys, tmp_path):
        for argv in self.COMMANDS:
            code, out, err = run_cli(argv, capsys)
            assert code == EXIT_OK, argv
            target = tmp_path / "payload.json"
            target.write_text(out)
            code, out2, err2 = run_cli(["--check", str(target)], capsys)
            assert code == EXIT_OK, (argv, err2)
            assert "check ok" in out2
            assert err2 == ""

    def test_tampered_payload_is_detected(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["cone", "--n", "1", "--r", "1", "--delta-v", "1", "--json"], capsys
        )
        target = tmp_path / "payload.json"
        target.write_text(out.replace("3/4", "4/5"))
        code, out, err = run_cli(["--check", str(target)], capsys)
        assert code == EXIT_INTERNAL
        assert "mismatch" in err

    def test_check_with_a_subcommand_is_a_parse_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["cone", "--n", "1", "--r", "1", "--delta-v", "1", "--json"], capsys
        )
        target = tmp_path / "payload.json"
        target.write_text(out)
        code, out, err = run_cli(
            ["--check", str(target), "cone", "--n", "1", "--r", "1", "--delta-v", "1"],
            capsys,
        )
        assert code == EXIT_PARSE
        assert len(err.splitlines()) == 1
        assert "--check" in err and "cone" in err
        assert out == ""

    def test_unreadable_check_file_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for target in (str(tmp_path / "missing.json"), str(bad), ""):
            code, out, err = run_cli(["--check", target], capsys)
            assert code == EXIT_PARSE, target
            assert err.startswith("error: cannot read check file")
            assert len(err.splitlines()) == 1
            assert out == ""

    def _tampered(self, capsys, tmp_path, edit):
        """--check of a bundle payload changed by edit, or of edit itself when
        it is raw text (json.dumps cannot write a repeated key)."""
        if not isinstance(edit, str):
            code, out, err = run_cli(
                ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--json"], capsys
            )
            edit = json.dumps(edit(json.loads(out)), indent=2) + "\n"
        target = tmp_path / "payload.json"
        target.write_text(edit)
        return run_cli(["--check", str(target)], capsys)

    def test_out_of_domain_embedded_inputs_are_a_domain_error(self, capsys, tmp_path):
        def negative_slope(payload):
            payload["inputs"]["r"] = "-2"
            return payload

        code, out, err = self._tampered(capsys, tmp_path, negative_slope)
        assert code == EXIT_DOMAIN
        assert len(err.splitlines()) == 1
        assert "r > 0" in err

    def test_missing_input_key_is_a_parse_error(self, capsys, tmp_path):
        def drop_a(payload):
            del payload["inputs"]["a"]
            return payload

        code, out, err = self._tampered(capsys, tmp_path, drop_a)
        assert code == EXIT_PARSE
        assert len(err.splitlines()) == 1
        assert "'a'" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: [payload],
            lambda payload: "bundle",
            lambda payload: {"command": "bundle"},
            lambda payload: dict(payload, inputs=[1]),
            lambda payload: dict(payload, inputs=dict(payload["inputs"], n="one")),
            lambda payload: dict(payload, command=["bundle"]),
            lambda payload: dict(payload, inputs=dict(payload["inputs"], r="abc")),
            lambda payload: dict(payload, inputs=dict(payload["inputs"], delta_v="zz")),
            lambda payload: dict(payload, schema="2"),
            lambda payload: {key: payload[key] for key in ("command", "inputs", "result")},
            lambda payload: dict(payload, inputs=dict(payload["inputs"], extra=5)),
            lambda payload: dict(payload, note="x"),
            lambda payload: {key: payload[key] for key in ("schema", "command", "inputs")},
            lambda payload: dict(payload, result=None),
            # json.loads alone would keep the last "r" and recompute r = 3.
            '{"schema": "1", "command": "bundle", "inputs": {"n": 1, "r": "2", "r": "3", '
            '"delta_v": "1", "a": "0", "b": "0"}, "result": {}}',
            # Forms the converters accept but the program never writes.
            lambda payload: dict(payload, inputs=dict(payload["inputs"], n="2")),
            lambda payload: dict(payload, inputs=dict(payload["inputs"], r=" 3")),
            lambda payload: dict(payload, inputs=dict(payload["inputs"], delta_v="GE1")),
            lambda payload: dict(payload, inputs=dict(payload["inputs"], delta_v=" 1")),
        ],
        ids=[
            "array",
            "string",
            "no-inputs",
            "inputs-array",
            "bad-integer",
            "bad-command",
            "bad-rational",
            "bad-delta",
            "schema-2",
            "no-schema",
            "extra-input",
            "extra-top-level",
            "no-result",
            "result-null",
            "repeated-key",
            "integer-as-text",
            "padded-rational",
            "upper-case-ge1",
            "padded-delta",
        ],
    )
    def test_malformed_payload_is_a_parse_error(self, capsys, tmp_path, edit, request):
        code, out, err = self._tampered(capsys, tmp_path, edit)
        assert code == EXIT_PARSE
        assert out == ""
        assert len(err.splitlines()) == 1
        target = tmp_path / "payload.json"
        line = {
            "inputs-array": f"check file {target}: inputs must be a JSON object",
            "schema-2": f"check file {target}: schema must be '1', got '2'",
            "no-schema": f"check file {target}: schema must be '1', got None",
            "extra-input": f"check file {target}: unknown key 'extra'",
            "extra-top-level": f"check file {target}: unknown key 'note'",
            "no-result": f"check file {target}: result must be a JSON object",
            "result-null": f"check file {target}: result must be a JSON object",
            "repeated-key": f"cannot read check file {target}: repeated key 'r'",
            "integer-as-text": f"check file {target}: input 'n' is not in canonical form: '2'",
            "padded-rational": f"check file {target}: input 'r' is not in canonical form: ' 3'",
            "upper-case-ge1":
                f"check file {target}: input 'delta_v' is not in canonical form: 'GE1'",
            "padded-delta": f"check file {target}: input 'delta_v' is not in canonical form: ' 1'",
        }.get(request.node.callspec.id)
        if line is not None:
            assert err == f"error: {line}\n"


class TestVerifyCommand:
    def test_default_run(self, capsys):
        code, out, err = run_cli(["verify"], capsys)
        assert code == EXIT_OK
        assert "passed" in out

    def test_a_failing_oracle_is_an_internal_error(self, capsys, monkeypatch):
        # The Riemann family looks its kernel up by name on each call, so a
        # kernel off by one fails exactly the four Riemann reports.
        true_kernel = importlib.import_module("fanodelta.oracles").riemann_s_limit
        monkeypatch.setattr(
            "fanodelta.oracles.riemann_s_limit", lambda *args: true_kernel(*args) + 1
        )
        code, out, err = run_cli(["verify"], capsys)
        assert code == EXIT_INTERNAL
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("FAIL riemann_s_limit(") for line in lines[:4])
        assert lines[0] == (
            "FAIL riemann_s_limit(n=1, A=1, B=3): closed form 7/6, got 13001/6000 "
            "(bound 19/4002)"
        )
        assert lines[4] == "471 of 475 oracle checks passed (default mode)"
        assert lines[5].startswith("note: iterated-cone finding:")

    def test_json_report(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run_cli(["verify", "--json", str(target)], capsys)
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        assert payload["command"] == "verify"
        assert payload["result"]["passed"] is True

    def test_custom_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "bundle": [[1, "2", "0", "0", "1"]],
                    "cone": [[2, "1", "0", "ge1"]],
                }
            )
        )
        code, out, err = run_cli(["verify", "--grid", str(grid)], capsys)
        assert code == EXIT_OK
        assert err == ""

    def test_missing_grid_file_is_a_parse_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["verify", "--grid", str(tmp_path / "missing.json")], capsys
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "grid",
        [
            [[1, "2", "0", "0", "1"]],
            {"bundle": [5]},
            {"bundle": [[1, "2", "0"]]},
            {"bundle": [[[1], "2", "0", "0", "1"]]},
            {"cone": None},
            {"bundle": [[1.5, "2", "0", "0", "1"]]},
            {"bundle": ["12001"], "cone": ["2101"]},
            {},
            {"bundel": [[1, "2", "0", "0", "1"]]},
            {"bundle": []},
            {"bundle": [[1]]},
            {"bundle": 5},
            {"cone": [[1, "2", "0", "abc"]]},
            {"bundle": [[1, 2, "0", "0", "1"]]},
            {"bundle": [[1, "2", "0", "0", 1]]},
            {"bundle": [["1_0", "2", "0", "0", "1"]]},
            {"bundle": [["2", "2", "0", "0", "1"]]},
            {"bundle": [[1, "4/2", "0", "0", "1"]]},
            # Raw text: json.dumps cannot write a repeated key, and json.load
            # alone would keep only the last copy and drop two rows.
            '{"bundle": [[1, "2", "0", "0", "1"], [2, "2", "0", "0", "1"]], '
            '"bundle": [[1, "2", "0", "0", "2"]]}',
        ],
        ids=[
            "array",
            "scalar-row",
            "short-row",
            "list-dimension",
            "null-rows",
            "float-dimension",
            "string-row",
            "empty-object",
            "unknown-kind",
            "no-rows",
            "one-entry-row",
            "scalar-rows",
            "malformed-delta",
            "number-rational",
            "number-delta",
            "underscored-dimension",
            "text-dimension",
            "non-canonical-rational",
            "repeated-key",
        ],
    )
    def test_malformed_grid_file_is_a_parse_error(self, capsys, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(grid if isinstance(grid, str) else json.dumps(grid))
        code, out, err = run_cli(["verify", "--grid", str(path)], capsys)
        assert code == EXIT_PARSE
        assert len(err.splitlines()) == 1
        assert "not enough values" not in err and "not iterable" not in err

    @pytest.mark.parametrize(
        "grid",
        [
            {"bundle": [[1, "1", "2", "0", "1"]]},
            {"bundle": [[1, "2", "0", "2", "1"]]},
            {"cone": [[1, "-1", "0", "1"]]},
            {"bundle": [[1, "2", "0", "0", "-1"]]},
            {"cone": [[1, "2", "0", "-1"]]},
        ],
        ids=[
            "bundle-a-too-large",
            "bundle-b-too-large",
            "cone-negative-slope",
            "bundle-negative-delta",
            "cone-negative-delta",
        ],
    )
    def test_out_of_domain_grid_row_is_a_domain_error(self, capsys, tmp_path, grid):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        report = tmp_path / "report.json"
        code, out, err = run_cli(
            ["verify", "--grid", str(path), "--json", str(report)], capsys
        )
        assert code == EXIT_DOMAIN
        assert len(err.splitlines()) == 1
        assert err.startswith("domain error:")
        # The row is refused before the report file is opened.
        assert not report.exists()

    def test_a_grid_file_of_the_default_cases_gives_the_default_reports(
        self, capsys, tmp_path
    ):
        rows = {"bundle": [], "cone": []}
        for base, bdry in default_branch_grid():
            delta = "ge1" if base.delta_v.value is None else str(base.delta_v.value)
            if isinstance(bdry, ConeBoundary):
                rows["cone"].append([base.n, str(base.r), str(bdry.c), delta])
            else:
                rows["bundle"].append([base.n, str(base.r), str(bdry.a), str(bdry.b), delta])
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(rows))
        reports = []
        for argv in (["verify"], ["verify", "--grid", str(grid)]):
            target = tmp_path / "report.json"
            code, out, err = run_cli([*argv, "--json", str(target)], capsys)
            assert code == EXIT_OK
            text = target.read_text()
            # The reports list is the last entry of the payload.
            reports.append(text[text.index('"reports": ['):])
        assert reports[0] == reports[1]

    def test_unwritable_report_path_is_refused_before_the_suite_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        def must_not_run(**kwargs):
            raise AssertionError("the suite ran before the path was refused")

        monkeypatch.setattr("fanodelta.cli.run_verification", must_not_run)
        for target in (str(tmp_path / "nodir" / "report.json"), ""):
            code, out, err = run_cli(["verify", "--json", target], capsys)
            assert code == EXIT_PARSE, target
            assert len(err.splitlines()) == 1
            assert out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_report_write_failure_is_a_parse_error(self, capsys):
        # /dev/full opens, so the suite runs; the write then fails. A device
        # is not a report file: it stays.
        code, out, err = run_cli(["verify", "--json", "/dev/full"], capsys)
        assert code == EXIT_PARSE
        assert err.startswith("error: cannot write output file")
        assert len(err.splitlines()) == 1
        assert os.path.exists("/dev/full")

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_a_refused_run_leaves_no_report(self, existing, capsys, tmp_path):
        # At n = 2000 the row computes, but its report holds a value of more
        # than 640 digits, refused while the report file is open.
        grid, report = tmp_path / "grid.json", tmp_path / "report.json"
        grid.write_text(json.dumps({"bundle": [[2000, "7/3", "1/7", "0", "1"]]}))
        if existing:
            report.write_text("an earlier report\n")
        with digit_limit(640):
            code, out, err = run_cli(
                ["verify", "--grid", str(grid), "--json", str(report)], capsys
            )
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("domain error: exact value has more than 640 digits")
        assert not report.exists()


class TestOneReader:
    """A --check payload's inputs and a --grid row are read by one reader:
    the same value is refused the same way in both, in canonical form only."""

    BUNDLE_INPUTS = {"n": 1, "r": "2", "a": "0", "b": "0", "delta_v": "1"}
    BAD_VALUES = [
        ("r", "4/2", "input 'r' is not in canonical form: '4/2'"),
        ("r", "0.5", "input 'r' is not in canonical form: '0.5'"),
        ("r", " 1/2", "input 'r' is not in canonical form: ' 1/2'"),
        ("r", "GE1", "malformed inputs: not a rational: 'GE1'"),
        ("delta_v", "4/2", "input 'delta_v' is not in canonical form: '4/2'"),
        ("delta_v", "0.5", "input 'delta_v' is not in canonical form: '0.5'"),
        ("delta_v", " 1/2", "input 'delta_v' is not in canonical form: ' 1/2'"),
        ("delta_v", "GE1", "input 'delta_v' is not in canonical form: 'GE1'"),
        ("n", "2", "input 'n' is not in canonical form: '2'"),
        ("n", True, "malformed inputs: not an integer: True"),
        ("r", 2, "malformed inputs: not a rational string: 2"),
    ]

    @pytest.mark.parametrize(
        "key, value, reason", BAD_VALUES, ids=[f"{key}={value!r}" for key, value, _ in BAD_VALUES]
    )
    def test_a_bad_value_is_refused_alike_in_a_payload_and_a_grid_row(
        self, key, value, reason, capsys, tmp_path
    ):
        inputs = dict(self.BUNDLE_INPUTS, **{key: value})
        payload, grid = tmp_path / "payload.json", tmp_path / "grid.json"
        payload.write_text(json.dumps(
            {"schema": "1", "command": "bundle", "inputs": inputs, "result": {}}
        ))
        row = [inputs[name] for name in ("n", "r", "a", "b", "delta_v")]
        grid.write_text(json.dumps({"bundle": [row]}))
        for argv, prefix in (
            (["--check", str(payload)], f"check file {payload}"),
            (["verify", "--grid", str(grid)], f"cannot load grid file {grid}: bundle row 1"),
        ):
            assert run_cli(argv, capsys) == (EXIT_PARSE, "", f"error: {prefix}: {reason}\n")

    INPUTS = {"bundle": BUNDLE_INPUTS, "cone": {"n": 1, "r": "2", "c": "0", "delta_v": "1"}}
    GRID_KEYS = {"bundle": ("n", "r", "a", "b", "delta_v"), "cone": ("n", "r", "c", "delta_v")}
    OUT_OF_DOMAIN = [
        ("bundle", "a", "1"),
        ("cone", "c", "1"),
        ("bundle", "delta_v", "-1"),
        ("cone", "n", MAX_DIMENSION + 1),
    ]

    @pytest.mark.parametrize(
        "kind, key, value", OUT_OF_DOMAIN, ids=[f"{kind}-{key}" for kind, key, _ in OUT_OF_DOMAIN]
    )
    def test_an_out_of_domain_value_is_refused_alike_on_every_path(
        self, kind, key, value, capsys, tmp_path
    ):
        inputs = dict(self.INPUTS[kind], **{key: value})
        flags = [kind]
        for name, text in inputs.items():
            flags += ["--" + name.replace("_", "-"), str(text)]
        code, out, line = run_cli(flags, capsys)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert line.startswith("domain error: ") and line.count("\n") == 1
        payload, grid = tmp_path / "payload.json", tmp_path / "grid.json"
        report = tmp_path / "report.json"
        payload.write_text(json.dumps(
            {"schema": "1", "command": kind, "inputs": inputs, "result": {}}
        ))
        grid.write_text(json.dumps({kind: [[inputs[name] for name in self.GRID_KEYS[kind]]]}))
        for argv in (
            ["--check", str(payload)], ["verify", "--grid", str(grid), "--json", str(report)]
        ):
            assert run_cli(argv, capsys) == (EXIT_DOMAIN, "", line)
        assert not report.exists()

    def test_a_grid_diagnostic_names_the_kind_and_the_row(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        for rows, line in (
            ({"cone": [[2, "1", "0", "ge1"], [2, "2/1", "0", "1"]]},
             "cone row 2: input 'r' is not in canonical form: '2/1'"),
            ({"bundle": [[1, "2", "0"]]},
             "bundle row 1: not an array of 5 entries: [1, '2', '0']"),
            ({"bundle": [[1, "2", "0", "0", "1"]], "cone": [[2, "1", "0", "ge1", "1"]]},
             "cone row 1: not an array of 4 entries: [2, '1', '0', 'ge1', '1']"),
        ):
            path.write_text(json.dumps(rows))
            assert run_cli(["verify", "--grid", str(path)], capsys) == (
                EXIT_PARSE, "", f"error: cannot load grid file {path}: {line}\n"
            )

    @pytest.mark.parametrize("opening", ["[", '{"a":'], ids=["arrays", "objects"])
    def test_json_nested_past_the_recursion_limit_is_refused(self, opening, capsys, tmp_path):
        # The json decoder raises RecursionError here, not ValueError.
        path, report = tmp_path / "deep.json", tmp_path / "report.json"
        path.write_text(opening * 100_000)
        for argv, prefix in (
            (["--check", str(path)], "cannot read check file"),
            (["verify", "--grid", str(path), "--json", str(report)], "cannot load grid file"),
        ):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (EXIT_PARSE, "")
            assert err.startswith(f"error: {prefix} {path}: maximum recursion depth exceeded")
            assert len(err.splitlines()) == 1
        assert not report.exists()


class TestLongDiagnostics:
    """A diagnostic line longer than MAX_DIAGNOSTIC characters keeps its
    first MAX_DIAGNOSTIC and ends with the length of the whole line; a
    shorter one is written unchanged."""

    LONG = "x" * 100_000

    @staticmethod
    def _cut(line):
        return f"{line[:MAX_DIAGNOSTIC]}... ({len(line)} characters)\n"

    def test_a_flag_value_is_echoed_up_to_the_cap(self, capsys):
        prefix = "error: argument --r: invalid rational value: '"
        at_the_cap = "x" * (MAX_DIAGNOSTIC - len(prefix) - 1)
        for text in (at_the_cap, at_the_cap + "x", self.LONG):
            line = f"{prefix}{text}'"
            expected = f"{line}\n" if text == at_the_cap else self._cut(line)
            argv = ["bundle", "--n", "1", "--r", text, "--delta-v", "1"]
            assert run_cli(argv, capsys) == (EXIT_PARSE, "", expected), len(text)

    def test_a_payload_value_is_echoed_up_to_the_cap(self, capsys, tmp_path):
        path = tmp_path / "payload.json"
        inputs = dict(TestOneReader.BUNDLE_INPUTS, r=self.LONG)
        path.write_text(json.dumps(
            {"schema": "1", "command": "bundle", "inputs": inputs, "result": {}}
        ))
        line = f"error: check file {path}: malformed inputs: not a rational: {self.LONG!r}"
        assert run_cli(["--check", str(path)], capsys) == (EXIT_PARSE, "", self._cut(line))

    def test_a_grid_value_is_echoed_up_to_the_cap(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"bundle": [[1, self.LONG, "0", "0", "1"]]}))
        line = (f"error: cannot load grid file {path}: bundle row 1: "
                f"malformed inputs: not a rational: {self.LONG!r}")
        assert run_cli(["verify", "--grid", str(path)], capsys) == (
            EXIT_PARSE, "", self._cut(line)
        )

    def test_a_check_mismatch_line_is_cut_at_the_cap(self, capsys, tmp_path):
        # Six nested 200-character directories put the path alone past the cap.
        directory = tmp_path.joinpath(*["d" * 200] * 6)
        directory.mkdir(parents=True)
        path = directory / "payload.json"
        code, out, _ = run_cli(["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--json"],
                               capsys)
        assert code == EXIT_OK
        path.write_text(out.replace('"value": "6/7"', '"value": "1"'))
        line = (f"check mismatch: recomputing bundle from the embedded inputs "
                f"does not reproduce {path} byte-for-byte")
        assert len(line) > MAX_DIAGNOSTIC
        assert run_cli(["--check", str(path)], capsys) == (EXIT_INTERNAL, "", self._cut(line))


class TestDigitLimitText:
    """Number text inside the input grammar but longer than the int-to-str
    digit limit is refused as it is read (exit 2), on each path an input
    comes in by; text at the limit is read and reaches the computation."""

    LIMIT = 4300
    PATHS = ["--r", "--n", "--check", "--grid"]
    REFUSALS = {
        "--r": "argument --r: invalid rational value: '1",
        "--n": "argument --n: invalid integer value: '1",
        "--check": ": malformed inputs: not a rational: '1",
        "--grid": ": bundle row 1: malformed inputs: not a rational: '1",
    }

    @staticmethod
    def _argv(path, text, tmp_path):
        """An argv that reads text as the bundle's r (or n) on this path."""
        if path in ("--r", "--n"):
            values = {"--n": "1", "--r": "2", path: text}
            return ["bundle", "--n", values["--n"], "--r", values["--r"], "--delta-v", "1"]
        data = tmp_path / "input.json"
        if path == "--check":
            inputs = dict(TestOneReader.BUNDLE_INPUTS, r=text)
            data.write_text(json.dumps(
                {"schema": "1", "command": "bundle", "inputs": inputs, "result": {}}
            ))
            return ["--check", str(data)]
        # At n = 2 the row's value, the one the report writes, is past the limit.
        data.write_text(json.dumps({"bundle": [[2, text, "0", "0", "1"]]}))
        return ["verify", "--grid", str(data), "--json", str(tmp_path / "report.json")]

    @pytest.mark.parametrize("path", PATHS)
    def test_one_digit_over_the_limit_is_a_parse_error(self, path, capsys, tmp_path):
        with digit_limit(self.LIMIT):
            code, out, err = run_cli(self._argv(path, "1" * (self.LIMIT + 1), tmp_path), capsys)
        assert (code, out, len(err.splitlines())) == (EXIT_PARSE, "", 1)
        assert err.startswith("error: ") and self.REFUSALS[path] in err

    @pytest.mark.parametrize("path", PATHS)
    def test_text_at_the_limit_reaches_the_computation(self, path, capsys, tmp_path):
        with digit_limit(self.LIMIT):
            code, out, err = run_cli(self._argv(path, "1" * self.LIMIT, tmp_path), capsys)
        assert (code, out, len(err.splitlines())) == (EXIT_DOMAIN, "", 1)
        refused = (f"n must be <= {MAX_DIMENSION}" if path == "--n"
                   else f"exact value has more than {self.LIMIT} digits")
        assert err.startswith(f"domain error: {refused}")
        assert not (tmp_path / "report.json").exists()


STDOUT_ARGVS = [
    ["bundle", "--n", "1", "--r", "2", "--delta-v", "1"],
    ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--json"],
    ["verify"],
]


def _run_module(argv, **kwargs):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "fanodelta.cli", *argv],
        stderr=subprocess.PIPE, text=True, env=env, timeout=120, **kwargs,
    )


@pytest.mark.parametrize(
    "argv",
    [
        "bundle --n 2 --r 3 --delta-v ge1 --a 1/2 --b 1/4",
        "cone --n 2 --r 3 --delta-v 1 --c 1/2",
        "cone-iterate --n 2 --d 3 --i 4",
        "branched-cone --n 2 --k 2 --d 3 --l 1",
        "angle --n 2 --lambda 2/3",
        "calabi --n 2 --r 3 --beta 1/2",
        "verify --deep",
    ],
)
def test_module_entry_point_in_a_process(argv, tmp_path):
    """Each computing command's --json payload passes --check, and the deep
    suite passes, with every step its own python -m fanodelta.cli process."""
    if argv == "verify --deep":
        final, line = argv.split(), "475 of 475 oracle checks passed (deep mode)"
    else:
        payload = tmp_path / "payload.json"
        with payload.open("w") as handle:
            assert _run_module(argv.split() + ["--json"], stdout=handle).returncode == EXIT_OK
        final, line = ["--check", str(payload)], f"check ok: {payload} reproduces byte-for-byte"
    done = _run_module(final, stdout=subprocess.PIPE)
    assert done.returncode == EXIT_OK
    assert done.stderr == ""
    assert line in done.stdout.splitlines()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", STDOUT_ARGVS)
def test_full_stdout_is_a_parse_error_in_a_process(argv):
    # The interpreter flushes stdout again at exit; that second failure
    # must not add a line to stderr or change the exit code.
    with open("/dev/full", "w") as full:
        done = _run_module(argv, stdout=full)
    assert done.returncode == EXIT_PARSE
    assert done.stderr.startswith("error: cannot write to standard output")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["cone", "--help"]])
def test_help_to_a_full_stdout_is_a_parse_error_in_a_process(argv):
    with open("/dev/full", "w") as full:
        done = _run_module(argv, stdout=full)
    assert done.returncode == EXIT_PARSE
    assert done.stderr.startswith("error: cannot write to standard output")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", STDOUT_ARGVS)
def test_closed_stdout_is_a_parse_error_in_a_process(argv):
    done = _run_module(argv, preexec_fn=lambda: os.close(1))
    assert done.returncode == EXIT_PARSE
    assert done.stderr == "error: cannot write to standard output: it is closed\n"


# 10^320 is exact input, but no float holds it.
HUGE = "1" + "0" * 320


class TestBeyondTheFloatRange:
    """Exact values too large for a float keep their exact text and show a
    fixed marker in place of the decimal; only calabi --csv, whose columns
    are decimals, refuses them."""

    @pytest.mark.parametrize(
        "argv, exact",
        [
            (["bundle", "--n", "1", "--r", "2", "--delta-v", HUGE], "12" + "0" * 320 + "/13"),
            (["calabi", "--n", "2", "--r", HUGE], None),
        ],
        ids=["bundle", "calabi"],
    )
    def test_text_output_marks_the_decimal(self, argv, exact):
        done = _run_module(argv, stdout=subprocess.PIPE)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr == ""
        assert f"({FLOAT_RANGE_MARKER})" in done.stdout
        if exact is not None:
            assert f"{exact} ({FLOAT_RANGE_MARKER})" in done.stdout
        # The JSON payload carries the same exact values.
        payload = json.loads(_run_module(argv + ["--json"], stdout=subprocess.PIPE).stdout)
        if exact is not None:
            assert payload["result"]["branches"]["base"] == exact

    def test_csv_is_refused_before_the_file_is_opened(self, tmp_path):
        target = tmp_path / "profile.csv"
        done = _run_module(
            ["calabi", "--n", "2", "--r", HUGE, "--csv", str(target)], stdout=subprocess.PIPE
        )
        assert done.returncode == EXIT_DOMAIN
        assert done.stderr.startswith("domain error: --csv writes decimal columns")
        assert len(done.stderr.splitlines()) == 1
        assert done.stdout == ""
        assert not target.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("bundle", '--delta-v DELTA_V exact rational or "ge1"'),
        ("cone", '--delta-v DELTA_V exact rational or "ge1"'),
        ("cone-iterate", '--delta0 DELTA0 exact rational or "ge1"'),
        ("calabi", "--beta BETA twist (default: beta0)"),
        ("calabi", "--samples SAMPLES number of --csv samples, 2 to 100,000 (default: 33)"),
    ],
)
def test_help_says_what_an_input_takes(command, text, capsys):
    # Whitespace is collapsed, so argparse's line wrapping cannot matter.
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())


class TestParserReuse:
    """main builds its parser once per process; parse_args writes only to a
    fresh Namespace, so the outcome of a call never depends on the calls
    before it."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_outcomes_do_not_depend_on_call_order(self, capsys, tmp_path):
        payload = tmp_path / "payload.json"
        code, out, err = run_cli(
            ["bundle", "--n", "2", "--r", "3", "--delta-v", "ge1", "--a", "1/2", "--json"],
            capsys,
        )
        assert code == EXIT_OK
        payload.write_text(out)
        sequence = [
            ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--json"],
            ["bundle", "--n", "1", "--r", "x", "--delta-v", "1"],
            ["--check", str(payload)],
            ["no-such-command"],
            ["cone", "--n", "1", "--r", "1", "--delta-v", "1", "--c", "1"],
            ["--help"],
            ["cone", "--n", "1", "--r", "1", "--delta-v", "1", "--json"],
            ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--b", "1"],
            ["cone", "--help"],
            ["bundle", "--n", "1"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        forward = {tuple(argv): outcome(argv) for argv in sequence}
        backward = {tuple(argv): outcome(argv) for argv in reversed(sequence)}
        assert backward == forward
        codes = [forward[tuple(argv)][0] for argv in sequence]
        assert codes == [
            EXIT_OK, EXIT_PARSE, EXIT_OK, EXIT_PARSE, EXIT_DOMAIN,
            0, EXIT_OK, EXIT_DOMAIN, 0, EXIT_PARSE,
        ]


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK, argv
    return out.getvalue()


def _reference_cone_iterate(n, d, i, delta0):
    """cone-iterate's text and --json output built from the public Fraction
    route: cone_delta per step on a FanoBase that carries the previous
    value, each step's DeltaBreakdown payload, and json.dumps(indent=2)."""
    known = DeltaKnowledge(None if delta0 == "ge1" else Fraction(delta0))
    steps = []
    for s in range(i):
        breakdown = cone_delta(FanoBase(n + s, n + 2 - d + s, known))
        steps.append(_breakdown_json(breakdown))
        known = DeltaKnowledge.exact(breakdown.value)
    value = known.value
    lines = [f"iterated cone over a degree-{d} hypersurface of dimension {n}, {i} iteration(s)"]
    lines += [f"  after step {k}: delta = {step['value']}" for k, step in enumerate(steps, 1)]
    lines += [
        f"  value       : {value} ({float(value):.6f})",
        "  cross-check : telescoped recursion and step composition agree exactly",
    ]
    payload = {
        "schema": "1",
        "command": "cone-iterate",
        "inputs": {
            "n": n, "d": d, "i": i, "delta0": delta0 if delta0 == "ge1" else str(Fraction(delta0)),
        },
        "result": {"value": str(value), "telescoped_value": str(value), "steps": steps},
    }
    return "\n".join(lines) + "\n", json.dumps(payload, indent=2) + "\n"


def _reference_calabi_csv(n, r, samples, beta=None):
    """The CSV as calabi --csv first wrote it: tau stepped in Fraction
    arithmetic, phi by a Fraction Horner over tau^n, each value copied into
    a new Fraction before str. beta None is the default twist beta0."""
    profile = solve_profile(n, r, beta_zero(n, r) if beta is None else beta)
    lo, hi = profile.r - 1, profile.r + 1
    rows = ["tau,phi,tau_decimal,phi_decimal"]
    for k in range(samples):
        tau = lo + (hi - lo) * Fraction(k, samples - 1)
        acc = Fraction(0)
        for c in reversed(profile.numerator.coefficients):
            acc = acc * tau + c
        phi = acc / tau**n if tau > 0 else Fraction(0)
        rows.append(
            f"{str(Fraction(tau))},{str(Fraction(phi))},{float(tau):.9f},{float(phi):.9f}"
        )
    return "\n".join(rows) + "\n"
