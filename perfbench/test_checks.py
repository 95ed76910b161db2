"""Tests of the benchmark's own checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The independent formulas reproduce the worked values of the repository
README, and a tampered value or payload is counted as a failed operation.
"""

import json
import sys
import unittest
from fractions import Fraction

import checks
import workloads
from checks import CheckFailed
from run import Tally
from workloads import Op, Outcome

README_BUNDLE = """{
  "schema": "1",
  "command": "bundle",
  "inputs": { "n": 1, "r": "2", "delta_v": "1", "a": "0", "b": "0" },
  "result": {
    "branches": { "base": "12/13", "v0": "6/7", "vinf": "6/5" },
    "value": "6/7",
    "lower_bound_only": false,
    "minimizers": ["V0"]
  }
}"""


def bundle_op() -> Op:
    want = checks.bundle_expected(1, Fraction(2), Fraction(1), Fraction(0), Fraction(0))
    return workloads.cli_op("bundle", ["bundle", "--n", "1", "--r", "2", "--delta-v", "1"], True,
                            lambda out: checks.check_breakdown(out, "bundle", True, want))


class WorkedValues(unittest.TestCase):
    def test_bundle_n1_r2_delta1_is_6_over_7(self):
        want = checks.bundle_expected(1, Fraction(2), Fraction(1), Fraction(0), Fraction(0))
        self.assertEqual(want["value"], Fraction(6, 7))
        self.assertEqual((want["base"], want["v0"], want["vinf"]),
                         (Fraction(12, 13), Fraction(6, 7), Fraction(6, 5)))
        self.assertEqual(want["minimizers"], ["V0"])
        checks.check_breakdown(README_BUNDLE, "bundle", True, want)

    def test_cone_n2_r1_ge1_is_2_over_3(self):
        want = checks.cone_expected(2, Fraction(1), None, Fraction(0))
        self.assertEqual(want["value"], Fraction(2, 3))
        self.assertIsNone(want["base"])

    def test_iterated_steps_telescope(self):
        # Cone over the cubic surface, three times: 2/3, 5/9, 1/2.
        self.assertEqual(checks.iterated_steps(2, 3, 3, None),
                         [Fraction(2, 3), Fraction(5, 9), Fraction(1, 2)])

    def test_calabi_profile_n1_r2(self):
        coefficients = checks.profile_coefficients(1, Fraction(6, 7), Fraction(13, 14),
                                                   Fraction(-9, 14))
        checks.check_profile(1, Fraction(2), coefficients, Fraction(1))

    def test_angle_endpoints(self):
        self.assertEqual(checks.angle_endpoint(2, Fraction(2, 3)), Fraction(3, 4))
        self.assertEqual(checks.angle_endpoint(2, Fraction(2)), Fraction(1, 2))


class TamperedOutputs(unittest.TestCase):
    def test_tampered_value_counts_as_failed(self):
        tally = Tally()
        op = bundle_op()
        tally.record(op, Outcome(0, README_BUNDLE, ""), 0.001)
        tally.record(op, Outcome(0, README_BUNDLE.replace('"value": "6/7"', '"value": "6/5"'), ""),
                     0.001)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertFalse(tally.correct)

    def test_known_fault_keeps_the_run_correct(self):
        tally = Tally()
        op = Op("--check out-of-domain", ["--check", "x"], workloads.exits_domain,
                known_fault=True)
        tally.record(op, Outcome(None, "", "", escaped="DomainError: r must satisfy r > 0"), 0.001)
        self.assertEqual(tally.failed, 1)
        self.assertTrue(tally.correct)

    def test_tampered_text_step(self):
        text = ("  after step 1: delta = 2/3\n  after step 2: delta = 5/9\n"
                "  value       : 1/2 (0.500000)\n")
        with self.assertRaises(CheckFailed):
            checks.check_iterate(text, False, 2, 3, 3, None)
        with self.assertRaises(CheckFailed):
            checks.check_iterate(text.replace("5/9", "4/9"), False, 2, 3, 2, None)

    def test_tampered_profile(self):
        coefficients = checks.profile_coefficients(1, Fraction(6, 7), Fraction(13, 14),
                                                   Fraction(-8, 14))
        with self.assertRaises(CheckFailed):
            checks.check_profile(1, Fraction(2), coefficients, Fraction(1))

    def test_profile_csv_sign(self):
        good = "tau,phi,tau_decimal,phi_decimal\n1,0,1,0\n2,1/2,2,0.5\n3,0,3,0\n"
        checks.check_profile_csv(good, Fraction(2), 3)
        with self.assertRaises(CheckFailed):
            checks.check_profile_csv(good.replace("2,1/2", "2,-1/2"), Fraction(2), 3)

    def test_report_error_above_bound(self):
        report = {"target": "riemann_s_limit(n=1, A=1, B=3)", "closed_form": "1",
                  "approximation": "3/4", "m_or_steps": 1000, "absolute_error": "1/4",
                  "bound": "1/8", "status": "pass"}
        payload = {"command": "verify", "result": {"mode": "default", "passed": True,
                                                    "reports": [report]}}
        with self.assertRaises(CheckFailed):
            checks.check_reports(payload, "default")

    def test_observed_order(self):
        low = {"target": "riemann_s_limit(n=1, A=1, B=3)", "m_or_steps": 1000,
               "absolute_error": "1/100"}
        high = dict(low, m_or_steps=100000, absolute_error="1/10000")
        self.assertEqual(checks.check_orders([low], [high]), 1)
        with self.assertRaises(CheckFailed):  # first order where second is due
            checks.check_orders([dict(low, target="quadrature cone interval")],
                                [dict(high, target="quadrature cone interval")])


class AgainstTheProgram(unittest.TestCase):
    """The checks accept the program's real output."""

    def test_bundle_json_passes(self):
        sys.path.insert(0, str(workloads.SRC))
        execute = workloads.inprocess_executor(workloads.import_cli())
        op = bundle_op()
        outcome, _ = execute(op.argv)
        workloads.check_op(op, outcome)
        self.assertEqual(json.loads(outcome.stdout)["result"]["value"], "6/7")


if __name__ == "__main__":
    unittest.main()
