"""Acceptance suite: thirteen numbered criteria, one test each.

Each test prints a single summary line; `pytest -v` shows one pass/fail
line per criterion. Runtime budgets are measured on in-process command
dispatch after a warmup call (import and bytecode costs are one-time and
not part of a command's runtime).
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

from fanodelta import (
    DeltaKnowledge,
    HypersurfaceConeSpec,
    beta_zero,
    cone_bundle_consistency,
    edge_angles,
    futaki_closed_form,
    futaki_invariant,
    futaki_quadrature,
    hermite_admissible_profile,
    iterated_hypersurface_chain,
    ode_residual,
    perturbed_admissible_profile,
    riemann_error_bound,
    riemann_s_limit,
    run_verification,
    solve_profile,
    telescoping_iterated_cone,
)
from fanodelta.bundle import DeltaKnowledge as _DK  # noqa: F401  (import check)
from fanodelta.bundle import FanoBase
from fanodelta.cli import EXIT_OK, main
from fanodelta.exactarith import Polynomial
from fanodelta.oracles import branch_min_bruteforce, default_branch_grid


def run_command(argv):
    """Dispatch an in-process CLI call, returning (exit code, stdout)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def timed_command(argv, repeats=5):
    """Best-of-N wall time for one in-process dispatch, after warmup."""
    run_command(argv)  # warmup: first-touch caches, lazy imports
    best = float("inf")
    output = ""
    code = None
    for _ in range(repeats):
        buffer = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(buffer):
            code = main(argv)
        best = min(best, time.perf_counter() - start)
        output = buffer.getvalue()
    return code, output, best


def test_criterion_01_bundle_blowup_of_plane_is_6_over_7_within_10ms():
    argv = ["bundle", "--n", "1", "--r", "2", "--delta-v", "1", "--json"]
    code, out, seconds = timed_command(argv)
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["result"]["value"] == "6/7"
    assert payload["result"]["minimizers"] == ["V0"]
    assert seconds < 0.010, f"dispatch took {seconds * 1000:.2f} ms"
    print(f"criterion 1 PASS: bundle value 6/7, minimizer V0, {seconds * 1000:.2f} ms")


def test_criterion_02_quadric_cone_is_3_over_4_within_10ms():
    argv = ["cone", "--n", "1", "--r", "1", "--delta-v", "1", "--c", "0", "--json"]
    code, out, seconds = timed_command(argv)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["value"] == "3/4"
    assert seconds < 0.010, f"dispatch took {seconds * 1000:.2f} ms"
    print(f"criterion 2 PASS: cone value 3/4, {seconds * 1000:.2f} ms")


def test_criterion_03_cone_over_cubic_threefold_is_2_over_3_within_10ms():
    argv = ["cone", "--n", "2", "--r", "1", "--delta-v", "ge1", "--c", "0", "--json"]
    code, out, seconds = timed_command(argv)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["value"] == "2/3"
    assert seconds < 0.010, f"dispatch took {seconds * 1000:.2f} ms"
    print(f"criterion 3 PASS: cone value 2/3, {seconds * 1000:.2f} ms")


def test_criterion_04_optimal_angle_endpoint_is_3_over_4_within_10ms():
    argv = ["angle", "--n", "2", "--lambda", "2/3", "--json"]
    code, out, seconds = timed_command(argv)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["endpoint"] == "3/4"
    assert seconds < 0.010, f"dispatch took {seconds * 1000:.2f} ms"
    print(f"criterion 4 PASS: angle endpoint 3/4, {seconds * 1000:.2f} ms")


def test_criterion_05_branched_cone_is_semistable_at_exactly_1_within_10ms():
    argv = ["branched-cone", "--n", "2", "--k", "2", "--d", "3", "--l", "1", "--json"]
    code, out, seconds = timed_command(argv)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["value"] == "1"
    human_code, human_out = run_command(argv[:-1])
    assert human_code == EXIT_OK
    assert "K-semistable" in human_out
    assert seconds < 0.010, f"dispatch took {seconds * 1000:.2f} ms"
    print(f"criterion 5 PASS: branched value 1, K-semistable, {seconds * 1000:.2f} ms")


def test_criterion_06_beta_zero_window_sweep_under_1s():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 11):
        r = Fraction(5, 4)
        while r <= n + 1:
            value = beta_zero(n, r)
            assert Fraction(1, 2) < value < 1, (n, r, value)
            checked += 1
            r += Fraction(1, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.3f} s"
    print(f"criterion 6 PASS: {checked} grid points in (1/2, 1), {elapsed:.3f} s")


def test_criterion_07_cone_bundle_consistency_full_grid_under_1s():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for r in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3):
            for c in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                bundle_route, cone_route = cone_bundle_consistency(
                    FanoBase(n, r, DeltaKnowledge.exact(1)), c
                )
                assert bundle_route == cone_route, (n, r, c)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid took {elapsed:.3f} s"
    print(f"criterion 7 PASS: {checked} exact substitution matches, {elapsed:.3f} s")


def test_criterion_08_riemann_oracle_converges_within_tolerance_under_30s():
    start = time.perf_counter()
    target = Fraction(7, 6)
    err_coarse = abs(riemann_s_limit(1, 1, 3, 1_000) - target)
    err_fine = abs(riemann_s_limit(1, 1, 3, 10_000) - target)
    err_deep = abs(riemann_s_limit(1, 1, 3, 100_000) - target)
    elapsed = time.perf_counter() - start
    assert err_fine <= Fraction(1, 1000)
    assert err_fine < err_coarse
    assert err_deep < err_fine
    assert elapsed < 30.0, f"oracle runs took {elapsed:.3f} s"
    print(
        f"criterion 8 PASS: |err| = {float(err_fine):.2e} <= 1e-3 at m=10^4, "
        f"monotone through m=10^5, {elapsed:.3f} s"
    )


def test_criterion_09_calabi_profiles_are_exact_on_the_stated_grid_under_1s():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for r in (Fraction(3, 2), 2, 3, 4):
            b0 = beta_zero(n, r)
            for beta in (b0, b0 / 2, b0 / 3):
                profile = solve_profile(n, r, beta)
                assert ode_residual(profile).is_zero
                assert profile.numerator(r - 1) == 0
                assert profile.numerator(r + 1) == 0
                beta1, beta2 = edge_angles(profile)
                assert beta1 == beta / b0
                assert beta2 == beta * (2 * b0 - 1) / b0
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid took {elapsed:.3f} s"
    print(f"criterion 9 PASS: {checked} exact profiles, {elapsed:.3f} s")


def test_criterion_10_futaki_value_profile_independence_and_quadrature_under_30s():
    start = time.perf_counter()
    base = hermite_admissible_profile(1, 2)
    profiles = [
        base,
        perturbed_admissible_profile(base, Fraction(1, 10)),
        perturbed_admissible_profile(
            base, Fraction(1, 7), weight=Polynomial.monomial(1)
        ),
    ]
    values = {futaki_invariant(prof) for prof in profiles}
    assert values == {Fraction(4, 3)}
    assert futaki_closed_form(1, 2) == Fraction(4, 3)
    quad = futaki_quadrature(base, 10_000)
    assert abs(quad - Fraction(4, 3)) < Fraction(1, 10**5)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"futaki runs took {elapsed:.3f} s"
    print(
        f"criterion 10 PASS: 4/3 from {len(profiles)} profiles, quadrature "
        f"|err| = {float(abs(quad - Fraction(4, 3))):.2e}, {elapsed:.3f} s"
    )


def test_criterion_11_branch_bruteforce_default_grid_under_5s():
    start = time.perf_counter()
    reports = branch_min_bruteforce(default_branch_grid())
    elapsed = time.perf_counter() - start
    disagreements = [r for r in reports if r.status != "pass"]
    assert disagreements == []
    assert elapsed < 5.0, f"brute force took {elapsed:.3f} s"
    print(
        f"criterion 11 PASS: {len(reports)} grid points, zero disagreements, "
        f"{elapsed:.3f} s"
    )


def test_criterion_12_iterated_cone_recursion_matches_composition_and_is_reported():
    checked = 0
    for n in range(1, 5):
        for d in range(2, n + 2):
            for i in range(1, 5):
                spec = HypersurfaceConeSpec(n, d, i, DeltaKnowledge.at_least_one())
                composed = Fraction(*iterated_hypersurface_chain(spec)[-1].value)
                telescoped = telescoping_iterated_cone(spec)
                assert composed == telescoped, (n, d, i)
                checked += 1
    run = run_verification()
    assert any("closed form" in note for note in run.notes)

    # A long chain stays linear in i: the running fraction is reduced at
    # every step, so its size stays that of the closed form.
    spec = HypersurfaceConeSpec(3, 3, 20000, DeltaKnowledge.at_least_one())
    elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        value = telescoping_iterated_cone(spec)
        elapsed = min(elapsed, time.perf_counter() - start)
    assert value == Fraction(2 * 20004, 4 * 20002)
    assert elapsed < 0.1, f"telescoping at i=20000 took {elapsed:.3f} s"
    print(
        f"criterion 12 PASS: {checked} tuples reconciled exactly; closed-form "
        f"finding recorded in the verification report; i=20000 telescoped in "
        f"{elapsed:.4f} s"
    )


def test_criterion_13_deep_verification_passes_all_475_reports_under_half_a_second():
    start = time.perf_counter()
    run = run_verification(deep=True)
    elapsed = time.perf_counter() - start
    assert run.mode == "deep"
    assert len(run.reports) == 475
    assert [r.target for r in run.reports if r.status != "pass"] == []
    assert elapsed < 0.5, f"deep verification took {elapsed:.3f} s"

    start = time.perf_counter()
    value = riemann_s_limit(1, 1, 3, 10**9)
    bound = riemann_error_bound(1, 1, 3, 10**9)
    elapsed_billion = time.perf_counter() - start
    assert abs(value - Fraction(7, 6)) <= bound
    assert elapsed_billion < 0.5, f"m=10^9 Riemann oracle took {elapsed_billion:.3f} s"
    print(
        f"criterion 13 PASS: {len(run.reports)} deep reports in {elapsed:.3f} s; "
        f"m=10^9 Riemann |err| = {float(abs(value - Fraction(7, 6))):.2e} "
        f"<= {float(bound):.2e} in {elapsed_billion:.4f} s"
    )
