"""Independent expected values and output checks for the benchmark.

Nothing here imports fanodelta: every expected number is re-derived from
the formulas written out below, so a check compares the program against a
second route, not against itself. A check returns None when the output is
right and raises CheckFailed with a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction

BASE, V0, VINF = "BaseDivisor", "V0", "Vinf"


class CheckFailed(Exception):
    """An operation's output disagrees with the independent computation."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def parse_delta(text: str) -> Fraction | None:
    """Delta knowledge as a rational, or None for the literal "ge1"."""
    return None if text == "ge1" else Fraction(text)


# Closed forms, re-derived.


def power_integral(k: int, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of t^k over [lo, hi]."""
    return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)


def three_branch(coefficient: Fraction, v0: Fraction, vinf: Fraction,
                 delta: Fraction | None) -> dict:
    """Minimum of the base, V0 and Vinf branches with its minimizer set.

    With only delta(V) >= 1 known, the base branch is at least the
    coefficient, so the section minimum is exact when it does not exceed it.
    """
    if delta is not None:
        branches = {BASE: coefficient * delta, V0: v0, VINF: vinf}
        value = min(branches.values())
        base = branches[BASE]
        lower_only = False
    else:
        branches = {V0: v0, VINF: vinf}
        value = min(v0, vinf)
        base = None
        lower_only = value > coefficient
        if lower_only:
            value, branches = coefficient, {BASE: coefficient}
    return {
        "base": base,
        "v0": v0,
        "vinf": vinf,
        "value": value,
        "lower_bound_only": lower_only,
        "minimizers": [tag for tag, x in branches.items() if x == value],
    }


def bundle_expected(n: int, r: Fraction, delta: Fraction | None,
                    a: Fraction, b: Fraction) -> dict:
    """Bundle branches from the integrals of t^n and t^(n+1) over
    [r-1+a, r+1-b]: the centroid is their ratio."""
    lo, hi = r - 1 + a, r + 1 - b
    centroid = power_integral(n + 1, lo, hi) / power_integral(n, lo, hi)
    return three_branch(r / centroid, (1 - a) / (centroid - lo),
                        (1 - b) / (hi - centroid), delta)


def cone_expected(n: int, r: Fraction, delta: Fraction | None, c: Fraction) -> dict:
    """Cone branches (n+2)r/((n+1)B) for the base and V0, (n+2)(1-c)/B for
    Vinf, with B = r+1-c."""
    big_b = r + 1 - c
    coefficient = Fraction(n + 2, n + 1) * r / big_b
    return three_branch(coefficient, coefficient, (n + 2) * (1 - c) / big_b, delta)


def branched_slope(n: int, k: int, d: int) -> int:
    return (n + 1) * k - (k - 1) * d


def angle_endpoint(n: int, lam: Fraction) -> Fraction:
    """1 - (1/lambda - 1)/n below lambda = 1, else 1/lambda."""
    return 1 - (1 / lam - 1) / n if lam < 1 else 1 / lam


def iterated_steps(n: int, d: int, i: int, delta0: Fraction | None) -> list[Fraction]:
    """Value after each of the i cone steps:
    (n+2-d)(n+1+j)/((n+1)(n+2+j-d)) * min(delta0, 1) for j = 1..i."""
    capped = Fraction(1) if delta0 is None else min(delta0, Fraction(1))
    return [
        Fraction((n + 2 - d) * (n + 1 + j), (n + 1) * (n + 2 + j - d)) * capped
        for j in range(1, i + 1)
    ]


def evaluate(coefficients: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def profile_coefficients(n: int, beta: Fraction, c1: Fraction, c2: Fraction) -> list[Fraction]:
    """N(t) = -beta/(n+2) t^(n+2) + c1 t^(n+1) + c2, lowest degree first."""
    coefficients = [Fraction(0)] * (n + 3)
    coefficients[0] = c2
    coefficients[n + 1] = c1
    coefficients[n + 2] = -beta / (n + 2)
    return coefficients


def check_profile(n: int, r: Fraction, coefficients: list[Fraction], beta1: Fraction) -> None:
    """The numerator vanishes at r-1 and r+1, and beta1 = phi'(r-1), where
    phi = N/t^n makes phi'(r-1) = N'(r-1)/(r-1)^n at a root of N."""
    expect(evaluate(coefficients, r - 1) == 0, "profile numerator is nonzero at r-1")
    expect(evaluate(coefficients, r + 1) == 0, "profile numerator is nonzero at r+1")
    slope = evaluate([k * c for k, c in enumerate(coefficients)][1:], r - 1)
    expect(slope / (r - 1) ** n == beta1, "beta1 differs from phi'(r-1)")


# Output checks.


def field(text: str, label: str) -> str:
    """The value after 'label :' on the first line that carries it."""
    for line in text.splitlines():
        head, sep, tail = line.partition(":")
        if sep and head.strip() == label:
            return tail.strip()
    raise CheckFailed(f"output has no {label!r} line")


def exact(shown: str) -> Fraction:
    """Exact part of a 'p/q (decimal)' rendering."""
    return Fraction(shown.split()[0])


def load_payload(stdout: str, command: str) -> dict:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    expect(isinstance(payload, dict) and payload.get("schema") == "1"
           and payload.get("command") == command, f"not a schema-1 {command} payload")
    return payload


def check_breakdown_json(result: dict, want: dict) -> None:
    branches = result["branches"]
    base = None if branches["base"] is None else Fraction(branches["base"])
    expect(base == want["base"], "base branch differs")
    expect(Fraction(branches["v0"]) == want["v0"], "V0 branch differs")
    expect(Fraction(branches["vinf"]) == want["vinf"], "Vinf branch differs")
    expect(Fraction(result["value"]) == want["value"], "value differs")
    expect(result["lower_bound_only"] == want["lower_bound_only"], "lower_bound_only differs")
    expect(result["minimizers"] == want["minimizers"], "minimizer set differs")


def check_breakdown_text(stdout: str, want: dict) -> None:
    base = field(stdout, "base branch")
    expect((None if base.startswith("unknown") else exact(base)) == want["base"],
           "base branch differs")
    expect(exact(field(stdout, "V0 branch")) == want["v0"], "V0 branch differs")
    expect(exact(field(stdout, "Vinf branch")) == want["vinf"], "Vinf branch differs")
    expect(exact(field(stdout, "value")) == want["value"], "value differs")
    expect(field(stdout, "minimizers") == ", ".join(want["minimizers"]),
           "minimizer set differs")


def check_breakdown(stdout: str, command: str, as_json: bool, want: dict) -> None:
    if as_json:
        check_breakdown_json(load_payload(stdout, command)["result"], want)
    else:
        check_breakdown_text(stdout, want)


def check_angle(stdout: str, as_json: bool, n: int, lam: Fraction) -> None:
    endpoint = angle_endpoint(n, lam)
    if as_json:
        result = load_payload(stdout, "angle")["result"]
        expect(Fraction(result["endpoint"]) == endpoint, "angle endpoint differs")
        expect(result["semistable_closed"] == (lam < 1), "endpoint closure differs")
    else:
        expect(exact(field(stdout, "endpoint")) == endpoint, "angle endpoint differs")


def check_iterate(stdout: str, as_json: bool, n: int, d: int, i: int,
                  delta0: Fraction | None) -> None:
    steps = iterated_steps(n, d, i, delta0)
    if as_json:
        result = load_payload(stdout, "cone-iterate")["result"]
        shown = [Fraction(step["value"]) for step in result["steps"]]
        expect(Fraction(result["telescoped_value"]) == steps[-1], "telescoped value differs")
        value = Fraction(result["value"])
    else:
        prefix = "  after step "
        shown = [Fraction(line.rpartition("= ")[2])
                 for line in stdout.splitlines() if line.startswith(prefix)]
        value = exact(field(stdout, "value"))
    expect(len(shown) == i, f"expected {i} steps, got {len(shown)}")
    expect(shown == steps, "an iterated-cone step differs from the closed form")
    expect(value == steps[-1], "iterated-cone value differs")


def check_calabi(stdout: str, as_json: bool, n: int, r: Fraction) -> None:
    if as_json:
        result = load_payload(stdout, "calabi")["result"]
        coefficients = [Fraction(c) for c in result["numerator_coefficients"]]
        beta1 = Fraction(result["beta1"])
    else:
        beta = Fraction(stdout.split("beta=", 1)[1].split()[0])
        coefficients = profile_coefficients(
            n, beta, Fraction(field(stdout, "c1")), Fraction(field(stdout, "c2")))
        beta1 = exact(field(stdout, "edge angle beta1"))
    check_profile(n, r, coefficients, beta1)


def check_profile_csv(text: str, r: Fraction, samples: int) -> None:
    """Rows are (tau, phi, ...): tau runs from r-1 to r+1, phi is 0 at both
    ends and strictly positive in between."""
    rows = text.splitlines()[1:]
    expect(len(rows) == samples, f"expected {samples} CSV rows, got {len(rows)}")
    first, last = rows[0].split(","), rows[-1].split(",")
    expect(Fraction(first[0]) == r - 1 and Fraction(last[0]) == r + 1,
           "CSV does not span [r-1, r+1]")
    expect(Fraction(first[1]) == 0 and Fraction(last[1]) == 0,
           "profile is not 0 at an end of the interval")
    expect(all(Fraction(row.split(",", 2)[1]) > 0 for row in rows[1:-1]),
           "profile is not positive inside the interval")


def check_single_line_error(returncode, stderr: str, code: int) -> None:
    expect(returncode == code, f"exit {returncode}, expected {code}")
    expect(len(stderr.splitlines()) == 1 and stderr.strip() != "",
           "stderr is not a single diagnostic line")


# Verification reports.


def check_verify_summary(stdout: str, mode: str) -> None:
    """First line: 'K of K oracle checks passed (<mode> mode)'."""
    words = stdout.splitlines()[0].split()
    expect(words[0] == words[2] and words[-2:] == [f"({mode}", "mode)"],
           f"{mode} verify summary is not all-pass")


RIEMANN_PREFIX = "riemann_s_limit"
RIEMANN_ORDER = 100      # error ~ 1/m; deep mode raises m a hundredfold
MIDPOINT_ORDER = 10**4   # error ~ 1/m^2


def check_reports(payload: dict, mode: str) -> list[dict]:
    """Every report's error is |closed form - approximation| and within its
    bound; returns the reports."""
    expect(payload.get("command") == "verify", "not a verify payload")
    run = payload["result"]
    expect(run["mode"] == mode and run["passed"] is True, f"{mode} run did not pass")
    for report in run["reports"]:
        error = abs(Fraction(report["closed_form"]) - Fraction(report["approximation"]))
        expect(error == Fraction(report["absolute_error"]),
               f"{report['target']}: reported error differs from the re-derived one")
        expect(error <= Fraction(report["bound"]), f"{report['target']}: error above bound")
    return run["reports"]


def check_orders(default_reports: list[dict], deep_reports: list[dict]) -> int:
    """Riemann reports lose 10^2 and midpoint reports 10^4 of their error
    from default to deep mode, each within 1 %. Returns how many were
    compared."""
    expect(len(default_reports) == len(deep_reports), "report lists differ in length")
    compared = 0
    for low, high in zip(default_reports, deep_reports):
        expect(low["target"] == high["target"], "report order differs between modes")
        if high["m_or_steps"] != 100 * low["m_or_steps"]:
            continue
        order = RIEMANN_ORDER if low["target"].startswith(RIEMANN_PREFIX) else MIDPOINT_ORDER
        expect(Fraction(high["absolute_error"]) != 0, f"{high['target']}: deep error is 0")
        ratio = Fraction(low["absolute_error"]) / Fraction(high["absolute_error"])
        expect(abs(ratio / order - 1) <= Fraction(1, 100),
               f"{low['target']}: observed order {float(ratio):.1f}, expected {order}")
        compared += 1
    expect(compared > 0, "no resolution pairs to compare")
    return compared
