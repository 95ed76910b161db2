"""Command-line front end: every computation with exact rational input and
output, JSON emission, and the verification suite.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 internal
disagreement (a failed verification run, a --check mismatch, or two exact
routes diverging). Diagnostics are single lines on stderr naming the
violated constraint.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Optional

from .angle import DivisorPairSpec, optimal_angle_interval, semistable_range_lambda_ge_1
from .bundle import (
    BundleBoundary,
    DeltaBreakdown,
    DeltaKnowledge,
    FanoBase,
    bundle_delta,
)
from .calabi import (
    edge_angles,
    futaki_closed_form,
    futaki_invariant,
    hermite_admissible_profile,
    ode_residual,
    ricci_bound_margin,
    ricci_pointwise_residual,
    solve_profile,
    verify_positive_interior,
)
from .bundle import beta_zero
from .cone import (
    BranchedConeSpec,
    ConeBoundary,
    HypersurfaceConeSpec,
    PROOF_UPPER_BOUND,
    branched_cone_delta,
    cone_delta,
    iterated_hypersurface_chain,
    iterated_hypersurface_delta,
)
from .errors import DomainError, InternalCheckError
from .exactarith import Rational, format_rational, parse_rational
from .oracles import GridEntry, run_verification, telescoping_iterated_cone

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = "1"

DEEP_ENV_VAR = "FANO_DELTA_DEEP"


class CliParseError(Exception):
    """Malformed input: an unparseable flag (raised instead of argparse's
    SystemExit), an unreadable or malformed file, or an output path that
    cannot be written. main maps it to exit code 2 with a single-line
    diagnostic."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliParseError(message)


def _rational_flag(text: str) -> Fraction:
    return parse_rational(text)


def _delta_flag(text: str) -> str:
    # Syntax check only; range validation happens in the handler so that a
    # well-formed but out-of-domain value exits 3, not 2.
    if text.strip().lower() != "ge1":
        parse_rational(text)
    return text.strip()


def _positive_int_flag(text: str) -> int:
    return int(text)


# argparse embeds the converter's __name__ in its diagnostics; keep those
# readable.
_rational_flag.__name__ = "rational"
_delta_flag.__name__ = "delta"
_positive_int_flag.__name__ = "integer"


def show(value: Rational) -> str:
    """Exact value with a 6-place decimal approximation for human output."""
    return f"{format_rational(value)} ({float(value):.6f})"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _payload(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def _verdict(breakdown: DeltaBreakdown) -> str:
    if breakdown.lower_bound_only:
        if breakdown.value >= 1:
            return "K-semistable (the lower bound is already >= 1)"
        return "indeterminate (only a lower bound, below 1)"
    if breakdown.proof_coverage == PROOF_UPPER_BOUND:
        if breakdown.value < 1:
            return "K-unstable (upper bound below 1)"
        return "indeterminate (closed form is only an upper bound for r > n+1)"
    if breakdown.value >= 1:
        return "K-semistable (delta >= 1)"
    return "K-unstable (delta < 1)"


def _breakdown_lines(title: str, breakdown: DeltaBreakdown) -> list[str]:
    base = (
        "unknown (delta(V) >= 1)"
        if breakdown.base_branch is None
        else show(breakdown.base_branch)
    )
    lines = [
        title,
        f"  base branch : {base}",
        f"  V0 branch   : {show(breakdown.v0_branch)}",
        f"  Vinf branch : {show(breakdown.vinf_branch)}",
        f"  value       : {show(breakdown.value)}"
        + ("  [lower bound only]" if breakdown.lower_bound_only else ""),
        f"  minimizers  : {', '.join(breakdown.minimizers)}",
        f"  verdict     : {_verdict(breakdown)}",
    ]
    if breakdown.r_effective is not None:
        lines.append(f"  slope r     : {format_rational(breakdown.r_effective)}")
    if breakdown.proof_coverage is not None:
        lines.append(f"  proof       : {breakdown.proof_coverage}")
    if breakdown.side_conditions:
        lines.append("  side conditions:")
        lines.extend(f"    - {condition}" for condition in breakdown.side_conditions)
    if breakdown.note:
        lines.append(f"  note        : {breakdown.note}")
    return lines


# Result computation from canonical inputs; shared by the normal path and
# by --check re-dispatch.


def _bundle_result(inputs: dict) -> dict:
    base = FanoBase(
        int(inputs["n"]),
        parse_rational(inputs["r"]),
        DeltaKnowledge.parse(inputs["delta_v"]),
    )
    bdry = BundleBoundary(parse_rational(inputs["a"]), parse_rational(inputs["b"]))
    return bundle_delta(base, bdry).to_json_dict()


def _cone_result(inputs: dict) -> dict:
    base = FanoBase(
        int(inputs["n"]),
        parse_rational(inputs["r"]),
        DeltaKnowledge.parse(inputs["delta_v"]),
    )
    return cone_delta(base, ConeBoundary(parse_rational(inputs["c"]))).to_json_dict()


def _cone_iterate_result(inputs: dict) -> dict:
    spec = HypersurfaceConeSpec(
        int(inputs["n"]),
        int(inputs["d"]),
        int(inputs["i"]),
        DeltaKnowledge.parse(inputs["delta0"]),
    )
    value = iterated_hypersurface_delta(spec)
    telescoped = telescoping_iterated_cone(spec.n, spec.d, spec.i, spec.delta_v0)
    if telescoped != value:
        raise InternalCheckError(
            f"telescoping oracle disagrees with the iterated value: "
            f"{telescoped} vs {value}"
        )
    chain = iterated_hypersurface_chain(spec)
    return {
        "value": format_rational(value),
        "telescoped_value": format_rational(telescoped),
        "steps": [step.to_json_dict() for step in chain],
    }


def _branched_result(inputs: dict) -> dict:
    spec = BranchedConeSpec(
        int(inputs["n"]), int(inputs["k"]), int(inputs["d"]), int(inputs["l"])
    )
    delta_pair = (
        None if inputs["delta_pair"] is None else DeltaKnowledge.parse(inputs["delta_pair"])
    )
    return branched_cone_delta(spec, delta_pair).to_json_dict()


def _angle_result(inputs: dict) -> dict:
    n = int(inputs["n"])
    lam = parse_rational(inputs["lambda"])
    if lam < 1:
        interval = optimal_angle_interval(DivisorPairSpec(n=n, lam=lam))
    else:
        interval = semistable_range_lambda_ge_1(n, lam)
    return interval.to_json_dict()


def _calabi_result(inputs: dict) -> dict:
    n = int(inputs["n"])
    r = parse_rational(inputs["r"])
    beta = parse_rational(inputs["beta"])
    mu = parse_rational(inputs["mu"])
    profile = solve_profile(n, r, beta)
    beta1, beta2 = edge_angles(profile)
    margin = ricci_bound_margin(profile, mu)
    hermite = hermite_admissible_profile(n, r)
    return {
        "beta0": format_rational(beta_zero(n, r)),
        "c1": format_rational(profile.c1),
        "c2": format_rational(profile.c2),
        "numerator_coefficients": [
            format_rational(profile.numerator.coefficient(k))
            for k in range(profile.numerator.degree + 1)
        ],
        "beta1": format_rational(beta1),
        "beta2": format_rational(beta2),
        "ricci_margin": format_rational(margin),
        "ricci_bound_holds": margin >= 0,
        "ode_residual_zero": ode_residual(profile).is_zero,
        "ricci_pointwise_constant": ricci_pointwise_residual(profile, mu).is_zero,
        "phi_positive_on_interior": verify_positive_interior(profile),
        "futaki_invariant": format_rational(futaki_invariant(n, r, hermite)),
        "futaki_closed_form": format_rational(futaki_closed_form(n, r)),
    }


RESULT_FUNCTIONS: dict[str, Callable[[dict], dict]] = {
    "bundle": _bundle_result,
    "cone": _cone_result,
    "cone-iterate": _cone_iterate_result,
    "branched-cone": _branched_result,
    "angle": _angle_result,
    "calabi": _calabi_result,
}


# Subcommand handlers.


def _emit(args: argparse.Namespace, command: str, inputs: dict, human: list[str]) -> int:
    if args.json:
        result = RESULT_FUNCTIONS[command](inputs)
        sys.stdout.write(render_json(_payload(command, inputs, result)))
    else:
        print("\n".join(human))
    return EXIT_OK


def _handle_bundle(args: argparse.Namespace) -> int:
    inputs = {
        "n": args.n,
        "r": format_rational(args.r),
        "delta_v": DeltaKnowledge.parse(args.delta_v).serialize(),
        "a": format_rational(args.a),
        "b": format_rational(args.b),
    }
    base = FanoBase(args.n, args.r, DeltaKnowledge.parse(args.delta_v))
    breakdown = bundle_delta(base, BundleBoundary(args.a, args.b))
    title = (
        f"delta invariant of the projectivized bundle over a base with "
        f"n={args.n}, r={format_rational(args.r)}, delta(V) {base.delta_v}, "
        f"boundary a={format_rational(args.a)}, b={format_rational(args.b)}"
    )
    return _emit(args, "bundle", inputs, _breakdown_lines(title, breakdown))


def _handle_cone(args: argparse.Namespace) -> int:
    inputs = {
        "n": args.n,
        "r": format_rational(args.r),
        "delta_v": DeltaKnowledge.parse(args.delta_v).serialize(),
        "c": format_rational(args.c),
    }
    base = FanoBase(args.n, args.r, DeltaKnowledge.parse(args.delta_v))
    breakdown = cone_delta(base, ConeBoundary(args.c))
    title = (
        f"delta invariant of the projective cone over a base with n={args.n}, "
        f"r={format_rational(args.r)}, delta(V) {base.delta_v}, "
        f"boundary c={format_rational(args.c)}"
    )
    return _emit(args, "cone", inputs, _breakdown_lines(title, breakdown))


def _handle_cone_iterate(args: argparse.Namespace) -> int:
    inputs = {
        "n": args.n,
        "d": args.d,
        "i": args.i,
        "delta0": DeltaKnowledge.parse(args.delta0).serialize(),
    }
    result = _cone_iterate_result(inputs)
    if args.json:
        sys.stdout.write(render_json(_payload("cone-iterate", inputs, result)))
        return EXIT_OK
    lines = [
        f"iterated cone over a degree-{args.d} hypersurface of dimension "
        f"{args.n}, {args.i} iteration(s)"
    ]
    for index, step in enumerate(result["steps"], start=1):
        lines.append(f"  after step {index}: delta = {step['value']}")
    value = parse_rational(result["value"])
    lines.append(f"  value       : {show(value)}")
    lines.append("  cross-check : telescoped recursion and step composition agree exactly")
    print("\n".join(lines))
    return EXIT_OK


def _handle_branched(args: argparse.Namespace) -> int:
    inputs = {
        "n": args.n,
        "k": args.k,
        "d": args.d,
        "l": args.l,
        "delta_pair": (
            None
            if args.delta_pair is None
            else DeltaKnowledge.parse(args.delta_pair).serialize()
        ),
    }
    spec = BranchedConeSpec(args.n, args.k, args.d, args.l)
    delta_pair = (
        None if args.delta_pair is None else DeltaKnowledge.parse(args.delta_pair)
    )
    breakdown = branched_cone_delta(spec, delta_pair)
    title = (
        f"delta invariant of the branched-cover cone with n={args.n}, "
        f"k={args.k}, d={args.d}, l={args.l} (derived slope r={spec.r})"
    )
    return _emit(args, "branched-cone", inputs, _breakdown_lines(title, breakdown))


def _handle_angle(args: argparse.Namespace) -> int:
    inputs = {"n": args.n, "lambda": format_rational(args.lam)}
    result = _angle_result(inputs)
    if args.json:
        sys.stdout.write(render_json(_payload("angle", inputs, result)))
        return EXIT_OK
    endpoint = parse_rational(result["endpoint"])
    closed = result["semistable_closed"]
    lines = [
        f"K-semistability angle range for (V, a*S) with n={args.n}, "
        f"lambda={format_rational(args.lam)}",
        f"  endpoint    : {show(endpoint)}",
        f"  interval    : [0, {format_rational(endpoint)}{']' if closed else ')'}",
        "  hypotheses  :",
    ]
    lines.extend(f"    - {hypothesis}" for hypothesis in result["hypotheses"])
    print("\n".join(lines))
    return EXIT_OK


def _handle_calabi(args: argparse.Namespace) -> int:
    beta = args.beta if args.beta is not None else beta_zero(args.n, args.r)
    inputs = {
        "n": args.n,
        "r": format_rational(args.r),
        "beta": format_rational(beta),
        "mu": format_rational(args.mu),
    }
    result = _calabi_result(inputs)
    profile = solve_profile(args.n, args.r, beta)
    if args.csv:
        _write_profile_csv(profile, args.csv, args.samples)
    if args.json:
        sys.stdout.write(render_json(_payload("calabi", inputs, result)))
        return EXIT_OK
    lines = [
        f"momentum profile for n={args.n}, r={format_rational(args.r)}, "
        f"beta={format_rational(beta)} (normalized units)",
        f"  beta0        : {result['beta0']}",
        f"  c1           : {result['c1']}",
        f"  c2           : {result['c2']}",
        f"  numerator    : {profile.numerator}",
        f"  edge angle beta1 : {show(parse_rational(result['beta1']))}",
        f"  edge angle beta2 : {show(parse_rational(result['beta2']))}",
        f"  ricci margin at mu={format_rational(args.mu)} : "
        f"{show(parse_rational(result['ricci_margin']))}"
        + ("  [bound holds]" if result["ricci_bound_holds"] else "  [bound fails]"),
        f"  ODE residual identically zero    : {result['ode_residual_zero']}",
        f"  pointwise Ricci gap is constant  : {result['ricci_pointwise_constant']}",
        f"  phi positive on the open interval: {result['phi_positive_on_interior']}",
        f"  Futaki invariant (admissible profile) : "
        f"{show(parse_rational(result['futaki_invariant']))}",
        f"  Futaki closed form                     : "
        f"{show(parse_rational(result['futaki_closed_form']))}",
    ]
    if args.csv:
        lines.append(f"  wrote {args.samples} profile samples to {args.csv}")
    print("\n".join(lines))
    return EXIT_OK


def _write_profile_csv(profile, path: str, samples: int) -> None:
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    lo, hi = profile.r - 1, profile.r + 1
    rows = ["tau,phi,tau_decimal,phi_decimal"]
    for k in range(samples):
        tau = lo + (hi - lo) * Fraction(k, samples - 1)
        phi = profile.phi(tau) if tau > 0 else Fraction(0)
        rows.append(
            f"{format_rational(tau)},{format_rational(phi)},"
            f"{float(tau):.9f},{float(phi):.9f}"
        )
    with _open_output(path) as handle:
        handle.write("\n".join(rows) + "\n")


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliParseError(f"cannot write output file: {exc}") from None


def _load_grid_file(path: str) -> list[GridEntry]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("the top level must be a JSON object")
    entries: list[GridEntry] = []
    for row in data.get("bundle", ()):
        n, r, a, b, delta = row
        entries.append(
            (
                "bundle",
                int(n),
                parse_rational(str(r)),
                parse_rational(str(a)),
                parse_rational(str(b)),
                DeltaKnowledge.parse(str(delta)),
            )
        )
    for row in data.get("cone", ()):
        n, r, c, delta = row
        entries.append(
            (
                "cone",
                int(n),
                parse_rational(str(r)),
                parse_rational(str(c)),
                DeltaKnowledge.parse(str(delta)),
            )
        )
    return entries


def _handle_verify(args: argparse.Namespace) -> int:
    deep = args.deep or os.environ.get(DEEP_ENV_VAR) == "1"
    grid = None
    if args.grid != "default":
        try:
            grid = _load_grid_file(args.grid)
        except (OSError, ValueError, TypeError) as exc:
            raise CliParseError(f"cannot load grid file {args.grid}: {exc}") from None
    # The report file is opened first, so an unwritable path is refused
    # before the suite runs.
    with (
        _open_output(args.json_path) if args.json_path else contextlib.nullcontext()
    ) as handle:
        run = run_verification(deep=deep, grid=grid)
        if handle is not None:
            payload = _payload(
                "verify",
                {"deep": deep, "grid": args.grid},
                run.to_json_dict(),
            )
            handle.write(render_json(payload))
    print("\n".join(run.summary_lines()))
    return EXIT_OK if run.passed else EXIT_INTERNAL


def run_check(path: str) -> int:
    """Recompute a previously emitted JSON payload from its own embedded
    inputs and require byte-for-byte identical serialization.

    Raises CliParseError for an unreadable or malformed payload and
    DomainError for embedded inputs outside the command's domain."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        payload = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise CliParseError(f"cannot read check file {path}: {exc}") from None
    if not isinstance(payload, dict) or "command" not in payload or "inputs" not in payload:
        raise CliParseError(
            f"check file {path} is not a JSON object with command and inputs"
        )
    command, inputs = payload["command"], payload["inputs"]
    if not isinstance(command, str) or command not in RESULT_FUNCTIONS:
        raise CliParseError(f"cannot re-check command {command!r}")
    try:
        result = RESULT_FUNCTIONS[command](inputs)
    except DomainError:
        raise
    except KeyError as exc:
        raise CliParseError(f"check file {path}: inputs lack the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CliParseError(f"check file {path}: malformed inputs: {exc}") from None
    regenerated = render_json(_payload(command, inputs, result))
    if regenerated != raw:
        print(
            f"check mismatch: recomputing {command} from the embedded inputs "
            f"does not reproduce {path} byte-for-byte",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    print(f"check ok: {path} reproduces byte-for-byte")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fano-delta",
        description=(
            "Exact delta invariants of projective bundles and cones over "
            "Fano bases, with verification oracles."
        ),
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="recompute a previously emitted JSON file from its embedded "
        "inputs and compare byte-for-byte",
    )
    sub = parser.add_subparsers(dest="command")

    def add_json_flag(p: _Parser) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_bundle = sub.add_parser("bundle", help="projectivized-bundle delta invariant")
    p_bundle.add_argument("--n", type=_positive_int_flag, required=True)
    p_bundle.add_argument("--r", type=_rational_flag, required=True)
    p_bundle.add_argument(
        "--delta-v", type=_delta_flag, required=True, help='exact rational or "ge1"'
    )
    p_bundle.add_argument("--a", type=_rational_flag, default=Fraction(0))
    p_bundle.add_argument("--b", type=_rational_flag, default=Fraction(0))
    add_json_flag(p_bundle)
    p_bundle.set_defaults(handler=_handle_bundle)

    p_cone = sub.add_parser("cone", help="projective-cone delta invariant")
    p_cone.add_argument("--n", type=_positive_int_flag, required=True)
    p_cone.add_argument("--r", type=_rational_flag, required=True)
    p_cone.add_argument(
        "--delta-v", type=_delta_flag, required=True, help='exact rational or "ge1"'
    )
    p_cone.add_argument("--c", type=_rational_flag, default=Fraction(0))
    add_json_flag(p_cone)
    p_cone.set_defaults(handler=_handle_cone)

    p_iter = sub.add_parser(
        "cone-iterate", help="iterated cones over a smooth hypersurface"
    )
    p_iter.add_argument("--n", type=_positive_int_flag, required=True)
    p_iter.add_argument("--d", type=_positive_int_flag, required=True)
    p_iter.add_argument("--i", type=_positive_int_flag, required=True)
    p_iter.add_argument(
        "--delta0", type=_delta_flag, default="ge1", help='exact rational or "ge1"'
    )
    add_json_flag(p_iter)
    p_iter.set_defaults(handler=_handle_cone_iterate)

    p_branched = sub.add_parser(
        "branched-cone", help="cone attached to a branched hypersurface"
    )
    p_branched.add_argument("--n", type=_positive_int_flag, required=True)
    p_branched.add_argument("--k", type=_positive_int_flag, required=True)
    p_branched.add_argument("--d", type=_positive_int_flag, required=True)
    p_branched.add_argument("--l", type=_positive_int_flag, required=True)
    p_branched.add_argument(
        "--delta-pair",
        type=_delta_flag,
        default=None,
        help='delta of the underlying pair: exact rational or "ge1" '
        "(defaults to the large-degree guarantee when applicable)",
    )
    add_json_flag(p_branched)
    p_branched.set_defaults(handler=_handle_branched)

    p_angle = sub.add_parser("angle", help="K-semistability angle range for (V, a*S)")
    p_angle.add_argument("--n", type=_positive_int_flag, required=True)
    p_angle.add_argument("--lambda", dest="lam", type=_rational_flag, required=True)
    add_json_flag(p_angle)
    p_angle.set_defaults(handler=_handle_angle)

    p_calabi = sub.add_parser("calabi", help="momentum profile and its invariants")
    p_calabi.add_argument("--n", type=_positive_int_flag, required=True)
    p_calabi.add_argument("--r", type=_rational_flag, required=True)
    p_calabi.add_argument(
        "--beta", type=_rational_flag, default=None, help="twist (default: beta0)"
    )
    p_calabi.add_argument("--mu", type=_rational_flag, default=Fraction(1))
    p_calabi.add_argument("--csv", metavar="PATH", help="write (tau, phi) samples")
    p_calabi.add_argument("--samples", type=_positive_int_flag, default=33)
    add_json_flag(p_calabi)
    p_calabi.set_defaults(handler=_handle_calabi)

    p_verify = sub.add_parser("verify", help="run the oracle verification suite")
    p_verify.add_argument("--deep", action="store_true", help="high-resolution run")
    p_verify.add_argument(
        "--grid",
        default="default",
        help='branch-comparison grid: "default" or a JSON file path',
    )
    p_verify.add_argument(
        "--json", dest="json_path", metavar="PATH", help="write the report as JSON"
    )
    p_verify.set_defaults(handler=_handle_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.check:
            return run_check(args.check)
        if getattr(args, "command", None) is None:
            raise CliParseError("a subcommand is required (or --check PATH)")
        return args.handler(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
