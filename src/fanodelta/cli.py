"""Command-line front end: every computation with exact rational input and
output, JSON emission, and the verification suite.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 internal
disagreement (a failed verification run, a --check mismatch, or two exact
routes diverging). Diagnostics are single lines on stderr naming the
violated constraint.

Each computing subcommand is one entry of COMMANDS: its input flags and
extra flags, a result function returning what it computed in exact values (a
DeltaBreakdown, an AngleInterval, the chain's ChainStep rows, or the solved
CalabiProfile with its invariants), and a payload writer and a text
renderer that each format that result, never each other's text. Every
schema-1 writer is here, verify's too: the library's values carry no JSON.
Text output, --json, --check and each --grid row run the same computation,
_compute, which first checks each flag's limit in _LIMITS. A flag is declared
by its converter alone, and the converters are the only code that reads
text as a number (the library takes Fraction and int values only); an input's
canonical payload form follows from the converted value: a rational renders
as "p/q" text, and an integer, "ge1" or None stays as it is. One reader,
_read_inputs, reads a --check payload's inputs and a --grid row in that
form, and never an extra flag.

render_json writes every schema-1 payload as json.dumps(indent=2) does,
byte for byte. The two long arrays, cone-iterate's steps and verify's
reports, it writes row by row, each from a template that json.dumps laid out
once for a placeholder row of that kind, since json.dumps with an indent
falls back to its pure-Python encoder before Python 3.13.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import IO, Callable, NamedTuple, Optional, Sequence

from .angle import AngleInterval, optimal_angle_interval, semistable_range_lambda_ge_1
from .bundle import (
    BundleBoundary, DeltaBreakdown, DeltaKnowledge, FanoBase, beta_zero, bundle_delta,
)
from .calabi import (
    edge_angles, futaki_closed_form, futaki_invariant, hermite_admissible_profile,
    ricci_bound_margin, ricci_pointwise_residual, solve_profile, verify_positive_interior,
)
from .cone import (
    BranchedConeSpec,
    ChainStep,
    ConeBoundary,
    HypersurfaceConeSpec,
    PROOF_UPPER_BOUND,
    branched_cone_delta,
    cone_delta,
    iterated_hypersurface_chain,
)
from .errors import DomainError, InternalCheckError, agree
from .exactarith import format_ratio, format_rational
from .oracles import (
    BranchCase, OracleReport, VerificationRun, run_verification, telescoping_iterated_cone,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

# --samples above this is refused: 10^5 samples at n = 5 take under 1 s.
MAX_SAMPLES = 100_000
# --csv's Horner steps, samples * (n + 2), are capped at what MAX_SAMPLES allows at n = 5.
MAX_CSV_STEPS = MAX_SAMPLES * (5 + 2)
# cone-iterate --i above this is refused before any step: the output grows
# linearly in i, and 2 * 10^4 steps take about 0.2 s with --json.
MAX_ITERATIONS = 20_000
# Every command's n above this is refused before any computation: calabi's
# cost grows fastest in n, and with the digits of r. At n = 2000 it takes
# 0.12-0.19 s for r = 7/3, and runs about 2 s for r = 1001/1000 before it
# exits 3 on the interpreter's digit limit, which no bound here refuses.
MAX_DIMENSION = 2_000
# The limit on each flag _compute checks, for every command that has the flag.
_LIMITS = (("n", MAX_DIMENSION), ("i", MAX_ITERATIONS), ("samples", MAX_SAMPLES))
# A diagnostic line is cut after this many characters.
MAX_DIAGNOSTIC = 1_000

SCHEMA_VERSION = "1"
GE1 = "ge1"  # the delta text for a base known only to have delta >= 1


class CliParseError(Exception):
    """Malformed input: an unparseable flag (raised instead of argparse's
    SystemExit), an unreadable or malformed file, or an output path that
    cannot be written. main maps it to exit code 2 with a single-line
    diagnostic."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A token such as -1/2 is a flag's value, not an unknown option: no
        # flag here starts with -<digit>, and argparse's own pattern knows
        # only -1 and -0.5.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliParseError(message)

    def _print_message(self, message: str, file: Optional[IO[str]] = None) -> None:
        # argparse drops a failed write, so help and usage text go through
        # _write_stdout and fail as command output does. argparse writes to
        # stderr only for error, which raises here, and a deprecated flag (none is).
        if message:
            _write_stdout(message)


# Input converters: each takes a flag's text or an input value that
# _read_inputs reads from a --check payload or a --grid row, and raises
# ValueError or TypeError when it is malformed (exit 2). Once surrounding
# whitespace is stripped, only ASCII digits, a sign and, in a rational, "/"
# and "." may remain: int and Fraction read "1_0" and any Unicode digit, and
# Fraction expands exponent notation ("1e10000000" takes seconds). Range
# checks are left to the computation, so a well-formed but out-of-domain
# value exits 3. argparse names the converter ("invalid rational value: 'x'").

_INTEGER_CHARACTERS = frozenset("0123456789+-")
_RATIONAL_CHARACTERS = _INTEGER_CHARACTERS | frozenset("/.")


def integer(value: object) -> int:
    if isinstance(value, str):
        number = int(value)  # int's own message for text it cannot read
        if not set(value.strip()) <= _INTEGER_CHARACTERS:
            raise ValueError(f"not an integer: {value!r}")
        return number
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"not an integer: {value!r}")


def rational(value: object) -> Fraction:
    """The exact value of "p/q", "p" or a decimal ("0.25" is 1/4)."""
    if not isinstance(value, str):
        raise TypeError(f"not a rational string: {value!r}")
    stripped = value.strip()
    if set(stripped) <= _RATIONAL_CHARACTERS:
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(stripped)
    raise ValueError(f"not a rational: {value!r}")


def delta(value: object) -> Fraction | str:
    """GE1 for a base known only to have delta >= 1, else the exact rational."""
    if isinstance(value, str) and value.strip().lower() == GE1:
        return GE1
    return rational(value)


def _knowledge(value: Fraction | str) -> DeltaKnowledge:
    """The DeltaKnowledge of a delta converter's value."""
    return DeltaKnowledge(None if value == GE1 else value)


_DELTA_HELP = 'exact rational or "ge1"'

_REQUIRED = object()


def _canonical(value: object) -> object:
    """The payload form of an input or a computed value: a rational renders
    as text, a tuple as a list, and anything else stays as it is."""
    if isinstance(value, tuple):
        return [_canonical(item) for item in value]
    return format_rational(value) if isinstance(value, Fraction) else value


class _Flag(NamedTuple):
    """One flag of a command, --key with "_" as "-"; an input's payload key
    is key. convert parses it, and the payload holds _canonical of the parsed
    value: a rational as "p/q" text, an integer, "ge1" or None as it is.
    default is _REQUIRED, a constant (text is converted, as argparse does),
    or a function of the inputs before it. A limit is its key's _LIMITS row."""

    key: str
    convert: Callable[[object], object]
    default: object = _REQUIRED
    help: Optional[str] = None

    def read(self, value: object) -> object:
        """Parse a payload's input value; null stands for a None default."""
        if value is None and self.default is None:
            return None
        return self.convert(value)


class _Command(NamedTuple):
    """A computing subcommand. result maps the parsed inputs to what the
    command computed, in exact values. text formats the canonical inputs and
    the values of the result it prints as lines; payload, a writer of this
    module, formats the result as JSON and may take apart what emit does not
    read. extra are flags that are not inputs, which _read_inputs never
    reads; emit acts on them once the output is formatted and returns extra
    text lines."""

    help: str
    flags: tuple[_Flag, ...]
    result: Callable[[dict], object]
    text: Callable[[dict, object], list[str]]
    payload: Callable[[object], dict]
    extra: tuple[_Flag, ...] = ()
    emit: Optional[Callable[[argparse.Namespace, object], list[str]]] = None


FLOAT_RANGE_MARKER = "beyond float range"


def _show(value: Fraction) -> str:
    """Exact text of value with a 6-place decimal approximation for human
    output, or FLOAT_RANGE_MARKER in its place when it does not fit a float."""
    try:
        decimal = f"{float(value):.6f}"
    except OverflowError:
        decimal = FLOAT_RANGE_MARKER
    return f"{format_rational(value)} ({decimal})"


class _Rows:
    """A non-empty array written row by row, the last value of a payload's
    result: write returns the JSON text of one item, laid out by
    _row_template. json.dumps refuses it; render_json writes it."""

    def __init__(self, items: Sequence, write: Callable[[object], str]) -> None:
        self.items, self.write = items, write


# A _Rows item sits at depth 3: the payload, its result, the array.
_ROW_INDENT = " " * 6


def _row_template(placeholder: dict) -> str:
    """The %-template of a _Rows item: json.dumps(placeholder, indent=2)
    indented to the item's depth, with each "%s" value of placeholder a slot
    for the JSON text of a value."""
    text = json.dumps(placeholder, indent=2).replace('"%s"', "%s")
    return _ROW_INDENT + text.replace("\n", "\n" + _ROW_INDENT)


def render_json(payload: dict) -> str:
    """json.dumps(payload, indent=2) and a newline. A _Rows array is written
    into the text json.dumps lays out with that array empty: the array is
    the last value of the result, and the result the payload's last."""
    result = payload["result"]
    key = next(reversed(result))
    rows = result[key]
    if not isinstance(rows, _Rows):
        return json.dumps(payload, indent=2) + "\n"
    layout = json.dumps({**payload, "result": {**result, key: []}}, indent=2)
    head, _, tail = layout.rpartition("[]")
    body = ",\n".join(map(rows.write, rows.items))
    # The closing bracket sits one level out from the rows.
    return f"{head}[\n{body}\n{_ROW_INDENT[2:]}]{tail}\n"


def _payload(command: str, inputs: dict, result: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command, "inputs": inputs, "result": result}


def _command_json(name: str, inputs: dict, result: object) -> str:
    """The --json output of a computing command, the bytes --check compares."""
    return render_json(_payload(name, inputs, COMMANDS[name].payload(result)))


def _verdict(breakdown: DeltaBreakdown) -> str:
    # An upper-bound-only value (a cone with r > n+1) is always below 1:
    # there vinf = (n+2)(1-c)/(r+1-c) < 1.
    if breakdown.value >= 1:
        return "K-semistable (delta >= 1)"
    if breakdown.proof_coverage == PROOF_UPPER_BOUND:
        return "K-unstable (upper bound below 1)"
    return "K-unstable (delta < 1)"


def _breakdown_text(title: str) -> Callable[[dict, DeltaBreakdown], list[str]]:
    """Text renderer of a DeltaBreakdown. title is a format string over the
    inputs (a "ge1" delta shows as ">=1") and r_effective."""

    def text(inputs: dict, result: DeltaBreakdown) -> list[str]:
        shown = {key: ">=1" if value == GE1 else value for key, value in inputs.items()}
        slope = None if result.r_effective is None else format_rational(result.r_effective)
        base = result.base_branch
        lines = [
            title.format(r_effective=slope, **shown),
            f"  base branch : {'unknown (delta(V) >= 1)' if base is None else _show(base)}",
            f"  V0 branch   : {_show(result.v0_branch)}",
            f"  Vinf branch : {_show(result.vinf_branch)}",
            f"  value       : {_show(result.value)}",
            f"  minimizers  : {', '.join(result.minimizers)}",
            f"  verdict     : {_verdict(result)}",
        ]
        if slope is not None:
            lines.append(f"  slope r     : {slope}")
        if result.proof_coverage is not None:
            lines.append(f"  proof       : {result.proof_coverage}")
        if result.side_conditions:
            lines.append("  side conditions:")
            lines.extend(f"    - {condition}" for condition in result.side_conditions)
        return lines

    return text


def _breakdown_row(
    base_branch: Optional[str], v0_branch: str, vinf_branch: str, value: str,
    minimizers: Sequence[str], r_effective: Optional[str] = None,
    proof_coverage: Optional[str] = None, side_conditions: Optional[list[str]] = None,
) -> dict:
    """The JSON of a delta breakdown from the payload forms of its fields, each named as in
    DeltaBreakdown; a None metadata field is left out, and "lower_bound_only" is always false."""
    payload: dict = {
        "branches": {"base": base_branch, "v0": v0_branch, "vinf": vinf_branch},
        "value": value,
        "lower_bound_only": False,
        "minimizers": list(minimizers),
    }
    if r_effective is not None:
        payload["r_effective"] = r_effective
    if proof_coverage is not None:
        payload["proof_coverage"] = proof_coverage
    if side_conditions is not None:
        payload["side_conditions"] = side_conditions
    return payload


def _breakdown_json(result: DeltaBreakdown) -> dict:
    """The JSON result of a DeltaBreakdown: the row of its fields' payload forms."""
    return _breakdown_row(**{name: _canonical(getattr(result, name)) for name in result.__slots__})


def _branch_case(values: dict) -> BranchCase:
    """The (FanoBase, boundary) pair of a bundle's inputs, or a cone's (with c)."""
    base = FanoBase(values["n"], values["r"], _knowledge(values["delta_v"]))
    if "c" in values:
        return base, ConeBoundary(values["c"])
    return base, BundleBoundary(values["a"], values["b"])


def _branched_result(values: dict) -> DeltaBreakdown:
    pair = None if values["delta_pair"] is None else _knowledge(values["delta_pair"])
    spec = BranchedConeSpec(values["n"], values["k"], values["d"], values["l"])
    return branched_cone_delta(spec, pair)


def _cone_iterate_result(values: dict) -> list[ChainStep]:
    """The chain's steps as they were computed, once the last value agrees
    with the telescoped recursion."""
    spec = HypersurfaceConeSpec(values["n"], values["d"], values["i"], _knowledge(values["delta0"]))
    chain = iterated_hypersurface_chain(spec)
    telescoped = telescoping_iterated_cone(spec)
    agree("iterated cone: composition vs telescoping", Fraction(*chain[-1].value), telescoped)
    return chain


@functools.cache
def _step_template(minimizers: int) -> str:
    """The template of a step with this many minimizers: the row
    _breakdown_row writes for a DeltaBreakdown with a slope and a proof."""
    return _row_template(
        _breakdown_row("%s", "%s", "%s", "%s", ("%s",) * minimizers, "%s", "%s")
    )


def _step_text(step: ChainStep) -> str:
    """The JSON text of a step. A ratio's text holds only digits, "-" and
    "/", so it is quoted as it is; the other texts go through json's own
    escaping."""
    base = "null" if step.base is None else f'"{format_ratio(*step.base)}"'
    return _step_template(len(step.minimizers)) % (
        base, f'"{format_ratio(*step.v0)}"', f'"{format_ratio(*step.vinf)}"',
        f'"{format_ratio(*step.value)}"', *map(encode_basestring_ascii, step.minimizers),
        f'"{format_ratio(step.slope, 1)}"', encode_basestring_ascii(step.proof_coverage),
    )


def _cone_iterate_json(chain: list[ChainStep]) -> dict:
    """The JSON result: the value, also as the telescoped value that agrees
    with it, and the steps, each written by _step_text."""
    value = format_ratio(*chain[-1].value)
    return {"value": value, "telescoped_value": value, "steps": _Rows(chain, _step_text)}


def _cone_iterate_text(inputs: dict, chain: list[ChainStep]) -> list[str]:
    lines = [
        f"iterated cone over a degree-{inputs['d']} hypersurface of dimension "
        f"{inputs['n']}, {inputs['i']} iteration(s)"
    ]
    for index, step in enumerate(chain, start=1):
        lines.append(f"  after step {index}: delta = {format_ratio(*step.value)}")
    lines.append(f"  value       : {_show(Fraction(*chain[-1].value))}")
    lines.append("  cross-check : telescoped recursion and step composition agree exactly")
    return lines


def _angle_result(values: dict) -> AngleInterval:
    n, lam = values["n"], values["lambda"]
    interval = optimal_angle_interval if lam < 1 else semistable_range_lambda_ge_1
    return interval(n, lam)


def _angle_text(inputs: dict, result: AngleInterval) -> list[str]:
    endpoint = format_rational(result.endpoint)
    lines = [
        f"K-semistability angle range for (V, a*S) with n={inputs['n']}, "
        f"lambda={inputs['lambda']}",
        f"  endpoint    : {_show(result.endpoint)}",
        f"  interval    : [0, {endpoint}{']' if result.closed else ')'}",
        "  hypotheses  :",
    ]
    lines.extend(f"    - {hypothesis}" for hypothesis in result.hypotheses)
    return lines


def _angle_json(result: AngleInterval) -> dict:
    return {
        "endpoint": _canonical(result.endpoint),
        "semistable_closed": result.closed,
        "polystable_open_interval": True,
        "hypotheses": _canonical(result.hypotheses),
    }


def _calabi_result(values: dict) -> dict:
    """The solved profile, then its exact invariants keyed and ordered as
    in the JSON result (the numerator's coefficients as a tuple)."""
    n, r, mu = values["n"], values["r"], values["mu"]
    profile = solve_profile(n, r, values["beta"])
    beta1, beta2 = edge_angles(profile)
    margin = ricci_bound_margin(profile, mu)
    futaki = futaki_invariant(hermite_admissible_profile(n, r))
    agree("futaki invariant: integral vs closed form", futaki, futaki_closed_form(n, r))
    return {
        "profile": profile,
        "beta0": profile.beta0,
        "c1": profile.c1,
        "c2": profile.c2,
        "numerator_coefficients": profile.numerator.coefficients,
        "beta1": beta1,
        "beta2": beta2,
        "ricci_margin": margin,
        "ricci_bound_holds": margin >= 0,
        "ode_residual_zero": True,  # the profile's construction agrees it to zero
        "ricci_pointwise_constant": agree(
            "pointwise Ricci gap is the margin", ricci_pointwise_residual(profile, mu).is_zero, True
        ),
        "phi_positive_on_interior": verify_positive_interior(profile),
        "futaki_invariant": futaki,
        "futaki_closed_form": futaki,
    }


def _calabi_json(result: dict) -> dict:
    """The JSON result: the payload form of every invariant of the profile."""
    return {key: _canonical(value) for key, value in result.items() if key != "profile"}


def _calabi_text(inputs: dict, result: dict) -> list[str]:
    return [
        f"momentum profile for n={inputs['n']}, r={inputs['r']}, "
        f"beta={inputs['beta']} (normalized units)",
        f"  beta0        : {format_rational(result['beta0'])}",
        f"  c1           : {format_rational(result['c1'])}",
        f"  c2           : {format_rational(result['c2'])}",
        f"  numerator    : {result['profile'].numerator}",
        f"  edge angle beta1 : {_show(result['beta1'])}",
        f"  edge angle beta2 : {_show(result['beta2'])}",
        f"  ricci margin at mu={inputs['mu']} : {_show(result['ricci_margin'])}"
        + ("  [bound holds]" if result["ricci_bound_holds"] else "  [bound fails]"),
        f"  ODE residual identically zero    : {result['ode_residual_zero']}",
        f"  pointwise Ricci gap is constant  : {result['ricci_pointwise_constant']}",
        f"  phi positive on the open interval: {result['phi_positive_on_interior']}",
        f"  Futaki invariant (admissible profile) : {_show(result['futaki_invariant'])}",
        f"  Futaki closed form                     : {_show(result['futaki_closed_form'])}",
    ]


def _calabi_csv(args: argparse.Namespace, result: dict) -> list[str]:
    """Write --csv samples of the solved profile (_compute refuses too many)."""
    if args.samples < 2:
        raise DomainError(f"samples must be >= 2, got {args.samples}")
    if args.csv is None:
        return []
    steps = args.samples * (result["profile"].n + 2)
    if steps > MAX_CSV_STEPS:
        raise DomainError(f"--csv samples * (n + 2) must be <= {MAX_CSV_STEPS}, got {steps}")
    samples = result["profile"].phi_samples(args.samples)
    rows = ["tau,phi,tau_decimal,phi_decimal"]
    for k, (tau_num, tau_den, phi_num, phi_den) in enumerate(samples):
        try:
            decimals = f"{tau_num / tau_den:.9f},{phi_num / phi_den:.9f}"
        except OverflowError:
            raise DomainError(
                "--csv writes decimal columns, so every sampled tau and phi must "
                f"fit a float (magnitude at most {sys.float_info.max:.6g}); "
                f"the sample at k={k} does not"
            ) from None
        tau, phi = format_ratio(tau_num, tau_den), format_ratio(phi_num, phi_den)
        rows.append(f"{tau},{phi},{decimals}")
    # Every row is built before the file is opened, so a refused sample
    # leaves no file behind.
    with _open_output(args.csv) as handle:
        handle.write("\n".join(rows) + "\n")
    return [f"  wrote {args.samples} profile samples to {args.csv}"]


COMMANDS: dict[str, _Command] = {
    "bundle": _Command(
        "projectivized-bundle delta invariant",
        (_Flag("n", integer), _Flag("r", rational), _Flag("delta_v", delta, help=_DELTA_HELP),
         _Flag("a", rational, "0"), _Flag("b", rational, "0")),
        lambda values: bundle_delta(*_branch_case(values)),
        _breakdown_text(
            "delta invariant of the projectivized bundle over a base with n={n}, "
            "r={r}, delta(V) {delta_v}, boundary a={a}, b={b}"
        ),
        _breakdown_json,
    ),
    "cone": _Command(
        "projective-cone delta invariant",
        (_Flag("n", integer), _Flag("r", rational), _Flag("delta_v", delta, help=_DELTA_HELP),
         _Flag("c", rational, "0")),
        lambda values: cone_delta(*_branch_case(values)),
        _breakdown_text(
            "delta invariant of the projective cone over a base with n={n}, "
            "r={r}, delta(V) {delta_v}, boundary c={c}"
        ),
        _breakdown_json,
    ),
    "cone-iterate": _Command(
        "iterated cones over a smooth hypersurface",
        (_Flag("n", integer), _Flag("d", integer), _Flag("i", integer),
         _Flag("delta0", delta, GE1, _DELTA_HELP)),
        _cone_iterate_result,
        _cone_iterate_text,
        _cone_iterate_json,
    ),
    "branched-cone": _Command(
        "cone attached to a branched hypersurface",
        (
            _Flag("n", integer), _Flag("k", integer), _Flag("d", integer), _Flag("l", integer),
            _Flag("delta_pair", delta, None, "delta of the underlying pair: exact rational or "
                  '"ge1" (defaults to the large-degree guarantee when applicable)'),
        ),
        _branched_result,
        _breakdown_text(
            "delta invariant of the branched-cover cone with n={n}, k={k}, d={d}, "
            "l={l} (derived slope r={r_effective})"
        ),
        _breakdown_json,
    ),
    "angle": _Command(
        "K-semistability angle range for (V, a*S)",
        (_Flag("n", integer), _Flag("lambda", rational)),
        _angle_result,
        _angle_text,
        _angle_json,
    ),
    "calabi": _Command(
        "momentum profile and its invariants",
        (
            _Flag("n", integer), _Flag("r", rational),
            _Flag("beta", rational, lambda v: beta_zero(v["n"], v["r"]), "twist (default: beta0)"),
            _Flag("mu", rational, "1"),
        ),
        _calabi_result,
        _calabi_text,
        _calabi_json,
        extra=(
            _Flag("csv", str, None, "write (tau, phi) samples"),
            _Flag("samples", integer, "33",
                  f"number of --csv samples, 2 to {MAX_SAMPLES:,} (default: %(default)s)"),
        ),
        emit=_calabi_csv,
    ),
}


def _compute(command: _Command, values: dict) -> tuple[dict, dict]:
    """The one computation behind text output, --json, --check and each
    --grid row: check the values against _LIMITS (an absent one, as an extra
    flag's in a --check payload or a --grid row, reads as 0), fill the
    computed defaults, compute the result, and render the canonical inputs."""
    for key, limit in _LIMITS:
        if values.get(key, 0) > limit:
            raise DomainError(f"{key} must be <= {limit}, got {values[key]}")
    for flag in command.flags:
        if values[flag.key] is None and callable(flag.default):
            values[flag.key] = flag.default(values)
    result = command.result(values)
    inputs = {flag.key: _canonical(values[flag.key]) for flag in command.flags}
    return inputs, result


def _handle_command(args: argparse.Namespace) -> int:
    command = COMMANDS[args.command]
    values = {flag.key: getattr(args, flag.key) for flag in command.flags + command.extra}
    inputs, result = _compute(command, values)
    if args.json:
        output = _command_json(args.command, inputs, result)
    else:
        lines = command.text(inputs, result)
    # emit runs once the output is formatted, so a value refused as it is
    # formatted leaves no file behind.
    extra = command.emit(args, result) if command.emit else []
    _write_stdout(output if args.json else "\n".join(lines + extra) + "\n")
    return EXIT_OK


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it. A stream that is closed or cannot
    take it (a full disk) is a CliParseError, as an output file is."""
    if sys.stdout is None:
        raise CliParseError("cannot write to standard output: it is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise CliParseError(f"cannot write to standard output: {exc}") from None


@contextlib.contextmanager
def _open_output(path: str):
    """The output file at path, open for writing. Failing to open, write or
    close it (a missing directory, a full disk) is a CliParseError. A failure
    once it is open removes it, if it is a regular file (not /dev/full), so a
    refused run leaves no file behind."""
    handle = None
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except BaseException as exc:
        if handle is not None and os.path.isfile(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise CliParseError(f"cannot write output file: {exc}") from None
        raise


# A --grid row lists the payload inputs of its kind's command in this order.
_GRID_KEYS = {"bundle": ("n", "r", "a", "b", "delta_v"), "cone": ("n", "r", "c", "delta_v")}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a repeated key: json.load would keep
    only its last copy and silently drop the others (grid rows, or inputs of
    a --check payload)."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _load_grid_file(path: str) -> list[tuple[str, dict]]:
    """The kind of each row of a --grid file and its values, read by
    _read_inputs as the payload inputs of that kind's command. Only the
    format is checked here; _handle_verify computes each row by its command,
    which refuses a row outside the domain."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError("the top level must be a JSON object")
    unknown = sorted(set(data) - set(_GRID_KEYS))
    if unknown:
        raise ValueError(f"unknown grid kinds {unknown} (the kinds are bundle and cone)")
    rows: list[tuple[str, dict]] = []
    for kind, keys in _GRID_KEYS.items():
        kind_rows = data.get(kind, [])
        if not isinstance(kind_rows, list):
            raise ValueError(f"the {kind} rows must be a JSON array, got {kind_rows!r}")
        for index, row in enumerate(kind_rows, start=1):
            try:
                if not isinstance(row, list) or len(row) != len(keys):
                    raise ValueError(f"not an array of {len(keys)} entries: {row!r}")
                rows.append((kind, _read_inputs(kind, dict(zip(keys, row)))))
            except ValueError as exc:
                raise ValueError(f"{kind} row {index}: {exc}") from None
    if not rows:
        raise ValueError("the grid has no rows")
    return rows


# A report's row: every OracleReport field but agrees, which status covers.
_REPORT_TEMPLATE = _row_template(dict.fromkeys(
    ("target", "closed_form", "approximation", "m_or_steps", "absolute_error", "bound", "status"),
    "%s",
))


def _report_text(report: OracleReport) -> str:
    """The JSON text of a report, whose rationals are Fractions (quoted as
    their ratio text) and whose texts go through json's own escaping."""
    return _REPORT_TEMPLATE % (
        encode_basestring_ascii(report.target), f'"{format_rational(report.closed_form)}"',
        f'"{format_rational(report.approximation)}"', report.m_or_steps,
        f'"{format_rational(report.absolute_error)}"', f'"{format_rational(report.bound)}"',
        encode_basestring_ascii(report.status),
    )


def _verify_json(run: VerificationRun) -> dict:
    return {
        "mode": run.mode,
        "passed": run.passed,
        "notes": _canonical(run.notes),
        "reports": _Rows(run.reports, _report_text),
    }


def _handle_verify(args: argparse.Namespace) -> int:
    grid: Optional[list[BranchCase]] = None
    if args.grid != "default":
        try:
            rows = _load_grid_file(args.grid)
        except (OSError, RecursionError, ValueError) as exc:
            raise CliParseError(f"cannot load grid file {args.grid}: {exc}") from None
        # Each row is computed by its own command, outside the parse-error
        # net and before the report file opens: a row that command refuses
        # exits 3 with its line and leaves no report behind.
        grid = []
        for kind, values in rows:
            _compute(COMMANDS[kind], values)
            grid.append(_branch_case(values))
    # The report file is opened first, so an unwritable path is refused
    # before the suite runs.
    with (
        contextlib.nullcontext() if args.json_path is None else _open_output(args.json_path)
    ) as handle:
        run = run_verification(deep=args.deep, grid=grid)
        if handle is not None:
            inputs = {"deep": args.deep, "grid": args.grid}
            handle.write(render_json(_payload("verify", inputs, _verify_json(run))))
    _write_stdout("\n".join(run.summary_lines()) + "\n")
    return EXIT_OK if run.passed else EXIT_INTERNAL


def _read_inputs(command: str, inputs: dict) -> dict:
    """The values of a payload's inputs for command, each read by its flag: a
    missing, unknown, malformed or non-canonical input is a ValueError."""
    flags = COMMANDS[command].flags
    unknown = sorted(inputs.keys() - {flag.key for flag in flags})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    try:
        values = {flag.key: flag.read(inputs[flag.key]) for flag in flags}
    except KeyError as exc:
        raise ValueError(f"inputs lack the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed inputs: {exc}") from None
    for key, value in values.items():
        if _canonical(value) != inputs[key]:
            raise ValueError(f"input {key!r} is not in canonical form: {inputs[key]!r}")
    return values


def run_check(path: str) -> int:
    """Recompute a previously emitted JSON payload from its own embedded
    inputs and require byte-for-byte identical serialization.

    Raises CliParseError for an unreadable or malformed payload and
    DomainError for embedded inputs outside the command's domain."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        payload = json.loads(raw, object_pairs_hook=_unique_keys)
    except (OSError, RecursionError, ValueError) as exc:
        raise CliParseError(f"cannot read check file {path}: {exc}") from None
    if not isinstance(payload, dict) or "command" not in payload or "inputs" not in payload:
        raise CliParseError(
            f"check file {path} is not a JSON object with command and inputs"
        )
    if payload.get("schema") != SCHEMA_VERSION:
        raise CliParseError(
            f"check file {path}: schema must be {SCHEMA_VERSION!r}, got {payload.get('schema')!r}"
        )
    command, inputs = payload["command"], payload["inputs"]
    if not isinstance(inputs, dict):
        raise CliParseError(f"check file {path}: inputs must be a JSON object")
    if not isinstance(payload.get("result"), dict):
        raise CliParseError(f"check file {path}: result must be a JSON object")
    spec = COMMANDS.get(command) if isinstance(command, str) else None
    if spec is None:
        raise CliParseError(f"cannot re-check command {command!r}")
    unknown = [key for key in payload if key not in ("schema", "command", "inputs", "result")]
    if unknown:
        raise CliParseError(f"check file {path}: unknown key {unknown[0]!r}")
    try:
        values = _read_inputs(command, inputs)
    except ValueError as exc:
        raise CliParseError(f"check file {path}: {exc}") from None
    inputs, result = _compute(spec, values)
    regenerated = _command_json(command, inputs, result)
    if regenerated != raw:
        _diagnose(
            f"check mismatch: recomputing {command} from the embedded inputs "
            f"does not reproduce {path} byte-for-byte"
        )
        return EXIT_INTERNAL
    _write_stdout(f"check ok: {path} reproduces byte-for-byte\n")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later one: parse_args writes only to a fresh Namespace."""
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

    for name, command in COMMANDS.items():
        p_command = sub.add_parser(name, help=command.help)
        for flag in command.flags + command.extra:
            p_command.add_argument(
                "--" + flag.key.replace("_", "-"),
                dest=flag.key,
                type=flag.convert,
                required=flag.default is _REQUIRED,
                default=None if flag.default is _REQUIRED or callable(flag.default)
                else flag.default,
                help=flag.help,
            )
        p_command.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p_command.set_defaults(handler=_handle_command)

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
        if args.check is not None:
            if args.command is not None:
                raise CliParseError(
                    f"--check cannot be combined with the {args.command} subcommand"
                )
            return run_check(args.check)
        if args.command is None:
            raise CliParseError("a subcommand is required (or --check PATH)")
        return args.handler(args)
    except CliParseError as exc:
        _diagnose(f"error: {exc}")
        return EXIT_PARSE
    except DomainError as exc:
        _diagnose(f"domain error: {exc}")
        return EXIT_DOMAIN
    except InternalCheckError as exc:
        _diagnose(f"internal check failed: {exc}")
        return EXIT_INTERNAL


def _diagnose(line: str) -> None:
    """Write one diagnostic line to stderr, cut after MAX_DIAGNOSTIC
    characters: a diagnostic may echo an input value whole."""
    if len(line) > MAX_DIAGNOSTIC:
        line = f"{line[:MAX_DIAGNOSTIC]}... ({len(line)} characters)"
    print(line, file=sys.stderr)


def console_entry() -> None:
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # main has reported the failed write; send what is still buffered to
        # devnull, so the interpreter's flush at exit reports nothing more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
