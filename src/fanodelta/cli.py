"""Command-line front end: every computation with exact rational input and
output, JSON emission, and the verification suite.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 internal
disagreement (a failed verification run, a --check mismatch, or two exact
routes diverging). Diagnostics are single lines on stderr naming the
violated constraint.

Each computing subcommand is one entry of COMMANDS: its input flags, a
result function returning what it computed in exact values (a
DeltaBreakdown, an AngleInterval, the chain's ChainStep rows, or the solved
CalabiProfile with its invariants), and a payload function and a text
renderer that each format that result, never each other's text. Text
output, --json and --check all run the same computation once. An input is
declared by its converter alone, and the converters are the only code that
reads text as a number (the library takes Fraction and int values only); its
canonical payload form follows from the converted value: a rational renders
as "p/q" text, and an integer, "ge1" or None stays as it is.
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
from operator import methodcaller
from typing import IO, Callable, NamedTuple, Optional

from .angle import AngleInterval, optimal_angle_interval, semistable_range_lambda_ge_1
from .bundle import (
    BundleBoundary, DeltaBreakdown, DeltaKnowledge, FanoBase, beta_zero, boundary_interval,
    breakdown_payload, bundle_delta,
)
from .calabi import (
    edge_angles, futaki_closed_form, futaki_invariant, hermite_admissible_profile, ode_residual,
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
from .oracles import BranchCase, run_verification, telescoping_iterated_cone

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

# --samples above this is refused: 10^5 samples at n = 5 take under 1 s.
MAX_SAMPLES = 100_000
# cone-iterate --i above this is refused before any step: the output grows
# linearly in i, and 2 * 10^4 steps take under 1 s with --json.
MAX_ITERATIONS = 20_000

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
        # argparse drops a failed write. Help and usage text on stdout go
        # through _write_stdout instead, so they fail as command output does.
        if file is None or file is sys.stdout:
            if message:
                _write_stdout(message)
        else:
            super()._print_message(message, file)


# Input converters: each takes a flag's text or a --check payload's input
# value and raises ValueError or TypeError when it is malformed (exit 2).
# Once surrounding whitespace is stripped, only ASCII digits, a sign and, in
# a rational, "/" and "." may remain: int and Fraction read "1_0" and any
# Unicode digit, and Fraction expands exponent notation ("1e10000000" takes
# seconds). Range checks are left to the computation, so a well-formed but
# out-of-domain value exits 3. argparse names the converter in its
# diagnostics ("invalid rational value: 'x'").

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
    """One input of a command, keyed as in the payload's inputs. convert
    parses it, and the payload holds _canonical of the parsed value: a
    rational as "p/q" text, an integer, "ge1" or None as it is.
    default is _REQUIRED, a constant (text is converted, as argparse does),
    or a function of the inputs before it."""

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
    command computed, in exact values. payload formats that result as the
    JSON result, by default through its to_json_dict, and may take apart
    what emit does not read. text formats the canonical inputs and the
    values of the result it prints as lines. options are argparse flags
    that are not inputs; emit acts on them once the output is formatted and
    returns extra text lines."""

    help: str
    flags: tuple[_Flag, ...]
    result: Callable[[dict], object]
    text: Callable[[dict, object], list[str]]
    payload: Callable[[object], dict] = methodcaller("to_json_dict")
    options: tuple[tuple[tuple, dict], ...] = ()
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


def render_json(payload: dict) -> str:
    # Every payload is a fresh tree from _payload: no cycle to look for.
    return json.dumps(payload, indent=2, check_circular=False) + "\n"


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


def _bundle_result(values: dict) -> DeltaBreakdown:
    base = FanoBase(values["n"], values["r"], _knowledge(values["delta_v"]))
    return bundle_delta(base, BundleBoundary(values["a"], values["b"]))


def _cone_result(values: dict) -> DeltaBreakdown:
    base = FanoBase(values["n"], values["r"], _knowledge(values["delta_v"]))
    return cone_delta(base, ConeBoundary(values["c"]))


def _branched_result(values: dict) -> DeltaBreakdown:
    pair = None if values["delta_pair"] is None else _knowledge(values["delta_pair"])
    spec = BranchedConeSpec(values["n"], values["k"], values["d"], values["l"])
    return branched_cone_delta(spec, pair)


def _cone_iterate_result(values: dict) -> list[ChainStep]:
    """The chain's steps as they were computed, once the last value agrees
    with the telescoped recursion."""
    if values["i"] > MAX_ITERATIONS:
        raise DomainError(f"i must be <= {MAX_ITERATIONS}, got {values['i']}")
    spec = HypersurfaceConeSpec(values["n"], values["d"], values["i"], _knowledge(values["delta0"]))
    chain = iterated_hypersurface_chain(spec)
    telescoped = telescoping_iterated_cone(spec)
    agree("iterated cone: composition vs telescoping", Fraction(*chain[-1].value), telescoped)
    return chain


def _cone_iterate_json(chain: list[ChainStep]) -> dict:
    """The JSON result: the value, also as the telescoped value that agrees
    with it, and the steps, each row replaced in place by the payload
    DeltaBreakdown.to_json_dict writes for it, so the rows are freed early."""
    value = format_ratio(*chain[-1].value)
    for index, step in enumerate(chain):
        chain[index] = breakdown_payload(
            None if step.base is None else format_ratio(*step.base),
            format_ratio(*step.v0),
            format_ratio(*step.vinf),
            format_ratio(*step.value),
            step.minimizers,
            format_ratio(step.slope, 1),
            step.proof_coverage,
        )
    return {"value": value, "telescoped_value": value, "steps": chain}


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
        "beta0": beta_zero(n, r),
        "c1": profile.c1,
        "c2": profile.c2,
        "numerator_coefficients": profile.numerator.coefficients,
        "beta1": beta1,
        "beta2": beta2,
        "ricci_margin": margin,
        "ricci_bound_holds": margin >= 0,
        "ode_residual_zero": ode_residual(profile).is_zero,
        "ricci_pointwise_constant": ricci_pointwise_residual(profile, mu).is_zero,
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
    """Write --csv samples of the solved profile."""
    if args.samples < 2:
        raise DomainError(f"samples must be >= 2, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise DomainError(f"samples must be <= {MAX_SAMPLES}, got {args.samples}")
    if args.csv is None:
        return []
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
        _bundle_result,
        _breakdown_text(
            "delta invariant of the projectivized bundle over a base with n={n}, "
            "r={r}, delta(V) {delta_v}, boundary a={a}, b={b}"
        ),
    ),
    "cone": _Command(
        "projective-cone delta invariant",
        (_Flag("n", integer), _Flag("r", rational), _Flag("delta_v", delta, help=_DELTA_HELP),
         _Flag("c", rational, "0")),
        _cone_result,
        _breakdown_text(
            "delta invariant of the projective cone over a base with n={n}, "
            "r={r}, delta(V) {delta_v}, boundary c={c}"
        ),
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
    ),
    "angle": _Command(
        "K-semistability angle range for (V, a*S)",
        (_Flag("n", integer), _Flag("lambda", rational)),
        _angle_result,
        _angle_text,
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
        options=(
            (("--csv",), {"metavar": "PATH", "help": "write (tau, phi) samples"}),
            (("--samples",), {"type": integer, "default": 33}),
        ),
        emit=_calabi_csv,
    ),
}


def _compute(command: _Command, values: dict) -> tuple[dict, dict]:
    """The one computation behind text output, --json and --check: fill the
    computed defaults, compute the result, and render the canonical inputs."""
    for flag in command.flags:
        if values[flag.key] is None and callable(flag.default):
            values[flag.key] = flag.default(values)
    result = command.result(values)
    inputs = {flag.key: _canonical(values[flag.key]) for flag in command.flags}
    return inputs, result


def _handle_command(args: argparse.Namespace) -> int:
    command = COMMANDS[args.command]
    values = {flag.key: getattr(args, flag.key) for flag in command.flags}
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


_GRID_WIDTHS = {"bundle": 5, "cone": 4}


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


def _load_grid_file(path: str) -> list[tuple]:
    """The rows of a --grid file, each (kind, n, *rationals, delta value).
    Only the format is checked here; _grid_case refuses a row outside the
    domain."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError("the top level must be a JSON object")
    unknown = sorted(set(data) - set(_GRID_WIDTHS))
    if unknown:
        raise ValueError(f"unknown grid kinds {unknown} (the kinds are bundle and cone)")
    rows: list[tuple] = []
    for kind, width in _GRID_WIDTHS.items():
        kind_rows = data.get(kind, [])
        if not isinstance(kind_rows, list):
            raise ValueError(f"the {kind} rows must be a JSON array, got {kind_rows!r}")
        for row in kind_rows:
            if not isinstance(row, list) or len(row) != width:
                raise ValueError(f"a {kind} row must be an array of {width} entries, got {row!r}")
            n, *rationals, delta_text = row
            rows.append((kind, integer(n), *map(rational, rationals), delta(delta_text)))
    if not rows:
        raise ValueError("the grid has no rows")
    return rows


def _grid_case(row: tuple) -> BranchCase:
    """The branch case of a --grid row, or a DomainError for a row outside
    the domain."""
    kind, n, r, *boundary, known = row
    base = FanoBase(n, r, _knowledge(known))
    if kind == "cone":
        return base, ConeBoundary(*boundary)
    bdry = BundleBoundary(*boundary)
    boundary_interval(base, bdry)  # the valid range of a depends on r
    return base, bdry


def _handle_verify(args: argparse.Namespace) -> int:
    grid: Optional[list[BranchCase]] = None
    if args.grid != "default":
        try:
            rows = _load_grid_file(args.grid)
        except (OSError, ValueError, TypeError) as exc:
            raise CliParseError(f"cannot load grid file {args.grid}: {exc}") from None
        # Outside the parse-error net, and before the report file opens: an
        # out-of-domain row exits 3 and leaves no report behind.
        grid = [_grid_case(row) for row in rows]
    # The report file is opened first, so an unwritable path is refused
    # before the suite runs.
    with (
        contextlib.nullcontext() if args.json_path is None else _open_output(args.json_path)
    ) as handle:
        run = run_verification(deep=args.deep, grid=grid)
        if handle is not None:
            payload = _payload(
                "verify",
                {"deep": args.deep, "grid": args.grid},
                run.to_json_dict(),
            )
            handle.write(render_json(payload))
    _write_stdout("\n".join(run.summary_lines()) + "\n")
    return EXIT_OK if run.passed else EXIT_INTERNAL


def run_check(path: str) -> int:
    """Recompute a previously emitted JSON payload from its own embedded
    inputs and require byte-for-byte identical serialization.

    Raises CliParseError for an unreadable or malformed payload and
    DomainError for embedded inputs outside the command's domain."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        payload = json.loads(raw, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
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
    unknown += sorted(inputs.keys() - {flag.key for flag in spec.flags})
    if unknown:
        raise CliParseError(f"check file {path}: unknown key {unknown[0]!r}")
    try:
        values = {flag.key: flag.read(inputs[flag.key]) for flag in spec.flags}
    except KeyError as exc:
        raise CliParseError(f"check file {path}: inputs lack the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CliParseError(f"check file {path}: malformed inputs: {exc}") from None
    for key, value in values.items():
        if _canonical(value) != inputs[key]:
            raise CliParseError(
                f"check file {path}: input {key!r} is not in canonical form: {inputs[key]!r}"
            )
    inputs, result = _compute(spec, values)
    regenerated = _command_json(command, inputs, result)
    if regenerated != raw:
        print(
            f"check mismatch: recomputing {command} from the embedded inputs "
            f"does not reproduce {path} byte-for-byte",
            file=sys.stderr,
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
        for flag in command.flags:
            p_command.add_argument(
                "--" + flag.key.replace("_", "-"),
                dest=flag.key,
                type=flag.convert,
                required=flag.default is _REQUIRED,
                default=None if flag.default is _REQUIRED or callable(flag.default)
                else flag.default,
                help=flag.help,
            )
        for option_args, option_kwargs in command.options:
            p_command.add_argument(*option_args, **option_kwargs)
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


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
