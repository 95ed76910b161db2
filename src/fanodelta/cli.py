"""Command-line front end: every computation with exact rational input and
output, JSON emission, and the verification suite.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 internal
disagreement (a failed verification run, a --check mismatch, or two exact
routes diverging). Diagnostics are single lines on stderr naming the
violated constraint.

Each computing subcommand is one entry of COMMANDS: its input flags, one
result function and one text renderer over that result. Text output, --json
and --check all run the same computation once. An input is declared by its
converter alone; its canonical payload form follows from the converted value:
a rational renders as "p/q" text, and an integer, a delta text or None stays
as it is.
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
from typing import IO, Callable, NamedTuple, Optional

from .angle import optimal_angle_interval, semistable_range_lambda_ge_1
from .bundle import (
    GE1, BundleBoundary, DeltaKnowledge, FanoBase, beta_zero, boundary_interval,
    breakdown_payload, bundle_delta,
)
from .calabi import (
    CalabiProfile,
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
from .cone import (
    BranchedConeSpec,
    ConeBoundary,
    HypersurfaceConeSpec,
    PROOF_UPPER_BOUND,
    branched_cone_delta,
    cone_delta,
    iterated_hypersurface_chain,
)
from .errors import DomainError, InternalCheckError, agree
from .exactarith import Polynomial, format_ratio, format_rational, parse_rational
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
# Range checks are left to the computation, so a well-formed but
# out-of-domain value exits 3. argparse names the converter in its
# diagnostics ("invalid rational value: 'x'").


def integer(value: object) -> int:
    if isinstance(value, str):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"not an integer: {value!r}")


def rational(value: object) -> Fraction:
    if not isinstance(value, str):
        raise TypeError(f"not a rational string: {value!r}")
    return parse_rational(value)


def delta(value: object) -> str:
    """Canonical text of a delta input: "ge1" or an exact rational."""
    if isinstance(value, str) and value.strip().lower() == GE1:
        return GE1
    return format_rational(rational(value))


_DELTA_HELP = 'exact rational or "ge1"'

_REQUIRED = object()


def _canonical(value: object) -> object:
    """The payload form of a converted input: a rational renders as text."""
    return format_rational(value) if isinstance(value, Fraction) else value


class _Flag(NamedTuple):
    """One input of a command, keyed as in the payload's inputs. convert
    parses it, and the payload holds _canonical of the parsed value: a
    rational as "p/q" text, an integer, a delta text or None as it is.
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
    """A computing subcommand: result maps the parsed inputs to the result,
    and text renders the canonical inputs and that result as lines. The
    result is the JSON result itself, unless json_form is given: it turns
    the result into the JSON result, possibly in place, after emit has read
    it. options are argparse flags that are not inputs; emit acts on them
    before output and returns extra text lines."""

    help: str
    flags: tuple[_Flag, ...]
    result: Callable[[dict], dict]
    text: Callable[[dict, dict], list[str]]
    options: tuple[tuple[tuple, dict], ...] = ()
    emit: Optional[Callable[[argparse.Namespace, dict, dict], list[str]]] = None
    json_form: Optional[Callable[[dict], dict]] = None


FLOAT_RANGE_MARKER = "beyond float range"


def _show(text: str) -> str:
    """Exact value with a 6-place decimal approximation for human output,
    or FLOAT_RANGE_MARKER in its place when the value does not fit a float."""
    try:
        decimal = f"{float(parse_rational(text)):.6f}"
    except OverflowError:
        decimal = FLOAT_RANGE_MARKER
    return f"{text} ({decimal})"


def render_json(payload: dict) -> str:
    # Every payload is a fresh tree from _payload: no cycle to look for.
    return json.dumps(payload, indent=2, check_circular=False) + "\n"


def _payload(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def _command_json(name: str, inputs: dict, result: dict) -> str:
    """The --json output of a computing command, the bytes --check compares."""
    json_form = COMMANDS[name].json_form
    return render_json(_payload(name, inputs, result if json_form is None else json_form(result)))


def _verdict(result: dict) -> str:
    # An upper-bound-only value (a cone with r > n+1) is always below 1:
    # there vinf = (n+2)(1-c)/(r+1-c) < 1.
    if parse_rational(result["value"]) >= 1:
        return "K-semistable (delta >= 1)"
    if result.get("proof_coverage") == PROOF_UPPER_BOUND:
        return "K-unstable (upper bound below 1)"
    return "K-unstable (delta < 1)"


def _breakdown_text(title: str) -> Callable[[dict, dict], list[str]]:
    """Text renderer of a DeltaBreakdown result. title is a format string
    over the inputs (a "ge1" delta shows as ">=1") and r_effective."""

    def text(inputs: dict, result: dict) -> list[str]:
        shown = {key: ">=1" if value == GE1 else value for key, value in inputs.items()}
        branches = result["branches"]
        base = branches["base"]
        lines = [
            title.format(r_effective=result.get("r_effective"), **shown),
            f"  base branch : {'unknown (delta(V) >= 1)' if base is None else _show(base)}",
            f"  V0 branch   : {_show(branches['v0'])}",
            f"  Vinf branch : {_show(branches['vinf'])}",
            f"  value       : {_show(result['value'])}",
            f"  minimizers  : {', '.join(result['minimizers'])}",
            f"  verdict     : {_verdict(result)}",
        ]
        if "r_effective" in result:
            lines.append(f"  slope r     : {result['r_effective']}")
        if "proof_coverage" in result:
            lines.append(f"  proof       : {result['proof_coverage']}")
        if result.get("side_conditions"):
            lines.append("  side conditions:")
            lines.extend(f"    - {condition}" for condition in result["side_conditions"])
        return lines

    return text


def _bundle_result(values: dict) -> dict:
    base = FanoBase(values["n"], values["r"], DeltaKnowledge.parse(values["delta_v"]))
    return bundle_delta(base, BundleBoundary(values["a"], values["b"])).to_json_dict()


def _cone_result(values: dict) -> dict:
    base = FanoBase(values["n"], values["r"], DeltaKnowledge.parse(values["delta_v"]))
    return cone_delta(base, ConeBoundary(values["c"])).to_json_dict()


def _branched_result(values: dict) -> dict:
    pair = None if values["delta_pair"] is None else DeltaKnowledge.parse(values["delta_pair"])
    spec = BranchedConeSpec(values["n"], values["k"], values["d"], values["l"])
    return branched_cone_delta(spec, pair).to_json_dict()


def _cone_iterate_result(values: dict) -> dict:
    """The value and the telescoped value as text, and the chain's steps as
    they were computed: text output formats only each step's value."""
    if values["i"] > MAX_ITERATIONS:
        raise DomainError(f"i must be <= {MAX_ITERATIONS}, got {values['i']}")
    spec = HypersurfaceConeSpec(
        values["n"], values["d"], values["i"], DeltaKnowledge.parse(values["delta0"])
    )
    chain = iterated_hypersurface_chain(spec)
    telescoped = telescoping_iterated_cone(spec)
    value = agree(
        "iterated cone: composition vs telescoping", Fraction(*chain[-1].value), telescoped
    )
    return {
        "value": format_rational(value),
        "telescoped_value": format_rational(telescoped),
        "steps": chain,
    }


def _cone_iterate_json(result: dict) -> dict:
    """The JSON result: each step replaced, in place, by the payload
    DeltaBreakdown.to_json_dict writes for it, so the chain is freed before
    the payload is rendered."""
    result["steps"] = [
        breakdown_payload(
            None if step.base is None else format_ratio(*step.base),
            format_ratio(*step.v0),
            format_ratio(*step.vinf),
            format_ratio(*step.value),
            step.minimizers,
            format_ratio(step.slope, 1),
            step.proof_coverage,
        )
        for step in result["steps"]
    ]
    return result


def _cone_iterate_text(inputs: dict, result: dict) -> list[str]:
    lines = [
        f"iterated cone over a degree-{inputs['d']} hypersurface of dimension "
        f"{inputs['n']}, {inputs['i']} iteration(s)"
    ]
    for index, step in enumerate(result["steps"], start=1):
        lines.append(f"  after step {index}: delta = {format_ratio(*step.value)}")
    lines.append(f"  value       : {_show(result['value'])}")
    lines.append("  cross-check : telescoped recursion and step composition agree exactly")
    return lines


def _angle_result(values: dict) -> dict:
    n, lam = values["n"], values["lambda"]
    interval = optimal_angle_interval if lam < 1 else semistable_range_lambda_ge_1
    return interval(n, lam).to_json_dict()


def _angle_text(inputs: dict, result: dict) -> list[str]:
    endpoint = result["endpoint"]
    lines = [
        f"K-semistability angle range for (V, a*S) with n={inputs['n']}, "
        f"lambda={inputs['lambda']}",
        f"  endpoint    : {_show(endpoint)}",
        f"  interval    : [0, {endpoint}{']' if result['semistable_closed'] else ')'}",
        "  hypotheses  :",
    ]
    lines.extend(f"    - {hypothesis}" for hypothesis in result["hypotheses"])
    return lines


def _calabi_result(values: dict) -> dict:
    n, r, mu = values["n"], values["r"], values["mu"]
    profile = solve_profile(n, r, values["beta"])
    beta1, beta2 = edge_angles(profile)
    margin = ricci_bound_margin(profile, mu)
    futaki = futaki_invariant(hermite_admissible_profile(n, r))
    agree("futaki invariant: integral vs closed form", futaki, futaki_closed_form(n, r))
    return {
        "beta0": format_rational(beta_zero(n, r)),
        "c1": format_rational(profile.c1),
        "c2": format_rational(profile.c2),
        "numerator_coefficients": [format_rational(c) for c in profile.numerator.coefficients],
        "beta1": format_rational(beta1),
        "beta2": format_rational(beta2),
        "ricci_margin": format_rational(margin),
        "ricci_bound_holds": margin >= 0,
        "ode_residual_zero": ode_residual(profile).is_zero,
        "ricci_pointwise_constant": ricci_pointwise_residual(profile, mu).is_zero,
        "phi_positive_on_interior": verify_positive_interior(profile),
        "futaki_invariant": format_rational(futaki),
        "futaki_closed_form": format_rational(futaki),
    }


def _calabi_text(inputs: dict, result: dict) -> list[str]:
    return [
        f"momentum profile for n={inputs['n']}, r={inputs['r']}, "
        f"beta={inputs['beta']} (normalized units)",
        f"  beta0        : {result['beta0']}",
        f"  c1           : {result['c1']}",
        f"  c2           : {result['c2']}",
        f"  numerator    : {Polynomial(result['numerator_coefficients'])}",
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


def _calabi_csv(args: argparse.Namespace, values: dict, result: dict) -> list[str]:
    """Write --csv samples of the profile, rebuilt from the result's exact
    coefficients rather than solved again."""
    if args.samples < 2:
        raise DomainError(f"samples must be >= 2, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise DomainError(f"samples must be <= {MAX_SAMPLES}, got {args.samples}")
    if args.csv is None:
        return []
    numerator = Polynomial(result["numerator_coefficients"])
    profile = CalabiProfile(
        values["n"], values["r"], values["beta"], result["c1"], result["c2"], numerator
    )
    rows = ["tau,phi,tau_decimal,phi_decimal"]
    for k, (tau_num, tau_den, phi_num, phi_den) in enumerate(profile.phi_samples(args.samples)):
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
        json_form=_cone_iterate_json,
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
    extra = command.emit(args, values, result) if command.emit else []
    if args.json:
        _write_stdout(_command_json(args.command, inputs, result))
    else:
        _write_stdout("\n".join(command.text(inputs, result) + extra) + "\n")
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
    close it (a missing directory, a full disk) is a CliParseError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise CliParseError(f"cannot write output file: {exc}") from None


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
    """The rows of a --grid file, each (kind, n, *rationals, delta text).
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
    kind, n, r, *boundary, delta_text = row
    base = FanoBase(n, r, DeltaKnowledge.parse(delta_text))
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
