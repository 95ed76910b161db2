"""The benchmark's workloads: seeded operation rounds and their checks.

A workload is a round of operations built once from the seed; a run repeats
the same round until its time is up, so every run attempts whole rounds and
the share of failed operations is the same in every run. Each operation is
an argv for fanodelta's CLI plus a check against checks.py. Nothing here
imports fanodelta at module level: prepare() does, so that the set-up probe
times the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
from checks import CheckFailed, expect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 120


@dataclass
class Outcome:
    returncode: int | None
    stdout: str
    stderr: str
    escaped: str | None = None  # exception that escaped cli.main


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[Outcome], None]
    known_fault: bool = False  # fails until a named program fault is mended


@dataclass
class Prepared:
    ops: list[Op]
    execute: Callable[[list[str]], tuple[Outcome, float]]
    tmp: Path
    children: bool = False  # ops run as subprocesses


def check_op(op: Op, outcome: Outcome) -> None:
    """Raises CheckFailed when the op's output is wrong or malformed."""
    if outcome.escaped is not None:
        raise CheckFailed(f"exception escaped cli.main: {outcome.escaped}")
    try:
        op.check(outcome)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None


def succeeded(check: Callable[[str], None]) -> Callable[[Outcome], None]:
    def run(outcome: Outcome) -> None:
        expect(outcome.returncode == 0, f"exit {outcome.returncode}: {outcome.stderr.strip()}")
        check(outcome.stdout)
    return run


def exits_domain(outcome: Outcome) -> None:
    checks.check_single_line_error(outcome.returncode, outcome.stderr, 3)


def check_ok(outcome: Outcome) -> None:
    expect(outcome.returncode == 0, f"--check exit {outcome.returncode}")
    expect(outcome.stdout.startswith("check ok:"), "--check did not report ok")


# Seeded small inputs.

DELTAS = ("1/2", "1", "3/2", "2", "ge1")


def pick(rng: random.Random, values):
    return values[rng.randrange(len(values))]


# Exact values stay well below CPython's 4300-digit int/str conversion limit.
MAX_DIGITS = 3000


def digits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length()) * 30103 // 100000


def bundle_op(rng: random.Random, as_json: bool, n_range=(1, 6)) -> Op:
    while True:
        n = rng.randint(*n_range)
        r = pick(rng, ("1/2", "1", "3/2", "2", "5/2", "3", "7/3", "4"))
        a = pick(rng, [x for x in ("0", "1/4", "1/3", "1/2", "2/3", "3/4")
                       if Fraction(r) > 1 or 1 - Fraction(r) < Fraction(x)])
        b, delta = pick(rng, ("0", "1/4", "1/2")), pick(rng, DELTAS)
        want = checks.bundle_expected(n, Fraction(r), checks.parse_delta(delta),
                                      Fraction(a), Fraction(b))
        if max(digits(want[key]) for key in ("v0", "vinf")) < MAX_DIGITS:
            break
    argv = ["bundle", "--n", str(n), "--r", r, "--delta-v", delta, "--a", a, "--b", b]
    return cli_op("bundle", argv, as_json,
                  lambda out: checks.check_breakdown(out, "bundle", as_json, want))


def cone_op(rng: random.Random, as_json: bool, n_range=(1, 6)) -> Op:
    n = rng.randint(*n_range)
    r = pick(rng, ("1/2", "1", "3/2", "2", "3", "7/3", "5"))
    c = pick(rng, ("0", "1/4", "1/2", "3/4"))
    delta = pick(rng, DELTAS)
    want = checks.cone_expected(n, Fraction(r), checks.parse_delta(delta), Fraction(c))
    argv = ["cone", "--n", str(n), "--r", r, "--delta-v", delta, "--c", c]
    return cli_op("cone", argv, as_json,
                  lambda out: checks.check_breakdown(out, "cone", as_json, want))


def iterate_op(rng: random.Random, as_json: bool, i_range=(1, 8)) -> Op:
    n = rng.randint(1, 5)
    d, i = rng.randint(2, n + 1), rng.randint(*i_range)
    delta0 = pick(rng, ("ge1", "1", "3/4", "1/2"))
    argv = ["cone-iterate", "--n", str(n), "--d", str(d), "--i", str(i), "--delta0", delta0]
    return cli_op("cone-iterate", argv, as_json, lambda out: checks.check_iterate(
        out, as_json, n, d, i, checks.parse_delta(delta0)))


BRANCHED = [
    (n, k, d, l)
    for n in range(1, 6) for k in range(2, 6) for d in range(1, n + 3) for l in range(1, k)
    if math.gcd(k, l) == 1 and (d * l - 1) % k == 0 and checks.branched_slope(n, k, d) > 0
]


def branched_op(rng: random.Random, as_json: bool) -> Op:
    n, k, d, l = pick(rng, BRANCHED)
    argv = ["branched-cone", "--n", str(n), "--k", str(k), "--d", str(d), "--l", str(l)]
    delta = "ge1"
    if d <= n:  # no automatic semistability guarantee: state delta of the pair
        delta = pick(rng, DELTAS)
        argv += ["--delta-pair", delta]
    want = checks.cone_expected(n, Fraction(checks.branched_slope(n, k, d)),
                                checks.parse_delta(delta), Fraction(0))
    return cli_op("branched-cone", argv, as_json,
                  lambda out: checks.check_breakdown(out, "branched-cone", as_json, want))


def angle_op(rng: random.Random, as_json: bool) -> Op:
    n = rng.randint(1, 5)
    lam = pick(rng, [x for x in ("1/2", "2/3", "3/4", "4/5", "1", "3/2", "2", "3")
                     if Fraction(x) >= Fraction(1, n + 1)])
    argv = ["angle", "--n", str(n), "--lambda", lam]
    return cli_op("angle", argv, as_json,
                  lambda out: checks.check_angle(out, as_json, n, Fraction(lam)))


def calabi_op(rng: random.Random, as_json: bool) -> Op:
    n, r = rng.randint(1, 4), pick(rng, ("3/2", "2", "5/2", "3", "4"))
    argv = ["calabi", "--n", str(n), "--r", r]
    if rng.random() < 0.5:
        argv += ["--beta", pick(rng, ("1/2", "1", "3/4"))]
    argv += ["--mu", pick(rng, ("1", "1/2", "2"))]
    return cli_op("calabi", argv, as_json,
                  lambda out: checks.check_calabi(out, as_json, n, Fraction(r)))


def cli_op(command: str, argv: list[str], as_json: bool, check: Callable[[str], None]) -> Op:
    if as_json:
        argv = argv + ["--json"]
    return Op(f"{command} --json" if as_json else command, argv, succeeded(check))


# Well-formed flags outside a function's domain: each must exit 3.
OUT_OF_DOMAIN = (
    ["bundle", "--n", "2", "--r", "2", "--delta-v", "1", "--a", "1"],
    ["bundle", "--n", "1", "--r", "2", "--delta-v", "-1"],
    ["cone", "--n", "1", "--r", "1", "--delta-v", "1", "--c", "1"],
    ["cone-iterate", "--n", "2", "--d", "5", "--i", "2"],
    ["branched-cone", "--n", "2", "--k", "2", "--d", "4", "--l", "1"],
    ["angle", "--n", "2", "--lambda", "1/5"],
    ["calabi", "--n", "1", "--r", "1"],
    ["calabi", "--n", "2", "--r", "3", "--beta", "-1"],
)

# A payload whose embedded inputs are out of domain: --check must exit 3
# with one diagnostic line. Its inputs do not depend on the seed.
OUT_OF_DOMAIN_PAYLOAD = {
    "schema": "1",
    "command": "bundle",
    "inputs": {"n": 1, "r": "-2", "delta_v": "1", "a": "0", "b": "0"},
    "result": {},
}


def out_of_domain_op(argv: list[str]) -> Op:
    return Op("out-of-domain", list(argv), exits_domain)


def write_check_payloads(ops: list[Op], prepared: Prepared) -> list[Op]:
    """Emit each op's JSON through the program, store it, and return one
    --check op per stored payload. The emitting ops are checked in the loop."""
    check_ops = []
    for index, op in enumerate(ops):
        outcome, _ = prepared.execute(op.argv)
        path = prepared.tmp / f"payload-{index}.json"
        path.write_text(outcome.stdout, encoding="utf-8")
        check_ops.append(Op("--check", ["--check", str(path)], check_ok))
    return check_ops


def small_mix(rng: random.Random, counts: dict) -> list[Op]:
    makers = {"bundle": bundle_op, "cone": cone_op, "cone-iterate": iterate_op,
              "branched-cone": branched_op, "angle": angle_op, "calabi": calabi_op}
    ops = []
    for command, (text, as_json) in counts.items():
        ops += [makers[command](rng, False) for _ in range(text)]
        ops += [makers[command](rng, True) for _ in range(as_json)]
    return ops


# Executors.


def inprocess_executor(cli) -> Callable[[list[str]], tuple[Outcome, float]]:
    def execute(argv: list[str]) -> tuple[Outcome, float]:
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a fault of the program under test
                escaped = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        return Outcome(rc, out.getvalue(), err.getvalue(), escaped), elapsed
    return execute


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(extra or {})
    return env


def child_executor(command: list[str], env: dict) -> Callable[[list[str]], tuple[Outcome, float]]:
    def execute(argv: list[str]) -> tuple[Outcome, float]:
        start = perf_counter()
        done = subprocess.run(command + argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - start
        return Outcome(done.returncode, done.stdout, done.stderr), elapsed
    return execute


def import_cli():
    from fanodelta import cli
    expect(Path(cli.__file__).resolve().is_relative_to(SRC),
           f"fanodelta imported from {cli.__file__}")
    return cli


# Workloads.


def prepare_dispatch(seed: int, tmp: Path) -> Prepared:
    prepared = Prepared([], inprocess_executor(import_cli()), tmp)
    rng = random.Random(seed)
    ops = small_mix(rng, {"bundle": (3, 3), "cone": (2, 2), "cone-iterate": (2, 2),
                          "branched-cone": (2, 2), "angle": (2, 2), "calabi": (2, 2)})
    emitted = [op for op in ops if op.kind.endswith("--json")]
    ops += write_check_payloads(rng.sample(emitted, 4), prepared)
    ops += [out_of_domain_op(argv) for argv in rng.sample(OUT_OF_DOMAIN, 2)]
    bad = tmp / "out-of-domain-payload.json"
    bad.write_text(json.dumps(OUT_OF_DOMAIN_PAYLOAD, indent=2) + "\n", encoding="utf-8")
    ops.append(Op("--check out-of-domain", ["--check", str(bad)], exits_domain, known_fault=True))
    rng.shuffle(ops)
    prepared.ops = ops
    warm_up(prepared)
    return prepared


def csv_op(rng: random.Random, tmp: Path, samples_range: tuple[int, int]) -> Op:
    n, r = rng.randint(2, 3), pick(rng, ("3/2", "2", "5/2", "3"))
    samples = rng.randint(*samples_range)
    path = tmp / f"profile-{n}-{r.replace('/', '_')}-{samples}.csv"
    argv = ["calabi", "--n", str(n), "--r", r, "--csv", str(path), "--samples", str(samples)]

    def check(out: str) -> None:
        checks.check_calabi(out, False, n, Fraction(r))
        checks.check_profile_csv(path.read_text(encoding="utf-8"), Fraction(r), samples)
        path.unlink()
    return Op("calabi --csv", argv, succeeded(check))


def scale_round(rng: random.Random, tmp: Path, big: bool) -> list[Op]:
    """Large exact inputs; big=False gives the same kinds at small size.

    The two cheap ops (bundle, cone) sit below the four cone-iterate ops and
    the two large CSV profiles above them, so the median latency is the
    middle of the cone-iterate ops, whose cost barely depends on the seed:
    i stays within +-2.5 %, and n, d and delta0 hardly change the cost."""
    i_range = (2150, 2250) if big else (3, 6)
    samples = (9500, 10500) if big else (5, 9)
    n_range = (1000, 2000) if big else (2, 6)
    return [
        bundle_op(rng, True, n_range),
        cone_op(rng, True, n_range),
        iterate_op(rng, False, i_range),
        iterate_op(rng, False, i_range),
        iterate_op(rng, True, i_range),
        iterate_op(rng, True, i_range),
        csv_op(rng, tmp, samples),
        csv_op(rng, tmp, samples),
    ]


def prepare_scale(seed: int, tmp: Path) -> Prepared:
    prepared = Prepared([], inprocess_executor(import_cli()), tmp)
    rng = random.Random(seed)
    warm_up(Prepared(scale_round(rng, tmp, big=False), prepared.execute, tmp))
    prepared.ops = scale_round(rng, tmp, big=True)
    return prepared


def prepare_oracles(seed: int, tmp: Path) -> Prepared:
    """verify --deep; the default-mode run made here is the reference for
    the observed-order check. The suite takes no inputs, so the seed only
    names the report file."""
    prepared = Prepared([], inprocess_executor(import_cli()), tmp)
    default_path, deep_path = tmp / "verify-default.json", tmp / f"verify-deep-{seed}.json"
    prepared.execute(["verify", "--json", str(default_path)])

    def check(out: str) -> None:
        checks.check_verify_summary(out, "deep")
        deep = checks.check_reports(json.loads(deep_path.read_text()), "deep")
        deep_path.unlink()
        default = checks.check_reports(json.loads(default_path.read_text()), "default")
        checks.check_orders(default, deep)
    prepared.ops = [Op("verify --deep", ["verify", "--deep", "--json", str(deep_path)],
                       succeeded(check))]
    return prepared


def prepare_cold(seed: int, tmp: Path) -> Prepared:
    execute = child_executor([sys.executable, "-m", "fanodelta.cli"], child_env())
    prepared = Prepared([], execute, tmp, children=True)
    rng = random.Random(seed)
    ops = [bundle_op(rng, False), cone_op(rng, True), iterate_op(rng, False),
           branched_op(rng, False), angle_op(rng, True), calabi_op(rng, False)]
    ops += write_check_payloads([ops[1]], prepared)
    ops.append(out_of_domain_op(pick(rng, OUT_OF_DOMAIN)))
    ops.append(Op("verify", ["verify"],
                  succeeded(lambda out: checks.check_verify_summary(out, "default"))))
    prepared.ops = ops
    return prepared


PREPARE = {
    "dispatch": prepare_dispatch,
    "scale": prepare_scale,
    "oracles": prepare_oracles,
    "cold": prepare_cold,
}


def warm_up(prepared: Prepared) -> None:
    for op in prepared.ops:
        prepared.execute(op.argv)
