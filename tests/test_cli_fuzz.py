"""Property tests of the exit-code contract: every generated argv, mutated
--check payload and --grid file ends in a documented exit code, with one
stderr line and no stdout on failure. A command that succeeds succeeds in
its other form too (text or --json), and both show the same exact value;
a calabi --csv run writes its samples only when it succeeds.

Every generated integer is at most 6 in size, so each call stays cheap: the
contract says what an input ends in, not how long a large one takes to get
there. The exceptions are the inputs with a declared limit. cone-iterate's
--i reaches a few thousand, and one value above MAX_ITERATIONS; every
command's n takes one value above MAX_DIMENSION. An input over its limit
must exit 3 and name the limit. Random values rarely meet the conditions of cone-iterate
and branched-cone, so half of their argvs take in-domain values instead."""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

from hypothesis import event, given, settings
from hypothesis import strategies as st

from fanodelta.cli import (
    COMMANDS,
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    MAX_DIMENSION,
    MAX_ITERATIONS,
    delta,
    integer,
    main,
    rational,
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_line_failure(out, err):
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err


small_ints = st.integers(min_value=-6, max_value=6)
positive_ints = st.integers(min_value=1, max_value=6)
# Mostly inside the domain: a spoiled value supplies the rest.
rational_texts = st.builds("{}/{}".format, positive_ints, positive_ints)
delta_texts = rational_texts | st.just("ge1")
garbage = st.sampled_from(
    ["", "x", "1e3", "1/0", "0.5", "-3", "-1/2", "ge1", "1_0", "\u0663", "1/2"]
)
FLAG_VALUES = {integer: positive_ints.map(str), rational: rational_texts, delta: delta_texts}
iterations = st.integers(min_value=1, max_value=4000) | st.just(MAX_ITERATIONS + 1)
dimensions = positive_ints | st.just(MAX_DIMENSION + 1)
LIMITS = {"n": MAX_DIMENSION, "i": MAX_ITERATIONS}
# In-domain inputs of the commands with conditions across their integers:
# 2 <= d <= n+1 for cone-iterate, and for branched-cone l < k, gcd(k, l) = 1,
# k | d*l - 1 and r = (n+1)k - (k-1)d > 0.
BRANCHED_SPECS = [
    {"n": n, "k": k, "d": d, "l": l}
    for n, k, d, l in itertools.product(range(1, 7), repeat=4)
    if l < k and math.gcd(k, l) == 1 and (d * l - 1) % k == 0 and (n + 1) * k > (k - 1) * d
]
IN_DOMAIN = {
    "cone-iterate": positive_ints.flatmap(lambda n: st.fixed_dictionaries(
        {"n": st.just(n), "d": st.integers(2, n + 1), "i": st.integers(1, 4000)}
    )),
    "branched-cone": st.sampled_from(BRANCHED_SPECS),
}
# The JSON result key whose exact text the text output must show too, on a
# line that starts with the key; "value" for the other commands.
SHOWN = {"angle": "endpoint", "calabi": "c1"}


@st.composite
def command_argvs(draw):
    """A computing command with every input well typed, except at most one
    that is dropped or spoiled, or with the in-domain values of IN_DOMAIN;
    the stderr a run whose inputs are all well typed must end in when one of
    them is over its limit, or None; and the sample count a calabi run is to
    write with --csv, or None."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[name].flags
    fixed = draw(IN_DOMAIN[name]) if name in IN_DOMAIN and draw(st.booleans()) else {}
    spoiled = None if fixed else draw(st.none() | st.sampled_from(flags))
    argv, refusal = [name], None
    for flag in flags:
        if flag is spoiled and draw(st.booleans()):
            continue
        if flag is spoiled:
            value = draw(garbage)
        elif flag.key in fixed:
            value = fixed[flag.key]
        elif flag.key == "n":
            value = draw(dimensions)
        elif (name, flag.key) == ("cone-iterate", "i"):
            value = draw(iterations)
        else:
            value = draw(FLAG_VALUES[flag.convert])
        limit = LIMITS.get(flag.key)
        if spoiled is None and refusal is None and limit is not None and value > limit:
            refusal = f"domain error: {flag.key} must be <= {limit}, got {value}\n"
        # A value such as "-1/2" is read as the value in either form.
        option = f"--{flag.key.replace('_', '-')}"
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, str(value)]
    samples = 33
    if name == "calabi" and draw(st.booleans()):
        samples = draw(small_ints)
        argv.append(f"--samples={samples}")
    if draw(st.booleans()):
        argv.append("--json")
    csv = name == "calabi" and draw(st.booleans())
    return argv, refusal, samples if csv else None


def shown_exact(text, key):
    """The exact text on the line of a command's text output that shows key."""
    line = next(line for line in text.splitlines() if line.startswith(f"  {key} "))
    return line.split(" : ", 1)[1].split(" (", 1)[0]


@settings(max_examples=150, deadline=None)
@given(case=command_argvs())
def test_a_computing_command_ends_in_a_documented_exit(case, tmp_path_factory):
    argv, refusal, csv_samples = case
    folder = tmp_path_factory.mktemp("run")
    csv = folder / "p.csv"
    if csv_samples is not None:
        argv = argv + ["--csv", str(csv)]
    code, out, err = run_main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN), (argv, err)
    if refusal is not None:
        assert err == refusal
    if code != EXIT_OK:
        assert_one_line_failure(out, err)
        assert not csv.exists()
        return
    assert err == ""
    if csv_samples is not None:
        assert len(csv.read_text(encoding="utf-8").splitlines()) == csv_samples + 1
    as_json = "--json" in argv
    other = [arg for arg in argv if arg != "--json"] if as_json else argv + ["--json"]
    other_code, other_out, other_err = run_main(other)
    assert (other_code, other_err) == (EXIT_OK, ""), other
    text, payload = (other_out, out) if as_json else (out, other_out)
    key = SHOWN.get(argv[0], "value")
    assert shown_exact(text, key) == json.loads(payload)["result"][key], argv
    path = folder / "payload.json"
    path.write_text(payload, encoding="utf-8")
    assert run_main(["--check", str(path)])[0] == EXIT_OK, argv


VALID_ARGVS = [
    ["bundle", "--n", "2", "--r", "3", "--delta-v", "ge1", "--a", "1/2", "--b", "1/4"],
    ["cone", "--n", "2", "--r", "3", "--delta-v", "1", "--c", "1/2"],
    ["cone-iterate", "--n", "2", "--d", "3", "--i", "4"],
    ["branched-cone", "--n", "2", "--k", "2", "--d", "3", "--l", "1"],
    ["angle", "--n", "2", "--lambda", "2/3"],
    ["calabi", "--n", "2", "--r", "3", "--beta", "1/2"],
]
json_values = st.one_of(
    st.none(), st.booleans(), small_ints, st.text(max_size=3),
    st.lists(small_ints, max_size=2), st.dictionaries(st.text(max_size=2), small_ints, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(
    argv=st.sampled_from(VALID_ARGVS),
    level=st.sampled_from(["top", "inputs", "result"]),
    action=st.sampled_from(["drop", "retype", "add"]),
    data=st.data(),
)
def test_a_mutated_payload_ends_in_a_documented_exit(
    argv, level, action, data, tmp_path_factory
):
    payload = json.loads(run_main(argv + ["--json"])[1])
    target = payload if level == "top" else payload[level]
    if action == "add":
        key = data.draw(st.text(max_size=4).filter(lambda key: key not in target))
        target[key] = data.draw(json_values)
    else:
        key = data.draw(st.sampled_from(sorted(target)))
        if action == "drop":
            del target[key]
        else:
            old = target[key]
            target[key] = data.draw(json_values.filter(lambda new: type(new) is not type(old)))
    path = tmp_path_factory.mktemp("check") / "payload.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    code, out, err = run_main(["--check", str(path)])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_INTERNAL), err
    if code != EXIT_OK:
        assert_one_line_failure(out, err)
    # A missing or unknown key, any change of a top-level value and an input
    # of another type is a payload the program never writes: malformed
    # input. Any change inside the result is a disagreement with the
    # recomputed one.
    if level == "result":
        assert code == EXIT_INTERNAL, (action, key, err)
    else:
        assert code == EXIT_PARSE, (level, action, key, err)


def grid_rows(width):
    """Rows in the canonical payload form a grid row must take (each
    rational as the text of its Fraction), so an unspoiled grid reaches the
    computation: exit 0, or exit 3 for a row outside the domain. n stays at
    most 6: a row over MAX_DIMENSION has its own test in test_cli.py, and
    one in most grids would leave exit 0 unreached."""
    canonical = st.builds(lambda p, q: str(Fraction(p, q)), positive_ints, positive_ints)
    boundary = st.integers(min_value=0, max_value=6).map(lambda k: str(Fraction(k, 6)))
    row = st.tuples(
        positive_ints, canonical, *[boundary] * (width - 3), canonical | st.just("ge1")
    )
    return st.lists(row.map(list), min_size=1, max_size=2)


@st.composite
def grid_files(draw):
    """A grid of well-formed rows, except at most one spoiled part: an entry,
    an unknown kind, or a top level that is not an object."""
    grid = draw(st.fixed_dictionaries({}, optional={"bundle": grid_rows(5), "cone": grid_rows(4)}))
    spoil = draw(st.sampled_from([None, None, "entry", "kind", "top"]))
    if spoil == "entry" and grid:
        row = grid[draw(st.sampled_from(sorted(grid)))][0]
        row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(garbage | small_ints)
    elif spoil == "kind":
        grid["bundel"] = []
    elif spoil == "top":
        grid = list(grid.values())
    return grid


@settings(max_examples=40, deadline=None)
@given(grid=grid_files())
def test_a_grid_file_ends_in_a_documented_exit(grid, tmp_path_factory):
    folder = tmp_path_factory.mktemp("grid")
    path, report = folder / "grid.json", folder / "report.json"
    path.write_text(json.dumps(grid), encoding="utf-8")
    code, out, err = run_main(["verify", "--grid", str(path), "--json", str(report)])
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN), (grid, err)
    if code != EXIT_OK:
        assert_one_line_failure(out, err)
        assert not report.exists()
