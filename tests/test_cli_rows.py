"""The two long arrays of the schema-1 payloads, cone-iterate's steps and
verify's reports, are written row by row from templates. Each rendered
payload must equal, byte for byte, json.dumps(indent=2) of the same payload
with every row a dict: the dict rows below are that reference, written
from the library's values by this test alone."""

import json
from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fanodelta import DeltaKnowledge, HypersurfaceConeSpec, iterated_hypersurface_chain
from fanodelta.cli import _cone_iterate_json, _payload, _verify_json, render_json
from fanodelta.oracles import OracleReport, VerificationRun


def reference_json(command, inputs, result):
    return json.dumps(_payload(command, inputs, result), indent=2) + "\n"


def reference_step(step):
    def ratio(pair):
        return str(Fraction(*pair))

    return {
        "branches": {
            "base": None if step.base is None else ratio(step.base),
            "v0": ratio(step.v0),
            "vinf": ratio(step.vinf),
        },
        "value": ratio(step.value),
        "lower_bound_only": False,
        "minimizers": list(step.minimizers),
        "r_effective": str(step.slope),
        "proof_coverage": step.proof_coverage,
    }


def reference_report(report):
    return {
        "target": report.target,
        "closed_form": str(report.closed_form),
        "approximation": str(report.approximation),
        "m_or_steps": report.m_or_steps,
        "absolute_error": str(report.absolute_error),
        "bound": str(report.bound),
        "status": report.status,
    }


def chain_of(n, d, i, delta0):
    knowledge = DeltaKnowledge(None if delta0 == "ge1" else Fraction(delta0))
    return iterated_hypersurface_chain(HypersurfaceConeSpec(n, d, i, knowledge))


# A ge1 start leaves the first base unknown (null), and an exact 1 ties the
# base divisor with V0 at the first step.
SHAPE_EXAMPLES = [(2, 3, 3, "ge1"), (3, 2, 2, "1"), (1, 2, 1, "1/3")]


def test_the_examples_cover_every_step_shape():
    steps = [step for case in SHAPE_EXAMPLES for step in chain_of(*case)]
    assert {step.base is None for step in steps} == {True, False}
    assert {len(step.minimizers) for step in steps} >= {1, 2}


@st.composite
def cone_iterate_inputs(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(2, n + 1))
    i = draw(st.integers(1, 60))
    delta0 = draw(
        st.just("ge1") | st.just("1")
        | st.fractions(min_value=0, max_value=3, max_denominator=60).map(str)
    )
    return n, d, i, delta0


@settings(max_examples=150, deadline=None)
@given(cone_iterate_inputs())
@example(SHAPE_EXAMPLES[0])
@example(SHAPE_EXAMPLES[1])
@example(SHAPE_EXAMPLES[2])
def test_step_rows_match_json_dumps(case):
    n, d, i, delta0 = case
    chain = chain_of(n, d, i, delta0)
    inputs = {"n": n, "d": d, "i": i, "delta0": delta0}
    value = str(Fraction(*chain[-1].value))
    reference = {
        "value": value,
        "telescoped_value": value,
        "steps": [reference_step(step) for step in chain],
    }
    expected = reference_json("cone-iterate", inputs, reference)
    assert render_json(_payload("cone-iterate", inputs, _cone_iterate_json(chain))) == expected


big = st.integers(-(10**300), 10**300)
fractions = st.fractions() | st.builds(Fraction, big, st.integers(1, 10**300))
grid_targets = st.builds(
    "bundle_delta(n={}, r={}, a={}, b={}, delta={})".format,
    st.integers(1, 2000), fractions, fractions, fractions, fractions | st.just("ge1"),
) | st.builds(
    "cone_delta(n={}, r={}, c={}, delta={})".format,
    st.integers(1, 2000), fractions, fractions, fractions | st.just("ge1"),
)
reports = st.builds(
    OracleReport,
    target=st.text() | grid_targets,
    closed_form=fractions,
    approximation=fractions,
    m_or_steps=st.integers(1, 10**9),
    bound=fractions.map(abs),
    agrees=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(reports, min_size=1, max_size=6),
    st.sampled_from(["default", "deep"]),
    st.lists(st.text(), max_size=2),
    st.booleans(),
    st.just("default") | st.just("[]") | st.text(),
)
def test_report_rows_match_json_dumps(drawn, mode, notes, deep, grid):
    run = VerificationRun(mode, tuple(drawn), tuple(notes))
    event(f"passed={run.passed}")
    inputs = {"deep": deep, "grid": grid}
    reference = {
        "mode": mode,
        "passed": run.passed,
        "notes": notes,
        "reports": [reference_report(report) for report in drawn],
    }
    expected = reference_json("verify", inputs, reference)
    assert render_json(_payload("verify", inputs, _verify_json(run))) == expected
