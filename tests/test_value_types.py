"""The value-type contract, shared by every value the library builds and by
Polynomial: immutable, equal and hashed by class and fields, shown by its
fields in order, and copied and pickled to an equal value."""

import copy
import pickle
from fractions import Fraction

import pytest

from fanodelta.angle import AngleInterval
from fanodelta.bundle import BundleBoundary, DeltaBreakdown, DeltaKnowledge, FanoBase
from fanodelta.calabi import AdmissibleProfile, CalabiProfile, hermite_admissible_profile
from fanodelta.cone import BranchedConeSpec, ConeBoundary, HypersurfaceConeSpec
from fanodelta.exactarith import Immutable, Polynomial
from fanodelta.oracles import OracleReport, VerificationRun

REPORT = (
    "OracleReport(target='t', closed_form=Fraction(1, 1), approximation=Fraction(9, 10), "
    "m_or_steps=10, bound=Fraction(1, 10), agrees=True, absolute_error=Fraction(1, 10), "
    "status='pass')"
)


def _report():
    return OracleReport("t", Fraction(1), Fraction(9, 10), 10, Fraction(1, 10))


# Each case: a value, the same value built another way, and its repr, which
# is the repr the frozen dataclasses of earlier releases printed, save the lo
# and hi that both Calabi profiles now carry.
CASES = {
    "DeltaKnowledge": (
        lambda: DeltaKnowledge(1),
        lambda: DeltaKnowledge.exact(Fraction(1)),
        "DeltaKnowledge(value=Fraction(1, 1))",
    ),
    "FanoBase": (
        lambda: FanoBase(2, 3, DeltaKnowledge(1)),
        lambda: FanoBase(n=2, r=Fraction(3), delta_v=DeltaKnowledge.exact(1)),
        "FanoBase(n=2, r=Fraction(3, 1), delta_v=DeltaKnowledge(value=Fraction(1, 1)))",
    ),
    "BundleBoundary": (
        lambda: BundleBoundary(Fraction(1, 2)),
        lambda: BundleBoundary(Fraction(1, 2), 0),
        "BundleBoundary(a=Fraction(1, 2), b=Fraction(0, 1))",
    ),
    "DeltaBreakdown": (
        lambda: DeltaBreakdown(None, Fraction(1, 2), Fraction(1, 2), proof_coverage="full"),
        lambda: DeltaBreakdown(
            base_branch=None, v0_branch=Fraction(1, 2), vinf_branch=Fraction(1, 2),
            r_effective=None, proof_coverage="full", side_conditions=None,
        ),
        "DeltaBreakdown(base_branch=None, v0_branch=Fraction(1, 2), vinf_branch=Fraction(1, 2), "
        "value=Fraction(1, 2), minimizers=('V0', 'Vinf'), r_effective=None, "
        "proof_coverage='full', side_conditions=None)",
    ),
    "ConeBoundary": (
        lambda: ConeBoundary(),
        lambda: ConeBoundary(0),
        "ConeBoundary(c=Fraction(0, 1))",
    ),
    "HypersurfaceConeSpec": (
        lambda: HypersurfaceConeSpec(2, 3, 1, DeltaKnowledge(None)),
        lambda: HypersurfaceConeSpec(n=2, d=3, i=1, delta_v0=DeltaKnowledge.at_least_one()),
        "HypersurfaceConeSpec(n=2, d=3, i=1, delta_v0=DeltaKnowledge(value=None))",
    ),
    "BranchedConeSpec": (
        lambda: BranchedConeSpec(2, 2, 3, 1),
        lambda: BranchedConeSpec(n=2, k=2, d=3, l=1),
        "BranchedConeSpec(n=2, k=2, d=3, l=1)",
    ),
    "AngleInterval": (
        lambda: AngleInterval(Fraction(1, 2), False, ("h",)),
        lambda: AngleInterval(endpoint=Fraction(1, 2), closed=False, hypotheses=("h",)),
        "AngleInterval(endpoint=Fraction(1, 2), closed=False, hypotheses=('h',))",
    ),
    "CalabiProfile": (
        lambda: CalabiProfile(1, 2, 1),
        lambda: CalabiProfile(n=1, r=Fraction(2), beta=Fraction(1)),
        "CalabiProfile(n=1, r=Fraction(2, 1), lo=Fraction(1, 1), hi=Fraction(3, 1), "
        "beta=Fraction(1, 1), beta0=Fraction(6, 7), "
        "c1=Fraction(13, 12), c2=Fraction(-3, 4), "
        "numerator=Polynomial(-1/3*t^3 + 13/12*t^2 - 3/4))",
    ),
    "AdmissibleProfile": (
        lambda: hermite_admissible_profile(1, 2),
        lambda: AdmissibleProfile(1, 2, Polynomial([0, Fraction(-3, 2), 2, Fraction(-1, 2)])),
        "AdmissibleProfile(n=1, r=Fraction(2, 1), lo=Fraction(1, 1), hi=Fraction(3, 1), "
        "numerator=Polynomial(-1/2*t^3 + 2*t^2 - 3/2*t), "
        "integrand=Polynomial(2*t^2 - 4*t))",
    ),
    "OracleReport": (
        _report,
        lambda: OracleReport(
            target="t", closed_form=Fraction(1), approximation=Fraction(9, 10), m_or_steps=10,
            bound=Fraction(1, 10), agrees=True,
        ),
        REPORT,
    ),
    "VerificationRun": (
        lambda: VerificationRun("default", (_report(),), ("note",)),
        lambda: VerificationRun(mode="default", reports=(_report(),), notes=("note",)),
        f"VerificationRun(mode='default', reports=({REPORT},), notes=('note',))",
    ),
    "Polynomial": (
        lambda: Polynomial([1, 2]),
        lambda: Polynomial([Fraction(1), 2, 0]),
        "Polynomial(2*t + 1)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    build, rebuild, shown = CASES[name]
    value = build()
    assert type(value).__name__ == name
    # Immutable: no field can be assigned or deleted, and none added.
    field = type(value).__slots__[0]
    for change in (
        lambda: setattr(value, field, None),
        lambda: delattr(value, field),
        lambda: setattr(value, "extra", None),
    ):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            change()
    # Equal by class and fields, and hashed to match.
    same = rebuild()
    assert same is not value and same == value and hash(same) == hash(value)
    others = [other() for key, (other, _, _) in CASES.items() if key != name]
    assert all(value != other for other in others)
    assert repr(value) == shown
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == shown


@pytest.mark.parametrize("name", CASES)
def test_immutable_init_refuses_a_wrong_field_count(name):
    cls = type(CASES[name][0]())
    fields = len(cls.__slots__)
    for count in (fields - 1, fields + 1):
        with pytest.raises(TypeError, match=f"^{name} takes {fields} fields$"):
            Immutable.__init__(object.__new__(cls), *[None] * count)


def test_a_copied_admissible_profile_carries_its_integrand():
    profile = hermite_admissible_profile(2, 3)
    integrand = profile.integrand
    assert profile.integrand is integrand
    for copied in (copy.copy(profile), pickle.loads(pickle.dumps(profile))):
        assert copied.integrand == integrand
