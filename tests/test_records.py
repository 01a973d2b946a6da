"""The record types: constructors, equality, hashing, ordering, reprs and reports.

Every record compares equal field by field and only to its own type.  The
immutable ones hash by their fields, so they serve as set members and
cache keys; the reports that fill in as they go are unhashable.  Every
record prints as `Cls(field=value, ...)` in field order.
"""

import json
from functools import lru_cache

import pytest

from oracles import UniquenessCertificate
from tanglekit.census import EnumerationReport
from tanglekit.diagram.core import Component, TangleDiagram
from tanglekit.diagram.identify import LinkId
from tanglekit.experiments import (
    EquationCheck,
    ExperimentSystem,
    SolutionReport,
    VerificationReport,
)
from tanglekit.graphdeduce import Derivation, FactBase, ProofTrace
from tanglekit.rational import (
    TangleFraction,
    TwoBridgeLink,
    reduce,
)

HOPF = TwoBridgeLink(2, 1, 1)

# Two equal instances built apart, and one that differs in one field.
HASHABLE = [
    (lambda: TangleFraction(-1, 4), TangleFraction(-1, 5)),
    (lambda: TwoBridgeLink(7, 3, -1), TwoBridgeLink(7, 3, 1)),
    (
        lambda: UniquenessCertificate(4, 10, 77, (TangleFraction(-1, 4),)),
        UniquenessCertificate(4, 10, 78, (TangleFraction(-1, 4),)),
    ),
    (lambda: Component("s1", False, (0, 5), 0, 3), Component("s1", False, (0, 5), 0, 2)),
    (
        lambda: TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1))),
        TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("c", 1))),
    ),
    (
        lambda: LinkId("torus2", two_bridge=HOPF, torus=2, components=2),
        LinkId("torus2", two_bridge=HOPF, torus=-2, components=2),
    ),
    (lambda: ExperimentSystem(L1=6, d3=-1), ExperimentSystem(L1=6, d3=1)),
    (
        lambda: SolutionReport(*[TangleFraction(-1, 4)] * 4, 1, -1, 1, frozenset({0, 4}), -1),
        SolutionReport(*[TangleFraction(-1, 4)] * 4, 1, -1, 1, frozenset({0}), -1),
    ),
    (lambda: FactBase(frozenset({"Planar"})), FactBase(frozenset({"NotPlanar"}))),
    (
        lambda: Derivation("thompson", ("PlanarMinus:e1",), "Planar"),
        Derivation("thompson", ("PlanarMinus:e2",), "Planar"),
    ),
]
IDS = [type(other).__name__ for _, other in HASHABLE]


@pytest.mark.parametrize("make,other", HASHABLE, ids=IDS)
def test_equal_by_fields_and_hashable(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2
    assert {a: "x"}[b] == "x"


@pytest.mark.parametrize("make,other", HASHABLE, ids=IDS)
def test_cache_key(make, other):
    @lru_cache(maxsize=None)
    def seen(record):
        return object()

    first = seen(make())
    assert seen(make()) is first
    assert seen(other) is not first
    assert seen.cache_info().hits == 1


@pytest.mark.parametrize("make,other", HASHABLE, ids=IDS)
def test_equal_only_to_own_type(make, other):
    a = make()
    assert a != object()
    assert a != None  # noqa: E711
    assert (a == 0) is False


def test_fraction_fields_as_tuple_do_not_compare_equal():
    assert TangleFraction(1, 2) != (1, 2)
    assert LinkId("unknot") != "unknot"


def test_reports_are_unhashable_and_equal_by_fields():
    check = EquationCheck("N(O1 + 0/1) = unknot", "unknot", "unknot", True)
    pairs = [
        (check, EquationCheck("N(O1 + 0/1) = unknot", "unknot", "unknot", True, False)),
        (VerificationReport([check]), VerificationReport([check])),
        (
            ProofTrace([Derivation("g", ("a",), "b")]),
            ProofTrace([Derivation("g", ("a",), "b")]),
        ),
        (EnumerationReport(2, 5, 3, 1, 1, ["pd"]), EnumerationReport(2, 5, 3, 1, 1, ["pd"])),
    ]
    for a, b in pairs:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
    assert check != EquationCheck("N(O1 + 0/1) = unknot", "unknot", "unknot", True, True)
    assert EnumerationReport(2) != EnumerationReport(3)


def test_fraction_orders_by_p_then_q():
    fracs = [reduce(3, 2), reduce(-1, 4), TangleFraction(1, 0), reduce(1, 3), reduce(-1, 2)]
    assert [str(f) for f in sorted(fracs)] == ["-1/2", "-1/4", "1/0", "1/3", "3/2"]
    a, b = TangleFraction(1, 2), TangleFraction(1, 3)
    assert a < b and a <= b and b > a and b >= a
    assert a <= TangleFraction(1, 2) and a >= TangleFraction(1, 2)
    assert not a < TangleFraction(1, 2)
    assert max(fracs) == TangleFraction(3, 2)
    with pytest.raises(TypeError):
        a < (1, 3)  # noqa: B015


def test_keywords_defaults_and_fresh_lists():
    assert ExperimentSystem() == ExperimentSystem(4, 4, 4, 3, 5, 3, 2, 3, 0, 0, 0)
    sys = ExperimentSystem(L2=6, inv_t=5, d1=-1)
    assert (sys.L1, sys.L2, sys.inv_t, sys.d1, sys.d3) == (4, 6, 5, -1, 0)
    assert LinkId("unlink2", components=2).two_bridge is None
    comp = Component(label="l", closed=True, out_darts=())
    assert (comp.start_ep, comp.end_ep) == (None, None)
    d = TangleDiagram(n=0, k=0, alpha=(), free_loops=("o",))
    assert d == TangleDiagram(0, 0, (), (), (), ("o",))
    assert EquationCheck("e", "x", "y", False).inconclusive is False
    for make, attr in (
        (VerificationReport, "checks"),
        (ProofTrace, "steps"),
        (lambda: EnumerationReport(1), "unresolved"),
    ):
        a, b = make(), make()
        assert getattr(a, attr) == [] and getattr(a, attr) is not getattr(b, attr)


def test_reprs_name_their_fields():
    assert repr(TangleFraction(-1, 4)) == "TangleFraction(p=-1, q=4)"
    assert repr(HOPF) == "TwoBridgeLink(p=2, qc=1, mirror=1)"
    assert repr(LinkId("unknot")) == (
        "LinkId(kind='unknot', two_bridge=None, torus=None, components=None)"
    )


def test_diagram_caches_its_traced_strands():
    d = TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1)))
    assert d.components is d.components
    assert [c.label for c in d.components] == ["a", "b"]
    assert d == TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1)))


def test_enumeration_report_as_dict_and_merge():
    a = EnumerationReport(3, total=10, split=6, parallel=2, reducible=1, unresolved=["x"])
    b = EnumerationReport(3, total=4, split=1, parallel=1, reducible=0, unresolved=["y", "z"])
    doc = a.as_dict()
    assert list(doc) == ["n", "total", "split", "parallel", "reducible", "unresolved", "holds"]
    assert json.dumps(doc, sort_keys=True) == (
        '{"holds": false, "n": 3, "parallel": 2, "reducible": 1, "split": 6, '
        '"total": 10, "unresolved": ["x"]}'
    )
    doc["unresolved"].append("w")
    assert a.unresolved == ["x"]  # as_dict copies the list

    merged = a.merge(b)
    assert merged.as_dict() == {
        "n": 3, "total": 14, "split": 7, "parallel": 3, "reducible": 1,
        "unresolved": ["x", "y", "z"], "holds": False,
    }
    assert (a.total, a.unresolved, b.unresolved) == (10, ["x"], ["y", "z"])

    # the --jobs round trip: each worker's as_dict, less "holds", rebuilt and merged
    total = EnumerationReport(3)
    for part in (a.as_dict(), b.as_dict()):
        part.pop("holds")
        total = total.merge(EnumerationReport(**part))
    assert total == merged
    assert EnumerationReport(0).as_dict()["holds"] is True
    with pytest.raises(ValueError):
        a.merge(EnumerationReport(4))


REPRS = [
    (TangleFraction(-1, 4), "TangleFraction(p=-1, q=4)"),
    (HOPF, "TwoBridgeLink(p=2, qc=1, mirror=1)"),
    (
        UniquenessCertificate(4, 10, 77, (TangleFraction(-1, 4),)),
        "UniquenessCertificate(L=4, bound=10, candidates_checked=77, "
        "solutions=(TangleFraction(p=-1, q=4),))",
    ),
    (
        Component("s1", False, (0, 5), 0, 3),
        "Component(label='s1', closed=False, out_darts=(0, 5), start_ep=0, end_ep=3)",
    ),
    (
        TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1))),
        "TangleDiagram(n=1, k=0, alpha=(2, 3, 0, 1), strings=(), "
        "loops=(('a', 0), ('b', 1)), free_loops=())",
    ),
    (
        LinkId("torus2", two_bridge=HOPF, torus=2, components=2),
        "LinkId(kind='torus2', two_bridge=TwoBridgeLink(p=2, qc=1, mirror=1), "
        "torus=2, components=2)",
    ),
    (
        ExperimentSystem(L1=6, d3=-1),
        "ExperimentSystem(L1=6, L2=4, L3=4, inv1=3, inv2=5, inv3=3, Lt=2, inv_t=3, "
        "d1=0, d2=0, d3=-1)",
    ),
    (
        SolutionReport(*[TangleFraction(-1, 4)] * 4, 1, -1, 1, frozenset({0}), -1),
        "SolutionReport(O1=TangleFraction(p=-1, q=4), O2=TangleFraction(p=-1, q=4), "
        "O3=TangleFraction(p=-1, q=4), T_minus_s23=TangleFraction(p=-1, q=4), "
        "v1=1, v2=-1, v3=1, d_t_set=frozenset({0}), v_t=-1)",
    ),
    (FactBase(frozenset({"Planar"})), "FactBase(facts=frozenset({'Planar'}))"),
    (
        Derivation("thompson", ("PlanarMinus:e1",), "Planar"),
        "Derivation(rule='thompson', premises=('PlanarMinus:e1',), derived='Planar')",
    ),
    (
        EquationCheck("e", "unknot", "b(3,1)", False, True),
        "EquationCheck(name='e', expected='unknot', observed='b(3,1)', passed=False, "
        "inconclusive=True)",
    ),
    (
        VerificationReport([EquationCheck("e", "x", "x", True)]),
        "VerificationReport(checks=[EquationCheck(name='e', expected='x', observed='x', "
        "passed=True, inconclusive=False)])",
    ),
    (
        ProofTrace([Derivation("g", ("a",), "b")]),
        "ProofTrace(steps=[Derivation(rule='g', premises=('a',), derived='b')])",
    ),
    (
        EnumerationReport(2, 5, 3, 1, 1, ["pd"]),
        "EnumerationReport(n=2, total=5, split=3, parallel=1, reducible=1, unresolved=['pd'])",
    ),
]


@pytest.mark.parametrize("record,text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_names_every_field_in_order(record, text):
    assert repr(record) == text


@pytest.mark.parametrize(
    "record,fields",
    [
        (TangleFraction(-1, 4), (-1, 4)),
        (TwoBridgeLink(7, 3, -1), (7, 3, -1)),
        (Component("s1", False, (0, 5), 0, 3), ("s1", False, (0, 5), 0, 3)),
        (
            TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1))),
            (1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1)), ()),
        ),
    ],
    ids=["TangleFraction", "TwoBridgeLink", "Component", "TangleDiagram"],
)
def test_hash_is_the_hash_of_the_field_tuple(record, fields):
    # set and dict iteration order over records then matches that of their field tuples
    assert hash(record) == hash(fields)


@pytest.mark.parametrize(
    "cls", [EquationCheck, VerificationReport, ProofTrace, EnumerationReport]
)
def test_reports_that_fill_in_have_no_hash(cls):
    assert cls.__hash__ is None
