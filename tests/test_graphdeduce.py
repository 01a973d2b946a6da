"""Planarity fact closure: rules, traces, scenarios, consistency.

Each scenario is a fact file, the `--facts` input a user would pass to
`tanglekit deduce`.
"""

import json

import pytest

from tanglekit import graphdeduce
from tanglekit.errors import TangleError
from tanglekit.graphdeduce import (
    COMPRESSIBLE,
    EDGES,
    NOT_PLANAR,
    PLANAR,
    FactBase,
    _fire_g_bij,
    _fire_opposite,
    _fire_thompson,
    compressible_minus,
    deduce,
    planar_minus,
    planar_subgraph,
)

RATIONAL_SOLUTION = "tests/fixtures/facts_rational_solution.json"
OPPOSITE = "bench/data/facts_opposite.json"
THREE_TRANS = "tests/fixtures/facts_three_trans.json"
NO_COMMON_VERTEX = "tests/fixtures/facts_no_common_vertex.json"
INCOMPRESSIBLE = "bench/data/facts_incompressible.json"
COUNTEREXAMPLES = (THREE_TRANS, NO_COMMON_VERTEX, INCOMPRESSIBLE)

# Planar, NotPlanar, CompressibleExt, and both deletion atoms of each edge
BASE_ATOMS = (PLANAR, NOT_PLANAR, COMPRESSIBLE) + tuple(
    atom(e) for e in EDGES for atom in (planar_minus, compressible_minus)
)


def load_facts(path):
    """The fact base of a `--facts` file."""
    with open(path, encoding="utf-8") as fh:
        return FactBase.from_atoms(json.load(fh)["facts"])


def fire(rule, fb):
    """`fb` with what one firing of `rule` derives from it."""
    return fb.with_facts(d.derived for d in rule(fb))


class TestAtoms:
    def test_valid_atoms(self):
        FactBase.from_atoms(["PlanarMinus:e1", "CompressibleExt", "Planar"])

    def test_invalid_atom(self):
        with pytest.raises(TangleError):
            FactBase.from_atoms(["PlanarMinus:e9"])
        with pytest.raises(TangleError):
            FactBase.from_atoms(["Bogus"])


class TestRules:
    def test_thompson_forward(self):
        fb = FactBase.from_atoms(
            [planar_minus(e) for e in EDGES] + [COMPRESSIBLE]
        )
        assert PLANAR in fire(_fire_thompson, fb)

    def test_thompson_needs_compressibility(self):
        fb = FactBase.from_atoms([planar_minus(e) for e in EDGES])
        assert PLANAR not in fire(_fire_thompson, fb)

    def test_thompson_converse(self):
        fb = FactBase.from_atoms([PLANAR])
        out = fire(_fire_thompson, fb)
        assert all(planar_minus(e) in out for e in EDGES)
        assert COMPRESSIBLE in out

    def test_empty_base_no_change(self):
        fb = FactBase.from_atoms([])
        assert fire(_fire_thompson, fb).facts == fb.facts
        assert fire(_fire_g_bij, fb).facts == fb.facts
        assert fire(_fire_opposite, fb).facts == fb.facts

    def test_g_bij_spoke_star(self):
        fb = FactBase.from_atoms(
            [planar_minus(e) for e in ("e1", "e2", "e3")]
            + [compressible_minus("b12")]
        )
        assert planar_minus("b12") in fire(_fire_g_bij, fb)

    def test_g_bij_missing_premise(self):
        fb = FactBase.from_atoms(
            [planar_minus(e) for e in ("e1", "e2")] + [compressible_minus("b12")]
        )
        assert planar_minus("b12") not in fire(_fire_g_bij, fb)

    def test_g_bij_all_rims(self):
        fb = FactBase.from_atoms(
            [planar_minus(e) for e in ("e1", "e2", "e3")]
            + [compressible_minus(b) for b in ("b12", "b23", "b31")]
        )
        out = fire(_fire_g_bij, fb)
        assert all(planar_minus(b) in out for b in ("b12", "b23", "b31"))

    def test_g_bij_hub_star(self):
        fb = FactBase.from_atoms(
            [planar_minus(e) for e in ("e1", "b12", "b31")]
            + [compressible_minus("e2")]
        )
        assert planar_minus("e2") in fire(_fire_g_bij, fb)

    def test_opposite_five(self):
        fb = FactBase.from_atoms(
            [planar_minus(e) for e in EDGES[:5]] + [COMPRESSIBLE]
        )
        assert PLANAR in fire(_fire_opposite, fb)

    def test_opposite_four_insufficient(self):
        fb = FactBase.from_atoms(
            [planar_minus(e) for e in EDGES[:4]] + [COMPRESSIBLE]
        )
        assert PLANAR not in fire(_fire_opposite, fb)


class TestDeduce:
    def test_rational_solution_scenario(self):
        """A rational tangle carried by a solution graph: every spoke deletion
        is planar and the exterior compresses before and after rim deletions."""
        closed, trace = deduce(load_facts(RATIONAL_SOLUTION))
        assert PLANAR in closed
        derived = {s.derived for s in trace.steps}
        assert PLANAR in derived

    def test_corollary_scenario(self):
        """Three planar deletions around one hub plus two compressible
        deletions and a compressible exterior."""
        closed, trace = deduce(load_facts(OPPOSITE))
        assert PLANAR in closed
        rules = [s.rule for s in trace.steps if s.derived == PLANAR]
        assert rules and rules[0].startswith("opposite")

    def test_trace_soundness(self):
        fb = load_facts(RATIONAL_SOLUTION)
        closed, trace = deduce(fb)
        known = set(fb.facts)
        for step in trace.steps:
            assert all(p in known for p in step.premises), step
            known.add(step.derived)
        assert known == set(closed.facts)

    def test_counterexamples_never_planar(self):
        for path in COUNTEREXAMPLES:
            closed, _ = deduce(load_facts(path))
            assert PLANAR not in closed, path
            assert closed.consistent, path

    def test_fixed_point(self):
        closed, _ = deduce(load_facts(RATIONAL_SOLUTION))
        again, trace2 = deduce(closed)
        assert again.facts == closed.facts
        assert not trace2.steps

    def test_subgraph_downward_closure(self):
        closed, _ = deduce(FactBase.from_atoms([planar_minus("e1")]))
        assert planar_subgraph(frozenset({"e2", "b12"})) in closed
        assert planar_subgraph(frozenset()) in closed

    def test_opposite_subsumed_by_thompson(self):
        base = FactBase.from_atoms(
            [planar_minus(e) for e in EDGES] + [COMPRESSIBLE]
        )
        via_thompson = deduce(base)[0]
        assert PLANAR in via_thompson

    def test_inconsistency_flagged(self):
        fb = load_facts(RATIONAL_SOLUTION).with_facts([NOT_PLANAR])
        closed, _ = deduce(fb)
        assert not closed.consistent

    def test_closure_properties_over_base_sets(self, monkeypatch):
        """Every 257th of the 2^15 sets of base atoms, 128 sets: the trace
        fires only on known premises and ends at the closure, the closure
        is a fixed point, one more base atom loses no derived fact, and the
        rules' order does not change the closure."""
        bases = [
            FactBase(frozenset(a for i, a in enumerate(BASE_ATOMS) if mask >> i & 1))
            for mask in range(0, 1 << len(BASE_ATOMS), 257)
        ]
        assert len(bases) == 128
        closures = []
        for j, fb in enumerate(bases):
            closed, trace = deduce(fb)
            known = set(fb.facts)
            for step in trace.steps:
                assert known.issuperset(step.premises), (fb, step)
                known.add(step.derived)
            assert known == closed.facts, fb
            assert not deduce(closed)[1].steps, fb
            missing = [a for a in BASE_ATOMS if a not in fb]
            added = missing[j % len(missing)]
            assert deduce(fb.with_facts([added]))[0].facts >= closed.facts, (fb, added)
            closures.append(closed.facts)
        monkeypatch.setattr(graphdeduce, "RULES", graphdeduce.RULES[::-1])
        assert [deduce(fb)[0].facts for fb in bases] == closures


class TestScenarioContent:
    """The negative content: dropping any hypothesis loses planarity."""

    def test_three_trans_has_rim_deletions_planar(self):
        """Nonplanar graph with one spoke and all rim deletions planar."""
        fb = load_facts(THREE_TRANS)
        assert planar_minus("b23") in fb
        closed, _ = deduce(fb)
        assert PLANAR not in closed

    def test_no_common_vertex_case(self):
        """Nonplanar graph, four planar deletions, no three at a vertex."""
        fb = load_facts(NO_COMMON_VERTEX)
        closed, _ = deduce(fb)
        assert PLANAR not in closed

    def test_incompressible_case_all_deletions_planar(self):
        """Every deletion planar but the exterior boundary never compresses."""
        fb = load_facts(INCOMPRESSIBLE)
        assert all(planar_minus(e) in fb for e in EDGES)
        closed, _ = deduce(fb)
        assert PLANAR not in closed
