"""Forward-chaining inference over tetrahedral-graph planarity facts.

The graph is the fixed tetrahedral compactification of the wagon wheel:
edges e1, e2, e3 (spokes, sharing the outer vertex) and b12, b23, b31
(rim), with hub vertex i meeting e_i and its two rim edges.  Facts about
planarity and exterior-boundary compressibility are inputs; the engine
never computes 3-manifold topology, it only closes the fact base under
the planarity criteria:

- thompson: Planar holds exactly when every single-edge deletion is planar
  and the exterior has compressible boundary (with single-edge deletions
  sufficing for proper-subgraph planarity by downward closure).
- g_bij: three planar deletions around a common vertex plus a
  compressible-exterior deletion of a fourth edge make that fourth
  deletion planar.
- opposite: compressible exterior plus planar deletions for five of the
  six edges (all but one) already force planarity.

All derivations carry a trace; deriving both Planar and NotPlanar flags
the base inconsistent but closure continues so the conflict is visible.
"""

from __future__ import annotations

from itertools import combinations

from ._record import Record
from .errors import InconsistentFacts, UsageError

EDGES = ("e1", "e2", "e3", "b12", "b23", "b31")
VERTEX_STARS = {
    "outer": frozenset({"e1", "e2", "e3"}),
    "v1": frozenset({"e1", "b12", "b31"}),
    "v2": frozenset({"e2", "b12", "b23"}),
    "v3": frozenset({"e3", "b23", "b31"}),
}

PLANAR = "Planar"
NOT_PLANAR = "NotPlanar"
COMPRESSIBLE = "CompressibleExt"


def planar_minus(edge: str) -> str:
    return f"PlanarMinus:{edge}"


def compressible_minus(edge: str) -> str:
    return f"CompressibleExtMinus:{edge}"


def planar_subgraph(edges: frozenset[str]) -> str:
    return "PlanarSubgraph:" + "+".join(sorted(edges))


def _validate_atom(atom: str) -> str:
    if not isinstance(atom, str):
        raise UsageError(f"fact atom {atom!r} is not a string")
    if atom in (PLANAR, NOT_PLANAR, COMPRESSIBLE):
        return atom
    if ":" in atom:
        head, arg = atom.split(":", 1)
        if head in ("PlanarMinus", "CompressibleExtMinus") and arg in EDGES:
            return atom
        if head == "PlanarSubgraph":
            parts = arg.split("+") if arg else []
            if all(p in EDGES for p in parts):
                return atom
    raise UsageError(f"unknown fact atom {atom!r}")


class FactBase(Record):
    """A set of fact atoms; `with_facts` returns a new base."""

    __slots__ = _fields = ("facts",)

    def __init__(self, facts: frozenset[str]):
        self.facts = facts

    @classmethod
    def from_atoms(cls, atoms) -> "FactBase":
        return cls(frozenset(_validate_atom(a) for a in atoms))

    def __contains__(self, atom: str) -> bool:
        return atom in self.facts

    def with_facts(self, new) -> "FactBase":
        return FactBase(self.facts | frozenset(new))

    @property
    def consistent(self) -> bool:
        return not (PLANAR in self.facts and NOT_PLANAR in self.facts)


class Derivation(Record):
    """One rule firing: the atom `derived` from `premises`."""

    __slots__ = _fields = ("rule", "premises", "derived")

    def __init__(self, rule: str, premises: tuple[str, ...], derived: str):
        self.rule = rule
        self.premises = premises
        self.derived = derived

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "premises": list(self.premises),
            "derived": self.derived,
        }


class ProofTrace(Record):
    """The derivations of one closure, in the order they fired."""

    __slots__ = _fields = ("steps",)
    __hash__ = None

    def __init__(self, steps: list[Derivation] | None = None):
        self.steps = [] if steps is None else steps

    def as_lines(self) -> list[str]:
        return [
            f"{s.derived}  [{s.rule}: {', '.join(s.premises)}]" for s in self.steps
        ]


def _fire_thompson(fb: FactBase):
    out = []
    pms = [planar_minus(e) for e in EDGES]
    if all(pm in fb for pm in pms) and COMPRESSIBLE in fb and PLANAR not in fb:
        out.append(Derivation("thompson", tuple(pms) + (COMPRESSIBLE,), PLANAR))
    if PLANAR in fb:
        for e in EDGES:
            if planar_minus(e) not in fb:
                out.append(Derivation("thompson_converse", (PLANAR,), planar_minus(e)))
        if COMPRESSIBLE not in fb:
            out.append(Derivation("thompson_converse", (PLANAR,), COMPRESSIBLE))
    return out


def _fire_g_bij(fb: FactBase):
    out = []
    for vname, star in VERTEX_STARS.items():
        pms = [planar_minus(e) for e in sorted(star)]
        if not all(pm in fb for pm in pms):
            continue
        for f in EDGES:
            if planar_minus(f) in fb:
                continue
            cem = compressible_minus(f)
            if cem in fb:
                out.append(
                    Derivation(
                        f"g_bij[{vname}]", tuple(pms) + (cem,), planar_minus(f)
                    )
                )
    return out


def _fire_opposite(fb: FactBase):
    if PLANAR in fb or COMPRESSIBLE not in fb:
        return []
    have = [e for e in EDGES if planar_minus(e) in fb]
    if len(have) >= 5:
        pms = tuple(planar_minus(e) for e in have[:5])
        return [Derivation("opposite_edge", pms + (COMPRESSIBLE,), PLANAR)]
    return []


def _fire_downward(fb: FactBase):
    out = []
    for e in EDGES:
        if planar_minus(e) not in fb:
            continue
        others = [x for x in EDGES if x != e]
        for r in range(len(others) + 1):
            for sub in combinations(others, r):
                atom = planar_subgraph(frozenset(sub))
                if atom not in fb:
                    out.append(
                        Derivation("subgraph_closure", (planar_minus(e),), atom)
                    )
    if PLANAR in fb:
        atom = planar_subgraph(frozenset(EDGES))
        if atom not in fb:
            out.append(Derivation("subgraph_closure", (PLANAR,), atom))
    return out


RULES = (_fire_thompson, _fire_g_bij, _fire_opposite, _fire_downward)


def rule_thompson(fb: FactBase) -> FactBase:
    return fb.with_facts(d.derived for d in _fire_thompson(fb))


def rule_g_bij(fb: FactBase) -> FactBase:
    return fb.with_facts(d.derived for d in _fire_g_bij(fb))


def rule_opposite(fb: FactBase) -> FactBase:
    return fb.with_facts(d.derived for d in _fire_opposite(fb))


def deduce(fb: FactBase, strict: bool = False) -> tuple[FactBase, ProofTrace]:
    """Least fixed point under all rules, with a justifying trace.

    With strict=True an inconsistent closure raises InconsistentFacts;
    otherwise the conflicting base is returned for inspection.
    """
    trace = ProofTrace()
    current = fb
    changed = True
    while changed:
        changed = False
        for rule in RULES:
            for der in rule(current):
                if der.derived in current:
                    continue
                current = current.with_facts([der.derived])
                trace.steps.append(der)
                changed = True
    if strict and not current.consistent:
        raise InconsistentFacts("closure contains both Planar and NotPlanar")
    return current, trace


# -- canned scenarios ----------------------------------------------------------


def rational_solution_scenario() -> FactBase:
    """A rational tangle carried by a solution graph: every spoke deletion
    is planar and the exterior compresses before and after rim deletions."""
    atoms = [planar_minus(e) for e in ("e1", "e2", "e3")]
    atoms += [compressible_minus(b) for b in ("b12", "b23", "b31")]
    atoms.append(COMPRESSIBLE)
    return FactBase.from_atoms(atoms)


def opposite_corollary_scenario() -> FactBase:
    """Three planar deletions around one hub plus two compressible
    deletions and a compressible exterior."""
    atoms = [planar_minus(e) for e in ("e1", "b12", "b31")]
    atoms += [compressible_minus("e2"), compressible_minus("e3"), COMPRESSIBLE]
    return FactBase.from_atoms(atoms)


def counterexample_three_trans() -> FactBase:
    """Nonplanar graph with one spoke and all rim deletions planar."""
    atoms = [planar_minus(e) for e in ("e1", "b12", "b31", "b23")]
    atoms += [COMPRESSIBLE, NOT_PLANAR]
    return FactBase.from_atoms(atoms)


def counterexample_no_common_vertex() -> FactBase:
    """Nonplanar graph, four planar deletions, no three at a vertex."""
    atoms = [planar_minus(e) for e in ("e1", "e3", "b23", "b12")]
    atoms += [NOT_PLANAR]
    return FactBase.from_atoms(atoms)


def counterexample_incompressible() -> FactBase:
    """Every deletion planar but the exterior boundary never compresses."""
    atoms = [planar_minus(e) for e in EDGES]
    atoms += [compressible_minus(e) for e in EDGES]
    atoms += [NOT_PLANAR]
    return FactBase.from_atoms(atoms)


COUNTEREXAMPLES = {
    "three_in_trans_one_in_cis": counterexample_three_trans,
    "no_common_vertex": counterexample_no_common_vertex,
    "incompressible_exterior": counterexample_incompressible,
}
