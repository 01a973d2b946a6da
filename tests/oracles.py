"""Independent oracles the tests check the engine against.

`deletion_uniqueness_certificate` scans a box of fractions by brute force
against both in cis deletion equations; the engine solves them in closed
form (`experiments._solve_capped`).

The strand oracles are the walks the engine had before `strand_walk`
replaced them, verbatim: `strand_map`, the census's own walk over a
shadow's alpha, and `components` with the maps read off it, the
diagram's trace strand by strand with a `seen` set for coverage and dict
dart maps.  The diagram's were methods of `TangleDiagram`, so `self` is
the diagram.

The census oracles came from `census`, verbatim: `naive_generate` tries
every perfect matching of the darts and keeps the planar 3-string ones,
one per canonical code, and `has_parallel_strands` runs
`_parallel_on_reduced`, the parallel test as first written, on labels,
`frozenset` arcs and label dicts, on the freely reduced diagram.
`classify` is the census's classification as first written: it runs the
weak-string test before reduction as well as after it, and that
parallel test.
"""

from math import gcd

from tanglekit._record import Record
from tanglekit.census import _has_weak_string, _strings_of
from tanglekit.diagram.core import Component, TangleDiagram
from tanglekit.diagram.rewrite import simplify
from tanglekit.errors import NoSolution, TangleError
from tanglekit.rational import (
    TangleFraction,
    TwoBridgeLink,
    closure_with_filler,
    numerator_closure,
    torus_two_bridge,
)


class UniquenessCertificate(Record):
    """Outcome of a bounded brute-force scan of the in cis deletion system.

    It checks the closed-form solution X = -1/L that
    `experiments._solve_capped(L, 0)` returns.
    """

    __slots__ = _fields = ("L", "bound", "candidates_checked", "solutions")

    def __init__(
        self, L: int, bound: int, candidates_checked: int, solutions: tuple[TangleFraction, ...]
    ):
        self.L = L
        self.bound = bound
        self.candidates_checked = candidates_checked
        self.solutions = solutions

    @property
    def unique(self) -> bool:
        return len(self.solutions) == 1


def deletion_uniqueness_certificate(L: int, bound: int = 50) -> UniquenessCertificate:
    """Scan every reduced p/q with |p|,|q| <= bound against both equations.

    This is a sanity oracle, not the proof: tangle calculus already gives
    uniqueness analytically.
    """
    if abs(L) < 2:
        raise NoSolution(f"(2,{L}) is not a genuine torus link product")
    unknot = TwoBridgeLink(1, 0, 1)
    target = torus_two_bridge(L)
    checked = 0
    found = []
    for q in range(0, bound + 1):
        for p in range(-bound, bound + 1):
            if p == 0 and q == 0:
                continue
            if q == 0 and p != 1:
                continue  # only 1/0 is canonical
            if p == 0 and q != 1:
                continue
            if gcd(abs(p), q) > 1:
                continue
            t = TangleFraction(p, q)
            checked += 1
            if numerator_closure(t) != unknot:
                continue
            if closure_with_filler(t, TangleFraction(1, 0)) != target:
                continue
            found.append(t)
    return UniquenessCertificate(L, bound, checked, tuple(found))


# -- strands -------------------------------------------------------------------


def all_matchings(nd):
    """Every perfect matching of nd darts, as alpha tuples."""
    alpha = [-1] * nd

    def rec():
        if -1 not in alpha:
            yield tuple(alpha)
            return
        d0 = alpha.index(-1)
        for b in range(d0 + 1, nd):
            if alpha[b] < 0:
                alpha[d0], alpha[b] = b, d0
                yield from rec()
                alpha[d0] = alpha[b] = -1

    return rec()


def strand_map(alpha: tuple[int, ...], n: int, k: int) -> list[int] | None:
    """Strand index of every dart, strands numbered by first endpoint.

    Walks each string from its endpoint over alpha (the transit at a
    crossing is `d ^ 2`).  None when some dart lies on a closed loop.
    """
    base = 4 * n
    owner = [-1] * (base + k)
    s = 0
    for e in range(base, base + k):
        if owner[e] >= 0:
            continue
        d = e
        while True:
            owner[d] = s
            t = alpha[d]
            owner[t] = s
            if t >= base:
                break
            d = t ^ 2
        s += 1
    return None if -1 in owner else owner


def trace_from(self, start: int) -> tuple[tuple[int, ...], bool]:
    """Follow the strand leaving along dart `start`.

    Returns (out-darts in order, closed?).
    """
    alpha, n4 = self.alpha, 4 * self.n
    out: list[int] = []
    d = start
    while True:
        out.append(d)
        nxt = alpha[d]
        if nxt >= n4:
            return tuple(out), False
        d = nxt ^ 2  # the strand leaves by the opposite slot, s + 2 mod 4
        if d == start:
            return tuple(out), True


def components(self) -> tuple[Component, ...]:
    comps: list[Component] = []
    seen: set[int] = set()
    for label, ep in self.strings:
        darts, closed = trace_from(self, self.ep_dart(ep))
        if closed:
            raise TangleError(f"string {label!r} traced to a closed loop")
        end_ep = self.alpha[darts[-1]] - 4 * self.n
        comps.append(Component(label, False, darts, ep, end_ep))
        seen.update(darts)
        seen.update(self.alpha[d] for d in darts)
    for label, anchor in self.loops:
        darts, closed = trace_from(self, anchor)
        if not closed:
            raise TangleError(f"loop {label!r} is not closed")
        comps.append(Component(label, True, darts))
        seen.update(darts)
        seen.update(self.alpha[d] for d in darts)
    if len(seen) != self.num_darts:
        missing = [d for d in range(self.num_darts) if d not in seen]
        raise TangleError(f"darts not covered by declared components: {missing}")
    for label in self.free_loops:
        comps.append(Component(label, True, ()))
    return tuple(comps)


def component_of_dart(self) -> dict[int, int]:
    """Maps every dart to its component index (both darts of each arc)."""
    owner: dict[int, int] = {}
    for i, comp in enumerate(components(self)):
        for d in comp.out_darts:
            owner[d] = i
            owner[self.alpha[d]] = i
    return owner


def crossing_strands(self) -> tuple[tuple[int, int], ...]:
    """(under, over) component index of each crossing."""
    owner = component_of_dart(self)
    return tuple((owner[4 * c], owner[4 * c + 1]) for c in range(self.n))


def orientation(self) -> dict[int, bool]:
    """dart -> True when the component traversal leaves the node via it."""
    out: dict[int, bool] = {}
    for comp in components(self):
        for d in comp.out_darts:
            out[d] = True
            out[self.alpha[d]] = False
    return out


def face_of_dart(self) -> dict[int, int]:
    owner: dict[int, int] = {}
    for i, face in enumerate(self.faces):
        for d in face:
            owner[d] = i
    return owner


def strand_facts(self) -> tuple:
    """The facts above, each dict map read out as a list over its darts."""
    owner, orient, faces = component_of_dart(self), orientation(self), face_of_dart(self)
    return (
        components(self),
        [owner[d] for d in range(self.num_darts)],
        [orient[d] for d in range(self.num_darts)],
        crossing_strands(self),
        [faces[d] for d in range(len(faces))],
    )


# -- census ------------------------------------------------------------------


def naive_generate(n: int):
    """Independent oracle: exhaustive matching with post-hoc filtering.

    No planarity pruning and no symmetry breaking; every perfect matching
    of the darts is tried and validated afterwards.  Only usable for very
    small n.
    """
    k = 6
    nd = 4 * n + k
    seen = set()

    def rec(alpha: list[int]):
        try:
            d0 = alpha.index(-1)
        except ValueError:
            yield tuple(alpha)
            return
        for b in range(d0 + 1, nd):
            if alpha[b] < 0:
                alpha[d0] = b
                alpha[b] = d0
                yield from rec(alpha)
                alpha[d0] = -1
                alpha[b] = -1

    for alpha in rec([-1] * nd):
        strings = _strings_of(alpha, n, k)
        if len(strings) != 3:
            continue
        d = TangleDiagram(n, k, alpha, strings)
        try:
            d.validate()
        except TangleError:
            continue
        code = d.canonical_code()
        if code in seen:
            continue
        seen.add(code)
        yield d


def _parallel_on_reduced(small: TangleDiagram) -> bool:
    open_comps = [c for c in small.components if not c.closed]
    if len(open_comps) < 2:
        return False
    touched = {i for pair in small.crossing_strands for i in pair}
    crossing_free = [
        comp.label
        for i, comp in enumerate(small.components)
        if not comp.closed and i not in touched
    ]
    if len(crossing_free) >= 2:
        return True
    nd = small.num_darts
    total_edges = {
        comp.label: len(comp.out_darts) for comp in open_comps
    }
    for face in small.faces:
        gaps = [x for x in face if x >= nd]
        if len(gaps) != 2:
            continue
        per_label: dict[str, int] = {}
        edges_seen = set()
        ok = True
        for x in face:
            if x >= nd:
                continue
            edge = frozenset((x, small.alpha[x]))
            if edge in edges_seen:
                ok = False
                break
            edges_seen.add(edge)
            lab = small.label_of(x)
            per_label[lab] = per_label.get(lab, 0) + 1
        if not ok or len(per_label) != 2:
            continue
        if all(
            lab in total_edges and cnt == total_edges[lab]
            for lab, cnt in per_label.items()
        ):
            return True
    return False


def has_parallel_strands(d: TangleDiagram) -> bool:
    """Sufficient parallel test on the freely reduced diagram.

    Two strands are certified parallel when both are crossing-free (each is
    then boundary-parallel and they cobound a band over the sphere), or
    when they cobound a face meeting the boundary in exactly two gaps with
    every edge of both strands on it.
    """
    return _parallel_on_reduced(simplify(d, "free"))


def classify(d: TangleDiagram) -> str:
    """First matching category: split, parallel, reducible, unresolved."""
    if _has_weak_string(d):
        return "split"
    small = simplify(d, "free")
    if _has_weak_string(small):
        return "split"
    if _parallel_on_reduced(small):
        return "parallel"
    if small.n < d.n:
        return "reducible"
    return "unresolved"
