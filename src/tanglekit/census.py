"""Exhaustive generation of small 3-string tangle projections.

Diagrams are generated as planar gluings: n pre-allocated crossings (four
darts each, counterclockwise) plus the six boundary endpoints in fixed
circular order.  A backtracking search, one generator frame with an
explicit stack, matches the lowest unmatched dart with a dart of its own
frontier face, which splits the face (planar), or with slot 0 of the
lowest crossing not yet attached, whose hole then joins the face.  Each
open dart keeps a pointer to the far end of its partial strand, so a glue
that would close a loop is refused by one comparison (tangles have three
open strands only), and a split that leaves a face with an odd number of
open darts, which can never be matched away, is cut.  The search's
symmetry breaking makes the emitted shadows pairwise distinct, so no dedup
is needed; each shadow stands for its 2^n over/under variants.  The
tests keep two references for the search: `_Gluing` (`tests/draws.py`),
the same gluing on dict state, which their random draws glue on too, and
a naive generator that tries every matching (`tests/oracles.py`).

The classification of each diagram follows the small-crossing theorem's
disjunction: split, else parallel strands, else reducible under free
isotopy, else unresolved.  Both strand detectors only ever report verdicts
that are certified combinatorially (a sufficient criterion), so
incompleteness surfaces as unresolved entries, never as false positives.
A level is classified shadow by shadow: the weak-string test, run on the
strand walk's flat map from each dart to its strand (`strand_walk`, the
one walk `TangleDiagram` traces with), does not see over/under, so one
test settles all 2^n variants of most shadows; only the rest become
diagrams and are classified variant by variant.
"""

from __future__ import annotations

from itertools import islice

from ._record import Record
from .diagram.core import TangleDiagram, strand_walk, switch_crossings
from .diagram.pdcode import emit_pd
from .diagram.rewrite import simplify
from .errors import BudgetExceeded, TangleError

HARD_CAP = 7
GATE_CAP = 5

# -- generation ------------------------------------------------------------


def _shadow_search(n: int, k: int = 6):
    """Yield completed alpha tuples of planar loop-free shadows.

    The search walks the tree of `_Gluing`, the dict-state reference the
    tests keep in `tests/draws.py`, and yields its leaves in the same
    order: the pivot is the lowest unmatched dart (endpoints first), and
    its candidates are the other darts of its frontier face in list order,
    then slot 0 of the lowest fresh crossing, less the one dart that would
    close a loop.  The state is held in flat lists instead, on
    four facts, each by induction over the glues on the current path:

    * Fresh crossings form a suffix {nf, ..., n-1}.  A crossing leaves
      the fresh set when one of its darts is glued.  A fresh crossing's
      darts are candidates only through slot 0 of the lowest one, and a
      pivot on a fresh crossing is the lowest open dart, so slot 0 of the
      lowest one too.  One integer `nf` stands for the set.
    * Only one component has open darts, apart from the fresh holes.
      Every glue joins the pivot to a dart of its own face (a split, which
      keeps the component) or to slot 0 of the lowest fresh crossing (which
      merges that hole into the pivot's component).  A pivot in a fresh
      hole is the lowest open dart, so no endpoint or earlier crossing has
      one left, and its split leaves that crossing the one component with
      open darts.  So no candidate lies in another component, a glue never
      spans two faces of one component, and `_Gluing`'s component labels,
      relabel scan and genus refusal never act.  `faces` holds the open
      darts of each face, in `_Gluing`'s list order, and `face_of` the
      face of each open dart.  A split keeps its larger part in place and
      relabels only the darts of the smaller; a fresh join appends the
      hole's other three darts after the cut, as `_Gluing` would
      (face[ia+1:] + face[:ia] + hole[1:]).
    * Path-end pointers stand in for `_Gluing`'s strand union-find.  The
      darts, joined by crossing transits (d, d ^ 2) and by glues, form
      paths, and an open dart ends its path; `other[x]` is the far end of
      the path through the open dart x (x itself for a lone endpoint).
      Gluing a and b joins two paths, so only the entries of their far
      ends (the darts other[a] and other[b]) change, and the undo resets
      them to a and b.  A glue closes a loop exactly when b == other[a],
      which is the union-find's test that a and b share a root.
    * Parity cut.  No glue changes the parity of the open darts of a face
      and its parts: a split of a face of m darts leaves parts of m - 2
      darts between them, and a fresh join adds two.  Below a face with
      an odd count, some face stays odd, so nonempty, and no leaf lies
      there.  So a split that leaves an odd part, or any glue at a pivot
      whose face is odd, is skipped.

    One generator frame walks the tree with an explicit stack: `frames`
    holds each open node's candidates and its pivot state, and `edges` the
    glue of every edge on the current path.  The pivot is found by a
    cursor that only moves forward below a node and is restored on
    backtrack.
    """
    base = 4 * n
    nd = base + k
    alpha = [-1] * nd
    other = list(range(nd))
    faces = [list(range(base, nd))]
    for c in range(0, base, 4):
        other[c : c + 4] = c + 2, c + 3, c, c + 1
        faces.append([c, c + 3, c + 2, c + 1])
    face_of = [0] * nd
    for fid, face in enumerate(faces):
        for d in face:
            face_of[d] = fid
    order = list(range(base, nd)) + list(range(base))
    frames: list = []
    edges: list = []
    pos = nf = 0
    while True:
        # at a new node: yield it if it is a leaf, else open it
        while pos < nd and alpha[order[pos]] >= 0:
            pos += 1
        if pos == nd:
            yield tuple(alpha)
        else:
            d0 = order[pos]
            f = face_of[d0]
            face = faces[f]
            od = other[d0]
            p = face.index(d0)
            if len(face) & 1:
                cands = []
            else:
                cands = [d for d in face[1 - (p & 1) :: 2] if d != od]
            if nf < n and d0 >> 2 != nf:
                cands.append(4 * nf)
            frames.append((iter(cands), d0, pos, f, face, p, od, nf))
        # descend to the next child of the deepest open node with one left
        while frames:
            cands, d0, pos, f, face, p, od, nf = frames[-1]
            if len(edges) == len(frames):  # undo the glue to the child just left
                b, pb, small = edges.pop()
                alpha[d0] = alpha[b] = -1
                other[od] = d0
                other[pb] = b
                faces[f] = face
                if small is None:
                    face_of[b + 1] = face_of[b + 2] = face_of[b + 3] = (b >> 2) + 1
                else:
                    faces.pop()
                    for d in small:
                        face_of[d] = f
            b = next(cands, -1)
            if b < 0:
                frames.pop()
                continue
            alpha[d0] = b
            alpha[b] = d0
            pb = other[b]
            other[od] = pb
            other[pb] = od
            if face_of[b] == f:  # split the pivot's face
                j = face.index(b)
                lo, hi = (p, j) if p < j else (j, p)
                inner = face[lo + 1 : hi]
                outer = face[hi + 1 :] + face[:lo]
                if len(inner) > len(outer):
                    faces[f], small = inner, outer
                else:
                    faces[f], small = outer, inner
                g = len(faces)
                faces.append(small)
                for d in small:
                    face_of[d] = g
                if d0 >> 2 == nf < n:  # the pivot was in the lowest fresh hole
                    nf += 1
            else:  # join the lowest fresh crossing's hole to the pivot's face
                faces[f] = face[p + 1 :] + face[:p] + [b + 3, b + 2, b + 1]
                face_of[b + 1] = face_of[b + 2] = face_of[b + 3] = f
                nf += 1
                small = None
            edges.append((b, pb, small))
            break
        else:
            return


_LABELS = ("a", "b", "c", "d", "e", "f")


def _strings_of(alpha: tuple[int, ...], n: int, k: int) -> tuple:
    """(label, first endpoint) of each string, labelled in endpoint order.

    The strand walk from every endpoint in order skips an endpoint an
    earlier string ended at, so each string is walked from its first
    endpoint; closed loops are not looked at (`components` rejects a
    diagram that has one).
    """
    base = 4 * n
    _, out, cuts = strand_walk(alpha, base, range(base, base + k))
    return tuple((_LABELS[i], out[c] - base) for i, c in enumerate(cuts[:-1]))


def _shadow_split(alpha: tuple[int, ...], n: int) -> bool:
    """The weak-string test on a shadow's strand walk (see classify_level)."""
    base = 4 * n
    owner, out, _ = strand_walk(alpha, base, range(base, base + 6))
    if 2 * len(out) != len(alpha):  # an arc no string walked lies on a loop
        raise TangleError("shadow has a closed loop")
    return _weak_in(owner, n, 3, 3)


def _variant(alpha: tuple[int, ...], n: int, bits: int) -> tuple[int, ...]:
    """The under-strand assignment that switches the crossings set in bits."""
    return switch_crossings(alpha, [c for c in range(n) if (bits >> c) & 1])[0]


def _over_under_variants(alpha: tuple[int, ...], n: int, k: int):
    """All 2^n under-strand assignments of a shadow, in order of bits."""
    for bits in range(1 << n):
        yield _variant(alpha, n, bits)


def check_level_gate(n: int, extended: bool) -> None:
    """Refuse level n: past HARD_CAP always, past GATE_CAP unless extended."""
    if n < 0 or n > HARD_CAP:
        raise BudgetExceeded(f"crossing count {n} outside 0..{HARD_CAP}")
    if n > GATE_CAP and not extended:
        raise BudgetExceeded(
            f"n={n} beyond the desk-scale gate {GATE_CAP}; pass extended=True"
        )


def _level_alphas(n: int, extended: bool):
    """The n-crossing shadows' alphas, each as the search placed it."""
    check_level_gate(n, extended)
    return _shadow_search(n, 6)


def _shadow(alpha: tuple[int, ...], n: int) -> TangleDiagram:
    return TangleDiagram(n, 6, alpha, _strings_of(alpha, n, 6))


def _variants(shadow: TangleDiagram):
    for alpha in _over_under_variants(shadow.alpha, shadow.n, shadow.k):
        yield TangleDiagram(shadow.n, shadow.k, alpha, shadow.strings)


def generate_diagrams(n: int, extended: bool = False):
    """Stream every 3-string tangle diagram with exactly n crossings.

    Diagrams are unique up to rotation-system isomorphism fixing the
    boundary.  n > GATE_CAP needs extended=True; n > HARD_CAP is refused.

    Uniqueness needs no dedup.  The search is a tree whose leaves are
    distinct alphas, and two leaves that are isomorphic shadows are equal:
    an isomorphism fixing the boundary fixes the first pivot (an endpoint
    dart).  Suppose it fixes the darts of every endpoint and crossing met
    so far.  Both leaves then have the same next pivot (the lowest
    unmatched dart), and the isomorphism carries the pivot's mate in one
    leaf to its mate in the other.  A mate on a crossing met before is
    fixed; a mate on a new crossing is, in both leaves, slot 0 of the
    lowest fresh crossing, so that crossing is fixed with its rotation.
    By induction the two leaves coincide.  Boundary-fixing automorphisms of these connected maps are
    trivial (rooted rigidity), so the 2^n over/under variants of one shadow
    are pairwise non-isomorphic as well.
    """
    for alpha in _level_alphas(n, extended):
        yield from _variants(_shadow(alpha, n))


# -- classification ----------------------------------------------------------


def _weak_in(owner: list[int], n: int, m: int, n_open: int) -> bool:
    """Some open strand crosses the union of the others at most once.

    `owner` maps each dart to its strand, of m strands, the first n_open
    of them open; a crossing's strands are those of its slot-0 and slot-1
    darts.  By the one-crossing lemma such a string certifies splitness
    in any projection, so it is a sound fast path before reduction too.
    """
    meets = [0] * m
    for c in range(0, 4 * n, 4):
        under, over = owner[c], owner[c + 1]
        if under != over:
            meets[under] += 1
            meets[over] += 1
    for i in range(n_open):
        if meets[i] <= 1:
            return True
    return False


def _has_weak_string(d: TangleDiagram) -> bool:
    """`_weak_in` on the diagram's strands; its strings are the open ones."""
    return _weak_in(d.component_of_dart, d.n, len(d.strings) + len(d.loops), len(d.strings))


def _parallel_on_reduced(small: TangleDiagram) -> bool:
    """Sufficient parallel test on a freely reduced diagram.

    Two strings, the components below len(small.strings), are certified
    parallel when both are crossing-free (each is then boundary-parallel
    and they cobound a band over the sphere), or when they cobound a face
    that meets the boundary in exactly two gaps and runs along each of
    their arcs exactly once.  That holds when such a face has darts of
    exactly two owners and as many darts as those two have arcs, for two
    reasons that need no test:

    * No face runs along an arc twice.  A face that holds both darts of
      an arc has it on both sides, so the arc is a bridge of its piece of
      the map.  But the map has no bridge: the gaps join the endpoints in
      a cycle, which no bridge cuts, so one side of a bridge holds
      crossings only, each of degree 4, and their degrees would sum to
      twice that side's arcs plus the bridge's one end, an odd number.
      So the face's darts are distinct arcs of their owners.
    * Both owners are strings.  The face outside the circle holds all k
      gaps and no dart.  A face inside it follows a gap from endpoint j
      toward j - 1 by the dart leaving j - 1, and enters that gap by the
      dart arriving at j, so it has a dart of the string at each end of
      each of its gaps.  Two gaps have at least three ends when k >= 3,
      and three endpoints lie on at least two strings.  When k = 2, the
      one string cuts the disk in two, so no face inside has both gaps.
    """
    ns = len(small.strings)
    touched = {i for pair in small.crossing_strands for i in pair}
    if sum(i not in touched for i in range(ns)) >= 2:
        return True
    nd, owner = small.num_darts, small.component_of_dart
    arcs = [len(comp.out_darts) for comp in small.components[:ns]]
    for face in small.faces:
        darts = [x for x in face if x < nd]
        if len(face) - len(darts) != 2:
            continue
        owners = {owner[x] for x in darts}
        if len(owners) == 2 and len(darts) == sum(arcs[i] for i in owners):
            return True
    return False


class EnumerationReport(Record):
    """Verdict counts of one crossing level, and the unresolved PD codes.

    `classify_level` and `merge` keep the codes sorted, so a report does
    not depend on the order in which a search or its shares met them.
    """

    __slots__ = _fields = ("n", "total", "split", "parallel", "reducible", "unresolved")
    __hash__ = None

    def __init__(
        self,
        n: int,
        total: int = 0,
        split: int = 0,
        parallel: int = 0,
        reducible: int = 0,
        unresolved: list[str] | None = None,
    ):
        self.n = n
        self.total = total
        self.split = split
        self.parallel = parallel
        self.reducible = reducible
        self.unresolved = [] if unresolved is None else unresolved

    @property
    def holds(self) -> bool:
        return not self.unresolved

    def as_dict(self) -> dict:
        """The report's JSON object; `unresolved` is a copy of the list."""
        return {
            "n": self.n,
            "total": self.total,
            "split": self.split,
            "parallel": self.parallel,
            "reducible": self.reducible,
            "unresolved": list(self.unresolved),
            "holds": self.holds,
        }

    def merge(self, other: "EnumerationReport") -> "EnumerationReport":
        """Add two shares of one level field by field (lists merge sorted)."""
        if other.n != self.n:
            raise ValueError("cannot merge reports for different n")
        return EnumerationReport(
            self.n,
            self.total + other.total,
            self.split + other.split,
            self.parallel + other.parallel,
            self.reducible + other.reducible,
            sorted(self.unresolved + other.unresolved),
        )


def classify(d: TangleDiagram) -> str:
    """First matching category: split, parallel, reducible, unresolved.

    The weak-string test runs on the reduced diagram only.  Before
    reduction it could not change the verdict: no move raises a string's
    count of crossings with other strands (the move docstrings argue it,
    `TestMovesKeepCrossingCounts` checks it), and every string survives
    reduction with its endpoints, so a string weak in d is weak in
    simplify(d, "free").  On the `classify_level` path it would never
    fire anyway: a shadow with a weak string is counted split whole, so
    no variant of it reaches `classify` (the lemma there).
    """
    small = simplify(d, "free")
    if _has_weak_string(small):
        return "split"
    if _parallel_on_reduced(small):
        return "parallel"
    if small.n < d.n:
        return "reducible"
    return "unresolved"


def classify_level(
    n: int, extended: bool = False, shard: tuple[int, int] | None = None
) -> EnumerationReport:
    """Classify every n-crossing diagram, one weak-string test per shadow.

    The test is `_weak_in`, on the strand through each dart of the
    shadow, as `strand_walk` finds it.  A crossing's strands are those of
    its slot-0 and slot-1 darts; a string is weak when at most one
    crossing has it on one side and another strand on the other.

    Lemma: that verdict is the same for all 2^n over/under variants of a
    shadow.  A variant turns some crossings a quarter turn, which swaps the
    strands in the under slots with those in the over slots but keeps the
    unordered pair of strands meeting there, so the per-string counts, and
    the verdict, agree on every variant (and with `_has_weak_string`, the
    same `_weak_in` on each variant's diagram).  A shadow with a weak
    string therefore adds 2^n split diagrams; only the others become
    diagrams, whose variants go through `classify` one by one.  A shadow
    with a closed loop raises TangleError, as tracing its components
    would.

    `shard=(jobs, worker)` classifies only this worker's share: every
    worker runs the whole search and takes the shadows whose index in it
    is worker modulo jobs.  The shares partition the level, so their
    reports merge by addition.
    """
    jobs, worker = shard or (1, 0)
    report = EnumerationReport(n)
    for alpha in islice(_level_alphas(n, extended), worker, None, jobs):
        if _shadow_split(alpha, n):
            report.total += 1 << n
            report.split += 1 << n
            continue
        for d in _variants(_shadow(alpha, n)):
            report.total += 1
            verdict = classify(d)
            if verdict == "unresolved":
                report.unresolved.append(emit_pd(d))
            else:
                setattr(report, verdict, getattr(report, verdict) + 1)
    report.unresolved.sort()
    return report


def verify_theorem_4_4(n_max: int, extended: bool = False) -> list[EnumerationReport]:
    """Classify every diagram with n <= n_max crossings.

    The small-crossing dichotomy holds at level n when unresolved is empty;
    unresolved diagrams are emitted as PD codes for inspection, never
    counted as counterexamples.
    """
    check_level_gate(n_max, extended)
    return [classify_level(n, extended=extended) for n in range(n_max + 1)]
