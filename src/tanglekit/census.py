"""Exhaustive generation of small 3-string tangle projections.

Diagrams are generated as planar gluings: n pre-allocated crossings (four
darts each, counterclockwise) plus the six boundary endpoints in fixed
circular order.  A backtracking search matches darts pairwise while
maintaining the frontier faces of the partial complex; gluing within one
frontier face splits it (planar), gluing across two components merges
them, and gluing two faces of one component would add genus and is pruned.
A strand union-find rejects closed loops (tangles have three open strands
only).  The search's symmetry breaking makes the emitted shadows pairwise
distinct, so no dedup is needed; each shadow stands for its 2^n over/under
variants.

The classification of each diagram follows the small-crossing theorem's
disjunction: split, else parallel strands, else reducible under free
isotopy, else unresolved.  Both strand detectors only ever report verdicts
that are certified combinatorially (a sufficient criterion), so
incompleteness surfaces as unresolved entries, never as false positives.
A level is classified shadow by shadow: the weak-string test does not see
over/under, so one test settles all 2^n variants of most shadows, and
only the rest are classified variant by variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count

from .diagram.core import TangleDiagram
from .diagram.pdcode import emit_pd
from .diagram.rewrite import simplify
from .errors import BudgetExceeded, TangleError

HARD_CAP = 7
GATE_CAP = 5
# search depth at which the tree is dealt out to --jobs workers; deep
# enough for a few thousand subtrees at n >= 4, so the shares stay even
SHARD_DEPTH = 6


# -- generation ------------------------------------------------------------


class _Gluing:
    """Backtracking state for planar dart matching."""

    def __init__(self, n: int, k: int = 6):
        self.n = n
        self.k = k
        self.nd = 4 * n + k
        self.alpha = [-1] * self.nd
        # strand segments: crossing transits pre-joined
        self.seg = list(range(self.nd))
        for c in range(n):
            self._seg_union(4 * c, 4 * c + 2)
            self._seg_union(4 * c + 1, 4 * c + 3)
        # frontier faces: boundary cycle + one per crossing
        self.faces: dict[int, list[int]] = {}
        self.face_of: dict[int, int] = {}
        self.comp_of_face: dict[int, int] = {}
        self.next_face = 0
        self.next_comp = 0
        boundary = [4 * n + j for j in range(k)]
        self._new_face(boundary, self._new_comp())
        self.boundary_comp = 0
        # hole boundaries run against the vertex rotation
        for c in range(n):
            self._new_face([4 * c, 4 * c + 3, 4 * c + 2, 4 * c + 1], self._new_comp())
        self.fresh = set(range(n))

    def _new_comp(self) -> int:
        cid = self.next_comp
        self.next_comp += 1
        return cid

    def _new_face(self, darts: list[int], comp: int) -> int:
        fid = self.next_face
        self.next_face += 1
        self.faces[fid] = darts
        for d in darts:
            self.face_of[d] = fid
        self.comp_of_face[fid] = comp
        return fid

    def _seg_find(self, x: int) -> int:
        # no path compression: unions must be undoable on backtrack
        while self.seg[x] != x:
            x = self.seg[x]
        return x

    def _seg_union(self, a: int, b: int) -> None:
        ra, rb = self._seg_find(a), self._seg_find(b)
        if ra != rb:
            self.seg[ra] = rb

    def pivot(self) -> int | None:
        """Lowest unmatched dart, boundary endpoints first."""
        for j in range(self.k):
            if self.alpha[4 * self.n + j] < 0:
                return 4 * self.n + j
        for d in range(4 * self.n):
            if self.alpha[d] < 0:
                return d
        return None

    def candidates(self, d0: int, all_fresh: bool = False) -> list[int]:
        """Legal partners for d0.

        By default fresh crossings are offered only through the lowest one
        at slot 0 (symmetry breaking for the exhaustive search, which thus
        emits each shadow class once; see generate_diagrams).  all_fresh
        lifts that restriction for randomized single walks.
        """
        f0 = self.face_of[d0]
        c0 = self.comp_of_face[f0]
        out = [d for d in self.faces[f0] if d != d0]
        for fid, comp in self.comp_of_face.items():
            if comp == c0 or fid == f0:
                continue
            crossing = self.faces[fid][0] // 4
            if crossing in self.fresh:
                continue  # fresh pieces handled below
            out.extend(self.faces[fid])
        if all_fresh:
            out.extend(4 * c for c in self.fresh if c != d0 // 4)
        elif self.fresh:
            rep = min(self.fresh)
            if rep != d0 // 4:
                out.append(4 * rep)  # fresh crossing joins via slot 0
        # loop-closure pruning
        return [d for d in out if self._seg_find(d) != self._seg_find(d0)]

    def glue(self, a: int, b: int):
        """Match darts a and b; returns an undo token or None when pruned."""
        fa, fb = self.face_of[a], self.face_of[b]
        if fa == fb:
            face = self.faces[fa]
            ia, ib = face.index(a), face.index(b)
            if ia > ib:
                ia, ib = ib, ia
                a2, b2 = b, a
            else:
                a2, b2 = a, b
            left = face[ia + 1 : ib]
            right = face[ib + 1 :] + face[:ia]
            comp = self.comp_of_face[fa]
            del self.faces[fa]
            del self.comp_of_face[fa]
            new = []
            for part in (left, right):
                if part:
                    new.append(self._new_face(part, comp))
            token = ("split", a, b, fa, face, comp, new)
        else:
            ca, cb = self.comp_of_face[fa], self.comp_of_face[fb]
            if ca == cb:
                return None  # genus increase
            facea, faceb = self.faces[fa], self.faces[fb]
            ia, ib = facea.index(a), faceb.index(b)
            merged = (
                facea[ia + 1 :] + facea[:ia] + faceb[ib + 1 :] + faceb[:ib]
            )
            for fid in (fa, fb):
                del self.faces[fid]
                del self.comp_of_face[fid]
            # relabel cb's other faces into ca
            relabeled = [fid for fid, c in self.comp_of_face.items() if c == cb]
            for fid in relabeled:
                self.comp_of_face[fid] = ca
            new = []
            if merged:
                new.append(self._new_face(merged, ca))
            token = ("merge", a, b, fa, facea, ca, fb, faceb, cb, relabeled, new)
        self.alpha[a] = b
        self.alpha[b] = a
        sega, segb = self._seg_find(a), self._seg_find(b)
        self.seg[sega] = segb
        fresh_removed = []
        for d in (a, b):
            if d < 4 * self.n and d // 4 in self.fresh:
                self.fresh.discard(d // 4)
                fresh_removed.append(d // 4)
        return (token, (sega, segb), fresh_removed)

    def unglue(self, undo) -> None:
        token, (sega, segb), fresh_removed = undo
        for c in fresh_removed:
            self.fresh.add(c)
        self.seg[sega] = sega
        a, b = token[1], token[2]
        self.alpha[a] = -1
        self.alpha[b] = -1
        if token[0] == "split":
            _, a, b, fa, face, comp, new = token
            for fid in new:
                del self.comp_of_face[fid]
                del self.faces[fid]
            self.faces[fa] = face
            self.comp_of_face[fa] = comp
            for d in face:
                self.face_of[d] = fa
        else:
            _, a, b, fa, facea, ca, fb, faceb, cb, relabeled, new = token
            for fid in new:
                del self.comp_of_face[fid]
                del self.faces[fid]
            for fid in relabeled:
                self.comp_of_face[fid] = cb
            self.faces[fa] = facea
            self.comp_of_face[fa] = ca
            for d in facea:
                self.face_of[d] = fa
            self.faces[fb] = faceb
            self.comp_of_face[fb] = cb
            for d in faceb:
                self.face_of[d] = fb

def _shadow_search(n: int, k: int = 6, shard: tuple[int, int] | None = None):
    """Yield completed alpha tuples of planar loop-free shadows.

    `shard=(jobs, worker)` searches only this worker's subtrees: the nodes
    at depth SHARD_DEPTH are numbered in search order and node i belongs to
    worker i % jobs; leaves shallower than that belong to worker 0.  Every
    worker walks the same tree above that depth, so the shares partition
    the leaves exactly.
    """
    jobs, worker = shard or (1, 0)
    state = _Gluing(n, k)
    at_depth = count()

    def rec(depth):
        if depth == SHARD_DEPTH and next(at_depth) % jobs != worker:
            return
        d0 = state.pivot()
        if d0 is None:
            if depth >= SHARD_DEPTH or worker == 0:
                yield tuple(state.alpha)
            return
        for b in state.candidates(d0):
            undo = state.glue(d0, b)
            if undo is None:
                continue
            yield from rec(depth + 1)
            state.unglue(undo)

    yield from rec(0)


def _strings_of(alpha: tuple[int, ...], n: int, k: int) -> tuple:
    probe = TangleDiagram(n, k, alpha)
    labels = ("a", "b", "c", "d", "e", "f")
    strings = []
    seen = set()
    for j in range(k):
        if j in seen:
            continue
        darts, closed = probe._trace_from(probe.ep_dart(j))
        if closed:
            return ()
        other = alpha[darts[-1]] - 4 * n
        seen.add(j)
        seen.add(other)
        strings.append((labels[len(strings)], j))
    return tuple(strings)


def _over_under_variants(alpha: tuple[int, ...], n: int, k: int):
    """All 2^n under-strand assignments of a shadow."""
    for bits in range(1 << n):
        remap = list(range(4 * n + k))
        for c in range(n):
            if (bits >> c) & 1:
                for s in range(4):
                    remap[4 * c + s] = 4 * c + (s + 1) % 4
        new_alpha = [0] * len(alpha)
        for d, a in enumerate(alpha):
            new_alpha[remap[d]] = remap[a]
        yield tuple(new_alpha)


def _shadows(n: int, extended: bool, shard: tuple[int, int] | None):
    """Stream the n-crossing shadows as diagrams carrying their strings.

    A shadow's alpha is its variant with every crossing as the search
    placed it.  Tracing its components (as the weak-string test does)
    checks that the strings cover every dart.
    """
    if n < 0 or n > HARD_CAP:
        raise BudgetExceeded(f"crossing count {n} outside 0..{HARD_CAP}")
    if n > GATE_CAP and not extended:
        raise BudgetExceeded(
            f"n={n} beyond the desk-scale gate {GATE_CAP}; pass extended=True"
        )
    for alpha in _shadow_search(n, 6, shard):
        yield TangleDiagram(n, 6, alpha, _strings_of(alpha, n, 6))


def _variants(shadow: TangleDiagram):
    for alpha in _over_under_variants(shadow.alpha, shadow.n, shadow.k):
        yield TangleDiagram(shadow.n, shadow.k, alpha, shadow.strings)


def generate_diagrams(
    n: int,
    extended: bool = False,
    shard: tuple[int, int] | None = None,
):
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

    `shard=(jobs, worker)` searches only this worker's subtrees (see
    _shadow_search); the shares partition the diagrams exactly, so
    per-level reports merge by addition.
    """
    for shadow in _shadows(n, extended, shard):
        yield from _variants(shadow)


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


def random_diagram(rng: random.Random, n: int, k: int = 6, walk_tries: int = 400):
    """One random planar loop-free diagram with exactly n crossings.

    Fast path: restartable random walks; fallback: randomized backtracking,
    which always succeeds when any diagram exists.
    """

    def finish(alpha: tuple[int, ...]) -> TangleDiagram | None:
        variants = list(_over_under_variants(alpha, n, k))
        variant = variants[rng.randrange(len(variants))]
        strings = _strings_of(variant, n, k)
        if strings:
            return TangleDiagram(n, k, variant, strings)
        return None

    for _ in range(walk_tries):
        state = _Gluing(n, k)
        stuck = False
        while not stuck:
            d0 = state.pivot()
            if d0 is None:
                break
            cands = state.candidates(d0, all_fresh=True)
            rng.shuffle(cands)
            stuck = True
            for b in cands:
                if state.glue(d0, b) is not None:
                    stuck = False
                    break
        if not stuck:
            out = finish(tuple(state.alpha))
            if out is not None:
                return out

    # fallback: randomized backtracking over the canonical search tree
    state = _Gluing(n, k)

    def rec():
        d0 = state.pivot()
        if d0 is None:
            yield tuple(state.alpha)
            return
        cands = state.candidates(d0)
        rng.shuffle(cands)
        for b in cands:
            undo = state.glue(d0, b)
            if undo is None:
                continue
            yield from rec()
            state.unglue(undo)

    for alpha in rec():
        out = finish(alpha)
        if out is not None:
            return out
    raise RuntimeError("random diagram generation failed")


# -- classification ----------------------------------------------------------


def _has_weak_string(d: TangleDiagram) -> bool:
    """Some string crosses the union of the other two at most once.

    By the one-crossing lemma this certifies splitness in any projection,
    so it is a sound fast path before reduction too.
    """
    counts: dict[int, int] = {}
    for c in range(d.n):
        under = d.component_of_dart[4 * c]
        over = d.component_of_dart[4 * c + 1]
        if under != over:
            counts[under] = counts.get(under, 0) + 1
            counts[over] = counts.get(over, 0) + 1
    return any(
        counts.get(i, 0) <= 1
        for i, comp in enumerate(d.components)
        if not comp.closed
    )


def is_split(d: TangleDiagram) -> bool:
    """Sufficient split test: after free simplification some string meets
    the union of the other two in at most one crossing."""
    if _has_weak_string(d):
        return True
    return _has_weak_string(simplify(d, "free"))


def _parallel_on_reduced(small: TangleDiagram) -> bool:
    open_comps = [c for c in small.components if not c.closed]
    if len(open_comps) < 2:
        return False
    crossing_free = []
    for comp in open_comps:
        idx = small.components.index(comp)
        touches = any(
            idx in (small.component_of_dart[4 * c], small.component_of_dart[4 * c + 1])
            for c in range(small.n)
        )
        if not touches:
            crossing_free.append(comp.label)
    if len(crossing_free) >= 2:
        return True
    nd = small.num_darts
    edge_count: dict[str, int] = {}
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
            lab = small.components[small.component_of_dart[x]].label
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


@dataclass
class EnumerationReport:
    n: int
    total: int = 0
    split: int = 0
    parallel: int = 0
    reducible: int = 0
    unresolved: list[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.unresolved

    def as_dict(self) -> dict:
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
        if other.n != self.n:
            raise ValueError("cannot merge reports for different n")
        out = EnumerationReport(self.n)
        out.total = self.total + other.total
        out.split = self.split + other.split
        out.parallel = self.parallel + other.parallel
        out.reducible = self.reducible + other.reducible
        out.unresolved = self.unresolved + other.unresolved
        return out


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


def classify_level(
    n: int, extended: bool = False, shard: tuple[int, int] | None = None
) -> EnumerationReport:
    """Classify every n-crossing diagram, one weak-string test per shadow.

    Lemma: the weak-string verdict is the same for all 2^n over/under
    variants of a shadow.  A variant turns some crossings a quarter turn,
    which swaps the strands in the under slots with those in the over
    slots but keeps the unordered pair of strands meeting there.
    `_has_weak_string` only counts, per string, the crossings where it
    meets another string, so its counts, and its verdict, agree on every
    variant.  A shadow with a weak string therefore adds 2^n split
    diagrams; the variants of the others go through `classify` one by one.
    """
    report = EnumerationReport(n)
    for shadow in _shadows(n, extended, shard):
        if _has_weak_string(shadow):
            report.total += 1 << n
            report.split += 1 << n
            continue
        for d in _variants(shadow):
            report.total += 1
            verdict = classify(d)
            if verdict == "unresolved":
                report.unresolved.append(emit_pd(d))
            else:
                setattr(report, verdict, getattr(report, verdict) + 1)
    return report


def verify_theorem_4_4(n_max: int, extended: bool = False) -> list[EnumerationReport]:
    """Classify every diagram with n <= n_max crossings.

    The small-crossing dichotomy holds at level n when unresolved is empty;
    unresolved diagrams are emitted as PD codes for inspection, never
    counted as counterexamples.
    """
    if n_max > HARD_CAP:
        raise BudgetExceeded(f"n_max {n_max} exceeds hard cap {HARD_CAP}")
    return [classify_level(n, extended=extended) for n in range(n_max + 1)]
