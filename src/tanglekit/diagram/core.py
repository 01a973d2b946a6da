"""Combinatorial planar diagrams of tangles and links.

Dart layout: crossing c owns darts 4c+s for slot s in 0..3, listed in
counterclockwise rotational order around the crossing; the under-strand
always occupies slots 0 and 2, the over-strand slots 1 and 3.  Endpoint j
(0-based, counterclockwise circular order on the boundary circle) owns the
single dart 4n + j.  `alpha` pairs the two dart ends of every arc.

Faces are traced on the map augmented with the boundary circle: endpoint j
becomes a 3-valent vertex (strand dart plus two virtual gap darts along
the circle), and gap j joins endpoint j to endpoint j+1.  Genus 0 is then
the Euler identity V - E + F = 2 per connected component, counting the
outer disk.

Strands are traced by one walk, `strand_walk`, which fills a flat list
from each dart to its strand and lists each strand's out-darts in
traversal order.  A diagram walks its declared strings, then its loops,
once (`_walk`, which checks on that list that every dart is covered and
no strand is declared twice), and every strand fact reads the result:
`components`, `component_of_dart`, `crossing_strands` and
`orientation`.  `_trace_from` walks one strand, and the census and the
twist builder walk bare dart lists with it too.

Every edit runs on a flat list of darts.  `pairing` copies a diagram's
`alpha`, with fresh crossings appended for an edit that adds some;
`connect` and `join` re-pair darts, and their docstrings give the
planarity argument; `compact` renumbers what survives into a new diagram
and re-anchors its loops.  `splice`, which takes crossings out, is a loop
of joins and one `compact`.  The builders, surgeries and moves name each
the disk their edit stays in, and validate their result, except the
chained reduction steps and the rational builder's twist layers.
"""

from __future__ import annotations

from functools import cached_property

from .._record import Record
from ..errors import NonPlanarCode, TangleError


def strand_walk(alpha, n4: int, starts) -> tuple[list[int], list[int], list[int]]:
    """Walk the strand leaving along each dart of `starts`, in order.

    A strand enters a crossing by one slot and leaves it by the opposite
    one, `d ^ 2`; a walk stops at an endpoint dart (>= n4) or back at its
    start.  A start that an earlier walk reached is skipped.  Returns
    (owner, out, cuts): `owner[x]` is the walk through dart x, -1 where
    none passed; `out` lists the out-darts, the dart at the start of each
    arc, walk after walk in traversal order; walk i is
    out[cuts[i]:cuts[i + 1]], and it closed exactly when the mate of its
    last out-dart is a crossing dart.
    """
    owner = [-1] * len(alpha)
    out: list[int] = []
    add = out.append
    cuts = [0]
    s = 0
    for start in starts:
        if owner[start] < 0:
            d = start
            while True:
                add(d)
                t = alpha[d]
                owner[d] = owner[t] = s
                if t >= n4 or (d := t ^ 2) == start:
                    break
            cuts.append(len(out))
            s += 1
    return owner, out, cuts


class Component(Record):
    """One traced strand of a diagram.

    `out_darts` lists, in traversal order, the dart at the start of every
    arc the strand runs along; empty for crossing-free loops.  Open strands
    run from endpoint `start_ep` to endpoint `end_ep`; both are None on
    closed ones.
    """

    __slots__ = _fields = ("label", "closed", "out_darts", "start_ep", "end_ep")

    def __init__(
        self,
        label: str,
        closed: bool,
        out_darts: tuple[int, ...],
        start_ep: int | None = None,
        end_ep: int | None = None,
    ):
        self.label = label
        self.closed = closed
        self.out_darts = out_darts
        self.start_ep = start_ep
        self.end_ep = end_ep


class TangleDiagram(Record):
    """Immutable planar diagram; operations return new diagrams.

    Diagrams compare and hash by their six fields, which are never
    reassigned: the cached properties below are computed from them once
    and kept in the instance `__dict__`.
    """

    _fields = ("n", "k", "alpha", "strings", "loops", "free_loops")

    def __init__(
        self,
        n: int,
        k: int,
        alpha: tuple[int, ...],
        strings: tuple[tuple[str, int], ...] = (),  # (label, start endpoint)
        loops: tuple[tuple[str, int], ...] = (),  # (label, anchor out-dart)
        free_loops: tuple[str, ...] = (),  # crossing-free circles
    ):
        self.n = n
        self.k = k
        self.alpha = alpha
        self.strings = strings
        self.loops = loops
        self.free_loops = free_loops

    # -- dart helpers ------------------------------------------------------

    @property
    def num_darts(self) -> int:
        return 4 * self.n + self.k

    def ep_dart(self, j: int) -> int:
        return 4 * self.n + j

    def is_ep_dart(self, d: int) -> bool:
        return d >= 4 * self.n

    # -- strands -----------------------------------------------------------

    def _trace_from(self, start: int) -> tuple[tuple[int, ...], bool]:
        """Follow the strand leaving along dart `start`.

        Returns (out-darts in order, closed?).
        """
        n4 = 4 * self.n
        out = strand_walk(self.alpha, n4, (start,))[1]
        return tuple(out), self.alpha[out[-1]] < n4

    @cached_property
    def _walk(self) -> tuple[list[int], list[int], list[int]]:
        """`strand_walk` from the declared starts, strings first; checked.

        A string must end at an endpoint and a loop back at its anchor,
        no start may lie on a strand declared before it, and every dart
        must lie on a declared strand; TangleError otherwise.
        """
        n4, alpha, ns = 4 * self.n, self.alpha, len(self.strings)
        starts = [n4 + ep for _, ep in self.strings] + [anchor for _, anchor in self.loops]
        owner, out, cuts = strand_walk(alpha, n4, starts)
        for i, start in enumerate(starts):
            if i + 1 >= len(cuts) or out[cuts[i]] != start:
                problem = "runs along a strand declared before it"
            elif (alpha[out[cuts[i + 1] - 1]] < n4) != (i >= ns):
                problem = "is not closed" if i >= ns else "traced to a closed loop"
            else:
                continue
            label = (self.strings + self.loops)[i][0]
            raise TangleError(f"{'loop' if i >= ns else 'string'} {label!r} {problem}")
        if -1 in owner:
            missing = [d for d, w in enumerate(owner) if w < 0]
            raise TangleError(f"darts not covered by declared components: {missing}")
        return owner, out, cuts

    @cached_property
    def components(self) -> tuple[Component, ...]:
        n4, alpha = 4 * self.n, self.alpha
        _, out, cuts = self._walk
        comps = []
        for i, (label, ep) in enumerate(self.strings):
            darts = tuple(out[cuts[i]:cuts[i + 1]])
            comps.append(Component(label, False, darts, ep, alpha[darts[-1]] - n4))
        for i, (label, _) in enumerate(self.loops, len(self.strings)):
            comps.append(Component(label, True, tuple(out[cuts[i]:cuts[i + 1]])))
        comps.extend(Component(label, True, ()) for label in self.free_loops)
        return tuple(comps)

    @property
    def component_of_dart(self) -> list[int]:
        """The component index of every dart (both darts of each arc)."""
        return self._walk[0]

    @cached_property
    def crossing_strands(self) -> tuple[tuple[int, int], ...]:
        """(under, over) component index of each crossing."""
        owner, n4 = self._walk[0], 4 * self.n
        return tuple(zip(owner[0:n4:4], owner[1:n4:4]))

    @cached_property
    def orientation(self) -> list[bool]:
        """True at each dart the component traversal leaves its node by."""
        out = [False] * self.num_darts
        for d in self._walk[1]:
            out[d] = True
        return out

    def label_of(self, dart: int) -> str:
        return self.components[self.component_of_dart[dart]].label

    def component_by_label(self, label: str) -> Component:
        for comp in self.components:
            if comp.label == label:
                return comp
        raise TangleError(f"no component labelled {label!r}")

    # -- faces and planarity -----------------------------------------------

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Faces as cyclic out-dart sequences (virtual gap darts included).

        The gap darts at endpoint j are num_darts + 2j (along the circle
        toward endpoint j+1) and num_darts + 2j + 1 (toward endpoint j-1).
        `succ` is the face successor sigma(alpha(d)) on the augmented map;
        sigma turns counterclockwise at a crossing and, at endpoint j, goes
        strand dart -> toward j-1 -> toward j+1 -> strand dart.
        """
        n4, nd, k = 4 * self.n, self.num_darts, self.k
        succ = [
            (t & ~3) | ((t + 1) & 3) if t < n4 else nd + 2 * (t - n4) + 1
            for t in self.alpha
        ]
        for j in range(k):
            succ.append(nd + 2 * ((j + 1) % k))
            succ.append(n4 + (j - 1) % k)
        seen = bytearray(len(succ))
        out: list[tuple[int, ...]] = []
        for start in range(len(succ)):
            if seen[start]:
                continue
            face = []
            d = start
            while not seen[d]:
                seen[d] = 1
                face.append(d)
                d = succ[d]
            out.append(tuple(face))
        return tuple(out)

    @cached_property
    def face_of_dart(self) -> list[int]:
        """The face of every dart, virtual gap darts included."""
        owner = [0] * (self.num_darts + 2 * self.k)
        for i, face in enumerate(self.faces):
            for d in face:
                owner[d] = i
        return owner

    def _pieces(self) -> list[list[int]]:
        """Darts of each connected piece, the boundary's piece first.

        The walk visits nodes, not darts: each crossing once, and the
        boundary circle, which joins every endpoint, as one node.  A node
        adds its darts to its piece and reaches the nodes its darts are
        paired with.  The order of the darts within a piece is not part of
        the result.
        """
        n, n4, alpha = self.n, 4 * self.n, self.alpha
        seen = bytearray(n + 1)  # node n is the boundary circle
        out = []
        for start in ([n] if self.k else []) + list(range(n)):
            if seen[start]:
                continue
            seen[start] = 1
            piece: list[int] = []
            stack = [start]
            while stack:
                v = stack.pop()
                darts = range(4 * v, 4 * v + 4) if v < n else range(n4, self.num_darts)
                piece.extend(darts)
                for x in darts:
                    t = alpha[x]
                    u = t >> 2 if t < n4 else n
                    if not seen[u]:
                        seen[u] = 1
                        stack.append(u)
            out.append(piece)
        return out

    def validate(self) -> "TangleDiagram":
        """Checks the involution and the genus-0 Euler identity."""
        if len(self.alpha) != self.num_darts:
            raise TangleError("alpha length mismatch")
        for d, a in enumerate(self.alpha):
            if a == d or not (0 <= a < self.num_darts) or self.alpha[a] != d:
                raise TangleError(f"alpha is not a fixed-point-free involution at dart {d}")
        verts = self.n + self.k
        if verts == 0:
            return self
        edges = self.num_darts // 2 + (self.k if self.k else 0)
        comps = len(self._pieces())
        euler = verts - edges + len(self.faces)
        if euler != 2 * comps:
            raise NonPlanarCode(
                f"rotation system has genus > 0: V-E+F = {euler}, expected {2 * comps}"
            )
        _ = self._walk  # coverage + open/closed sanity
        return self

    # -- structural transforms ----------------------------------------------

    def mirror(self) -> "TangleDiagram":
        """Switch every crossing (mirror image)."""
        alpha, remap = switch_crossings(self.alpha, range(self.n))
        loops = tuple((lab, remap[a]) for lab, a in self.loops)
        return TangleDiagram(self.n, self.k, alpha, self.strings, loops, self.free_loops)

    # -- canonical code ------------------------------------------------------

    def _code_from(self, start: int, shadow: bool) -> tuple:
        """Deterministic BFS code of the connected piece containing `start`.

        Crossings are numbered as they are met, each with its rotation fixed
        by the slot it is met in: a start on a crossing meets that crossing
        first, with a token for the start's own slot.
        """
        xid: dict[int, int] = {}
        xrot: dict[int, int] = {}
        tokens: list = []
        queue = [start]
        queued = {start}

        def meet(t: int) -> None:
            c, s = divmod(t, 4)
            xid[c] = len(xid)
            xrot[c] = s if shadow else s - s % 2
            for i in range(1, 4):
                nd = 4 * c + (s + i) % 4
                if nd not in queued:
                    queued.add(nd)
                    queue.append(nd)

        if not self.is_ep_dart(start):
            meet(start)
            tokens.append(("x", 0, (start - xrot[start // 4]) % 4))
        while queue:
            d = queue.pop(0)
            t = self.alpha[d]
            if self.is_ep_dart(t):
                tokens.append(("e", t - 4 * self.n))
                continue
            c = t // 4
            if c not in xid:
                meet(t)
            tokens.append(("x", xid[c], (t - xrot[c]) % 4))
        return tuple(tokens)

    def canonical_code(self, shadow: bool = False) -> tuple:
        """Complete invariant under isomorphisms fixing the boundary order.

        With shadow=True the over/under split is quotiented out (used for
        crossing-projection dedup).  The boundary's piece is coded from
        each endpoint; every other piece by its least code over start darts.
        """
        pieces = self._pieces()
        out: list[tuple] = []
        if self.k:
            code = tuple(
                self._code_from(self.ep_dart(j), shadow) for j in range(self.k)
            )
            out.append(("b", code))
            pieces = pieces[1:]
        rest = sorted(min(self._code_from(s, shadow) for s in p) for p in pieces)
        out.extend(("p", r) for r in rest)
        out.append(("o", len(self.free_loops)))
        return (self.n, self.k, tuple(out))


def switch_crossings(alpha: tuple[int, ...], crossings) -> tuple[tuple[int, ...], list[int]]:
    """Switch the given crossings by turning their slot labels a quarter turn.

    Returns the new alpha and the dart renumbering, old dart -> new dart.
    """
    remap = list(range(len(alpha)))
    for c in crossings:
        for s in range(4):
            remap[4 * c + s] = 4 * c + (s + 1) % 4
    new_alpha = [0] * len(alpha)
    for d, a in enumerate(alpha):
        new_alpha[remap[d]] = remap[a]
    return tuple(new_alpha), remap


def _reanchor(d: TangleDiagram, alive, strings, free_loops, new_loops=()):
    """The loops and free loops of a diagram made from `d`.

    Each loop of `d` is anchored at the first out-dart of its traversal
    that `alive` keeps; one with none left is appended to the free loops,
    unless a splice freed it already.  Returns (`d`'s loops anchored at
    their old darts, free loop labels).  A label held twice among
    `strings`, those loops, `new_loops` and the free loops raises
    TangleError.
    """
    free = list(free_loops)
    loops = []
    for label, start in d.loops:
        # the traversal starts at the old anchor, so a kept one needs no walk
        darts = (start,) if alive(start) else d._trace_from(start)[0]
        anchor = next((x for x in darts if alive(x)), None)
        if anchor is not None:
            loops.append((label, anchor))
        elif label not in free:
            free.append(label)
    labels = [lab for lab, _ in (*strings, *loops, *new_loops)] + free
    if len(set(labels)) < len(labels):
        dup = next(lab for lab in labels if labels.count(lab) > 1)
        raise TangleError(f"two components labelled {dup!r}")
    return loops, free


def pairing(d: TangleDiagram, fresh: int = 0) -> list[int]:
    """`d.alpha` as a list to edit, with `fresh` unpaired crossings appended.

    The fresh crossings follow `d`'s, so `d`'s endpoint darts shift up by
    4 * `fresh`.  A fresh dart holds the list's length until `connect`
    pairs it, which `compact` refuses.
    """
    if not fresh:
        return list(d.alpha)
    n4, nd = 4 * d.n, d.num_darts + 4 * fresh
    alpha = [a + 4 * fresh if a >= n4 else a for a in d.alpha]
    alpha[n4:n4] = [nd] * (4 * fresh)
    return alpha


def connect(alpha: list[int], a: int, b: int) -> None:
    """Pair darts a and b.

    Planarity for the adders: a crossing added inside a disk that meets
    the map only in arcs it cuts keeps the map planar when the arcs it
    re-pairs those ends with can be drawn in that disk without crossing.
    The twists of `build.twist_pair` lie in a disk at the boundary between
    their two endpoints, the R1 kink in a disk on its edge; the R2 push
    and the R3 slide name theirs.
    """
    alpha[a] = b
    alpha[b] = a


def join(alpha: list[int], p: int, q: int) -> tuple[int, int] | None:
    """Join the mates of darts p and q, whose own entries go stale.

    Returns the joined (mate of p, mate of q), or None when p and q were
    paired with each other: the join freed a circle.

    Planarity: a small disk around a crossing meets the rest of the map
    only in the crossing's four edges.  Taking the 4-valent vertex out and
    joining edges in pairs by arcs inside that disk keeps the map planar
    when the arcs can be drawn disjoint, that is when no two joined pairs
    interleave around the disk; deleting edges keeps it planar as well.
    One transit joined with the other strand deleted (`remove_string`) is
    a single arc.  Both transits of one crossing interleave around its
    own disk, so a move joining both draws its arcs in a larger disk,
    which its docstring names (see `splice`).  Joining two endpoints by
    an arc along the boundary circle (`cap`, the closures) draws it in
    the outer face.
    """
    a, b = alpha[p], alpha[q]
    if a == q:
        return None
    connect(alpha, a, b)
    return a, b


def compact(d: TangleDiagram, alpha, endpoints, strings, free_loops, new_loops=(), gone=None):
    """The diagram of `alpha`, an edited `pairing(d, fresh)`; unvalidated.

    The crossings `gone` does not mark (none by default) are renumbered in
    order, `d`'s and then the fresh ones.  `endpoints` gives the endpoint
    ids that stay, in their new boundary order, and `strings` the (label,
    endpoint id) of each string, in the order to list them.  Each loop of
    `d` is anchored as `_reanchor` says, and `new_loops` (label, dart of
    `alpha`) follow.  The caller orders `free_loops`, `d`'s own among
    them.  A surviving dart must be paired with a surviving dart, and one
    left unpaired raises TangleError.
    """
    n4 = len(alpha) - d.k
    if gone is None:
        gone = bytearray(n4 >> 2)
    new = [-1] * len(alpha)  # old dart -> new dart, -1 when dropped
    m = 0
    for c in range(n4 >> 2):
        if not gone[c]:
            new[4 * c:4 * c + 4] = range(4 * m, 4 * m + 4)
            m += 1
    for i, e in enumerate(endpoints):
        new[n4 + e] = 4 * m + i
    out = [0] * (4 * m + len(endpoints))
    try:
        for x, y in enumerate(new):
            if y >= 0:
                out[y] = new[alpha[x]]
    except IndexError:
        raise TangleError(f"dart {x} left unpaired") from None
    loops, free = _reanchor(d, lambda x: not gone[x >> 2], strings, free_loops, new_loops)
    return TangleDiagram(
        m,
        len(endpoints),
        tuple(out),
        tuple((lab, new[n4 + e] - 4 * m) for lab, e in strings),
        tuple((lab, new[x]) for lab, x in (*loops, *new_loops)),
        tuple(free),
    )


def splice(d: TangleDiagram, cuts, endpoints, strings) -> TangleDiagram:
    """Take crossings out of `d`, splicing strands through them; unvalidated.

    `cuts` lists (crossing, slots): in order, the strand through each
    listed slot is joined to the far side of the crossing by `join`,
    reading the pairing as the earlier joins left it, and a join that
    frees a crossing-free circle names it by its label in `d`.  The
    crossing's unlisted ports are dropped with it.  `endpoints` and
    `strings` are as `compact` takes them, and freed circles follow `d`'s
    free loops.  An arc with one end at a dropped port or endpoint must
    have both ends there, as the arcs of the string `remove_string`
    deletes do.

    A move splicing both transits of a crossing draws its arcs in a disk
    larger than the crossing's (see `join`): the crossing with its kink
    (R1), the two crossings with their bigon (R2), or the crossing with
    its face toward the boundary (untwist, pull), around which, once the
    move has re-ordered its endpoints, the joined ends do not interleave.
    Each applier's docstring names its disk.  So a chain of splices needs
    one `validate`, at its end.
    """
    alpha = list(d.alpha)
    gone = bytearray(d.n)
    freed: list[str] = []
    for c, slots in cuts:
        for s in slots:  # `join` through slot s, inlined: simplify's hot path
            p = 4 * c + s % 4
            a, b = alpha[p], alpha[p ^ 2]
            if a == p ^ 2:
                freed.append(d.label_of(p))
            else:
                alpha[a] = b
                alpha[b] = a
        gone[c] = 1
    return compact(d, alpha, endpoints, strings, d.free_loops + tuple(freed), gone=gone)
