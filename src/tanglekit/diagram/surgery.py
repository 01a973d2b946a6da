"""Diagram surgeries: capping, string removal, closures, boundary twists.

Boundary conventions for 3-string tangles (endpoints 0..5 counterclockwise):
strings occupy contiguous endpoint pairs (0,1), (2,3), (4,5); the outside
arc positions are c1 = (5,0), c2 = (1,2), c3 = (3,4) and the reference arcs
x12 = (0,1), x23 = (2,3), x31 = (4,5).

Capping at c_i removes that endpoint pair and re-indexes the remaining four
endpoints starting just past the cap, so that the replacement-tangle slot
of the experiment equations is always the boundary pairs (0,1) and (2,3) of
the result.  `close_with` fills that slot: 0/1 joins (0-1) and (2-3), 1/0
joins (1-2) and (3-0), and 1/v inserts v twists before the 1/0-style arcs.

Closure arcs are oriented along the boundary circle (counterclockwise);
each closed component inherits the orientation of its first closure arc,
which realizes the tangle-circle induced orientation used by the linking
number conventions.
"""

from __future__ import annotations

from ..errors import TangleError
from ..rational import TangleFraction
from .build import twist_pair, V_POSITIVE_LEFT_UNDER
from .core import TangleDiagram, Wiring


def _cap_pair(i: int) -> tuple[int, int]:
    if i not in (1, 2, 3):
        raise TangleError("cap index must be 1, 2 or 3")
    return ((2 * i + 3) % 6, (2 * i + 4) % 6)


def _label_by_endpoint(d: TangleDiagram) -> dict[int, str]:
    return {
        ep: comp.label
        for comp in d.components
        if not comp.closed
        for ep in (comp.start_ep, comp.end_ep)
    }


class _Closer:
    """Joins endpoint pairs with boundary arcs, tracking merged labels.

    Arcs are directed (ea -> eb along the circle).  After all joins,
    `finish` freezes the wiring and assigns each closed component the
    "+"-join of the strand labels it swallowed, anchored at its first arc
    so the traversal direction matches the arc direction.
    """

    def __init__(self, d: TangleDiagram):
        self.d = d
        self.w = Wiring.from_diagram(d)
        self.ep_label = _label_by_endpoint(d)
        self.groups: dict[str, set[str]] = {lab: {lab} for lab in {v for v in self.ep_label.values()}}
        self.anchors: list[tuple[str, tuple]] = []  # (label, port) per closure arc
        self.free: list[str] = []

    def _merge(self, la: str, lb: str) -> str:
        ga, gb = self.groups[la], self.groups[lb]
        if ga is not gb:
            ga |= gb
            for lab in gb:
                self.groups[lab] = ga
        return la

    def join(self, ea: int, eb: int) -> None:
        """Add the closure arc ea -> eb (circle direction)."""
        la, lb = self.ep_label[ea], self.ep_label[eb]
        self._merge(la, lb)
        joined = self.w.join_through(("e", ea), ("e", eb))
        if joined is None:  # the strand ran straight ea..eb: arc closes a circle
            self.free.append(la)
        elif joined[0][0] == "x":
            self.anchors.append((la, joined[0]))
        self.w.endpoints.remove(ea)
        self.w.endpoints.remove(eb)

    def finish(self) -> TangleDiagram:
        if self.w.endpoints:
            raise TangleError("closure left open endpoints")
        raw = self.w.to_diagram(loops=self.anchors)
        n_old = self.d.n
        loops: list[tuple[str, int]] = []
        free: list[str] = []
        covered: set[int] = set()

        def old_labels(darts) -> list[str]:
            labs = set()
            for x in darts:
                for y in (x, raw.alpha[x]):
                    if y < 4 * n_old:
                        labs.add(self.d.label_of(y))
            return sorted(labs)

        def claim(dart: int, label: str | None) -> None:
            darts, closed = raw._trace_from(dart)
            if not closed:
                raise TangleError("closure produced an open strand")
            covered.update(darts)
            covered.update(raw.alpha[x] for x in darts)
            labs = old_labels(darts)
            name = label or ("+".join(labs) if labs else f"o{len(loops) + len(free)}")
            loops.append((name, dart))

        # pre-existing closed components keep label and orientation
        for lab, anchor in self.d.loops:
            if anchor not in covered:
                claim(anchor, lab)
        # each closure arc whose near side reached a crossing orients a loop
        for _, dart in raw.loops:
            if dart not in covered:
                claim(dart, None)
        for dart in range(raw.num_darts):
            if dart not in covered:
                claim(dart, None)
        # crossing-free circles: labels merged through arc chains
        seen_groups: set[int] = set()
        for lab in self.free:
            gid = id(self.groups[lab])
            if gid in seen_groups:
                continue
            seen_groups.add(gid)
            free.append("+".join(sorted(self.groups[lab])))
        free.extend(self.d.free_loops)
        return TangleDiagram(
            raw.n, 0, raw.alpha, (), tuple(loops), tuple(free)
        ).validate()


def cap(d: TangleDiagram, i: int) -> TangleDiagram:
    """Cap off the c_i boundary arc, turning a 3-string into a 2-string tangle."""
    if d.k != 6:
        raise TangleError("cap needs a 3-string tangle (6 endpoints)")
    a, b = _cap_pair(i)
    labels = _label_by_endpoint(d)
    la, lb = labels[a], labels[b]
    name = f"shat{i}"
    w = Wiring.from_diagram(d)
    free_extra: list[str] = []
    new_loops: list[tuple[str, tuple]] = []
    joined = w.join_through(("e", a), ("e", b))
    if joined is None:  # the capped pair bounded one crossing-free strand
        free_extra.append(la)
    elif la == lb:
        u, v = joined
        new_loops.append((name, u if u[0] == "x" else v))
    w.endpoints.remove(a)
    w.endpoints.remove(b)
    start = (b + 1) % 6
    w.endpoints.sort(key=lambda e: (e - start) % 6)
    strings = [(lab, ep) for lab, ep in d.strings if lab not in (la, lb)]
    if la != lb:
        ends = [e for e, lab in labels.items() if lab in (la, lb) and e not in (a, b)]
        strings.append((name, min(ends)))
    return w.freeze(d, strings, free_extra, new_loops)


def remove_string(d: TangleDiagram, label: str) -> TangleDiagram:
    """Delete a string and every crossing it participates in."""
    comp = d.component_by_label(label)
    if comp.closed:
        raise TangleError(f"{label!r} is not an open string")
    idx = d.components.index(comp)
    w = Wiring.from_diagram(d)
    free_extra: list[str] = []
    for c, (under, over) in enumerate(d.crossing_strands):
        if idx not in (under, over):
            continue
        keep = 1 if under == idx else 0  # surviving transit parity
        w.splice_out(d, c, (keep,) if under != over else (), free_extra)
    # drop the removed string's leftover material
    material = set(comp.out_darts) | {d.alpha[x] for x in comp.out_darts}
    for dart in material:
        w.mate.pop(Wiring.port(d, dart), None)
    p1, p2 = sorted((comp.start_ep, comp.end_ep))
    k = d.k
    if (p1 + 1) % k == p2:
        start = (p1 - 1) % k
    elif (p2 + 1) % k == p1:
        start = (p2 - 1) % k
    else:
        start = min(e for e in range(k) if e not in (p1, p2))
    w.endpoints.remove(p1)
    w.endpoints.remove(p2)
    w.endpoints.sort(key=lambda e: (e - start) % k)
    strings = [(lab, ep) for lab, ep in d.strings if lab != label]
    return w.freeze(d, strings, free_extra)


def close_with(d: TangleDiagram, filler: TangleFraction) -> TangleDiagram:
    """Close a 2-string tangle against the filler tangle 0/1, 1/0 or 1/v.

    The filler occupies the boundary pairs (0,1) and (2,3); see module
    docstring for the arc layout per filler.
    """
    if d.k != 4:
        raise TangleError("close_with needs a 2-string tangle (4 endpoints)")
    if filler == TangleFraction(0, 1):
        closer = _Closer(d)
        closer.join(0, 1)
        closer.join(2, 3)
        return closer.finish()
    if filler.is_infinity:
        v = 0
    elif abs(filler.p) == 1:
        v = filler.q * filler.p
    else:
        raise TangleError(f"filler must be 0/1, 1/0 or 1/v, got {filler}")
    closer = _Closer(d)
    if v:
        twist_pair(closer.w, ("e", 0), ("e", 1), v, V_POSITIVE_LEFT_UNDER)
    closer.join(1, 2)
    closer.join(3, 0)
    return closer.finish()


def close_numerator(d: TangleDiagram) -> TangleDiagram:
    """Numerator closure: the 0/1 filler."""
    return close_with(d, TangleFraction(0, 1))


def close_with_x_arcs(d: TangleDiagram) -> TangleDiagram:
    """Close each string of a 3-string tangle along its x_ij boundary arc.

    Produces the 3-component link whose pairwise linking numbers the
    capped-equation conventions constrain.
    """
    if d.k != 6:
        raise TangleError("x-arc closure needs a 3-string tangle")
    closer = _Closer(d)
    closer.join(0, 1)
    closer.join(2, 3)
    closer.join(4, 5)
    return closer.finish()


def add_boundary_twists(d: TangleDiagram, i: int, n: int) -> TangleDiagram:
    """Insert n twists at the c_i boundary position of a 3-string tangle.

    Positive n adds twists whose capped 2-string tangle contributes +n to
    the vertical fraction 1/(f + ...), matching the twist parameterization
    of standard tangles.
    """
    if d.k != 6:
        raise TangleError("boundary twists need a 3-string tangle")
    if n == 0:
        return d
    a, b = _cap_pair(i)
    w = Wiring.from_diagram(d)
    twist_pair(w, ("e", a), ("e", b), n, V_POSITIVE_LEFT_UNDER)
    # anchor each string at its lower end away from the twisted pair
    strings = []
    for comp in d.components:
        if not comp.closed:
            ends = (comp.start_ep, comp.end_ep)
            anchor = [e for e in ends if e not in (a, b)]
            strings.append((comp.label, min(anchor) if anchor else min(ends)))
    return w.freeze(d, strings)
