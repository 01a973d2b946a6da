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

Closure arcs are oriented along the boundary circle (counterclockwise).
A closed component is anchored at its first arc, in join order, whose
near side reached a crossing, and so inherits that arc's orientation,
which realizes the tangle-circle induced orientation used by the linking
number conventions.  It is named by the "+"-join of its strands that have
a crossing in the input, in sorted order, or `o<i>` when none has, where
i counts the loops before it.  A crossing-free circle a closure frees is
named by all its strands, and is listed before the input's free loops.
A new name already held by one of the input's loops, or by a new name
given before it (closed components first, then freed circles), gets
primes appended until it is free; so does `cap`'s `shat<i>` when a
component of the input it keeps holds it.  `emit_pd` thus writes
distinct S labels, as `parse_pd` requires.

`remove_string` only takes crossings out, so it is one `core.splice` of
its input's flat dart list, validated.  Every other surgery, closures
included, adds arcs or crossings: it edits `core.pairing` of its input
with `core.join` and `build.twist_pair`, and returns the validated
`core.compact` of the result.
"""

from __future__ import annotations

from ..errors import TangleError
from ..rational import TangleFraction
from .build import twist_pair, V_POSITIVE_LEFT_UNDER
from .core import TangleDiagram, compact, join, pairing, splice


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


def _unused(label: str, taken: set[str]) -> str:
    """`label`, or `label` with the fewest primes appended that is not in
    `taken`; the name returned is added to `taken`."""
    while label in taken:
        label += "'"
    taken.add(label)
    return label


def _close(d: TangleDiagram, arcs, v: int = 0) -> TangleDiagram:
    """Join each endpoint pair (ea, eb) of `arcs` by a boundary arc ea -> eb.

    With v != 0, |v| twists first go on endpoints 0 and 1; each sends the
    strand at endpoint 0 out at endpoint 1 and back, so an odd count swaps
    the strands ending there.  A union-find over the joins collects the
    strands of each closed component, named and anchored as the module
    docstring says.  Every closed component with a crossing gets an
    anchor: when its last arc is joined, every other endpoint of it is
    joined already, so that arc's near side is a crossing; a component
    with no crossing is instead closed by that arc as a free circle.
    """
    alpha = pairing(d, abs(v))
    e0 = len(alpha) - d.k  # dart of endpoint 0
    owner = [d.component_of_dart[d.ep_dart(e)] for e in range(d.k)]  # strand at each endpoint
    if v:
        twist_pair(alpha, d.n, e0, e0 + 1, v, V_POSITIVE_LEFT_UNDER)
        if v % 2:
            owner[0], owner[1] = owner[1], owner[0]
    root = list(range(len(d.components)))

    def find(i: int) -> int:
        while root[i] != i:
            i = root[i]
        return i

    freed: list[int] = []
    anchors: list[tuple[int, int]] = []
    for ea, eb in arcs:
        root[find(owner[ea])] = find(owner[eb])
        joined = join(alpha, e0 + ea, e0 + eb)
        if joined is None:  # the arc closed a crossing-free circle
            freed.append(owner[ea])
        elif joined[0] < e0:
            anchors.append((owner[ea], joined[0]))

    def name(i: int, crossed: bool) -> str:
        labels = {
            comp.label
            for j, comp in enumerate(d.components)
            if find(j) == find(i) and (len(comp.out_darts) > 1 or not crossed)
        }
        return "+".join(sorted(labels))

    taken = {comp.label for comp in d.components if comp.closed}
    new_loops: list[tuple[str, int]] = []
    named: set[int] = set()
    for i, dart in anchors:
        if find(i) not in named:
            named.add(find(i))
            label = name(i, True) or f"o{len(d.loops) + len(new_loops)}"
            new_loops.append((_unused(label, taken), dart))
    free = tuple(_unused(name(i, False), taken) for i in freed)
    return compact(d, alpha, (), (), free + d.free_loops, new_loops).validate()


def cap(d: TangleDiagram, i: int) -> TangleDiagram:
    """Cap off the c_i boundary arc, turning a 3-string into a 2-string tangle."""
    if d.k != 6:
        raise TangleError("cap needs a 3-string tangle (6 endpoints)")
    a, b = _cap_pair(i)
    labels = _label_by_endpoint(d)
    la, lb = labels[a], labels[b]
    name = _unused(f"shat{i}", {comp.label for comp in d.components} - {la, lb})
    alpha = pairing(d)
    free_extra: list[str] = []
    new_loops: list[tuple[str, int]] = []
    joined = join(alpha, d.ep_dart(a), d.ep_dart(b))
    if joined is None:  # the capped pair bounded one crossing-free strand
        free_extra.append(la)
    elif la == lb:  # the strand from a to b has a crossing next to a
        new_loops.append((name, joined[0]))
    start = (b + 1) % 6
    endpoints = sorted((e for e in range(6) if e not in (a, b)), key=lambda e: (e - start) % 6)
    strings = [(lab, ep) for lab, ep in d.strings if lab not in (la, lb)]
    if la != lb:
        ends = [e for e, lab in labels.items() if lab in (la, lb) and e not in (a, b)]
        strings.append((name, min(ends)))
    free = d.free_loops + tuple(free_extra)
    return compact(d, alpha, endpoints, strings, free, new_loops).validate()


def remove_string(d: TangleDiagram, label: str) -> TangleDiagram:
    """Delete a string and every crossing it participates in.

    One `splice`: each crossing of the string goes, the other strand's
    transit through it spliced (none at a self-crossing), so only the
    string's own arcs end at dropped ports.
    """
    comp = d.component_by_label(label)
    if comp.closed:
        raise TangleError(f"{label!r} is not an open string")
    idx = d.components.index(comp)
    cuts = []
    for c, (under, over) in enumerate(d.crossing_strands):
        if idx not in (under, over):
            continue
        keep = 1 if under == idx else 0  # surviving transit parity
        cuts.append((c, (keep,) if under != over else ()))
    p1, p2 = sorted((comp.start_ep, comp.end_ep))
    k = d.k
    if (p1 + 1) % k == p2:
        start = (p1 - 1) % k
    elif (p2 + 1) % k == p1:
        start = (p2 - 1) % k
    else:
        start = min(e for e in range(k) if e not in (p1, p2))
    endpoints = [e for e in range(k) if e not in (p1, p2)]
    endpoints.sort(key=lambda e: (e - start) % k)
    strings = [(lab, ep) for lab, ep in d.strings if lab != label]
    return splice(d, cuts, endpoints, strings).validate()


def close_with(d: TangleDiagram, filler: TangleFraction) -> TangleDiagram:
    """Close a 2-string tangle against the filler tangle 0/1, 1/0 or 1/v.

    The filler occupies the boundary pairs (0,1) and (2,3); see module
    docstring for the arc layout per filler.
    """
    if d.k != 4:
        raise TangleError("close_with needs a 2-string tangle (4 endpoints)")
    if filler == TangleFraction(0, 1):
        return _close(d, ((0, 1), (2, 3)))
    if filler.is_infinity:
        v = 0
    elif abs(filler.p) == 1:
        v = filler.q * filler.p
    else:
        raise TangleError(f"filler must be 0/1, 1/0 or 1/v, got {filler}")
    return _close(d, ((1, 2), (3, 0)), v)


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
    return _close(d, ((0, 1), (2, 3), (4, 5)))


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
    alpha = pairing(d, abs(n))
    e0 = len(alpha) - d.k
    twist_pair(alpha, d.n, e0 + a, e0 + b, n, V_POSITIVE_LEFT_UNDER)
    # anchor each string at its lower end away from the twisted pair
    strings = []
    for comp in d.components:
        if not comp.closed:
            ends = (comp.start_ep, comp.end_ep)
            anchor = [e for e in ends if e not in (a, b)]
            strings.append((comp.label, min(anchor) if anchor else min(ends)))
    return compact(d, alpha, range(6), strings, d.free_loops).validate()
