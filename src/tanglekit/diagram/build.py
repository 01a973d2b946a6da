"""Constructors for tangle diagrams: trivial tangles and twist regions.

All twist regions are produced by one primitive, `twist_pair`, which
inserts crossings between the strands ending at two counterclockwise-
adjacent boundary positions.  Which crossing handedness realizes a
*positive* twist count differs by position and is fixed here once by the
H_POSITIVE / V_POSITIVE constants, calibrated so that the diagram-level
fraction semantics agree with the tangle-fraction arithmetic:

- horizontal twists at the right boundary pair add +n to the fraction,
- vertical twists at the bottom pair send p/q to p/(q + v*p).
"""

from __future__ import annotations

from ..errors import TangleError
from ..rational import TangleFraction, add_integral, add_vertical, reduce
from .core import TangleDiagram, Wiring

# Crossing type used for one positive twist, per twist direction.  True
# means the strand arriving at the first (counterclockwise-earlier) port
# passes under.  This pair is the single global sign calibration: it makes
# positive horizontal twist regions close to positive-writhe torus diagrams
# and reproduces the capped-closure linking number -2 on the reference
# solution tangle.  Flipping both values mirrors every built diagram.
H_POSITIVE_LEFT_UNDER = True
V_POSITIVE_LEFT_UNDER = False


def _twist_once(w: Wiring, pa: tuple, pb: tuple, left_under: bool) -> None:
    """Insert one crossing between the strands ending at ports pa, pb.

    pa must come counterclockwise-immediately before pb on the boundary.
    Slot layout (counterclockwise): with left_under the strand from pa
    runs under the one from pb.
    """
    ma, mb = w.mate[pa], w.mate[pb]
    c = w.new_crossing()
    if left_under:
        tl, bl, br, tr = 0, 1, 2, 3
    else:
        tl, bl, br, tr = 1, 2, 3, 0
    if ma == pb:  # direct arc between the pair twists into a kink
        w.connect(("x", c, tl), ("x", c, tr))
    else:
        w.connect(ma, ("x", c, tl))
        w.connect(mb, ("x", c, tr))
    w.connect(("x", c, br), pb)
    w.connect(("x", c, bl), pa)


def twist_pair(w: Wiring, pa: tuple, pb: tuple, count: int, positive_left_under: bool) -> None:
    """Insert |count| same-handed crossings between the pa/pb strands."""
    left_under = positive_left_under if count > 0 else not positive_left_under
    for _ in range(abs(count)):
        _twist_once(w, pa, pb, left_under)


def trivial_tangle(
    matching: tuple[tuple[int, int], ...] = ((0, 1), (2, 3), (4, 5)),
    labels: tuple[str, ...] = ("s12", "s23", "s31"),
) -> TangleDiagram:
    """Crossing-free tangle with the given noncrossing endpoint matching."""
    k = 2 * len(matching)
    w = Wiring()
    w.endpoints = list(range(k))
    for a, b in matching:
        w.connect(("e", a), ("e", b))
    strings = tuple((lab, min(pair)) for lab, pair in zip(labels, matching))
    return w.to_diagram(strings=strings).validate()


def zero_tangle() -> TangleDiagram:
    """The 0/1 tangle: strands NW-NE (0-1) and SW-SE (3-2)."""
    return trivial_tangle(((0, 1), (3, 2)), ("u", "w"))


def infinity_tangle() -> TangleDiagram:
    """The 1/0 tangle: strands NW-SW (0-3) and NE-SE (1-2)."""
    return trivial_tangle(((0, 3), (1, 2)), ("u", "w"))


def _restring_2tangle(w: Wiring) -> TangleDiagram:
    """Freeze a 2-string wiring; each string is named u or w at its earlier end."""
    strings = []
    for pos, eid in enumerate(w.endpoints):
        port = w.mate[("e", eid)]
        while port[0] == "x":
            port = w.mate[("x", port[1], (port[2] + 2) % 4)]
        if w.endpoints.index(port[1]) > pos:
            strings.append((("u", "w")[len(strings)], eid))
    return w.to_diagram(tuple(strings))


def horizontal_twists(d: TangleDiagram, n: int) -> TangleDiagram:
    """Add n horizontal twists at the right boundary pair (NE, SE)."""
    if d.k != 4:
        raise TangleError("horizontal twists need a 2-string tangle")
    if n == 0:
        return d
    w = Wiring.from_diagram(d)
    twist_pair(w, ("e", 1), ("e", 2), n, H_POSITIVE_LEFT_UNDER)
    return _restring_2tangle(w)


def vertical_twists(d: TangleDiagram, v: int) -> TangleDiagram:
    """Add v vertical twists at the bottom boundary pair (SE, SW)."""
    if d.k != 4:
        raise TangleError("vertical twists need a 2-string tangle")
    if v == 0:
        return d
    w = Wiring.from_diagram(d)
    twist_pair(w, ("e", 2), ("e", 3), v, V_POSITIVE_LEFT_UNDER)
    return _restring_2tangle(w)


def continued_fraction(fr: TangleFraction) -> list[int]:
    """[b0, b1, ..., bm] with fr = b0 + 1/(b1 + 1/(... + 1/bm)), m even.

    The odd term count matches the alternating twist construction, which
    must start and end with a horizontal layer.
    """
    if fr.is_infinity:
        raise TangleError("infinity tangle has no continued fraction")
    p, q = fr.p, fr.q
    terms: list[int] = []
    while True:
        b, r = divmod(p, q)
        terms.append(b)
        if r == 0:
            break
        p, q = q, r
    if len(terms) % 2 == 0:
        if terms[-1] == 1:
            terms.pop()
            terms[-1] += 1
        else:
            terms[-1] -= 1
            terms.append(1)
    return terms


def evaluate_continued_fraction(terms: list[int]) -> TangleFraction:
    t = reduce(terms[-1], 1)
    for b in reversed(terms[:-1]):
        t = reduce(b * t.p + t.q, t.p)  # b + 1/t
    return t


def rational_tangle_diagram(fr: TangleFraction) -> TangleDiagram:
    """Alternating twist diagram realizing the fraction fr."""
    if fr.is_infinity:
        return infinity_tangle()
    terms = continued_fraction(fr)
    d = zero_tangle()
    running = TangleFraction(0, 1)
    for i in range(len(terms) - 1, -1, -1):
        b = terms[i]
        if i % 2 == 0:
            d = horizontal_twists(d, b)
            running = add_integral(running, b)
        else:
            d = vertical_twists(d, b)
            running = add_vertical(running, b)
    if running != fr:
        raise TangleError(f"continued fraction build drifted: {running} != {fr}")
    return d
