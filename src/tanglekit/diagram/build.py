"""Constructors for tangle diagrams: trivial tangles and twist regions.

All twist regions are produced by one primitive, `twist_pair`, which
inserts fresh crossings of a flat dart list (`core.pairing`) between the
strands ending at two counterclockwise-adjacent boundary positions.
Which crossing handedness realizes a *positive* twist count differs by
position and is fixed here once by the H_POSITIVE / V_POSITIVE
constants, calibrated so that the diagram-level fraction semantics agree
with the tangle-fraction arithmetic:

- horizontal twists at the right boundary pair add +n to the fraction,
- vertical twists at the bottom pair send p/q to p/(q + v*p).
"""

from __future__ import annotations

from ..errors import TangleError
from ..rational import TangleFraction, add_integral, add_vertical, reduce
from .core import TangleDiagram, compact, connect, pairing, strand_walk

# Crossing type used for one positive twist, per twist direction.  True
# means the strand arriving at the first (counterclockwise-earlier) port
# passes under.  This pair is the single global sign calibration: it makes
# positive horizontal twist regions close to positive-writhe torus diagrams
# and reproduces the capped-closure linking number -2 on the reference
# solution tangle.  Flipping both values mirrors every built diagram.
H_POSITIVE_LEFT_UNDER = True
V_POSITIVE_LEFT_UNDER = False


def twist_pair(
    alpha: list[int], c: int, pa: int, pb: int, count: int, positive_left_under: bool
) -> None:
    """Insert |count| same-handed crossings between the strands at darts pa, pb.

    `alpha` is a `pairing` with the fresh crossings c, c + 1, ... for the
    twists; pa and pb are endpoint darts, pa's endpoint counterclockwise-
    immediately before pb's.  Each twist takes the next fresh crossing,
    whose slots, counterclockwise from the one taking pa's old mate, are
    top-left, bottom-left, bottom-right, top-right: with left_under the
    strand from pa runs under the one from pb.  A direct arc between the
    pair twists into a kink.  Planar: each crossing lies in a disk at the
    boundary between the two endpoints (see `core.connect`).
    """
    left_under = positive_left_under if count > 0 else not positive_left_under
    tl, bl, br, tr = (0, 1, 2, 3) if left_under else (1, 2, 3, 0)
    for x in range(4 * c, 4 * (c + abs(count)), 4):
        ma, mb = alpha[pa], alpha[pb]
        if ma == pb:
            connect(alpha, x + tl, x + tr)
        else:
            connect(alpha, ma, x + tl)
            connect(alpha, mb, x + tr)
        connect(alpha, x + br, pb)
        connect(alpha, x + bl, pa)


def trivial_tangle(
    matching: tuple[tuple[int, int], ...] = ((0, 1), (2, 3), (4, 5)),
    labels: tuple[str, ...] = ("s12", "s23", "s31"),
) -> TangleDiagram:
    """Crossing-free tangle with the given noncrossing endpoint matching."""
    alpha = [0] * (2 * len(matching))
    for a, b in matching:
        connect(alpha, a, b)
    strings = tuple((lab, min(pair)) for lab, pair in zip(labels, matching))
    return TangleDiagram(0, len(alpha), tuple(alpha), strings).validate()


def zero_tangle() -> TangleDiagram:
    """The 0/1 tangle: strands NW-NE (0-1) and SW-SE (3-2)."""
    return trivial_tangle(((0, 1), (3, 2)), ("u", "w"))


def infinity_tangle() -> TangleDiagram:
    """The 1/0 tangle: strands NW-SW (0-3) and NE-SE (1-2)."""
    return trivial_tangle(((0, 3), (1, 2)), ("u", "w"))


def _twist_2tangle(
    d: TangleDiagram, pa: int, count: int, positive_left_under: bool
) -> TangleDiagram:
    """`d` with `count` twists on endpoints pa and pa + 1; unvalidated.

    Each string is named u or w at its earlier end; `d`'s loops and free
    loops are kept, re-anchored by `compact`.
    """
    alpha = pairing(d, abs(count))
    e0 = len(alpha) - 4  # dart of endpoint 0
    twist_pair(alpha, d.n, e0 + pa, e0 + pa + 1, count, positive_left_under)
    _, out, cuts = strand_walk(alpha, e0, range(e0, e0 + 4))
    strings = [("uw"[i], out[c] - e0) for i, c in enumerate(cuts[:-1])]
    return compact(d, alpha, range(4), strings, d.free_loops)


def horizontal_twists(d: TangleDiagram, n: int) -> TangleDiagram:
    """Add n horizontal twists at the right boundary pair (NE, SE)."""
    if d.k != 4:
        raise TangleError("horizontal twists need a 2-string tangle")
    if n == 0:
        return d
    return _twist_2tangle(d, 1, n, H_POSITIVE_LEFT_UNDER)


def vertical_twists(d: TangleDiagram, v: int) -> TangleDiagram:
    """Add v vertical twists at the bottom boundary pair (SE, SW)."""
    if d.k != 4:
        raise TangleError("vertical twists need a 2-string tangle")
    if v == 0:
        return d
    return _twist_2tangle(d, 2, v, V_POSITIVE_LEFT_UNDER)


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
