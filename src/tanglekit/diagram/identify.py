"""Link identification against a generated 2-bridge / torus fingerprint table.

The table is built from reference diagrams: for 2 <= P <= 10 and one q in
each Schubert class {q, q^-1 mod P}, the numerator closure of the twist
diagram of P/q is fingerprinted and mapped to its 2-bridge class computed
arithmetically.  b(P, q) = b(P, q^-1), and N(-P/q) = N(P/(P - q)) as
unoriented links, so the positive q cover every mirror class too.  Any
fingerprint collision between distinct classes downgrades those entries,
so a lookup can answer Unknown but never misidentify.  The bracket is not
a complete invariant in general; at these sizes the build-time collision
check is the honesty guarantee.

The table is kept in classes by determinant.  det(L) = |<L>| at
A = e^{i pi/4}, up to the normalizing unit, so a fingerprint fixes its
determinant (`determinant`), and a query can only match references of its
own class: the unknot is det 1, the 2-component unlink det 0, and b(P, q)
det P.  Equal fingerprints have equal determinants, so every collision
lies inside one class, and the per-class collision check equals a check
over the whole table.  Each reference's determinant is checked against its
class at build time, so that lemma is verified rather than assumed.

Identification is determinant first.  `identify_link` takes the Goeritz
determinant of its simplified query, a polynomial-time determinant of a
small integer matrix, before any bracket: past MAX_TABLE_P it answers
Unknown with no bracket and no class build, and otherwise it fingerprints
the query once and looks it up in the class of that determinant only.

Fraction recovery uses the same lemma.  The 0/1, 1/0 and 1/1 closures of
p/q (q >= 0) have determinants (|p|, q, |p + q|), and |p + q| = |p| + q
exactly when p >= 0 or q = 0, so the triple, read off the closures'
Goeritz matrices, names at most one fraction.  The candidate is certified
by the tangle's own bracket, contracted once as the pair (f, g) over the
tangles [0] and [inf] (`bracket_pair`), not by fingerprints of its
closures: the endpoints each string joins, the closed components, the
signed crossings between the strings and the writhe-normalized pair must
equal those of the candidate's reference twist diagram.  Each is
invariant under Reidemeister moves that fix the boundary, and together
they fix every closure fingerprint (`recover_fraction` gives the proof).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .._record import Record
from ..errors import TangleError
from ..rational import (
    TangleFraction,
    TwoBridgeLink,
    numerator_closure,
    reduce,
)
from .build import rational_tangle_diagram
from .core import TangleDiagram
from .invariants import (
    _check_budget,
    _check_det,
    _normalized,
    _signed_pairs,
    bracket_pair,
    closure_determinants,
    determinant,
    fingerprint,
    goeritz_determinant,
)
from .rewrite import simplify
from .surgery import close_numerator, close_with


class LinkId(Record):
    """Identification result: unknot, 2-bridge, (2,p) torus, or unknown."""

    __slots__ = _fields = ("kind", "two_bridge", "torus", "components")

    def __init__(
        self,
        kind: str,  # "unknot" | "unlink2" | "two_bridge" | "torus2" | "unknown"
        two_bridge: TwoBridgeLink | None = None,
        torus: int | None = None,
        components: int | None = None,
    ):
        self.kind = kind
        self.two_bridge = two_bridge
        self.torus = torus
        self.components = components

    @classmethod
    def from_two_bridge(cls, tb: TwoBridgeLink) -> "LinkId":
        if tb.is_unknot:
            return cls("unknot")
        if tb.is_unlink:
            return cls("unlink2", components=2)
        torus = tb.torus_parameter()
        if torus is not None:
            return cls("torus2", two_bridge=tb, torus=torus, components=tb.components)
        return cls("two_bridge", two_bridge=tb, components=tb.components)

    def __str__(self) -> str:
        if self.kind == "unknot":
            return "unknot"
        if self.kind == "unlink2":
            return "unlink(2)"
        if self.kind == "torus2":
            return f"(2,{self.torus}) torus " + ("link" if self.torus % 2 == 0 else "knot")
        if self.kind == "two_bridge":
            return str(self.two_bridge)
        return f"unknown[{self.components} comps]"


MAX_TABLE_P = 10


def _references(det: int):
    """(diagram, LinkId) of every reference of determinant det."""
    if det == 0:
        yield TangleDiagram(0, 0, (), (), (), ("o1", "o2")), LinkId("unlink2", components=2)
    elif det == 1:
        yield TangleDiagram(0, 0, (), (), (), ("o",)), LinkId("unknot")
    elif det <= MAX_TABLE_P:
        for q in range(1, det):
            if gcd(det, q) == 1 and q <= pow(q, -1, det):
                fr = reduce(det, q)
                diag = close_numerator(rational_tangle_diagram(fr))
                yield diag, LinkId.from_two_bridge(numerator_closure(fr))


@lru_cache(maxsize=None)
def _class_table(det: int) -> dict[tuple, LinkId]:
    """fingerprint -> LinkId for the references of determinant det.

    `identify_link` asks only for det <= MAX_TABLE_P, so the cache holds at
    most MAX_TABLE_P + 1 classes, each built the first time a query of
    that determinant meets it.
    """
    table: dict[tuple, LinkId] = {}
    collided: set[tuple] = set()
    for diag, lid in _references(det):
        fp = fingerprint(diag)
        if determinant(fp) != det:
            raise TangleError(f"reference {lid} has determinant {determinant(fp)}, not {det}")
        prior = table.get(fp)
        if prior is None:
            if fp not in collided:
                table[fp] = lid
        elif prior != lid:
            del table[fp]
            collided.add(fp)
    return table


@lru_cache(maxsize=1)
def _fingerprint_table() -> dict[tuple, LinkId]:
    """fingerprint -> LinkId for b(p,q) and (2,p), p <= MAX_TABLE_P.

    The union of every class, built up front; `identify_link` reads only
    the class of its query.
    """
    table: dict[tuple, LinkId] = {}
    for det in range(MAX_TABLE_P + 1):
        table.update(_class_table(det))
    return table


def identify_link(d: TangleDiagram) -> LinkId:
    """Identify a closed diagram by its fingerprint; Unknown when unmatched.

    The crossing budget is checked first, then the Goeritz determinant:
    past MAX_TABLE_P no bracket is computed.
    """
    if d.k != 0:
        raise TangleError("identify_link needs a closed diagram")
    small = simplify(d, "free")
    _check_budget(small)
    det = goeritz_determinant(small)
    if det <= MAX_TABLE_P:
        fp = fingerprint(small, det)
        hit = _class_table(det).get(fp)
        if hit is not None:
            return hit
    return LinkId("unknown", components=len(small.components))


# -- fraction recovery ---------------------------------------------------------


_FILLERS = (TangleFraction(0, 1), TangleFraction(1, 0), reduce(1, 1))


def _certificate(d: TangleDiagram, dets) -> tuple:
    """The pair certificate of a 2-string tangle whose 0/1, 1/0 and 1/1
    closures have the Goeritz determinants `dets`.

    It is the endpoints each string joins, the number of closed
    components, the signed sum of the crossings between the two strings,
    each oriented from its lower endpoint, and (-A^3)^(-w_self) (f, g),
    with (f, g) the `bracket_pair` and w_self the signed sum of every
    component's crossings with itself.  The pair is cross-checked first:
    each closure bracket it gives must have that closure's determinant,
    or TangleError is raised, as `fingerprint` does.
    """
    f, g = bracket_pair(d)
    for got, det in zip(closure_determinants(f, g), dets):
        _check_det(got, det)
    self_w, pairs = _signed_pairs(d)
    s, t = d.components[:2]
    between = pairs.get((0, 1), 0)
    if (s.start_ep > s.end_ep) != (t.start_ep > t.end_ep):
        between = -between
    ends = tuple(sorted((min(c.start_ep, c.end_ep), max(c.start_ep, c.end_ep)) for c in (s, t)))
    return (
        ends,
        len(d.components) - 2,
        between,
        _normalized(f, self_w),
        _normalized(g, self_w),
    )


RECOVER_BOUND = 8


@lru_cache(maxsize=None)
def _closure_fingerprints(p: int, q: int) -> tuple:
    """The pair certificate of the reference twist diagram of p/q, whose
    closures have determinants |p|, q and |p + q|."""
    return _certificate(rational_tangle_diagram(TangleFraction(p, q)), (abs(p), q, abs(p + q)))


def recover_fraction(d: TangleDiagram) -> TangleFraction:
    """Recover p/q of a rational 2-string tangle diagram.

    The Goeritz determinants (a, b, c) of the 0/1, 1/0 and 1/1 closures,
    each within the crossing budget, name the one candidate p/b,
    p = a if c == a + b else -a.  It is the answer when reduced, within
    |p|,|q| <= RECOVER_BOUND, and the tangle's pair certificate
    (`_certificate`) equals that of the reference twist diagram of p/b;
    otherwise TangleError is raised, with no bracket computed when there
    is no candidate to certify.

    Every diagram of p/b is accepted.  Each part of the certificate is
    invariant under Reidemeister moves that fix the boundary: R2 and R3
    change neither the bracket nor any signed crossing sum, and R1 adds or
    removes a kink, a self-crossing, so it moves w_self by +-1 and
    multiplies f and g by -A^(+-3), which (-A^3)^(-w_self) cancels.
    Rational tangles with one fraction are isotopic rel boundary (Conway),
    so every diagram of p/b has the reference's certificate.

    Nothing the three closure fingerprints refused is accepted.  The
    reference has no closed component, so a query that matches has none
    either, and the endpoints each string joins fix every closure's
    component count.  Under any orientation choice, a closure's writhe w
    is w_self, plus the crossings between the strings, plus the filler's
    own crossing; given those endpoints, the choice fixes the signs of the
    last two from the strings' lower-endpoint orientations, so w - w_self
    is the same for query and reference.  A closure bracket is linear in
    (f, g) (see `closure_determinants`), so (-A^3)^(-w) <N(T + F)> is one
    linear form in (-A^3)^(-w_self) (f, g) for both.  So every closure
    has the reference's fingerprint.
    """
    if d.k != 4:
        raise TangleError("fraction recovery needs a 2-string tangle")
    small = simplify(d, "rel_boundary")
    closures = [close_with(small, f) for f in _FILLERS]
    for closed in closures:
        _check_budget(closed)
    dets = [goeritz_determinant(closed) for closed in closures]
    a, b, c = dets
    p = a if c == a + b else -a
    if gcd(a, b) == 1 and max(a, b) <= RECOVER_BOUND:
        if _closure_fingerprints(p, b) == _certificate(small, dets):
            return TangleFraction(p, b)
    raise TangleError(f"tangle does not match any p/q with |p|,|q| <= {RECOVER_BOUND}")
