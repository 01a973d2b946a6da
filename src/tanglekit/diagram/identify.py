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
det P.  `identify_link` builds only the class of its query, and none when
det > MAX_TABLE_P.  Equal fingerprints have equal determinants, so every
collision lies inside one class, and the per-class collision check equals
a check over the whole table.  Each reference's determinant is checked
against its class at build time, so that lemma is verified rather than
assumed.

Fraction recovery uses the same lemma.  The 0/1, 1/0 and 1/1 closures of
p/q (q >= 0) have determinants (|p|, q, |p + q|), and |p + q| = |p| + q
exactly when p >= 0 or q = 0, so the triple names at most one fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from ..errors import TangleError
from ..rational import (
    TangleFraction,
    TwoBridgeLink,
    numerator_closure,
    reduce,
)
from .build import rational_tangle_diagram
from .core import TangleDiagram
from .invariants import fingerprint
from .rewrite import simplify
from .surgery import close_numerator, close_with


@dataclass(frozen=True)
class LinkId:
    """Identification result: unknot, 2-bridge, (2,p) torus, or unknown."""

    kind: str  # "unknot" | "unlink2" | "two_bridge" | "torus2" | "unknown"
    two_bridge: TwoBridgeLink | None = None
    torus: int | None = None
    components: int | None = None
    fingerprint: tuple | None = None

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


def determinant(fp: tuple) -> int:
    """det of the link with fingerprint fp: |<L>| at A = e^{i pi/4}.

    The first normalized bracket is evaluated exactly in Z[zeta8] as four
    integer coordinates over 1, zeta8, zeta8^2, zeta8^3 (zeta8^4 = -1).
    Every exponent of a link's bracket has one residue mod 4, so the value
    is a unit times det and at most one coordinate is non-zero; two or
    more mean a corrupt fingerprint, and TangleError is raised.
    """
    coords = [0, 0, 0, 0]
    for e, c in fp[1][0]:
        coords[e % 4] += c if e % 8 < 4 else -c
    nonzero = [x for x in coords if x]
    if len(nonzero) > 1:
        raise TangleError(f"bracket at e^(i pi/4) is not a unit times an integer: {coords}")
    return abs(nonzero[0]) if nonzero else 0


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

    Unbounded: one entry per determinant a process meets, and each past
    MAX_TABLE_P is an empty dict built with no reference.
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
    """Identify a closed diagram by its fingerprint; Unknown when unmatched."""
    if d.k != 0:
        raise TangleError("identify_link needs a closed diagram")
    small = simplify(d, "free")
    fp = fingerprint(small)
    hit = _class_table(determinant(fp)).get(fp)
    if hit is not None:
        return hit
    return LinkId("unknown", components=len(small.components), fingerprint=fp)


# -- fraction recovery ---------------------------------------------------------


def _probes(d: TangleDiagram) -> tuple:
    """Fingerprints of the 0/1, 1/0 and 1/1 closures of a 2-string tangle."""
    fillers = (TangleFraction(0, 1), TangleFraction(1, 0), reduce(1, 1))
    return tuple(fingerprint(close_with(d, f)) for f in fillers)


RECOVER_BOUND = 8


@lru_cache(maxsize=None)
def _closure_fingerprints(p: int, q: int) -> tuple:
    return _probes(rational_tangle_diagram(TangleFraction(p, q)))


def recover_fraction(d: TangleDiagram) -> TangleFraction:
    """Recover p/q of a rational 2-string tangle diagram by closure probes.

    The determinants (a, b, c) of the probes name the one candidate p/b,
    p = a if c == a + b else -a.  It is the answer when reduced, within
    |p|,|q| <= RECOVER_BOUND, and its reference twist diagram has the same
    three closure fingerprints; otherwise TangleError is raised.
    """
    if d.k != 4:
        raise TangleError("fraction recovery needs a 2-string tangle")
    probes = _probes(simplify(d, "rel_boundary"))
    a, b, c = (determinant(fp) for fp in probes)
    p = a if c == a + b else -a
    if gcd(a, b) == 1 and max(a, b) <= RECOVER_BOUND and _closure_fingerprints(p, b) == probes:
        return TangleFraction(p, b)
    raise TangleError(f"tangle does not match any p/q with |p|,|q| <= {RECOVER_BOUND}")
