"""Link identification against a generated 2-bridge / torus fingerprint table.

The table is built from reference diagrams: for every fraction P/q with
2 <= P <= 10, the numerator closure of the alternating twist diagram of
+-P/q is fingerprinted and mapped to the canonical 2-bridge class computed
arithmetically.  Any fingerprint collision between distinct classes
downgrades those entries, so a lookup can answer Unknown but never
misidentify.  The bracket is not a complete invariant in general; at these
sizes the build-time collision check is the honesty guarantee.
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


@lru_cache(maxsize=1)
def _fingerprint_table() -> dict[tuple, LinkId]:
    """fingerprint -> LinkId for b(p,q) and (2,p), p <= MAX_TABLE_P."""
    table: dict[tuple, LinkId] = {}
    collided: set[tuple] = set()

    def add(fp: tuple, lid: LinkId) -> None:
        prior = table.get(fp)
        if prior is None:
            if fp not in collided:
                table[fp] = lid
            return
        if prior != lid:
            del table[fp]
            collided.add(fp)

    # unknot and 2-component unlink
    unknot = TangleDiagram(0, 0, (), (), (), ("o",))
    add(fingerprint(unknot), LinkId("unknot"))
    unlink = TangleDiagram(0, 0, (), (), (), ("o1", "o2"))
    add(fingerprint(unlink), LinkId("unlink2", components=2))

    for P in range(2, MAX_TABLE_P + 1):
        for q in range(1, P):
            if gcd(P, q) != 1:
                continue
            for sign in (1, -1):
                fr = reduce(sign * P, q)
                target = numerator_closure(fr)
                diag = close_numerator(rational_tangle_diagram(fr))
                fp = fingerprint(diag)
                add(fp, LinkId.from_two_bridge(target))
    return table


def identify_link(d: TangleDiagram) -> LinkId:
    """Identify a closed diagram by its fingerprint; Unknown when unmatched."""
    if d.k != 0:
        raise TangleError("identify_link needs a closed diagram")
    small = simplify(d, "free")
    fp = fingerprint(small)
    hit = _fingerprint_table().get(fp)
    if hit is not None:
        return hit
    comps = len(small.components)
    return LinkId("unknown", components=comps, fingerprint=fp)


# -- fraction recovery ---------------------------------------------------------


def _probes(d: TangleDiagram) -> tuple:
    """Fingerprints of the 0/1, 1/0 and 1/1 closures of a 2-string tangle."""
    fillers = (TangleFraction(0, 1), TangleFraction(1, 0), reduce(1, 1))
    return tuple(fingerprint(close_with(d, f)) for f in fillers)


@lru_cache(maxsize=None)
def _closure_fingerprints(p: int, q: int) -> tuple:
    return _probes(rational_tangle_diagram(TangleFraction(p, q)))


def recover_fraction(d: TangleDiagram, bound: int = 8) -> TangleFraction:
    """Recover p/q of a rational 2-string tangle diagram by closure probes.

    Compares the fingerprints of the 0/1, 1/0 and 1/1 closures against
    reference twist diagrams for all reduced |p|,|q| <= bound.  Raises when
    no candidate (or more than one) matches.
    """
    if d.k != 4:
        raise TangleError("fraction recovery needs a 2-string tangle")
    probes = _probes(simplify(d, "rel_boundary"))
    matches = []
    candidates = [(1, 0), (0, 1)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if p != 0 and gcd(abs(p), q) == 1:
                candidates.append((p, q))
    for p, q in candidates:
        if _closure_fingerprints(p, q) == probes:
            matches.append(TangleFraction(p, q))
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise TangleError(f"tangle does not match any p/q with |p|,|q| <= {bound}")
    raise TangleError(f"ambiguous fraction recovery: {matches}")
