"""Exact rational tangle arithmetic and 2-bridge link classification.

Conventions used throughout:

- A rational tangle is named by its extended fraction p/q (q >= 0, gcd = 1,
  with 1/0 the infinity tangle).  Horizontal twists added at the right of a
  tangle change p/q to (p + n*q)/q; vertical twists added at the bottom
  change p/q to p/(q + v*p).
- The numerator closure of p/q is the 2-bridge link b(p, q); closing p/q
  against the vertical filler 1/v instead yields the numerator closure of
  the 90-degree rotation -1/(p/q + 1/v vertically), i.e. of the fraction
  -(q + v*p)/p.  The filler 1/0 (v = 0) gives the denominator closure.
- Handedness: the right-handed (2,L) torus link (L > 0) is the class of the
  closure fraction +L/1, so that the in cis deletion system
  N(X + 0/1) = unknot, N(X + 1/0) = right-handed (2,L) has the unique
  solution X = -1/L.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd

from ._record import Record
from .errors import NoSolution, ParityViolation, UnsupportedCase


@total_ordering
class TangleFraction(Record):
    """Extended rational p/q naming a rational tangle.

    Canonical form: gcd(|p|, |q|) = 1, q >= 0, and q = 0 only as 1/0
    (all k/0 name the same infinity tangle).  Zero is 0/1.  Fractions
    compare, hash and order by (p, q); like every record in the package,
    they are never changed after construction.
    """

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q

    def __lt__(self, other):
        if other.__class__ is not TangleFraction:
            return NotImplemented
        return (self.p, self.q) < (other.p, other.q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def reduce(p: int, q: int) -> TangleFraction:
    """Canonicalize p/q; rejects 0/0.  Every nonzero k/0 collapses to 1/0."""
    if p == 0 and q == 0:
        raise ValueError("0/0 is not a tangle fraction")
    if q == 0:
        return TangleFraction(1, 0)
    if p == 0:
        return TangleFraction(0, 1)
    if q < 0:
        p, q = -p, -q
    g = gcd(abs(p), q)
    return TangleFraction(p // g, q // g)


def add_integral(t: TangleFraction, n: int) -> TangleFraction:
    """Add n horizontal twists at the right: p/q + n/1 = (p + n*q)/q."""
    if t.is_infinity:
        return t
    return reduce(t.p + n * t.q, t.q)


def add_vertical(t: TangleFraction, v: int) -> TangleFraction:
    """Add v vertical twists at the bottom: p/q -> p/(q + v*p)."""
    return reduce(t.p, t.q + v * t.p)


def _schubert_class(beta: int, p: int) -> tuple[int, ...]:
    """Unoriented Schubert class {beta, beta^-1} mod p, for gcd(beta, p) = 1."""
    b = beta % p
    return tuple(sorted({b, pow(b, -1, p)}))


class TwoBridgeLink(Record):
    """2-bridge link b(p, q) in canonical form.

    p = 0 is the 2-component unlink, p = 1 the unknot.  Otherwise qc is the
    smallest residue over both the Schubert class {q, q^-1 mod p} and its
    reflection {-q, -q^-1 mod p}; `mirror` records which of the two classes
    the input sat in (+1 when they coincide, i.e. amphichiral, e.g. the
    Hopf link b(2,1)).  b(p,q) == b(p,q') for unoriented links exactly when
    q' == q^{+-1} (mod p), same mirror.
    """

    __slots__ = _fields = ("p", "qc", "mirror")

    def __init__(self, p: int, qc: int, mirror: int):
        self.p = p
        self.qc = qc
        self.mirror = mirror  # +1 or -1; +1 for amphichiral classes

    @property
    def q(self) -> int:
        """Spec-facing residue: 0 < q < p, min of q and q^-1 mod p."""
        if self.p <= 1:
            return 0
        return self.qc

    @property
    def components(self) -> int:
        return 2 if self.p % 2 == 0 else 1

    @property
    def is_unknot(self) -> bool:
        return self.p == 1

    @property
    def is_unlink(self) -> bool:
        return self.p == 0

    def mirrored(self) -> "TwoBridgeLink":
        """The mirror image b(p, -beta) of this link b(p, beta), beta = mirror * qc."""
        return canonical_two_bridge(self.p, -self.mirror * self.qc)

    def torus_parameter(self) -> int | None:
        """Signed P when this link is the (2,P) torus link, else None.

        Positive P means right-handed, which is the class of the closure
        fraction -P/1 (see module docstring).
        """
        if self.p == 0:
            return None
        if self.p == 1:
            return 1
        if self.qc != 1:
            return None
        right = torus_two_bridge(self.p)
        return self.p if self == right else -self.p

    def __str__(self) -> str:
        if self.p == 0:
            return "unlink"
        if self.p == 1:
            return "unknot"
        s = f"b({self.p},{self.q})"
        return s if self.mirror > 0 else s + "*"


def canonical_two_bridge(p: int, beta: int) -> TwoBridgeLink:
    """Canonical form of b(p, beta) for p >= 0, gcd(beta, p) = 1."""
    if p < 0:
        raise ValueError("p must be non-negative")
    if p == 0:
        return TwoBridgeLink(0, 0, 1)
    if p == 1:
        return TwoBridgeLink(1, 0, 1)
    if gcd(beta % p, p) != 1:
        raise ValueError(f"b({p},{beta}) is not a 2-bridge link (gcd != 1)")
    cls = _schubert_class(beta, p)
    mcls = _schubert_class(-beta, p)
    if min(cls) <= min(mcls):
        return TwoBridgeLink(p, min(cls), 1)
    return TwoBridgeLink(p, min(mcls), -1)


def numerator_closure(t: TangleFraction) -> TwoBridgeLink:
    """N(p/q) = b(p, q), and b(-p, -q) for p < 0 (the mirror of N(-p/q)).

    N(1/0) = b(1, 0) is the unknot and N(0/1) = b(0, 1) the 2-unlink.
    """
    if t.p < 0:
        return canonical_two_bridge(-t.p, -t.q)
    return canonical_two_bridge(t.p, t.q)


def closure_with_filler(t: TangleFraction, filler: TangleFraction) -> TwoBridgeLink:
    """Link N(t + filler) for filler in {0/1} or the vertical family 1/v.

    0/1 leaves the closure alone; 1/v (including 1/0 at v = 0) reroutes the
    closure through v extra twists: the result is the numerator closure of
    the rotated tangle -(q + v*p)/p.
    """
    if filler == TangleFraction(0, 1):
        return numerator_closure(t)
    if abs(filler.p) != 1 and not filler.is_infinity:
        raise ValueError(f"filler must be 0/1 or 1/v, got {filler}")
    v = 0 if filler.is_infinity else filler.q * filler.p
    return numerator_closure(reduce(-(t.q + v * t.p), t.p))


def torus_two_bridge(P: int) -> TwoBridgeLink:
    """The (2,P) torus link as a canonical 2-bridge; P > 0 right-handed."""
    if P == 0:
        return TwoBridgeLink(0, 0, 1)
    return numerator_closure(reduce(P, 1))


# ---------------------------------------------------------------------------
# Tangle equation solvers
# ---------------------------------------------------------------------------


def solve_inversion_v(O: TangleFraction, k: int) -> int:
    """Integer v with N(O + 1/v) = the (2,k) torus knot, k signed."""
    if k % 2 == 0:
        raise NoSolution("inversion products are knots; (2,k) needs odd k")
    target = torus_two_bridge(k)
    # |-(q + v*p)| = |k| gives at most two integer candidates.
    for signed in (k, -k):
        num = signed - O.q
        if O.p != 0 and num % O.p == 0:
            v = num // O.p
            if closure_with_filler(O, reduce(1, v) if v else TangleFraction(1, 0)) == target:
                return v
    raise NoSolution(f"no integer v gives N({O} + 1/v) = (2,{k})")


def solve_in_trans(L1: int, L2: int, L3: int, Lt: int) -> tuple[TangleFraction, frozenset[int]]:
    """In trans deletion: the fraction of T - s23 and admissible d_t values.

    The three in cis products are right-handed (2,L_i); the in trans
    product is the (2,Lt) torus link.  When |Lt| = 2 the product chirality
    is not pinned by the experiments and both d_t values are returned.
    """
    for L in (L1, L2, L3):
        if abs(L) == 2:
            raise UnsupportedCase("|L_i| = 2 branches are rejected (case split deferred)")
        if abs(L) < 2:
            raise NoSolution(f"(2,{L}) is not a torus link product")
    if abs(Lt) < 2:
        raise NoSolution(f"(2,{Lt}) is not a torus link product")
    if (L2 + L3 - L1) % 2 != 0:
        raise ParityViolation("L2 + L3 - L1 must be even")
    m = (L1 - L2 - L3) // 2
    frac = reduce(1, m)
    # d + m = -Lt for the right-handed product; the mirror gives d + m = Lt.
    if abs(Lt) == 2:
        dts = frozenset({-Lt - m, Lt - m})
    else:
        dts = frozenset({-Lt - m})
    return frac, dts
