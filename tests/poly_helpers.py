"""Integer Laurent polynomials in A for the tests' own bracket oracles.

The engine returns a bracket as its terms, the sorted (exponent,
coefficient) tuple with no zero coefficient; `LaurentPoly(terms)` wraps
one for arithmetic, and `.key()` gives the terms back.
"""

from __future__ import annotations


class LaurentPoly:
    """Immutable Laurent polynomial; no zero coefficients stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        cleaned = {int(e): int(c) for e, c in dict(terms).items() if c != 0}
        object.__setattr__(self, "_terms", tuple(sorted(cleaned.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for e, c in other._terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._terms)
        for e, c in other._terms:
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def key(self) -> tuple:
        """Stable hashable form for fingerprint tables."""
        return self._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms, reverse=True):
            if e == 0:
                mon = ""
            elif e == 1:
                mon = "A"
            else:
                mon = f"A^{e}"
            if mon and abs(c) == 1:
                term = ("-" if c < 0 else "") + mon
            else:
                term = f"{c}{mon}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    __repr__ = __str__


LOOP_FACTOR = LaurentPoly({2: -1, -2: -1})  # delta = -A^2 - A^-2


def zero() -> LaurentPoly:
    return LaurentPoly()


def one() -> LaurentPoly:
    return LaurentPoly({0: 1})


def monomial(exponent: int, coefficient: int = 1) -> LaurentPoly:
    return LaurentPoly({exponent: coefficient})


def power(base: LaurentPoly, k: int) -> LaurentPoly:
    """base^k for k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("negative powers unsupported")
    out = one()
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out
