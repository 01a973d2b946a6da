"""Laurent polynomials the tests build for their own bracket oracles."""

from tanglekit._poly import LaurentPoly


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
