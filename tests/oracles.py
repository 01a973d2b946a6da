"""Independent oracles the tests check the engine against.

`deletion_uniqueness_certificate` scans a box of fractions by brute force
against both in cis deletion equations; the engine solves them in closed
form (`experiments._solve_capped`).
"""

from math import gcd

from tanglekit._record import Record
from tanglekit.errors import NoSolution
from tanglekit.rational import (
    TangleFraction,
    TwoBridgeLink,
    closure_with_filler,
    numerator_closure,
    torus_two_bridge,
)


class UniquenessCertificate(Record):
    """Outcome of a bounded brute-force scan of the in cis deletion system.

    It checks the closed-form solution X = -1/L that
    `experiments._solve_capped(L, 0)` returns.
    """

    __slots__ = _fields = ("L", "bound", "candidates_checked", "solutions")

    def __init__(
        self, L: int, bound: int, candidates_checked: int, solutions: tuple[TangleFraction, ...]
    ):
        self.L = L
        self.bound = bound
        self.candidates_checked = candidates_checked
        self.solutions = solutions

    @property
    def unique(self) -> bool:
        return len(self.solutions) == 1


def deletion_uniqueness_certificate(L: int, bound: int = 50) -> UniquenessCertificate:
    """Scan every reduced p/q with |p|,|q| <= bound against both equations.

    This is a sanity oracle, not the proof: tangle calculus already gives
    uniqueness analytically.
    """
    if abs(L) < 2:
        raise NoSolution(f"(2,{L}) is not a genuine torus link product")
    unknot = TwoBridgeLink(1, 0, 1)
    target = torus_two_bridge(L)
    checked = 0
    found = []
    for q in range(0, bound + 1):
        for p in range(-bound, bound + 1):
            if p == 0 and q == 0:
                continue
            if q == 0 and p != 1:
                continue  # only 1/0 is canonical
            if p == 0 and q != 1:
                continue
            if gcd(abs(p), q) > 1:
                continue
            t = TangleFraction(p, q)
            checked += 1
            if numerator_closure(t) != unknot:
                continue
            if closure_with_filler(t, TangleFraction(1, 0)) != target:
                continue
            found.append(t)
    return UniquenessCertificate(L, bound, checked, tuple(found))
