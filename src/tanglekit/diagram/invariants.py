"""Bracket polynomial, writhe, linking numbers, and link fingerprints.

Two independent Kauffman bracket implementations are kept side by side:

- `bracket_state_sum` iterates all 2^n smoothing states and counts state
  loops with a union-find over darts;
- `bracket_skein` resolves one crossing at a time, memoized on canonical
  diagram codes.

`identify`-level code runs both and refuses to answer when they disagree.

The fingerprint used for link identification is orientation-free: the
writhe-normalized bracket (-A^3)^{-w} <D> is collected over every choice
of component orientations, together with the component count.  That set is
invariant under all Reidemeister moves and under reversing or permuting
components, and it separates mirror images whenever the bracket does.
"""

from __future__ import annotations

import os
from itertools import combinations

from .._poly import LOOP_FACTOR, LaurentPoly
from ..errors import BudgetExceeded, TangleError, UsageError
from .core import TangleDiagram, Wiring

A = LaurentPoly.monomial(1)
A_INV = LaurentPoly.monomial(-1)
MINUS_A_CUBED = LaurentPoly.monomial(3, -1)
MINUS_A_INV_CUBED = LaurentPoly.monomial(-3, -1)

DEFAULT_BUDGET = 14


def crossing_budget() -> int:
    raw = os.environ.get("TANGLEKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"TANGLEKIT_BUDGET must be an integer, got {raw!r}") from None


def _require_closed(d: TangleDiagram) -> None:
    if d.k != 0:
        raise TangleError("invariant needs a closed diagram (no endpoints)")


def _check_budget(d: TangleDiagram) -> None:
    if d.n > crossing_budget():
        raise BudgetExceeded(
            f"{d.n} crossings exceeds the bracket budget {crossing_budget()}"
        )


# -- state-sum bracket -------------------------------------------------------


def bracket_state_sum(d: TangleDiagram) -> LaurentPoly:
    """<D> via the full 2^n smoothing state sum; <unknot> = 1."""
    _require_closed(d)
    _check_budget(d)
    n = d.n
    if n == 0:
        loops = len(d.loops) + len(d.free_loops)
        return LOOP_FACTOR.pow(loops - 1) if loops else LaurentPoly.one()
    total = LaurentPoly.zero()
    nd = d.num_darts
    alpha = d.alpha
    for state in range(1 << n):
        parent = list(range(nd))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for dart in range(nd):
            union(dart, alpha[dart])
        a_count = 0
        for c in range(n):
            base = 4 * c
            if (state >> c) & 1 == 0:
                a_count += 1
                union(base, base + 1)
                union(base + 2, base + 3)
            else:
                union(base, base + 3)
                union(base + 1, base + 2)
        loops = len({find(x) for x in range(nd)}) + len(d.free_loops)
        term = LaurentPoly.monomial(a_count - (n - a_count))
        total = total + term * LOOP_FACTOR.pow(loops - 1)
    return total


# -- skein-recursion bracket --------------------------------------------------


def _smooth(d: TangleDiagram, c: int, kind: int) -> TangleDiagram:
    """Replace crossing c by its A (kind=0) or B (kind=1) smoothing."""
    w = Wiring.from_diagram(d)
    pairs = ((0, 1), (2, 3)) if kind == 0 else ((0, 3), (1, 2))
    free = 0
    for s, t in pairs:
        free += w.join_through(("x", c, s), ("x", c, t)) is None
    w.order.remove(c)
    raw = w.to_diagram()
    return TangleDiagram(
        raw.n, 0, raw.alpha, (), (), d.free_loops + ("o",) * free
    )


def bracket_skein(d: TangleDiagram, _memo: dict | None = None) -> LaurentPoly:
    """<D> by recursive skein resolution with canonical-code memoization."""
    _require_closed(d)
    _check_budget(d)
    memo = _memo if _memo is not None else {}

    def rec(diag: TangleDiagram) -> LaurentPoly:
        if diag.n == 0:
            # count circles: alpha orbits under strand tracing
            loops = len(diag.free_loops)
            seen: set[int] = set()
            for dart in range(diag.num_darts):
                if dart in seen:
                    continue
                darts, closed = diag._trace_from(dart)
                seen.update(darts)
                seen.update(diag.alpha[x] for x in darts)
                loops += 1
            return LOOP_FACTOR.pow(loops - 1) if loops else LaurentPoly.one()
        key = (diag.canonical_code(), len(diag.free_loops))
        hit = memo.get(key)
        if hit is not None:
            return hit
        a_side = rec(_smooth(diag, 0, 0))
        b_side = rec(_smooth(diag, 0, 1))
        out = A * a_side + A_INV * b_side
        memo[key] = out
        return out

    return rec(TangleDiagram(d.n, 0, d.alpha, (), (), d.free_loops))


def bracket_both(d: TangleDiagram) -> LaurentPoly:
    """Run both bracket implementations and insist they agree."""
    s = bracket_state_sum(d)
    k = bracket_skein(d)
    if s != k:
        raise TangleError("bracket implementations disagree; diagram corrupt")
    return s


# -- orientations, writhe, linking --------------------------------------------


def crossing_sign(d: TangleDiagram, c: int, flipped: set[int] | None = None) -> int:
    """Sign of crossing c under component orientations (optionally flipped).

    Positive exactly when the under-strand's entry slot is one step
    counterclockwise from the over-strand's entry slot.
    """
    flipped = flipped or set()
    orient = d.orientation
    comp = d.component_of_dart

    def entry_slot(s0: int, s1: int) -> int:
        d0 = 4 * c + s0
        rev = comp[d0] in flipped
        incoming = not orient[d0]
        if rev:
            incoming = not incoming
        return s0 if incoming else s1

    u_in = entry_slot(0, 2)
    o_in = entry_slot(1, 3)
    return 1 if (u_in - o_in) % 4 == 1 else -1


def writhe(d: TangleDiagram, flipped: set[int] | None = None) -> int:
    _require_closed(d)
    return sum(crossing_sign(d, c, flipped) for c in range(d.n))


def linking_number(d: TangleDiagram, label_a: str, label_b: str) -> int:
    """Half the signed count of crossings between two closed components."""
    _require_closed(d)
    if label_a == label_b:
        raise TangleError("linking number needs two distinct components")
    ia = d.components.index(d.component_by_label(label_a))
    ib = d.components.index(d.component_by_label(label_b))
    total = 0
    for c in range(d.n):
        under = d.component_of_dart[4 * c]
        over = d.component_of_dart[4 * c + 1]
        if {under, over} == {ia, ib}:
            total += crossing_sign(d, c)
    if total % 2 != 0:
        raise TangleError("odd inter-component crossing sum; orientation corrupt")
    return total // 2


def linking_matrix(d: TangleDiagram) -> dict[tuple[str, str], int]:
    _require_closed(d)
    labels = sorted(comp.label for comp in d.components)
    out = {}
    for la, lb in combinations(labels, 2):
        out[(la, lb)] = linking_number(d, la, lb)
    return out


# -- fingerprints --------------------------------------------------------------


def fingerprint(d: TangleDiagram, bracket=None) -> tuple:
    """Orientation-free normalized-bracket fingerprint plus component count."""
    _require_closed(d)
    br = bracket if bracket is not None else bracket_both(d)
    comps = d.components
    m = len(comps)
    closed_idx = list(range(m))
    self_w = 0
    pair_sums: dict[tuple[int, int], int] = {}
    for c in range(d.n):
        under = d.component_of_dart[4 * c]
        over = d.component_of_dart[4 * c + 1]
        s = crossing_sign(d, c)
        if under == over:
            self_w += s
        else:
            key = (min(under, over), max(under, over))
            pair_sums[key] = pair_sums.get(key, 0) + s
    polys = set()
    others = closed_idx[1:]
    for r in range(len(others) + 1):
        for chosen in combinations(others, r):
            flipped = set(chosen)
            w = self_w
            for (i, j), sgn in pair_sums.items():
                w += sgn * (-1 if (i in flipped) != (j in flipped) else 1)
            # (-A^3)^{-w}
            norm = (MINUS_A_INV_CUBED if w >= 0 else MINUS_A_CUBED).pow(abs(w))
            polys.add((br * norm).key())
    return (m, tuple(sorted(polys)))
