"""Bracket polynomial, writhe, linking numbers, and link fingerprints.

Two independent Kauffman bracket implementations are kept side by side:

- `bracket_state_sum` iterates all 2^n smoothing states in Gray-code
  order and tallies a histogram over (A-exponent, loops).  Consecutive
  states differ at one crossing, and re-smoothing one crossing of a
  planar diagram changes the loop count by exactly one (two loops through
  it merge, or one loop through it splits), so each step updates the
  count from per-dart loop labels: a merge relabels the smaller loop, a
  split walks both halves in lockstep and relabels the first to close.
  A split that leaves one loop can only happen on a non-planar map and
  raises TangleError;
- `_contract` contracts the diagram one crossing at a time in BFS
  order, keeping the partial state sum as counts per (frontier matching,
  A-exponent, closed loops), so its cost follows the frontier's width
  rather than 2^n (the local contraction of Bar-Natan, "Fast Khovanov
  homology computations", applied to Kauffman's state model).

The contraction has two readers.  `bracket_skein` reads a closed
diagram's one final tally as its bracket.  `bracket_pair` keeps a 2-string
tangle's four endpoint darts in the frontier to the end and reads each
final matching as the tangle [0] or [inf] the endpoints are joined into:
the tangle's bracket is the pair (f, g) over those two, from which
`closure_determinants` reads the determinants of its three closures.

Every bracket is a plain tuple of its terms (`Terms`): the (exponent,
coefficient) pairs of the Laurent polynomial in A, sorted by exponent,
with no zero coefficient.  That is the form the fingerprint tables hash
and the determinants read; no polynomial arithmetic runs in production,
and the tests keep their own.

Production runs only the contraction; `bracket_state_sum` is its oracle
in the tests.  Each fingerprint, and each tangle pair, is cross-checked
instead against `goeritz_determinant`, an
exact integer determinant of the diagram's Goeritz matrix (Goeritz 1933;
Gordon & Litherland 1978), which must equal |<D>| at A = e^{i pi/4}
(`determinant`).  The check is polynomial and independent of the
contraction, but it compares the bracket at one point only: a corruption
that keeps |<D>(e^{i pi/4})|, such as a mirrored bracket or a state with
two or more loops (delta vanishes there), goes unseen.

Writhe, linking numbers and the fingerprint share one sign rule,
`_signed_pairs`, which signs each crossing of `TangleDiagram.crossing_strands`
under the components' traversal orientation; `writhe(d)` sums them all.

The fingerprint used for link identification is orientation-free: the
writhe-normalized bracket (-A^3)^{-w} <D> is collected over every choice
of component orientations, together with the component count.  Reversing
a component negates the sign of each crossing it has with another one, so
each choice only reweights the pair sums of `_signed_pairs`.  That set is
invariant under all Reidemeister moves and under reversing or permuting
components, and it separates mirror images whenever the bracket does.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import comb

from ..errors import BudgetExceeded, TangleError, UsageError
from .core import TangleDiagram

DEFAULT_BUDGET = 14

Terms = tuple[tuple[int, int], ...]


def crossing_budget() -> int:
    raw = os.environ.get("TANGLEKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise UsageError(f"TANGLEKIT_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise UsageError(f"TANGLEKIT_BUDGET must be a non-negative integer, got {raw!r}")
    return budget


def _require_closed(d: TangleDiagram) -> None:
    if d.k != 0:
        raise TangleError("invariant needs a closed diagram (no endpoints)")


def _check_budget(d: TangleDiagram) -> None:
    if d.n > crossing_budget():
        raise BudgetExceeded(
            f"{d.n} crossings exceeds the bracket budget {crossing_budget()}"
        )


# -- both brackets: histogram to polynomial ------------------------------------


def _histogram_poly(hist: dict[tuple[int, int], int]) -> Terms:
    """The terms of the sum of count * A^e * delta^(loops - 1) over
    {(e, loops): count}.

    delta^m = (-A^2 - A^-2)^m = (-1)^m sum_j C(m, j) A^(4j - 2m).  The one
    state of the empty diagram has no loops and contributes A^0 = 1.
    """
    out: dict[int, int] = {}
    for (e, loops), count in hist.items():
        m = loops - 1
        if m < 0:
            out[e] = out.get(e, 0) + count
            continue
        signed = -count if m % 2 else count
        for j in range(m + 1):
            x = e + 4 * j - 2 * m
            out[x] = out.get(x, 0) + signed * comb(m, j)
    return tuple(sorted((e, c) for e, c in out.items() if c))


# -- state-sum bracket -------------------------------------------------------


def _relabel(alpha, partner, label: list[int], start: int, lab: int) -> int:
    """Give label `lab` to every dart of the loop through `start`; its size."""
    x = start
    size = 0
    while True:
        label[x] = lab
        y = alpha[x]
        label[y] = lab
        size += 2
        x = partner[y]
        if x == start:
            return size


def bracket_state_sum(d: TangleDiagram) -> Terms:
    """<D> via the full 2^n smoothing state sum; <unknot> = 1.

    Each state sets every crossing's smoothing partner (A joins slots 0-1
    and 2-3, B joins 0-3 and 1-2); its loops alternate between alpha and
    the partner map.  The states are visited in Gray-code order, so each
    one re-pairs the four slots of a single crossing c, and are tallied in
    a histogram {(A-exponent, loops): count} that becomes one polynomial
    at the end.

    Loops are not recounted per state: every dart carries the label of its
    loop and every label its dart count.  Re-smoothing lemma: re-pairing
    one crossing of a planar diagram changes the loop count by exactly one.
    Slots 0 and 2 of c lie in different smoothing pairs in both states, so
    either they lie on two loops, which the new pairing always merges, or
    on one loop, which it splits in two whenever the map is planar.  A
    merge relabels the smaller loop, walked under the old pairing, with
    the larger one's label.  A split walks the new loops from slots 0 and
    2 in lockstep until one closes, and gives that one a fresh label.  So
    a step costs the length of the smaller loop involved, not the 4n dart
    steps of a full walk.  The lemma's one premise is checked, not
    assumed: if the other start dart lost the old label, the split left
    a single loop, the map is not planar, and TangleError is raised.
    """
    _require_closed(d)
    _check_budget(d)
    n = d.n
    nd = 4 * n
    alpha = d.alpha
    partner = [x ^ 1 for x in range(nd)]  # all-A state
    label = [-1] * nd
    size: list[int] = []  # dart count per label; a merged-away label stays unused
    for start in range(nd):
        if label[start] < 0:
            size.append(_relabel(alpha, partner, label, start, len(size)))
    loops = len(size) + len(d.free_loops)
    a_count = n
    hist: dict[tuple[int, int], int] = {(n, loops): 1}
    for i in range(1, 1 << n):
        base = 4 * ((i & -i).bit_length() - 1)
        if partner[base] == base + 1:
            flipped = (base + 3, base + 2, base + 1, base)  # A to B
            a_count -= 1
        else:
            flipped = (base + 1, base, base + 3, base + 2)  # B to A
            a_count += 1
        lab0 = label[base]
        lab2 = label[base + 2]
        if lab0 != lab2:  # merge: relabel the smaller loop, old pairing
            if size[lab0] < size[lab2]:
                _relabel(alpha, partner, label, base, lab2)
                size[lab2] += size[lab0]
            else:
                _relabel(alpha, partner, label, base + 2, lab0)
                size[lab0] += size[lab2]
            partner[base : base + 4] = flipped
            loops -= 1
        else:  # split: walk from slots 0 and 2 in lockstep, new pairing
            partner[base : base + 4] = flipped
            x = base
            y = base + 2
            while True:
                x = partner[alpha[x]]
                if x == base:
                    start, kept = base, base + 2
                    break
                y = partner[alpha[y]]
                if y == base + 2:
                    start, kept = base + 2, base
                    break
            size.append(_relabel(alpha, partner, label, start, len(size)))
            size[lab0] -= size[-1]
            if label[kept] != lab0:
                raise TangleError("re-smoothing left one loop; the map is not planar")
            loops += 1
        key = (2 * a_count - n, loops)
        hist[key] = hist.get(key, 0) + 1
    return _histogram_poly(hist)


# -- frontier-contraction bracket ----------------------------------------------

_PARTNER = ((1, 0, 3, 2), (3, 2, 1, 0))  # slot joined to each slot: A, B


def _crossing_order(d: TangleDiagram) -> list[int]:
    """Crossings in BFS order along arcs, one connected piece after another.

    The endpoint darts of a 2-string tangle, 4n to 4n + 3, form one node,
    n, that is never contracted: its arcs are never followed.
    """
    order: list[int] = []
    seen = bytearray(d.n + 1)
    seen[d.n] = 1
    for root in range(d.n):
        if seen[root]:
            continue
        seen[root] = 1
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            c = order[head]
            head += 1
            for s in range(4):
                nb = d.alpha[4 * c + s] // 4
                if not seen[nb]:
                    seen[nb] = 1
                    order.append(nb)
    return order


def _plan(alpha: tuple[int, ...], frontier: list[int], c: int, done: bytearray):
    """How crossing c attaches to the frontier; returns (step, new frontier).

    The frontier lists the darts of contracted crossings whose arcs lead to
    crossings not yet contracted.  In the step (attach, newpos, ends, width):
    attach[i] is the slot of c that frontier dart i's arc reaches (-1 if
    none); newpos[i] is its position in the new frontier (-1 once c absorbs
    it); ends[s] says where the arc leaving slot s goes: another slot t of c
    (t), a dart of the new frontier at position j (4 + j), or the old
    frontier dart at position i (-1 - i); width is the new frontier's size.
    """
    base = 4 * c
    attach = [-1] * len(frontier)
    ends = [0] * 4
    new_frontier: list[int] = []
    newpos = []
    for i, x in enumerate(frontier):
        y = alpha[x]
        if y // 4 == c:
            attach[i] = y - base
            ends[y - base] = -1 - i
            newpos.append(-1)
        else:
            newpos.append(len(new_frontier))
            new_frontier.append(x)
    for s in range(4):
        y = alpha[base + s]
        if y // 4 == c:
            ends[s] = y - base
        elif not done[y // 4]:
            ends[s] = 4 + len(new_frontier)
            new_frontier.append(base + s)
    return (attach, newpos, ends, len(new_frontier)), new_frontier


def _smooth(match: tuple[int, ...], step, kind: int) -> tuple[tuple[int, ...], int]:
    """Apply the A (kind=0) or B (kind=1) smoothing of a step's crossing.

    `match` pairs the old frontier positions (match[i] is i's partner
    through the contracted part).  Returns the new frontier's matching and
    the number of loops the smoothing closed.
    """
    attach, newpos, ends, width = step
    partner = _PARTNER[kind]
    new = [-1] * width
    for i, j in enumerate(match):
        if attach[i] < 0 and attach[j] < 0:
            new[newpos[i]] = newpos[j]
    # out[s]: where the strand leaving slot s outward comes back to this
    # crossing (slot u < 4), or the new frontier position j it ends at (4 + j)
    out = [0] * 4
    for s in range(4):
        e = ends[s]
        if e < 0:
            j = match[-1 - e]
            e = attach[j] if attach[j] >= 0 else 4 + newpos[j]
        out[s] = e
    seen = [False] * 4
    for s in range(4):
        if seen[s] or out[s] < 4:
            continue
        t = s
        while True:
            seen[t] = True
            u = partner[t]
            seen[u] = True
            end = out[u]
            if end >= 4:
                break
            t = end
        new[out[s] - 4] = end - 4
        new[end - 4] = out[s] - 4
    closed = 0
    for s in range(4):
        if seen[s]:
            continue
        closed += 1
        t = s
        while not seen[t]:
            seen[t] = True
            u = partner[t]
            seen[u] = True
            t = out[u]
    return tuple(new), closed


def _contract(d: TangleDiagram) -> tuple[dict, list[int]]:
    """The state sum of d by contracting it one crossing at a time.

    Crossings are added in `_crossing_order`.  After each one, the partial
    state sum over the contracted crossings is a map (frontier matching,
    A-exponent, closed loops) -> number of states, grouped by matching so
    that `_smooth` runs once per matching and smoothing.  Merging lemma:
    states that agree on the frontier matching, the exponent and the loop
    count contribute identically to the rest of the sum, because how the
    remaining crossings' smoothings close loops depends only on which
    frontier darts the contracted part joins.  So each map entry stands
    for all its states, and the map grows with the number of matchings of
    the frontier (times exponents and loop counts) rather than with 2^n.

    Returns the final map, {matching: {(e, loops): count}}, and the final
    frontier: empty for a closed diagram, and for a 2-string tangle the
    darts whose arcs reach an endpoint, which is never contracted.  Free
    loops are not counted.
    """
    _check_budget(d)
    states: dict[tuple[int, ...], dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    frontier: list[int] = []
    done = bytearray(d.n + 1)
    for c in _crossing_order(d):
        step, frontier = _plan(d.alpha, frontier, c, done)
        done[c] = 1
        nxt: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for match, tally in states.items():
            for kind, de in ((0, 1), (1, -1)):
                new, closed = _smooth(match, step, kind)
                acc = nxt.setdefault(new, {})
                for (e, loops), count in tally.items():
                    key = (e + de, loops + closed)
                    acc[key] = acc.get(key, 0) + count
        states = nxt
    return states, frontier


def bracket_skein(d: TangleDiagram) -> Terms:
    """<D> by `_contract`: with the frontier empty at the end, its one
    tally, free loops added, becomes one polynomial."""
    _require_closed(d)
    states, _ = _contract(d)
    free = len(d.free_loops)
    return _histogram_poly(
        {(e, loops + free): count for (e, loops), count in states[()].items()}
    )


def bracket_pair(d: TangleDiagram) -> tuple[Terms, Terms]:
    """The bracket of a 2-string tangle as the pair (f, g), <T> = f<[0]> + g<[inf]>.

    [0] joins endpoints (0,1) and (2,3), [inf] joins (1,2) and (3,0), and
    f and g sum A^e delta^loops over the states that join the endpoints
    so (Goldman & Kauffman, "Rational tangles", 1997).  `_contract` keeps
    the endpoint darts in the frontier to the end; each final matching,
    with the arcs of crossing-free strings that join two endpoints
    directly, pairs the four endpoints one of the two ways.
    """
    if d.k != 4:
        raise TangleError("bracket pair needs a 2-string tangle")
    states, frontier = _contract(d)
    n4 = 4 * d.n
    first = d.alpha[n4]  # where the arc from endpoint 0 goes
    free = len(d.free_loops)
    hists: tuple[dict, dict] = ({}, {})
    for match, tally in states.items():
        mate = first if first >= n4 else d.alpha[frontier[match[frontier.index(first)]]]
        if mate not in (n4 + 1, n4 + 3):
            raise TangleError("the strings join opposite endpoints; the map is not planar")
        hist = hists[mate == n4 + 3]
        for (e, loops), count in tally.items():
            key = (e, loops + free + 1)  # _histogram_poly reads delta^(loops - 1)
            hist[key] = hist.get(key, 0) + count
    return _histogram_poly(hists[0]), _histogram_poly(hists[1])


def closure_determinants(f: Terms, g: Terms) -> tuple[int, int, int]:
    """det of N(T + F) for the fillers F = 0/1, 1/0, 1/1 of `close_with`,
    from T's `bracket_pair` (f, g).

    The 0/1 filler closes [0] into two loops and [inf] into one, and 1/0
    the other way round, so <N(T + 0/1)> = delta f + g and
    <N(T + 1/0)> = f + delta g.  The crossing of the 1/1 filler smooths
    to the 0/1 filler on its A side, so <N(T + 1/1)> = A <N(T + 0/1)> +
    A^-1 <N(T + 1/0)>.  delta vanishes at A = e^{i pi/4}, where the three
    brackets are g, f and A g + A^-1 f.
    """
    return (
        _det_at_zeta8(g),
        _det_at_zeta8(f),
        _det_at_zeta8([(e + 1, c) for e, c in g] + [(e - 1, c) for e, c in f]),
    )


# -- orientations, writhe, linking --------------------------------------------


def _signed_pairs(d: TangleDiagram) -> tuple[int, dict[tuple[int, int], int]]:
    """Self-crossing writhe and the signed crossing sum per component pair i < j.

    The one sign rule: a crossing is positive exactly when the under-strand
    enters one slot counterclockwise from where the over-strand enters,
    that is, when exactly one of the two leaves by its slot 0 or 1 dart.
    """
    orient = d.orientation
    self_w = 0
    pairs: dict[tuple[int, int], int] = {}
    for c, (under, over) in enumerate(d.crossing_strands):
        s = 1 if orient[4 * c] != orient[4 * c + 1] else -1
        if under == over:
            self_w += s
        else:
            key = (min(under, over), max(under, over))
            pairs[key] = pairs.get(key, 0) + s
    return self_w, pairs


def writhe(d: TangleDiagram) -> int:
    _require_closed(d)
    self_w, pairs = _signed_pairs(d)
    return self_w + sum(pairs.values())


def linking_number(d: TangleDiagram, label_a: str, label_b: str) -> int:
    """Half the signed count of crossings between two closed components."""
    _require_closed(d)
    if label_a == label_b:
        raise TangleError("linking number needs two distinct components")
    ia = d.components.index(d.component_by_label(label_a))
    ib = d.components.index(d.component_by_label(label_b))
    total = _signed_pairs(d)[1].get((min(ia, ib), max(ia, ib)), 0)
    if total % 2 != 0:
        raise TangleError("odd inter-component crossing sum; orientation corrupt")
    return total // 2


def linking_matrix(d: TangleDiagram) -> dict[tuple[str, str], int]:
    _require_closed(d)
    labels = sorted(comp.label for comp in d.components)
    return {(la, lb): linking_number(d, la, lb) for la, lb in combinations(labels, 2)}


# -- determinants -------------------------------------------------------------


def determinant(fp: tuple) -> int:
    """det of the link with fingerprint fp, from its first normalized bracket."""
    return _det_at_zeta8(fp[1][0])


def _det_at_zeta8(terms) -> int:
    """|<L>| at A = e^{i pi/4}, from the (exponent, coefficient) terms of a
    link's bracket or of a unit multiple of it: det(L).

    The value is computed exactly in Z[zeta8] as four integer coordinates
    over 1, zeta8, zeta8^2, zeta8^3 (zeta8^4 = -1).  Every exponent of a
    link's bracket has one residue mod 4, so the value is a unit times
    det and at most one coordinate is non-zero; two or more mean a
    corrupt bracket, and TangleError is raised.
    """
    coords = [0, 0, 0, 0]
    for e, c in terms:
        coords[e % 4] += c if e % 8 < 4 else -c
    nonzero = [x for x in coords if x]
    if len(nonzero) > 1:
        raise TangleError(f"bracket at e^(i pi/4) is not a unit times an integer: {coords}")
    return abs(nonzero[0]) if nonzero else 0


def _bareiss(m: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free
    elimination: every division is exact); m is overwritten."""
    size = len(m)
    sign = prev = 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, size):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if size else 1


def goeritz_determinant(d: TangleDiagram) -> int:
    """det of a closed diagram's link from its Goeritz matrix, exactly.

    The faces are checkerboard-coloured: the two faces beside an arc, those
    of its darts x and alpha[x], get opposite colours.  The corner between
    slots s and s+1 of crossing c lies in the face of dart 4c + (s+1) % 4,
    so opposite corners share a colour, and the white corners of c are
    either (0,1)/(2,3), with eta = +1, or (1,2)/(3,0), with eta = -1 (the
    under-strand holds slots 0 and 2).  The Goeritz matrix on the white
    faces has -sum eta over the crossings where faces i != j meet, and row
    sums 0; det is |det| of any one minor.  The smaller colour class is
    taken as white, which gives the smaller matrix.

    A split diagram has det 0: more than one piece (the colouring from one
    face does not reach every face), or a free loop beside crossings.  With
    no crossings, one free loop is the unknot (det 1) and two or more are
    an unlink (det 0).  A face pair left with one colour means the map is
    not planar, and TangleError is raised.
    """
    _require_closed(d)
    n = d.n
    if n == 0:
        return 1 if len(d.free_loops) <= 1 else 0
    if d.free_loops:
        return 0
    faces = d.faces
    alpha = d.alpha
    face_of = d.face_of_dart
    colour = [-1] * len(faces)
    colour[0] = 0
    stack = [0]
    while stack:
        f = stack.pop()
        for x in faces[f]:
            g = face_of[alpha[x]]
            if colour[g] < 0:
                colour[g] = 1 - colour[f]
                stack.append(g)
            elif colour[g] == colour[f]:
                raise TangleError("faces admit no checkerboard colouring; the map is not planar")
    if -1 in colour:
        return 0
    white = 0 if 2 * colour.count(0) <= len(faces) else 1
    index = {}
    for f, col in enumerate(colour):
        if col == white:
            index[f] = len(index)
    size = len(index)
    g = [[0] * size for _ in range(size)]
    for c in range(n):
        corner = face_of[4 * c + 1]
        if colour[corner] == white:
            i, j, eta = index[corner], index[face_of[4 * c + 3]], 1
        else:
            i, j, eta = index[face_of[4 * c + 2]], index[face_of[4 * c]], -1
        if i != j:
            g[i][j] -= eta
            g[j][i] -= eta
            g[i][i] += eta
            g[j][j] += eta
    return abs(_bareiss([row[:-1] for row in g[:-1]]))


# -- fingerprints --------------------------------------------------------------


def fingerprint(d: TangleDiagram, det: int | None = None) -> tuple:
    """Orientation-free normalized-bracket fingerprint plus component count.

    The bracket comes from `bracket_skein` alone and is cross-checked:
    TangleError is raised unless its determinant equals d's Goeritz
    determinant, which a caller that has it already passes as `det`.
    """
    _require_closed(d)
    br = bracket_skein(d)
    self_w, pairs = _signed_pairs(d)
    m = len(d.components)
    polys = set()
    others = range(1, m)
    for r in range(len(others) + 1):
        for flipped in combinations(others, r):
            w = self_w + sum(
                s if (i in flipped) == (j in flipped) else -s for (i, j), s in pairs.items()
            )
            polys.add(_normalized(br, w))
    fp = (m, tuple(sorted(polys)))
    if det is None:
        det = goeritz_determinant(d)
    _check_det(determinant(fp), det)
    return fp


def _normalized(br: Terms, w: int) -> Terms:
    """The terms of br * (-A^3)^{-w}: every exponent shifted by -3w, every
    coefficient negated for odd w."""
    return tuple((e - 3 * w, -c if w & 1 else c) for e, c in br)


def _check_det(got: int, det: int) -> None:
    """Raise TangleError unless a bracket's determinant, got, is the Goeritz
    determinant det."""
    if got != det:
        raise TangleError(
            f"bracket determinant {got} differs from the Goeritz determinant {det}; diagram corrupt"
        )
