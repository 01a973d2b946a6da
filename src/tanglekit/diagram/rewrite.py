"""Crossing-reduction rewriting and Reidemeister move application.

Reduction move set:

- R1: remove a kink (loop edge between adjacent slots of one crossing).
- R2: remove a bigon whose two crossings have the same strand on top.
- boundary untwist (free mode only): a crossing with two adjacent-slot
  edges running straight to boundary endpoints unwinds by rotating the
  endpoint pair around each other; the endpoints may travel through the
  empty corner face to meet, so no adjacency on the circle is required.
- pull-into-face (free mode only): a crossing incident to a face that
  touches the boundary, carrying a strand end elsewhere, untwists by
  re-routing that end through the face into the boundary gap.

Every move strictly decreases the crossing count, so `simplify` terminates
at a fixed point of the move set.  No move raises any string's count of
crossings with other strands (see each applier).  The *_add appliers (R1,
R2) and the R3 slide exist for the invariance property suite; they are not
used by the reducer.

The reduction moves only take crossings out.  Each is one `core.splice`
of its input's flat dart list: `simplify` chains the unvalidated splices
and validates once, at the end, by the planarity argument `splice` and
each applier's docstring give, and each public applier returns its
splice validated.  The R1 kink, the R2 push and the R3 slide add
crossings: each edits `core.pairing` of its input, with fresh crossings,
and returns the validated `core.compact` of the result; the push and the
slide place the ports of their new crossings by a planarity argument
given in their docstrings, so each builds its one result once.
"""

from __future__ import annotations

from ..errors import TangleError
from .core import TangleDiagram, compact, connect, join, pairing, splice


# -- shared bookkeeping --------------------------------------------------------


def _finish(d: TangleDiagram, alpha: list[int], gone=None) -> TangleDiagram:
    """The validated `compact` of an adder's `alpha`, with `d`'s strings
    listed in boundary order."""
    strings = sorted(d.strings, key=lambda s: s[1])
    return compact(d, alpha, range(d.k), strings, d.free_loops, gone=gone).validate()


def _splice(d: TangleDiagram, cuts, endpoints=None, anchors=None) -> TangleDiagram:
    """`splice` with the strings listed in boundary order.

    `endpoints` is the new boundary order, by default the old one;
    `anchors` maps each string's label to an endpoint id when the move
    moved an endpoint, by default as `d.strings` does.
    """
    if endpoints is None:
        endpoints = range(d.k)
    if anchors is None:
        anchors = dict(d.strings)
    label_at = {eid: lab for lab, eid in anchors.items()}
    strings = [(label_at[eid], eid) for eid in endpoints if eid in label_at]
    return splice(d, cuts, endpoints, strings)


# -- reduction moves -----------------------------------------------------------
#
# Each move has an unvalidated step, `_r1` and so on, which `simplify`
# chains, and a public applier that returns the step's result validated.


def r1_matches(d: TangleDiagram):
    for c in range(d.n):
        for s in range(4):
            if d.alpha[4 * c + s] == 4 * c + (s + 1) % 4:
                yield (c, s)
                break


def _r1(d: TangleDiagram, match: tuple) -> TangleDiagram:
    return _splice(d, ((match[0], (0, 1)),))


def apply_r1(d: TangleDiagram, match: tuple) -> TangleDiagram:
    """Remove the kinked crossing, splicing both of its strands through.

    Planar: the joined ends lie around the disk of the crossing and its
    kink without interleaving.  Raises no string's count of crossings
    with other strands: a splice joins the two halves of one strand, so
    every arc keeps its component and every other crossing its pair of
    strands, and one crossing goes.
    """
    return _r1(d, match).validate()


def r2_matches(d: TangleDiagram):
    for c in range(d.n):
        for s in range(4):
            t_dart = d.alpha[4 * c + s]
            if d.is_ep_dart(t_dart):
                continue
            dd, t = t_dart // 4, t_dart % 4
            if dd == c:
                continue
            if (s - t) % 2 != 0:
                continue  # different strand on top at the two ends
            if d.alpha[4 * dd + (t + 1) % 4] == 4 * c + (s + 3) % 4:
                yield (c, s, dd, t)


def _r2(d: TangleDiagram, match: tuple) -> TangleDiagram:
    c, _, dd, _ = match
    return _splice(d, ((c, (0, 1)), (dd, (0, 1))))


def apply_r2(d: TangleDiagram, match: tuple) -> TangleDiagram:
    """Remove the bigon's two crossings, splicing their strands through.

    Planar: the joined ends lie around the disk of the two crossings and
    their bigon without interleaving.  Raises no string's count of
    crossings with other strands, as in R1: the splices keep every arc on
    its component, and two crossings go.
    """
    return _r2(d, match).validate()


def untwist_matches(d: TangleDiagram):
    """Crossings with boundary edges at two adjacent slots (free move)."""
    for c in range(d.n):
        for s in range(4):
            if d.is_ep_dart(d.alpha[4 * c + s]) and d.is_ep_dart(
                d.alpha[4 * c + (s + 1) % 4]
            ):
                yield (c, s)
                break


def _untwist(d: TangleDiagram, match: tuple) -> TangleDiagram:
    c, s = match
    ep_a = d.alpha[4 * c + s] - 4 * d.n
    ep_b = d.alpha[4 * c + (s + 1) % 4] - 4 * d.n
    endpoints = [e for e in range(d.k) if e != ep_a]
    endpoints.insert(endpoints.index(ep_b) + 1, ep_a)
    # a string ending at a or b is anchored at its other end; the one
    # string running from a to b at b's old spot, which now holds a's end
    anchors = {}
    for comp in d.components:
        if not comp.closed:
            keep = [e for e in (comp.start_ep, comp.end_ep) if e not in (ep_a, ep_b)]
            anchors[comp.label] = keep[0] if keep else ep_a
    return _splice(d, ((c, (s, s + 1)),), endpoints, anchors)


def apply_untwist(d: TangleDiagram, match: tuple) -> TangleDiagram:
    """Unwind crossing c by swapping the boundary spots of its two strands.

    Slots s and s+1 run straight to endpoints a and b.  Splicing c out
    leaves each strand ending at its own endpoint id; then a's end moves
    to b's spot and b's end to a fresh spot just before it.  Planar: the
    joined ends lie around the disk of the crossing and its corner face
    on the boundary without interleaving once a and b have swapped.
    Raises no string's count of crossings with other strands: the splices
    keep every arc on its component, moving an endpoint along the empty
    corner face crosses nothing, and one crossing goes.
    """
    return _untwist(d, match).validate()


def pull_matches(d: TangleDiagram):
    """Lemma-4.3 style matches: (crossing, boundary-port slot, corner slot)."""
    if d.k == 0:
        return
    nd = d.num_darts
    for c in range(d.n):
        for j in range(4):
            if not d.is_ep_dart(d.alpha[4 * c + j]):
                continue
            for m in ((j + 1) % 4, (j + 2) % 4):
                face = d.faces[d.face_of_dart[4 * c + (m + 1) % 4]]
                if 4 * c + j in face or d.alpha[4 * c + j] in face:
                    continue
                gaps = [x for x in face if x >= nd]
                if not gaps:
                    continue
                # degenerate tangencies: skip when neighbour ports sit on c
                skip = False
                for off in (1, 2, 3):
                    mate = d.alpha[4 * c + (j + off) % 4]
                    if not d.is_ep_dart(mate) and mate // 4 == c:
                        skip = True
                if skip:
                    continue
                yield (c, j, m)


def _pull(d: TangleDiagram, match: tuple) -> TangleDiagram:
    c, j, m = match
    nd = d.num_darts
    ep_p = d.alpha[4 * c + j] - 4 * d.n
    face = d.faces[d.face_of_dart[4 * c + (m + 1) % 4]]
    start = face.index(4 * c + (m + 1) % 4)
    gap = None
    for off in range(len(face)):
        x = face[(start + off) % len(face)]
        if x >= nd:
            r = x - nd
            jg, kind = divmod(r, 2)
            gap = (jg, (jg + 1) % d.k) if kind == 0 else ((jg - 1) % d.k, jg)
            break
    if gap is None:
        raise TangleError("pull move without boundary gap")
    endpoints = list(range(d.k))
    if ep_p not in gap:  # a gap flanked by p itself leaves the order as is
        endpoints.remove(ep_p)
        endpoints.insert(endpoints.index(gap[1]), ep_p)
    return _splice(d, ((c, (j, j + 1)),), endpoints)


def apply_pull(d: TangleDiagram, match: tuple) -> TangleDiagram:
    """Take crossing c out and move endpoint p into the face's boundary gap.

    The strand through slot j keeps running to endpoint p, whose end is
    re-routed through the face; the strand through j+1 is spliced.
    Planar: the joined ends lie around the disk of the crossing and the
    face, which reaches the boundary at the gap, without interleaving once
    p sits in the gap.  Raises no string's count of crossings with other
    strands: the splices keep every arc on its component, the re-routed
    end runs inside one face and so crosses nothing, and one crossing
    goes.
    """
    return _pull(d, match).validate()


_MODES = ("rel_boundary", "free")
_REL_MOVES = ((r1_matches, _r1), (r2_matches, _r2))
_FREE_MOVES = _REL_MOVES + ((untwist_matches, _untwist), (pull_matches, _pull))


def simplify(d: TangleDiagram, mode: str = "rel_boundary") -> TangleDiagram:
    """Reduce to a fixed point of the move set for `mode`.

    Each pass applies the first move in the order R1, R2, untwist, pull
    that has a match.  The steps run unvalidated (see `splice`), and the
    result is validated once, when a move applied.
    """
    if mode not in _MODES:
        raise TangleError(f"mode must be one of {_MODES}")
    moves = _FREE_MOVES if mode == "free" and d.k else _REL_MOVES
    cur = d
    while True:
        for matches, step in moves:
            match = next(matches(cur), None)
            if match is not None:
                cur = step(cur, match)
                break
        else:
            return cur if cur is d else cur.validate()


# -- move appliers for the invariance suite -------------------------------------


def _check_dart(d: TangleDiagram, name: str, dart: int) -> None:
    if not 0 <= dart < d.num_darts:
        raise TangleError(f"{name} must be a dart in 0..{d.num_darts - 1}, got {dart}")


def apply_r1_add(d: TangleDiagram, out_dart: int, kind: int) -> TangleDiagram:
    """Insert a kink into the edge leaving along out_dart; kind in 0..3.

    Planar: the kink lies in a disk on the edge (see `core.connect`).
    """
    _check_dart(d, "out_dart", out_dart)
    if not 0 <= kind <= 3:
        raise TangleError(f"kind must be in 0..3, got {kind}")
    alpha = pairing(d, 1)
    x = 4 * d.n  # the kink's crossing
    u = out_dart + 4 * (out_dart >= x)
    v = alpha[u]
    connect(alpha, u, x + (kind + 2) % 4)
    connect(alpha, x + kind, x + (kind + 1) % 4)
    connect(alpha, x + (kind + 3) % 4, v)
    return _finish(d, alpha)


def apply_r2_add(d: TangleDiagram, d1: int, d2: int, over_first: bool = True) -> TangleDiagram:
    """Push the d1 edge across their common face over (or under) the d2 edge.

    `d.faces` lists out-darts, so the face runs along d1's edge and d2's
    edge in the same direction.  The bigon the push makes is a face of the
    result, and it runs along its two sides in opposite directions.  So
    d1's edge is threaded forwards, from d1 to alpha[d1], and d2's edge
    backwards, from alpha[d2] to d2; the other way round does not embed.
    """
    _check_dart(d, "d1", d1)
    _check_dart(d, "d2", d2)
    if d.face_of_dart[d1] != d.face_of_dart[d2]:
        raise TangleError("R2 push needs two edges on a common face")
    if d1 == d2 or d.alpha[d1] == d2:
        raise TangleError("R2 push needs two distinct edges")
    S, E, N, W = (0, 1, 2, 3) if over_first else (1, 2, 3, 0)
    alpha = pairing(d, 2)
    p = 4 * d.n  # first dart of the new crossings p and q = p + 4
    u1, v2 = (x + 8 * (x >= p) for x in (d1, d2))
    v1, u2 = alpha[u1], alpha[v2]
    connect(alpha, u1, p + W)
    connect(alpha, p + E, p + 4 + E)
    connect(alpha, p + 4 + W, v1)
    connect(alpha, u2, p + S)
    connect(alpha, p + N, p + 4 + S)
    connect(alpha, p + 4 + N, v2)
    return _finish(d, alpha)


def r3_triangles(d: TangleDiagram):
    """Triangle faces admitting an R3 slide, with the slideable edge index."""
    nd = d.num_darts
    for fi, face in enumerate(d.faces):
        if len(face) != 3 or any(x >= nd or d.is_ep_dart(x) for x in face):
            continue
        nodes = [x // 4 for x in face]
        if len(set(nodes)) != 3:
            continue
        for i in range(3):
            ti = face[i]
            ai = d.alpha[ti]
            if (ti % 4) % 2 == (ai % 4) % 2:
                yield (fi, i)
                break


def apply_r3(d: TangleDiagram, match: tuple) -> TangleDiagram:
    """Slide the triangle's doubly-over (or doubly-under) strand across.

    The slide strand runs from crossing P to crossing Q; strand A runs
    through P and R, strand B through Q and R.  The slide strand leaves P
    and Q and crosses the extensions of B and of A beyond R, at two new
    crossings, meeting B's first from the P side.

    `d.faces` lists out-darts and turns counterclockwise at each crossing,
    so a face lies to the right of its darts: the triangle runs P, Q, R
    clockwise.  Beyond R, A and B have swapped sides, and walking along
    either extension away from R the slide strand crosses it from right
    to left.  With counterclockwise slots, that puts the slide in at the
    slot after the R-side port and out at the slot before it.  The slide
    keeps its level, so the extension takes the under slots (0, 2) when
    the slide was over, else the over slots (1, 3): the R-side, slide-in,
    far and slide-out slots are (0, 1, 2, 3) or (1, 2, 3, 0).

    All surgery is sequential on one `pairing`, re-reading mates at each
    step, so outer legs re-entering the triangle are handled naturally.
    A triangle with no planar slide raises `TangleError`.
    """
    fi, i = match
    face = d.faces[fi]
    ti = face[i]
    t_next = face[(i + 1) % 3]
    t_prev = face[(i + 2) % 3]
    P, sP = ti // 4, ti % 4
    aP = d.alpha[ti]
    Q, sQ = aP // 4, aP % 4
    R = t_prev // 4
    if t_next // 4 != Q or d.alpha[t_next] // 4 != R:
        raise TangleError("triangle face structure unexpected")
    sR1 = d.alpha[t_next] % 4  # arrival at R from Q
    sR2 = t_prev % 4           # departure from R toward P
    r_side, m_in, far, m_out = (0, 1, 2, 3) if sP % 2 else (1, 2, 3, 0)
    alpha = pairing(d, 2)
    # strand A straight through P, strand B straight through Q
    for x in (ti ^ 1, aP ^ 1):
        if join(alpha, x, x ^ 2) is None:
            raise TangleError("degenerate triangle: side strand loops")
    # new crossings p2 and q2 on the far sides of R, on A's and on B's extension
    p2, q2 = 4 * d.n, 4 * d.n + 4  # their first darts
    for x2, sR in ((p2, sR2), (q2, sR1)):
        r_leg = 4 * R + (sR + 2) % 4
        beyond = alpha[r_leg]
        connect(alpha, r_leg, x2 + r_side)
        connect(alpha, x2 + far, beyond)
    # lift the sliding strand out of P and Q, keeping its loose edge
    if join(alpha, ti, ti ^ 2) is None:
        raise TangleError("degenerate triangle: slide strand loops at P")
    joined = join(alpha, aP, aP ^ 2)
    if joined is None:
        raise TangleError("degenerate triangle: slide strand loops at Q")
    mp, mq = joined  # P-side and Q-side of the bypass edge
    # thread it through the new crossings, strand B's extension first
    connect(alpha, mp, q2 + m_in)
    connect(alpha, q2 + m_out, p2 + m_in)
    connect(alpha, p2 + m_out, mq)
    gone = bytearray(d.n + 2)
    gone[P] = gone[Q] = 1
    return _finish(d, alpha, gone)
