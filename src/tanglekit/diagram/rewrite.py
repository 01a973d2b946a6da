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
at a fixed point of the move set.  The *_add appliers (R1, R2) and the R3
slide exist for the invariance property suite; they are not used by the
reducer.

Every applier returns a validated diagram (`TangleDiagram.validate`).  The
R2 push and the R3 slide rely on that: they try the possible port
rotations of their new crossings in a fixed order and return the first
whose result embeds in the plane.
"""

from __future__ import annotations

from ..errors import TangleError
from .core import TangleDiagram, Wiring


# -- shared bookkeeping --------------------------------------------------------


def _transit(c: int, s: int) -> tuple[tuple, tuple]:
    """The two ports of the strand transit through slot s of crossing c."""
    return ("x", c, s % 4), ("x", c, (s + 2) % 4)


def _splice_crossing(d: TangleDiagram, w: Wiring, c: int, free_labels: list[str]) -> None:
    """Remove crossing c splicing both transits, tracking freed circles."""
    for s in (0, 1):
        if w.join_through(*_transit(c, s)) is None:
            free_labels.append(d.label_of(4 * c + s))
    w.order.remove(c)


def _finish(
    d: TangleDiagram,
    w: Wiring,
    free_labels: list[str],
    string_anchor: dict[str, int] | None = None,
) -> TangleDiagram:
    """Freeze and validate a rewired diagram, re-anchoring labels.

    `string_anchor` maps labels to endpoint ids when the move touched the
    boundary; otherwise old anchors are reused.  Strings are listed in
    boundary order.  Loop anchors move to the first surviving port of the
    old traversal.
    """
    if string_anchor is None:
        string_anchor = {lab: ep for lab, ep in d.strings}
    label_at = {eid: lab for lab, eid in string_anchor.items()}
    strings = [(label_at[eid], eid) for eid in w.endpoints if eid in label_at]
    loops = w.surviving_loops(d, free_labels)
    return w.to_diagram(strings, loops, d.free_loops + tuple(free_labels)).validate()


# -- reduction moves -----------------------------------------------------------


def r1_matches(d: TangleDiagram):
    for c in range(d.n):
        for s in range(4):
            if d.alpha[4 * c + s] == 4 * c + (s + 1) % 4:
                yield (c, s)
                break


def apply_r1(d: TangleDiagram, match: tuple) -> TangleDiagram:
    c, _ = match
    w = Wiring.from_diagram(d)
    free: list[str] = []
    _splice_crossing(d, w, c, free)
    return _finish(d, w, free)


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


def apply_r2(d: TangleDiagram, match: tuple) -> TangleDiagram:
    c, _, dd, _ = match
    w = Wiring.from_diagram(d)
    free: list[str] = []
    _splice_crossing(d, w, c, free)
    _splice_crossing(d, w, dd, free)
    return _finish(d, w, free)


def untwist_matches(d: TangleDiagram):
    """Crossings with boundary edges at two adjacent slots (free move)."""
    for c in range(d.n):
        for s in range(4):
            if d.is_ep_dart(d.alpha[4 * c + s]) and d.is_ep_dart(
                d.alpha[4 * c + (s + 1) % 4]
            ):
                yield (c, s)
                break


def apply_untwist(d: TangleDiagram, match: tuple) -> TangleDiagram:
    c, s = match
    ep_a = d.alpha[4 * c + s] - 4 * d.n
    ep_b = d.alpha[4 * c + (s + 1) % 4] - 4 * d.n
    la = d.label_of(4 * c + s)
    lb = d.label_of(4 * c + (s + 1) % 4)
    w = Wiring.from_diagram(d)
    x_cont = w.mate[("x", c, (s + 2) % 4)]
    y_cont = w.mate[("x", c, (s + 3) % 4)]
    new_id = w.new_endpoint_id()
    # endpoint a leaves its spot; a fresh endpoint lands just before b
    w.endpoints.remove(ep_a)
    w.endpoints.insert(w.endpoints.index(ep_b), new_id)
    for slot in range(4):
        w.mate.pop(("x", c, slot), None)
    w.mate.pop(("e", ep_a), None)
    w.order.remove(c)
    if x_cont == ("x", c, (s + 3) % 4):
        # the two transits were bridged at c: single strand remains
        w.connect(("e", ep_b), ("e", new_id))
    else:
        w.connect(x_cont, ("e", ep_b))
        w.connect(y_cont, ("e", new_id))
    anchors: dict[str, int] = {}
    for comp in d.components:
        if comp.closed:
            continue
        keep = [e for e in (comp.start_ep, comp.end_ep) if e not in (ep_a, ep_b)]
        anchors[comp.label] = keep[0] if keep else ep_b
    # strand of a now ends at b's spot, strand of b at the fresh spot
    if la != lb:
        if anchors[la] in (ep_a, ep_b):
            anchors[la] = ep_b
        if anchors[lb] in (ep_a, ep_b):
            anchors[lb] = new_id
    free: list[str] = []
    return _finish(d, w, free, string_anchor=anchors)


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


def apply_pull(d: TangleDiagram, match: tuple) -> TangleDiagram:
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
    w = Wiring.from_diagram(d)
    x_cont = w.mate[("x", c, (j + 2) % 4)]
    free: list[str] = []
    if w.join_through(*_transit(c, j + 1)) is None:
        free.append(d.label_of(4 * c + (j + 1) % 4))
    for slot in (j, j + 2):
        w.mate.pop(("x", c, slot % 4))
    w.order.remove(c)
    w.connect(x_cont, ("e", ep_p))
    # relocate endpoint p into the chosen gap
    w.endpoints.remove(ep_p)
    ga, gb = gap
    if gb == ep_p or ga == ep_p:
        # relocating into a gap flanked by itself: order unchanged
        w.endpoints.insert(0, ep_p)
        w.endpoints.sort()
    else:
        w.endpoints.insert(w.endpoints.index(gb), ep_p)
    return _finish(d, w, free)


_MODES = ("rel_boundary", "free")


def simplify(d: TangleDiagram, mode: str = "rel_boundary") -> TangleDiagram:
    """Reduce to a fixed point of the move set for `mode`."""
    if mode not in _MODES:
        raise TangleError(f"mode must be one of {_MODES}")
    cur = d
    while True:
        match = next(iter(r1_matches(cur)), None)
        if match is not None:
            cur = apply_r1(cur, match)
            continue
        match = next(iter(r2_matches(cur)), None)
        if match is not None:
            cur = apply_r2(cur, match)
            continue
        if mode == "free" and cur.k:
            match = next(iter(untwist_matches(cur)), None)
            if match is not None:
                cur = apply_untwist(cur, match)
                continue
            match = next(iter(pull_matches(cur)), None)
            if match is not None:
                cur = apply_pull(cur, match)
                continue
        return cur


# -- move appliers for the invariance suite -------------------------------------


def apply_r1_add(d: TangleDiagram, out_dart: int, kind: int) -> TangleDiagram:
    """Insert a kink into the edge leaving along out_dart; kind in 0..3."""
    w = Wiring.from_diagram(d)
    u = Wiring.port(d, out_dart)
    v = Wiring.port(d, d.alpha[out_dart])
    c = w.new_crossing()
    w.connect(u, ("x", c, (kind + 2) % 4))
    w.connect(("x", c, kind), ("x", c, (kind + 1) % 4))
    w.connect(("x", c, (kind + 3) % 4), v)
    return _finish(d, w, [])


def apply_r2_add(d: TangleDiagram, d1: int, d2: int, over_first: bool = True) -> TangleDiagram:
    """Push the d1 edge across their common face over (or under) the d2 edge."""
    if d1 >= d.num_darts or d2 >= d.num_darts:
        raise TangleError("R2 push needs strand edges, not boundary gaps")
    if d.face_of_dart.get(d1) != d.face_of_dart.get(d2):
        raise TangleError("R2 push needs two edges on a common face")
    if d1 == d2 or d.alpha[d1] == d2:
        raise TangleError("R2 push needs two distinct edges")
    base = 1 if over_first else 0  # S1 occupies the odd transit when on top
    S, E, N, W = (0, 1, 2, 3) if over_first else (1, 2, 3, 0)
    for flip in (False, True):
        w = Wiring.from_diagram(d)
        cp = w.new_crossing()
        cq = w.new_crossing()
        u1, v1 = Wiring.port(d, d1), Wiring.port(d, d.alpha[d1])
        u2, v2 = Wiring.port(d, d2), Wiring.port(d, d.alpha[d2])
        if flip:
            u2, v2 = v2, u2
        w.connect(u1, ("x", cp, W))
        w.connect(("x", cp, E), ("x", cq, E))
        w.connect(("x", cq, W), v1)
        w.connect(u2, ("x", cp, S))
        w.connect(("x", cp, N), ("x", cq, S))
        w.connect(("x", cq, N), v2)
        try:
            return _finish(d, w, [])
        except TangleError:
            continue
    raise TangleError("R2 push failed to embed")


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

    All surgery is sequential on the wiring, re-reading mates at each
    step, so outer legs re-entering the triangle are handled naturally.
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
    m_over = (sP % 2) == 1

    def build(rot_p: int, rot_q: int) -> TangleDiagram:
        w = Wiring.from_diagram(d)
        # strand A straight through P, strand B straight through Q
        for c, s in ((P, sP + 1), (Q, sQ + 1)):
            if w.join_through(*_transit(c, s)) is None:
                raise TangleError("degenerate triangle: side strand loops")
        # new crossings on the far sides of R; the sliding strand keeps its
        # level, so its ports take the odd slots exactly when it was over
        p2 = w.new_crossing()
        q2 = w.new_crossing()

        def slots(rot: int) -> tuple[int, int, int, int]:
            base = (0, 1, 2, 3) if m_over else (1, 2, 3, 0)
            if rot & 1:
                base = (base[2], base[1], base[0], base[3])  # swap strand ports
            if rot & 2:
                base = (base[0], base[3], base[2], base[1])  # swap slide ports
            return base

        a_r, m_in, a_far, m_out = slots(rot_p)
        b_r, m_pin, b_far, m_end = slots(rot_q)
        far_a = ("x", R, (sR2 + 2) % 4)
        xa = w.mate[far_a]
        w.connect(far_a, ("x", p2, a_r))
        w.connect(("x", p2, a_far), xa)
        far_b = ("x", R, (sR1 + 2) % 4)
        xb = w.mate[far_b]
        w.connect(far_b, ("x", q2, b_r))
        w.connect(("x", q2, b_far), xb)
        # lift the sliding strand out of P and Q, keeping its loose edge
        if w.join_through(*_transit(P, sP)) is None:
            raise TangleError("degenerate triangle: slide strand loops at P")
        joined = w.join_through(*_transit(Q, sQ))
        if joined is None:
            raise TangleError("degenerate triangle: slide strand loops at Q")
        mp, mq = joined  # P-side and Q-side of the bypass edge
        w.order.remove(P)
        w.order.remove(Q)
        # thread it through the new crossings; beyond R the two side
        # strands have swapped sides, so from the P side the slide meets
        # strand B's extension first
        w.mate.pop(mp)
        w.mate.pop(mq)
        w.connect(mp, ("x", q2, m_pin))
        w.connect(("x", q2, m_end), ("x", p2, m_in))
        w.connect(("x", p2, m_out), mq)
        return _finish(d, w, [])

    for rot_p in range(4):
        for rot_q in range(4):
            try:
                return build(rot_p, rot_q)
            except TangleError:
                continue
    raise TangleError("R3 slide failed to embed")
