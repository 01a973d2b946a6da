"""Reduction engine and Reidemeister-move invariance properties."""

import random
from collections import Counter
from functools import partial
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draws import random_diagram
from poly_helpers import LaurentPoly, monomial
from tanglekit.diagram import (
    TangleDiagram,
    add_boundary_twists,
    bracket_state_sum,
    cap,
    close_numerator,
    close_with,
    close_with_x_arcs,
    emit_pd,
    horizontal_twists,
    linking_matrix,
    rational_tangle_diagram,
    remove_string,
    simplify,
    trivial_tangle,
    zero_tangle,
)
from tanglekit.diagram.pdcode import parse_pd
from tanglekit.diagram.rewrite import (
    _pull,
    _r1,
    _r2,
    _untwist,
    apply_pull,
    apply_r1,
    apply_r1_add,
    apply_r2,
    apply_r2_add,
    apply_r3,
    apply_untwist,
    pull_matches,
    r1_matches,
    r2_matches,
    r3_triangles,
    untwist_matches,
)
from tanglekit.errors import TangleError
from tanglekit.experiments import build_standard
from tanglekit.rational import reduce

R1_UP = monomial(3, -1)
R1_DOWN = monomial(-3, -1)


def _random_closed(rng, n):
    return close_numerator(random_diagram(rng, n, k=4))


REDUCTION_MOVES = (
    ("r1", r1_matches, apply_r1),
    ("r2", r2_matches, apply_r2),
    ("untwist", untwist_matches, apply_untwist),
    ("pull", pull_matches, apply_pull),
)


def rewrite_sample() -> dict:
    """Seeded diagrams of at most 6 crossings, keyed by how each was drawn.

    Random open tangles with k = 2, 4 and 6, the numerator closures of the
    k = 4 ones, the x-arc closures of the k = 6 ones, the x-arc closures
    of the standard tangles with twists +-1, and the first three further
    draws (k = 4 and 6) that have a pull match: `simplify` rarely reaches
    that move, and about one draw in nine has a match.
    """
    rng = random.Random(17)
    out = {}
    for k in (2, 4, 6):
        for n in range(1, 7):
            d = random_diagram(rng, n, k)
            out[f"k{k} n{n}"] = d
            if k == 4:
                out[f"k4 n{n} numerator"] = close_numerator(d)
            if k == 6:
                out[f"k6 n{n} xarcs"] = close_with_x_arcs(d)
    for signs in product((1, -1), repeat=3):
        out[f"standard {signs} xarcs"] = close_with_x_arcs(build_standard(*signs))
    for k in (4, 6):
        found = 0
        while found < 3:
            d = random_diagram(rng, rng.randint(3, 6), k)
            if next(pull_matches(d), None) is not None:
                found += 1
                out[f"k{k} n{d.n} pull #{found}"] = d
    return out


def r2_pushes(d):
    """Every (d1, d2) pair of distinct strand edges on a common face."""
    nd = d.num_darts
    return [
        (x, y)
        for face in d.faces
        for x in face
        for y in face
        if x < nd and y < nd and x != y and d.alpha[x] != y
    ]


def outcome(op, *args) -> str:
    """emit_pd of op(*args), or a note that it raised `TangleError`."""
    try:
        return emit_pd(op(*args))
    except TangleError:
        return "raises TangleError\n"


def rewrite_outputs() -> dict[str, str]:
    """emit_pd of every applier and surgery on `rewrite_sample()`.

    A call that raises `TangleError` records that instead.  Per diagram:
    two seeded R1 kinks, two seeded R2 pushes both over and under, every
    R3 triangle, the first three matches of each reduction move, both
    `simplify` modes, and on 3-string tangles every cap, boundary twist
    and string removal.
    """
    rng = random.Random(18)
    out = {}
    for key, d in rewrite_sample().items():
        ops = {}
        for dart in rng.sample(range(d.num_darts), min(2, d.num_darts)):
            kind = rng.randrange(4)
            ops[f"r1_add {dart} {kind}"] = partial(apply_r1_add, d, dart, kind)
        pushes = r2_pushes(d)
        for d1, d2 in rng.sample(pushes, min(2, len(pushes))):
            for over_first in (True, False):
                push = partial(apply_r2_add, d, d1, d2, over_first)
                ops[f"r2_add {d1} {d2} {over_first}"] = push
        for tri in r3_triangles(d):
            ops[f"r3 {tri}"] = partial(apply_r3, d, tri)
        for name, matches, apply in REDUCTION_MOVES:
            for match in islice(matches(d), 3):
                ops[f"{name} {match}"] = partial(apply, d, match)
        for mode in ("rel_boundary", "free"):
            ops[f"simplify {mode}"] = partial(simplify, d, mode)
        if d.k == 6:
            for i in (1, 2, 3):
                ops[f"cap {i}"] = partial(cap, d, i)
                ops[f"twists {i}"] = partial(add_boundary_twists, d, i, (1, -2, 3)[i - 1])
            for comp in d.components:
                ops[f"remove {comp.label}"] = partial(remove_string, d, comp.label)
        for name, op in ops.items():
            out[f"{key} {name}"] = outcome(op)
    return out


def r2_push_by_trials(d, d1, d2, over_first=True):
    """The R2 push that tries d2's edge forwards, then backwards."""
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
            return _wiring_finish(d, w, [])
        except TangleError:
            continue
    raise TangleError("R2 push failed to embed")


def r3_slide_by_trials(d, match):
    """The R3 slide that tries 16 port rotations of its two new crossings."""
    fi, i = match
    face = d.faces[fi]
    ti, t_next, t_prev = face[i], face[(i + 1) % 3], face[(i + 2) % 3]
    P, sP = ti // 4, ti % 4
    Q, sQ = d.alpha[ti] // 4, d.alpha[ti] % 4
    R = t_prev // 4
    if t_next // 4 != Q or d.alpha[t_next] // 4 != R:
        raise TangleError("triangle face structure unexpected")
    sR1, sR2 = d.alpha[t_next] % 4, t_prev % 4

    def slots(rot):
        base = (0, 1, 2, 3) if sP % 2 else (1, 2, 3, 0)
        if rot & 1:
            base = (base[2], base[1], base[0], base[3])  # swap strand ports
        if rot & 2:
            base = (base[0], base[3], base[2], base[1])  # swap slide ports
        return base

    def build(rot_p, rot_q):
        w = Wiring.from_diagram(d)
        for c, s in ((P, sP + 1), (Q, sQ + 1)):
            if w.join_through(*_transit(c, s)) is None:
                raise TangleError("degenerate triangle: side strand loops")
        p2 = w.new_crossing()
        q2 = w.new_crossing()
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
        if w.join_through(*_transit(P, sP)) is None:
            raise TangleError("degenerate triangle: slide strand loops at P")
        joined = w.join_through(*_transit(Q, sQ))
        if joined is None:
            raise TangleError("degenerate triangle: slide strand loops at Q")
        mp, mq = joined
        w.order.remove(P)
        w.order.remove(Q)
        w.mate.pop(mp)
        w.mate.pop(mq)
        w.connect(mp, ("x", q2, m_pin))
        w.connect(("x", q2, m_end), ("x", p2, m_in))
        w.connect(("x", p2, m_out), mq)
        return _wiring_finish(d, w, [])

    for rot_p in range(4):
        for rot_q in range(4):
            try:
                return build(rot_p, rot_q)
            except TangleError:
                continue
    raise TangleError("R3 slide failed to embed")


class TestPinnedOutputs:
    def test_applier_outputs_pinned(self):
        with open("tests/fixtures/rewrite_outputs.txt", encoding="utf-8") as fh:
            records = fh.read().split("## ")[1:]
        pinned = dict(record.split("\n", 1) for record in records)
        assert rewrite_outputs() == pinned

    def test_loopy_adder_outputs_pinned(self):
        with open("tests/fixtures/loopy_adder_outputs.txt", encoding="utf-8") as fh:
            records = fh.read().split("## ")[1:]
        pinned = dict(record.split("\n", 1) for record in records)
        assert loopy_adder_outputs() == pinned

    def test_loopy_adder_sample_carries_loops(self):
        # many pinned results are open tangles, and the draws' loops
        # and free loops reach them
        text = "".join(loopy_adder_outputs().values())
        assert text.count("tangle k=2") > 100 and text.count("tangle k=3") > 50
        assert text.count("S L0:") > 100 and text.count("S F0:") > 50

    def test_r2_push_matches_trials(self):
        pushes = 0
        for d in rewrite_sample().values():
            for d1, d2 in r2_pushes(d):
                for over_first in (True, False):
                    args = (d, d1, d2, over_first)
                    assert outcome(apply_r2_add, *args) == outcome(r2_push_by_trials, *args)
                    pushes += 1
        assert pushes > 2000

    def test_r3_slide_matches_trials(self):
        slides = 0
        for d in rewrite_sample().values():
            for tri in r3_triangles(d):
                assert outcome(apply_r3, d, tri) == outcome(r3_slide_by_trials, d, tri)
                slides += 1
        assert slides == 22


class TestAdderArguments:
    """The R1 kink and R2 push refuse a dart outside 0..num_darts-1, or a
    kink kind outside 0..3, by a TangleError that names the argument."""

    @staticmethod
    def _trefoil_tangle():
        d = rational_tangle_diagram(reduce(3, 1))
        assert d.num_darts == 16
        return d

    @pytest.mark.parametrize(
        "out_dart,kind,name", [(-1, 0, "out_dart"), (16, 0, "out_dart"), (0, 4, "kind"), (0, -1, "kind")]
    )
    def test_r1_add_refuses(self, out_dart, kind, name):
        with pytest.raises(TangleError, match=f"^{name} must be "):
            apply_r1_add(self._trefoil_tangle(), out_dart, kind)

    @pytest.mark.parametrize(
        "d1,d2,name", [(-1, -2, "d1"), (-1, 3, "d1"), (3, -2, "d2"), (16, 0, "d1"), (0, 17, "d2")]
    )
    def test_r2_add_refuses(self, d1, d2, name):
        bad = d1 if name == "d1" else d2
        with pytest.raises(TangleError, match=f"^{name} must be a dart in 0..15, got {bad}$"):
            apply_r2_add(self._trefoil_tangle(), d1, d2)

    def test_range_edges_accepted(self):
        d = self._trefoil_tangle()
        for out_dart, kind in ((0, 0), (15, 3)):
            assert apply_r1_add(d, out_dart, kind).n == d.n + 1
        d1, d2 = next((a, b) for a, b in r2_pushes(d) if 15 in (a, b))
        assert apply_r2_add(d, d1, d2).n == d.n + 2


class TestReduction:
    def test_r1_kink_removed(self):
        d = close_numerator(horizontal_twists(zero_tangle(), 1))
        assert simplify(d, "free").n == 0

    def test_r2_pair_removed(self):
        base = _random_closed(random.Random(5), 3)
        rng = random.Random(6)
        edges = [x for x in range(base.num_darts)]
        for _ in range(50):
            d1 = rng.choice(edges)
            f = base.face_of_dart[d1]
            others = [x for x in base.faces[f] if x < base.num_darts and x not in (d1, base.alpha[d1])]
            if not others:
                continue
            pushed = apply_r2_add(base, d1, rng.choice(others))
            assert simplify(pushed, "rel_boundary").n <= base.n
            break

    def test_reference_tangle_reduces_freely_only(self):
        pjh = trivial_tangle()
        for i in (1, 2, 3):
            pjh = add_boundary_twists(pjh, i, -2)
        assert simplify(pjh, "rel_boundary").n == 6
        assert simplify(pjh, "free").n == 0

    def test_monotone_and_idempotent(self):
        rng = random.Random(11)
        for _ in range(25):
            d = random_diagram(rng, rng.randint(0, 6), k=6)
            red = simplify(d, "free")
            assert red.n <= d.n
            again = simplify(red, "free")
            assert again.n == red.n
            assert again.canonical_code() == red.canonical_code()

    def test_mode_rejected(self):
        with pytest.raises(TangleError):
            simplify(trivial_tangle(), "bogus")

    def test_untwist_preserves_strand_count(self):
        rng = random.Random(13)
        found = 0
        for _ in range(200):
            d = random_diagram(rng, rng.randint(1, 5), k=6)
            if next(iter(untwist_matches(d)), None) is None:
                continue
            red = simplify(d, "free")
            assert len([c for c in red.components if not c.closed]) == 3
            found += 1
            if found > 20:
                break
        assert found > 0


def crossings_with_others(d) -> Counter:
    """Per string label, its crossings with other strands."""
    counts = Counter()
    for under, over in d.crossing_strands:
        if under != over:
            counts[d.components[under].label] += 1
            counts[d.components[over].label] += 1
    return Counter({c.label: counts[c.label] for c in d.components if not c.closed})


class TestMovesKeepCrossingCounts:
    """No reduction move raises a string's count of crossings with other strands."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 8),
        k=st.sampled_from((4, 6)),
    )
    def test_each_move(self, seed, n, k):
        d = random_diagram(random.Random(seed), n, k)
        before = crossings_with_others(d)
        for name, matches, apply in REDUCTION_MOVES:
            for match in matches(d):
                after = crossings_with_others(apply(d, match))
                assert after.keys() == before.keys(), (name, match)
                assert all(after[lab] <= before[lab] for lab in before), (name, match)


class TestBracketInvariance:
    """R2/R3 leave the bracket alone; R1 multiplies by -A^(+-3)."""

    SAMPLES = 260

    def test_r1_factor(self):
        rng = random.Random(101)
        checked = 0
        while checked < self.SAMPLES:
            d = _random_closed(rng, rng.randint(0, 7))
            br = LaurentPoly(bracket_state_sum(d))
            dart = rng.randrange(d.num_darts) if d.num_darts else None
            if dart is None:
                checked += 1
                continue
            kinked = apply_r1_add(d, dart, rng.randrange(4))
            br2 = LaurentPoly(bracket_state_sum(kinked))
            assert br2 in (R1_UP * br, R1_DOWN * br)
            checked += 1

    def test_r2_invariance(self):
        rng = random.Random(102)
        checked = 0
        while checked < self.SAMPLES:
            d = _random_closed(rng, rng.randint(1, 6))
            br = bracket_state_sum(d)
            faces = [f for f in d.faces if len({x for x in f}) >= 2]
            if not faces:
                continue
            f = faces[rng.randrange(len(faces))]
            d1, d2 = rng.sample(list(f), 2)
            if d.alpha[d1] == d2 or d1 == d2:
                continue
            pushed = apply_r2_add(d, d1, d2, over_first=rng.random() < 0.5)
            assert bracket_state_sum(pushed) == br
            checked += 1

    def test_r3_invariance(self):
        rng = random.Random(103)
        checked = 0
        attempts = 0
        while checked < 60 and attempts < 4000:
            attempts += 1
            d = _random_closed(rng, rng.randint(4, 8))
            tris = list(r3_triangles(d))
            if not tris:
                continue
            try:
                slid = apply_r3(d, tris[0])
            except TangleError:
                continue  # degenerate configuration; the slide declined
            assert slid.n == d.n
            assert bracket_state_sum(slid) == bracket_state_sum(d)
            checked += 1
        assert checked >= 40, f"only {checked} R3 slides exercised"

    def test_r3_on_standard_triangles(self):
        import itertools

        from tanglekit.experiments import build_standard

        done = 0
        for signs in itertools.product((1, -1), repeat=3):
            link = close_with_x_arcs(build_standard(*signs))
            for tri in r3_triangles(link):
                slid = apply_r3(link, tri)
                assert bracket_state_sum(slid) == bracket_state_sum(link)
                assert linking_matrix(slid) == linking_matrix(link)
                done += 1
        assert done == 12


class TestLinkingInvariance:
    SAMPLES = 120

    def _random_multi(self, rng):
        d = random_diagram(rng, rng.randint(0, 6), k=6)
        return close_with_x_arcs(d)

    def test_r1_r2_invariance(self):
        rng = random.Random(104)
        checked = 0
        while checked < self.SAMPLES:
            link = self._random_multi(rng)
            base = linking_matrix(link)
            if link.num_darts:
                kinked = apply_r1_add(link, rng.randrange(link.num_darts), rng.randrange(4))
                assert linking_matrix(kinked) == base
            faces = [f for f in link.faces if len(f) >= 2]
            if faces:
                f = faces[rng.randrange(len(faces))]
                d1, d2 = rng.sample(list(f), 2)
                if d1 != d2 and link.alpha[d1] != d2:
                    pushed = apply_r2_add(link, d1, d2, over_first=rng.random() < 0.5)
                    assert linking_matrix(pushed) == base
            checked += 1

    def test_r3_invariance(self):
        rng = random.Random(105)
        checked = 0
        attempts = 0
        while checked < 25 and attempts < 6000:
            attempts += 1
            link = self._random_multi(rng)
            tris = list(r3_triangles(link))
            if not tris:
                continue
            try:
                slid = apply_r3(link, tris[0])
            except TangleError:
                continue
            assert linking_matrix(slid) == linking_matrix(link)
            checked += 1
        assert checked >= 10

    def test_reduction_preserves_linking(self):
        rng = random.Random(106)
        for _ in range(60):
            link = self._random_multi(rng)
            red = simplify(link, "rel_boundary")
            base = linking_matrix(link)
            got = linking_matrix(red)
            for key, val in got.items():
                assert base[key] == val


# -- the Wiring appliers the flat splice replaced, kept as its oracle ----------


class Wiring:
    """The port wiring the engine once edited, kept as an oracle.

    Ports are ("x", cid, slot) or ("e", eid); `mate` is the pairing.
    `endpoints` keeps the circular boundary order; crossing ids are
    renumbered by `to_diagram` in `order` order.
    """

    def __init__(self):
        self.mate: dict[tuple, tuple] = {}
        self.order: list[int] = []
        self.endpoints: list[int] = []
        self._next = 0

    @classmethod
    def from_diagram(cls, d):
        w = cls()
        w.order = list(range(d.n))
        w.endpoints = list(range(d.k))
        w._next = d.n + d.k
        for dart in range(d.num_darts):
            w.mate[cls.port(d, dart)] = cls.port(d, d.alpha[dart])
        return w

    @staticmethod
    def port(d, dart):
        """The port of `d`'s dart in the wiring `from_diagram(d)`."""
        if d.is_ep_dart(dart):
            return ("e", dart - 4 * d.n)
        return ("x", dart // 4, dart % 4)

    def new_crossing(self):
        cid = self._next
        self._next += 1
        self.order.append(cid)
        return cid

    def connect(self, a, b):
        self.mate[a] = b
        self.mate[b] = a

    def join_through(self, p, q):
        """Join the mates of ports p and q and drop both ports; None when
        p and q were mated to each other."""
        a = self.mate.pop(p)
        b = self.mate.pop(q)
        if a == q:
            return None
        self.connect(a, b)
        return (a, b)

    def to_diagram(self, strings=(), loops=(), free_loops=()):
        """Unvalidated; `strings` anchor at endpoint ids, `loops` at ports."""
        xindex = {cid: i for i, cid in enumerate(self.order)}
        eindex = {eid: i for i, eid in enumerate(self.endpoints)}
        n, k = len(self.order), len(self.endpoints)

        def dart(port):
            if port[0] == "x":
                return 4 * xindex[port[1]] + port[2]
            return 4 * n + eindex[port[1]]

        alpha = [0] * (4 * n + k)
        for p, q in self.mate.items():
            alpha[dart(p)] = dart(q)
        strings = tuple((lab, eindex[eid]) for lab, eid in strings)
        loops = tuple((lab, dart(p)) for lab, p in loops)
        return TangleDiagram(n, k, tuple(alpha), strings, loops, tuple(free_loops))


def _transit(c, s):
    """The two ports of the strand transit through slot s of crossing c."""
    return ("x", c, s % 4), ("x", c, (s + 2) % 4)


def _wiring_splice_out(w, d, c, slots, freed):
    """Take crossing c out of `w`, splicing the strand through each slot."""
    for s in slots:
        if w.join_through(*_transit(c, s)) is None:
            freed.append(d.label_of(4 * c + s % 4))
    for s in range(4):
        w.mate.pop(("x", c, s), None)
    w.order.remove(c)


def _wiring_freeze(d, w, strings, free_loops):
    """`Wiring.freeze` as it was, re-anchoring loops on its own."""
    free_loops = list(free_loops)
    loops = []
    for comp in d.components:
        if not comp.closed or not comp.out_darts:
            continue
        ports = (Wiring.port(d, dart) for dart in comp.out_darts)
        anchor = next((p for p in ports if p in w.mate), None)
        if anchor is not None:
            loops.append((comp.label, anchor))
        elif comp.label not in free_loops:
            free_loops.append(comp.label)
    labels = [lab for lab, _ in strings] + [lab for lab, _ in loops] + free_loops
    if len(set(labels)) < len(labels):
        raise TangleError("two components with one label")
    return w.to_diagram(strings, loops, free_loops).validate()


def _wiring_finish(d, w, freed, anchors=None):
    label_at = {eid: lab for lab, eid in (anchors or dict(d.strings)).items()}
    strings = [(label_at[eid], eid) for eid in w.endpoints if eid in label_at]
    return _wiring_freeze(d, w, strings, d.free_loops + tuple(freed))


def wiring_r1(d, match):
    w, freed = Wiring.from_diagram(d), []
    _wiring_splice_out(w, d, match[0], (0, 1), freed)
    return _wiring_finish(d, w, freed)


def wiring_r2(d, match):
    c, _, dd, _ = match
    w, freed = Wiring.from_diagram(d), []
    _wiring_splice_out(w, d, c, (0, 1), freed)
    _wiring_splice_out(w, d, dd, (0, 1), freed)
    return _wiring_finish(d, w, freed)


def wiring_untwist(d, match):
    c, s = match
    ep_a = d.alpha[4 * c + s] - 4 * d.n
    ep_b = d.alpha[4 * c + (s + 1) % 4] - 4 * d.n
    w = Wiring.from_diagram(d)
    _wiring_splice_out(w, d, c, (s, s + 1), [])
    w.endpoints.remove(ep_a)
    w.endpoints.insert(w.endpoints.index(ep_b) + 1, ep_a)
    anchors = {}
    for comp in d.components:
        if not comp.closed:
            keep = [e for e in (comp.start_ep, comp.end_ep) if e not in (ep_a, ep_b)]
            anchors[comp.label] = keep[0] if keep else ep_a
    return _wiring_finish(d, w, [], anchors)


def wiring_pull(d, match):
    c, j, m = match
    nd = d.num_darts
    ep_p = d.alpha[4 * c + j] - 4 * d.n
    face = d.faces[d.face_of_dart[4 * c + (m + 1) % 4]]
    start = face.index(4 * c + (m + 1) % 4)
    gap = None
    for off in range(len(face)):
        x = face[(start + off) % len(face)]
        if x >= nd:
            jg, kind = divmod(x - nd, 2)
            gap = (jg, (jg + 1) % d.k) if kind == 0 else ((jg - 1) % d.k, jg)
            break
    if gap is None:
        raise TangleError("pull move without boundary gap")
    w, freed = Wiring.from_diagram(d), []
    _wiring_splice_out(w, d, c, (j, j + 1), freed)
    if ep_p not in gap:
        w.endpoints.remove(ep_p)
        w.endpoints.insert(w.endpoints.index(gap[1]), ep_p)
    return _wiring_finish(d, w, freed)


def wiring_remove_string(d, label):
    comp = d.component_by_label(label)
    if comp.closed:
        raise TangleError(f"{label!r} is not an open string")
    idx = d.components.index(comp)
    w, freed = Wiring.from_diagram(d), []
    for c, (under, over) in enumerate(d.crossing_strands):
        if idx in (under, over):
            keep = 1 if under == idx else 0
            _wiring_splice_out(w, d, c, (keep,) if under != over else (), freed)
    for dart in set(comp.out_darts) | {d.alpha[x] for x in comp.out_darts}:
        w.mate.pop(Wiring.port(d, dart), None)
    p1, p2 = sorted((comp.start_ep, comp.end_ep))
    k = d.k
    if (p1 + 1) % k == p2:
        start = (p1 - 1) % k
    elif (p2 + 1) % k == p1:
        start = (p2 - 1) % k
    else:
        start = min(e for e in range(k) if e not in (p1, p2))
    w.endpoints.remove(p1)
    w.endpoints.remove(p2)
    w.endpoints.sort(key=lambda e: (e - start) % k)
    strings = [(lab, ep) for lab, ep in d.strings if lab != label]
    return _wiring_freeze(d, w, strings, d.free_loops + tuple(freed))


# (name, matches, unvalidated step, public applier, Wiring oracle), in
# the order `simplify` tries them
FLAT_MOVES = (
    ("r1", r1_matches, _r1, apply_r1, wiring_r1),
    ("r2", r2_matches, _r2, apply_r2, wiring_r2),
    ("untwist", untwist_matches, _untwist, apply_untwist, wiring_untwist),
    ("pull", pull_matches, _pull, apply_pull, wiring_pull),
)


def _labelled(d, free=0):
    """`d`'s alpha with every component traced and named afresh.

    Strings s0, s1, ... start at their lowest endpoint, loops L0, L1, ...
    at their lowest unvisited dart, and `free` free loops F0, F1, ...
    follow.
    """
    seen = set()
    strings, loops = [], []
    for x in [d.ep_dart(j) for j in range(d.k)] + list(range(4 * d.n)):
        if x in seen:
            continue
        darts, closed = d._trace_from(x)
        if closed:
            loops.append((f"L{len(loops)}", x))
        else:
            strings.append((f"s{len(strings)}", x - 4 * d.n))
        seen.update(darts)
        seen.update(d.alpha[y] for y in darts)
    free_loops = tuple(f"F{i}" for i in range(free))
    return TangleDiagram(d.n, d.k, d.alpha, tuple(strings), tuple(loops), free_loops).validate()


def diagram_with_loops(seed, n, k, joins, free, moves):
    """A random diagram with k endpoints, loops and free loops.

    A random tangle with n crossings and k + 2 * joins endpoints has
    `joins` pairs of neighbouring endpoints joined along the boundary; a
    join that closes a strand makes a loop, or a free loop when the strand
    has no crossing.  `free` more free loops are added, then `moves`
    random R1 kinks and R2 pushes while the diagram has at most 10
    crossings.
    """
    rng = random.Random(seed)
    w = Wiring.from_diagram(random_diagram(rng, n, k + 2 * joins))
    for _ in range(joins):
        i = rng.randrange(len(w.endpoints))
        a, b = w.endpoints[i], w.endpoints[(i + 1) % len(w.endpoints)]
        if w.join_through(("e", a), ("e", b)) is None:
            free += 1
        w.endpoints.remove(a)
        w.endpoints.remove(b)
    d = _labelled(w.to_diagram(), free)
    for _ in range(moves):
        pushes = r2_pushes(d)
        if pushes and d.n <= 8 and rng.random() < 0.5:
            d1, d2 = rng.choice(pushes)
            d = apply_r2_add(d, d1, d2, rng.random() < 0.5)
        elif d.num_darts and d.n <= 9:
            d = apply_r1_add(d, rng.randrange(d.num_darts), rng.randrange(4))
    return d


# the fillers of test_diagram's CLOSURE_FILLERS
LOOPY_FILLERS = tuple(
    reduce(p, q) for p, q in ((0, 1), (1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3))
)


def loopy_adder_outputs() -> dict[str, str]:
    """`outcome` of every adder on seeded open tangles that carry loops.

    Thirty `diagram_with_loops` draws, k = 4 and 6 in turn, each with
    one or two endpoint joins.  Per draw: two seeded R1 kinks, two
    seeded R2 pushes both over and under, and every R3 triangle; on
    k = 6 every cap, every boundary twist by +-1 and the x-arc closure;
    and every filler of `LOOPY_FILLERS` on each cap and each k = 4 draw.
    """
    rng = random.Random(21)
    out = {}
    for i in range(30):
        k = (4, 6)[i % 2]
        args = (rng.randrange(2**32), rng.randint(1, 6), k, rng.randint(1, 2))
        d = diagram_with_loops(*args, rng.randint(0, 2), rng.randint(0, 3))
        ops = {}
        for dart in rng.sample(range(d.num_darts), min(2, d.num_darts)):
            kind = rng.randrange(4)
            ops[f"r1_add {dart} {kind}"] = partial(apply_r1_add, d, dart, kind)
        pushes = r2_pushes(d)
        for d1, d2 in rng.sample(pushes, min(2, len(pushes))):
            for over_first in (True, False):
                push = partial(apply_r2_add, d, d1, d2, over_first)
                ops[f"r2_add {d1} {d2} {over_first}"] = push
        for tri in r3_triangles(d):
            ops[f"r3 {tri}"] = partial(apply_r3, d, tri)
        closable = {"": d} if k == 4 else {}
        if k == 6:
            for j in (1, 2, 3):
                ops[f"cap {j}"] = partial(cap, d, j)
                closable[f"cap {j} "] = cap(d, j)
                for m in (1, -1):
                    ops[f"twists {j} {m}"] = partial(add_boundary_twists, d, j, m)
            ops["xarcs"] = partial(close_with_x_arcs, d)
        for prefix, t in closable.items():
            for f in LOOPY_FILLERS:
                ops[f"{prefix}close {f}"] = partial(close_with, t, f)
        for name, op in ops.items():
            out[f"draw {i} {args} {name}"] = outcome(op)
    return out


LOOPY_DIAGRAMS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 6),
    k=st.sampled_from((0, 4, 6)),
    joins=st.integers(0, 2),
    free=st.integers(0, 2),
    moves=st.integers(0, 3),
)


def check_simplify_steps(d):
    """At every step of both `simplify` modes on `d`, the step's result
    validates and equals the public applier's and the Wiring oracle's."""
    for mode in ("rel_boundary", "free"):
        moves_tried = FLAT_MOVES if mode == "free" and d.k else FLAT_MOVES[:2]
        cur = d
        while True:
            for name, matches, step, apply, oracle in moves_tried:
                match = next(matches(cur), None)
                if match is not None:
                    got = step(cur, match)
                    assert got.validate() is got, (mode, name, match)
                    assert got == oracle(cur, match), (mode, name, match)
                    assert apply(cur, match) == got, (mode, name, match)
                    cur = got
                    break
            else:
                break
        assert simplify(d, mode) == cur


class TestFlatSplice:
    """The flat splice equals the Wiring appliers it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(**LOOPY_DIAGRAMS)
    def test_every_simplify_step_matches_wiring(self, seed, n, k, joins, free, moves):
        if k == 0:
            joins = max(joins, 1)
        check_simplify_steps(diagram_with_loops(seed, n, k, joins, free, moves))

    @pytest.mark.parametrize("loops", ["S A: 3,4\nS B: 1,2\n", "S B: 1,2\nS A: 3,4\n"])
    def test_circles_freed_in_splice_order(self, loops):
        # A lies over B at both crossings of their bigon; R2 frees B, then
        # A, whichever loop the diagram lists first
        d = parse_pd("tangle k=0 n=2\nX 1 3 2 4\nX 2 3 1 4\n" + loops)
        assert simplify(d).free_loops == ("B", "A")
        check_simplify_steps(d)

    @settings(max_examples=60, deadline=None)
    @given(**LOOPY_DIAGRAMS)
    def test_remove_string_matches_wiring(self, seed, n, k, joins, free, moves):
        d = diagram_with_loops(seed, n, k or 4, joins, free, moves)
        for label, _ in d.strings:
            assert remove_string(d, label) == wiring_remove_string(d, label)

    def test_sample_has_every_move_and_freed_circles(self):
        # the draws reach every move, loops and circles freed by a splice
        seen = Counter()
        rng = random.Random(23)
        for _ in range(300):
            d = diagram_with_loops(
                rng.randrange(2**32), rng.randint(0, 6), rng.choice((0, 4, 6)),
                rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 3),
            )
            seen["loops"] += bool(d.loops)
            for name, matches, step, _, _ in FLAT_MOVES:
                match = next(matches(d), None)
                if match is not None:
                    seen[name] += 1
                    seen["freed"] += len(step(d, match).free_loops) > len(d.free_loops)
        assert min(seen[key] for key in ("loops", "r1", "r2", "untwist", "pull", "freed")) > 0


class TestSimplifyValidatesOnce:
    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = TangleDiagram.validate

        def counted(self):
            calls.append(self)
            return validate(self)

        monkeypatch.setattr(TangleDiagram, "validate", counted)
        return calls

    @pytest.mark.parametrize("mode", ["rel_boundary", "free"])
    def test_once_when_moved_never_when_not(self, mode, validations):
        with open("tests/fixtures/loops_tangle.pd", encoding="utf-8") as fh:
            d = parse_pd(fh.read())
        validations.clear()
        small = simplify(d, mode)
        assert small.n < d.n
        assert len(validations) == 1 and validations[0] is small
        validations.clear()
        assert simplify(small, mode) is small
        assert validations == []
