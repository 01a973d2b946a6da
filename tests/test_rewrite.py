"""Reduction engine and Reidemeister-move invariance properties."""

import random
from collections import Counter
from functools import partial
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit._poly import LaurentPoly
from tanglekit.census import random_diagram
from tanglekit.diagram import (
    Wiring,
    add_boundary_twists,
    bracket_state_sum,
    cap,
    close_numerator,
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
from tanglekit.diagram.rewrite import (
    _finish,
    _transit,
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

R1_UP = LaurentPoly.monomial(3, -1)
R1_DOWN = LaurentPoly.monomial(-3, -1)


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
            return _finish(d, w, [])
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
        return _finish(d, w, [])

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
            br = bracket_state_sum(d)
            dart = rng.randrange(d.num_darts) if d.num_darts else None
            if dart is None:
                checked += 1
                continue
            kinked = apply_r1_add(d, dart, rng.randrange(4))
            br2 = bracket_state_sum(kinked)
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
