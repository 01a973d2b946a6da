"""Diagram engine: construction, closures, invariants, identification."""

import random
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from draws import random_diagram
from oracles import _shadow_split, evaluate_continued_fraction
from poly_helpers import LOOP_FACTOR, LaurentPoly, monomial, one, power, zero
from tanglekit.census import _has_weak_string, _strings_of
from tanglekit.diagram import (
    TangleDiagram,
    add_boundary_twists,
    apply_r1_add,
    apply_r2_add,
    bracket_skein,
    bracket_state_sum,
    cap,
    close_numerator,
    close_with,
    close_with_x_arcs,
    emit_pd,
    fingerprint,
    goeritz_determinant,
    horizontal_twists,
    identify_link,
    infinity_tangle,
    linking_matrix,
    linking_number,
    parse_pd,
    rational_tangle_diagram,
    recover_fraction,
    remove_string,
    simplify,
    trivial_tangle,
    vertical_twists,
    writhe,
    zero_tangle,
)
from tanglekit.diagram import identify, invariants
from tanglekit.diagram.build import continued_fraction
from tanglekit.diagram.core import compact, connect, pairing, strand_walk
from tanglekit.diagram.identify import LinkId, determinant
from tanglekit.diagram.invariants import _histogram_poly, bracket_pair, closure_determinants
from tanglekit.errors import BudgetExceeded, TangleError
from tanglekit.experiments import build_standard
from tanglekit.rational import TangleFraction, numerator_closure, reduce


class TestCore:
    def test_trivial_tangle_faces(self):
        d = trivial_tangle().validate()
        assert len(d.faces) == 5  # three lobes, centre, outer disk

    def test_components_and_labels(self):
        d = trivial_tangle()
        assert [c.label for c in d.components] == ["s12", "s23", "s31"]
        assert all(not c.closed for c in d.components)

    def test_mirror_involution(self):
        d = rational_tangle_diagram(reduce(3, 2))
        m = d.mirror().validate()
        assert m.mirror().canonical_code() == d.canonical_code()
        assert m.canonical_code() != d.canonical_code()

    def test_canonical_code_stable_under_relabel(self):
        d = rational_tangle_diagram(reduce(5, 2))
        # rotating every crossing by two slots preserves under/over
        remap = list(range(d.num_darts))
        for c in range(d.n):
            for s in range(4):
                remap[4 * c + s] = 4 * c + (s + 2) % 4
        alpha = [0] * d.num_darts
        for x, a in enumerate(d.alpha):
            alpha[remap[x]] = remap[a]
        d2 = TangleDiagram(d.n, d.k, tuple(alpha), d.strings)
        assert d2.canonical_code() == d.canonical_code()


    def test_canonical_code_separates_start_crossing(self):
        # two closed diagrams that differ in one pair of arcs and have
        # different brackets; coded from a crossing dart without its own
        # crossing, they used to get equal codes
        a = (9, 16, 22, 8, 23, 20, 7, 6, 3, 0, 11, 10, 18, 14, 13, 19, 1, 21, 12, 15, 5, 17, 2, 4)
        b = (9, 18, 22, 8, 23, 20, 7, 6, 3, 0, 11, 10, 16, 14, 13, 19, 12, 21, 1, 15, 5, 17, 2, 4)
        da, db = (
            TangleDiagram(6, 0, alpha, (), (("l", 0),), ("o",)).validate() for alpha in (a, b)
        )
        assert bracket_state_sum(da) != bracket_state_sum(db)
        assert da.canonical_code() != db.canonical_code()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.integers(0, 2**32 - 1))
    def test_closed_code_stable_under_relabel(self, seed, n, relabel):
        # renumber the crossings and turn each by two slots (or by any
        # number of slots for the shadow code)
        d = _random_closed_diagram(seed, n, "x_arcs", 1, 1)
        rng = random.Random(relabel)
        perm = list(range(d.n))
        rng.shuffle(perm)
        turns = [rng.randrange(4) for _ in range(d.n)]
        for shadow in (False, True):
            remap = [
                4 * perm[x // 4] + (x + (t if shadow else t - t % 2)) % 4
                for x in range(d.num_darts)
                for t in [turns[x // 4]]
            ]
            alpha = [0] * d.num_darts
            for x, y in enumerate(d.alpha):
                alpha[remap[x]] = remap[y]
            d2 = TangleDiagram(d.n, 0, tuple(alpha), (), (), d.free_loops)
            assert d2.canonical_code(shadow) == d.canonical_code(shadow)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 10),
        st.sampled_from([4, 6, 0]),
        st.integers(0, 2),
    )
    def test_faces_match_method_tracer(self, seed, n, k, free):
        if k:
            d = random_diagram(random.Random(seed), n, k=k)
            d = TangleDiagram(
                d.n, d.k, d.alpha, d.strings, (), tuple(f"f{i}" for i in range(free))
            )
        else:
            d = _random_closed_diagram(seed, n, "numerator", 2, free)
        assert d.faces == _method_faces(d)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 6),
        st.sampled_from([0, 4, 6]),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_pieces_match_dart_walk(self, seed, n, k, extra, free):
        # k = 4 draws are capped 3-string tangles, which have loops when a
        # cap joins a string to itself; closed pieces beside bring loops
        # and free loops of their own
        rng = random.Random(seed)
        if k == 6:
            d = random_diagram(rng, n, k=6)
        elif k == 4:
            d = cap(random_diagram(rng, n, k=6), rng.choice((1, 2, 3)))
        else:
            d = _random_closed_diagram(seed, n, rng.choice(["numerator", "x_arcs"]), 1, 0)
        d = TangleDiagram(
            d.n, d.k, d.alpha, d.strings, d.loops,
            d.free_loops + tuple(f"f{i}" for i in range(free)),
        )
        for _ in range(extra):
            closed = _random_closed_diagram(
                rng.randrange(2**32), rng.randint(0, 4), "x_arcs", 1, rng.randint(0, 1)
            )
            d = _beside(d, closed)
        d.validate()
        got, want = d._pieces(), _pieces_by_darts(d)
        assert sorted(map(sorted, got)) == sorted(map(sorted, want))
        if d.k:
            assert set(got[0]) == set(want[0]) >= set(range(4 * d.n, d.num_darts))


def _pieces_by_darts(d):
    """`_pieces` as first written, pushing darts rather than crossings;
    kept as an oracle."""
    n4 = 4 * d.n
    seen = bytearray(d.num_darts)
    starts = [list(range(n4, d.num_darts))] if d.k else []
    out = []
    for stack in starts + [[x] for x in range(n4)]:
        if seen[stack[0]]:
            continue
        piece = []
        while stack:
            x = stack.pop()
            if not seen[x]:
                seen[x] = 1
                piece.append(x)
                stack.append(d.alpha[x])
                if x < n4:
                    stack.extend(range(x & ~3, (x | 3) + 1))
        out.append(piece)
    return out


def _beside(d, c):
    """`d` with the closed diagram `c` drawn beside it, as more pieces.

    `c`'s crossings follow `d`'s, and `c`'s component labels get a "b"
    prefix.
    """
    n4, shift = 4 * d.n, 4 * c.n

    def move(x):
        return x if x < n4 else x + shift

    return TangleDiagram(
        d.n + c.n,
        d.k,
        tuple(move(x) for x in d.alpha[:n4])
        + tuple(x + n4 for x in c.alpha)
        + tuple(move(x) for x in d.alpha[n4:]),
        d.strings,
        tuple((lab, move(x)) for lab, x in d.loops)
        + tuple((f"b{lab}", x + n4) for lab, x in c.loops),
        d.free_loops + tuple(f"b{lab}" for lab in c.free_loops),
    )


def _method_faces(d):
    """Faces traced through per-dart sigma and alpha functions on the
    augmented map, as first written; kept as an oracle for `faces`."""
    nd = d.num_darts

    def aug_alpha(x):
        if x < nd:
            return d.alpha[x]
        j, kind = divmod(x - nd, 2)
        if kind == 0:  # gap-right at j pairs with gap-left at j+1
            return nd + 2 * ((j + 1) % d.k) + 1
        return nd + 2 * ((j - 1) % d.k)

    def aug_sigma(x):
        if x < 4 * d.n:
            return (x - x % 4) + (x % 4 + 1) % 4
        if x < nd:  # endpoint strand dart -> gap-left
            return nd + 2 * (x - 4 * d.n) + 1
        j, kind = divmod(x - nd, 2)
        return nd + 2 * j if kind == 1 else d.ep_dart(j)

    seen = set()
    out = []
    for start in range(nd + 2 * d.k):
        if start in seen:
            continue
        face = []
        x = start
        while x not in seen:
            seen.add(x)
            face.append(x)
            x = aug_sigma(aug_alpha(x))
        out.append(tuple(face))
    return tuple(out)


class TestContinuedFraction:
    @pytest.mark.parametrize(
        "p,q", [(1, 3), (7, 3), (-1, 4), (5, 2), (-9, 7), (4, 1), (-3, 1), (0, 1)]
    )
    def test_terms_evaluate_back(self, p, q):
        fr = reduce(p, q)
        terms = continued_fraction(fr)
        assert len(terms) % 2 == 1
        assert evaluate_continued_fraction(terms) == fr

    def test_diagram_crossing_count(self):
        d = rational_tangle_diagram(reduce(7, 3))
        assert d.n == sum(abs(t) for t in continued_fraction(reduce(7, 3)))


class TestBracket:
    def test_unknot(self):
        d = close_numerator(horizontal_twists(zero_tangle(), 1))
        s = simplify(d, "free")
        assert s.n == 0
        assert bracket_state_sum(s) == one().key()

    def test_hopf_value(self):
        h = close_numerator(horizontal_twists(zero_tangle(), 2))
        assert bracket_state_sum(h) == LaurentPoly({4: -1, -4: -1}).key()

    def test_implementations_agree_up_to_eight(self):
        rng = random.Random(20240817)
        for _ in range(40):
            n = rng.randint(0, 8)
            t = random_diagram(rng, n, k=4)
            d = close_numerator(t)
            assert bracket_state_sum(d) == bracket_skein(d)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("TANGLEKIT_BUDGET", "3")
        d = close_numerator(horizontal_twists(zero_tangle(), 5))
        with pytest.raises(BudgetExceeded):
            bracket_state_sum(d)
        with pytest.raises(BudgetExceeded):
            bracket_skein(d)

    def test_open_diagram_rejected(self):
        with pytest.raises(TangleError):
            bracket_state_sum(zero_tangle())

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 10),
        st.sampled_from(["numerator", "denominator", "x_arcs"]),
        st.integers(0, 3),
        st.integers(0, 2),
    )
    # closures with smoothings that share a canonical_code but not a bracket
    @example(3, 8, "numerator", 0, 0)
    @example(3, 8, "x_arcs", 0, 0)
    def test_contraction_matches_state_sum(self, seed, n, closure, moves, free):
        d = _random_closed_diagram(seed, n, closure, moves, free)
        assert bracket_skein(d) == bracket_state_sum(d)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 10),
        st.sampled_from(["numerator", "denominator", "x_arcs"]),
        st.integers(0, 4),
        st.integers(0, 2),
    )
    # random tangles stop at 10 crossings (past that `random_diagram` can
    # fall back to a long backtracking search); R1/R2 moves reach 12
    @example(3, 10, "numerator", 4, 0)
    @example(3, 10, "x_arcs", 4, 1)
    def test_state_sum_matches_walk_oracle(self, seed, n, closure, moves, free):
        d = _random_closed_diagram(seed, n, closure, moves, free, cap=12)
        assert bracket_state_sum(d) == _walk_state_sum(d)

    def test_state_sum_refuses_a_non_planar_map(self):
        # the rotation system of tests/fixtures/genus1.pd, built without
        # validate: re-smoothing its crossing keeps one loop, which no
        # planar map allows, so the incremental loop count has no footing
        d = TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1)))
        assert _walk_state_sum(d) == LaurentPoly({1: 1, -1: 1}).key()
        with pytest.raises(TangleError, match="not planar"):
            bracket_state_sum(d)

    def test_state_sum_matches_union_find_oracle(self):
        rng = random.Random(20261018)
        for _ in range(60):
            d = _random_closed_diagram(
                rng.getrandbits(32),
                rng.randint(0, 10),
                rng.choice(["numerator", "denominator", "x_arcs"]),
                rng.randint(0, 3),
                rng.randint(0, 2),
            )
            assert bracket_state_sum(d) == _union_find_state_sum(d)

    def test_table_references_match_union_find_oracle(self):
        refs = [
            TangleDiagram(0, 0, (), (), (), ("o",)),
            TangleDiagram(0, 0, (), (), (), ("o1", "o2")),
        ]
        for P in range(2, 11):
            for q in range(1, P):
                if gcd(P, q) == 1:
                    for sign in (1, -1):
                        refs.append(
                            close_numerator(rational_tangle_diagram(reduce(sign * P, q)))
                        )
        assert len(refs) == 64
        for d in refs:
            want = _union_find_state_sum(d)
            assert bracket_state_sum(d) == want
            assert bracket_skein(d) == want


def _inflate(rng, d, moves, cap):
    """d after `moves` random R1/R2 moves, each made while it fits in `cap`
    crossings; R2 pushes pick two strand edges on a common face."""
    for _ in range(moves):
        edges = [
            pair
            for face in d.faces
            for pair in zip(face, face[1:])
            if max(pair) < d.num_darts and d.alpha[pair[0]] != pair[1]
        ]
        if d.n + 2 <= cap and edges and rng.random() < 0.5:
            d1, d2 = edges[rng.randrange(len(edges))]
            d = apply_r2_add(d, d1, d2, over_first=rng.random() < 0.5)
        elif d.num_darts and d.n + 1 <= cap:
            d = apply_r1_add(d, rng.randrange(d.num_darts), rng.randrange(4))
    return d


def _random_closed_diagram(seed, n, closure, moves, free, cap=10):
    """A random closed diagram with at most `cap` crossings.

    A random tangle with n crossings is closed by the 0/1 or 1/0 filler
    (1 or 2 components) or along its x-arcs (3 components), inflated by
    `moves` random R1/R2 moves while they fit, and given `free` extra
    crossing-free loops.
    """
    rng = random.Random(seed)
    if closure == "x_arcs":
        d = close_with_x_arcs(random_diagram(rng, n, k=6))
    else:
        filler = TangleFraction(0, 1) if closure == "numerator" else TangleFraction(1, 0)
        d = close_with(random_diagram(rng, n, k=4), filler)
    d = _inflate(rng, d, moves, cap)
    return TangleDiagram(
        d.n, 0, d.alpha, (), d.loops, d.free_loops + tuple(f"f{i}" for i in range(free))
    )


def _walk_state_sum(d):
    """The 2^n state sum in Gray-code order, counting each state's loops by
    walking every dart, as the bracket was written before its loop count
    became incremental; kept as an oracle."""
    return _histogram_poly(_walk_histogram(d))


def _walk_histogram(d):
    """{(A-exponent, loops): number of states} over all 2^n states."""
    n = d.n
    nd = 4 * n
    alpha = d.alpha
    partner = [x ^ 1 for x in range(nd)]  # all-A state
    a_count = n
    hist = {}
    for i in range(1 << n):
        if i:
            base = 4 * ((i & -i).bit_length() - 1)
            if partner[base] == base + 1:
                partner[base : base + 4] = (base + 3, base + 2, base + 1, base)
                a_count -= 1
            else:
                partner[base : base + 4] = (base + 1, base, base + 3, base + 2)
                a_count += 1
        seen = bytearray(nd)
        loops = len(d.free_loops)
        for start in range(nd):
            if seen[start]:
                continue
            loops += 1
            x = start
            while True:
                seen[x] = 1
                y = alpha[x]
                seen[y] = 1
                x = partner[y]
                if x == start:
                    break
        key = (2 * a_count - n, loops)
        hist[key] = hist.get(key, 0) + 1
    return hist


def _union_find_state_sum(d):
    """The 2^n state sum with a union-find per state and one polynomial per
    state, as the bracket was first written; kept as an oracle.  Returns
    the terms, as the brackets do."""
    n = d.n
    if n == 0:
        loops = len(d.loops) + len(d.free_loops)
        return (power(LOOP_FACTOR, loops - 1) if loops else one()).key()
    total = zero()
    nd = d.num_darts
    alpha = d.alpha
    for state in range(1 << n):
        parent = list(range(nd))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
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
        term = monomial(a_count - (n - a_count))
        total = total + term * power(LOOP_FACTOR, loops - 1)
    return total.key()


def _read_fixture(name):
    with open(f"tests/fixtures/{name}.pd", encoding="utf-8") as fh:
        return parse_pd(fh.read())


class TestGoeritzDeterminant:
    """The production cross-check equals the determinant of the bracket
    from the 2^n state sum."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 10),
        st.sampled_from(["numerator", "denominator", "x_arcs"]),
        st.integers(0, 3),
        st.integers(0, 2),
    )
    def test_matches_state_sum_determinant(self, seed, n, closure, moves, free):
        d = _random_closed_diagram(seed, n, closure, moves, free)
        assert goeritz_determinant(d) == determinant(_oracle_fingerprint(d))

    @pytest.mark.parametrize(
        "name,det",
        [
            ("torus14", 14),
            ("figure_eight", 5),
            ("closure_7_3_inflated", 7),
            ("closure_13_5_inflated", 13),
        ],
    )
    def test_fixtures(self, name, det):
        d = _read_fixture(name)
        assert goeritz_determinant(d) == det == determinant(_oracle_fingerprint(d))

    def test_crossing_free_references(self):
        assert goeritz_determinant(TangleDiagram(0, 0, (), (), (), ("o",))) == 1
        assert goeritz_determinant(TangleDiagram(0, 0, (), (), (), ("o1", "o2"))) == 0
        assert goeritz_determinant(TangleDiagram(0, 0, (), (), (), ("o1", "o2", "o3"))) == 0

    def test_split_diagrams(self):
        trefoil = close_numerator(rational_tangle_diagram(reduce(3, 1)))
        assert goeritz_determinant(trefoil) == 3
        with_loop = TangleDiagram(
            trefoil.n, 0, trefoil.alpha, (), trefoil.loops, trefoil.free_loops + ("f",)
        )
        assert goeritz_determinant(with_loop) == 0
        two = _beside(trefoil, trefoil).validate()
        assert goeritz_determinant(two) == 0 == determinant(_oracle_fingerprint(two))

    def test_refuses_a_non_planar_map(self):
        d = TangleDiagram(1, 0, (2, 3, 0, 1), (), (("a", 0), ("b", 1)))
        with pytest.raises(TangleError, match="not planar"):
            goeritz_determinant(d)


def _corrupt_top_term(br, fn):
    """br with its highest term c*A^e replaced by the term fn(e, c)."""
    terms = dict(br.key())
    e = max(terms)
    c = terms.pop(e)
    return LaurentPoly(terms) + monomial(*fn(e, c))


def _drop_state(d, br, loops):
    """br without the term A^e delta^(loops - 1) of one state with `loops` loops."""
    e = max(e for e, m in _walk_histogram(d) if m == loops)
    return br - monomial(e) * power(LOOP_FACTOR, loops - 1)


_CORRUPTIONS = {
    # caught: the value at A = e^{i pi/4} leaves the axis or changes size
    "drop_one_loop_state": (True, lambda d, br: _drop_state(d, br, 1)),
    "shift_exponent_by_1": (True, lambda d, br: _corrupt_top_term(br, lambda e, c: (e + 1, c))),
    "shift_exponent_by_4": (True, lambda d, br: _corrupt_top_term(br, lambda e, c: (e + 4, c))),
    "negate_coefficient": (True, lambda d, br: _corrupt_top_term(br, lambda e, c: (e, -c))),
    # not caught: delta, A^8 - 1 and A -> A^-1 keep |<D>| at A = e^{i pi/4}
    "drop_two_loop_state": (False, lambda d, br: _drop_state(d, br, 2)),
    "shift_exponent_by_8": (False, lambda d, br: _corrupt_top_term(br, lambda e, c: (e + 8, c))),
    "mirror": (False, lambda d, br: LaurentPoly({-e: c for e, c in br.key()})),
}


class TestDeterminantCrossCheck:
    """Corrupt `bracket_skein` and see which corruptions `fingerprint`'s
    Goeritz cross-check refuses.  The two brackets used to have to agree as
    whole polynomials; now they agree only at A = e^{i pi/4}, so the
    corruptions listed as not caught pass it and change the fingerprint."""

    @pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
    def test_corrupted_contraction(self, monkeypatch, name):
        caught, corrupt = _CORRUPTIONS[name]
        d = close_numerator(rational_tangle_diagram(reduce(7, 3)))  # chiral, det 7
        want = fingerprint(d)
        real = invariants.bracket_skein

        def corrupted(diagram):
            return corrupt(diagram, LaurentPoly(real(diagram))).key()

        monkeypatch.setattr(invariants, "bracket_skein", corrupted)
        assert corrupted(d) != real(d)
        if caught:
            with pytest.raises(TangleError):
                fingerprint(d)
        else:
            assert fingerprint(d) != want


class TestIdentify:
    def test_single_kink_unknot(self):
        d = close_numerator(horizontal_twists(zero_tangle(), 1))
        assert identify_link(d).kind == "unknot"

    def test_trefoil_products(self):
        o = rational_tangle_diagram(reduce(-1, 4))
        lid = identify_link(close_with(o, reduce(1, 1)))
        assert lid.kind == "torus2" and lid.torus == 3

    def test_five_torus_product(self):
        o = rational_tangle_diagram(reduce(-1, 4))
        lid = identify_link(close_with(o, reduce(1, -1)))
        assert lid.kind == "torus2" and lid.torus == 5

    def test_figure_eight_is_plain_two_bridge(self):
        d = close_numerator(rational_tangle_diagram(reduce(5, 2)))
        lid = identify_link(d)
        assert lid.kind == "two_bridge"
        assert (lid.two_bridge.p, lid.two_bridge.q) == (5, 2)

    def test_unknown_out_of_table(self):
        # b(11,3) exceeds the p <= 10 identification table
        d = close_numerator(rational_tangle_diagram(reduce(11, 3)))
        lid = identify_link(d)
        assert lid.kind == "unknown"
        assert lid.components == 1

    @pytest.mark.parametrize("p", range(2, 8))
    def test_torus_chirality(self, p):
        right = close_numerator(rational_tangle_diagram(reduce(p, 1)))
        lid = identify_link(right)
        assert lid.kind == "torus2"
        if p == 2:
            assert abs(lid.torus) == 2  # amphichiral Hopf
        else:
            assert lid.torus == p


def _global_table_oracle():
    """The fingerprint table as one global build with one collision check,
    as it was before the table was kept in classes by determinant."""
    table = {}
    collided = set()

    def add(fp, lid):
        prior = table.get(fp)
        if prior is None:
            if fp not in collided:
                table[fp] = lid
            return
        if prior != lid:
            del table[fp]
            collided.add(fp)

    add(fingerprint(TangleDiagram(0, 0, (), (), (), ("o",))), LinkId("unknot"))
    add(fingerprint(TangleDiagram(0, 0, (), (), (), ("o1", "o2"))), LinkId("unlink2", components=2))
    for P in range(2, identify.MAX_TABLE_P + 1):
        for q in range(1, P):
            if gcd(P, q) != 1:
                continue
            for sign in (1, -1):
                fr = reduce(sign * P, q)
                diag = close_numerator(rational_tangle_diagram(fr))
                add(fingerprint(diag), LinkId.from_two_bridge(numerator_closure(fr)))
    return table


def _arithmetic_det(lid):
    """det of a table entry from its 2-bridge class, not from its bracket."""
    if lid.kind == "unlink2":
        return 0
    if lid.kind == "unknot":
        return 1
    return lid.two_bridge.p


class TestDeterminantClasses:
    def test_classes_equal_the_global_table(self):
        oracle = _global_table_oracle()
        assert len(oracle) == 27
        for det in range(13):
            want = {fp: lid for fp, lid in oracle.items() if _arithmetic_det(lid) == det}
            assert identify._class_table(det) == want
        assert identify._fingerprint_table() == oracle

    def test_determinant_of_two_bridge_closures(self):
        checked = 0
        for P in range(2, 41):
            for q in range(1, P):
                if gcd(P, q) != 1:
                    continue
                for sign in (1, -1):
                    d = close_numerator(rational_tangle_diagram(reduce(sign * P, q)))
                    if d.n > 12:
                        continue
                    assert determinant(fingerprint(d)) == P
                    checked += 1
        assert checked == 685  # 359 fractions P/q and 326 mirrors -P/q fit in 12 crossings

    def test_determinant_of_unlink_and_unknot(self):
        assert determinant(fingerprint(TangleDiagram(0, 0, (), (), (), ("o1", "o2")))) == 0
        assert determinant(fingerprint(TangleDiagram(0, 0, (), (), (), ("o",)))) == 1

    def test_determinant_refuses_a_value_off_one_coordinate(self):
        # 1 + A at A = e^{i pi/4} is not a unit times an integer
        with pytest.raises(TangleError):
            determinant((1, (((0, 1), (1, 1)),)))

    def _count_references(self, monkeypatch):
        built = []
        real = identify.rational_tangle_diagram

        def counting(fr):
            built.append(abs(fr.p))
            return real(fr)

        identify._class_table.cache_clear()
        monkeypatch.setattr(identify, "rational_tangle_diagram", counting)
        return built

    def test_identify_builds_only_its_class(self, monkeypatch):
        d = close_numerator(rational_tangle_diagram(reduce(7, 3)))
        built = self._count_references(monkeypatch)
        lid = identify_link(d)
        assert (lid.kind, lid.two_bridge.p) == ("two_bridge", 7)
        assert built == [7] * 4  # one reference per Schubert class: q = 1, 2, 3, 6

    def test_table_is_built_from_one_reference_per_class(self, monkeypatch):
        fingerprinted = self._count_fingerprints(monkeypatch)
        identify._fingerprint_table.cache_clear()
        assert len(identify._fingerprint_table()) == 27
        assert len(fingerprinted) == 27

    def test_identify_past_the_table_builds_nothing(self, monkeypatch):
        d = _read_fixture("torus14")
        built = self._count_references(monkeypatch)
        assert identify_link(d).kind == "unknown"
        assert built == []

    def _count_fingerprints(self, monkeypatch):
        fingerprinted = []
        real = identify.fingerprint

        def counting(d, det=None):
            fingerprinted.append(d)
            return real(d, det)

        identify._class_table.cache_clear()
        identify._closure_fingerprints.cache_clear()
        monkeypatch.setattr(identify, "fingerprint", counting)
        return fingerprinted

    def test_identify_off_table_computes_no_bracket(self, monkeypatch):
        d = _read_fixture("closure_13_5_inflated")
        assert simplify(d, "free").n > 0
        fingerprinted = self._count_fingerprints(monkeypatch)
        lid = identify_link(d)
        assert (lid.kind, lid.components) == ("unknown", 1)
        assert fingerprinted == []

    def test_identify_in_table_fingerprints_the_query_once(self, monkeypatch):
        d = _read_fixture("closure_7_3_inflated")
        fingerprinted = self._count_fingerprints(monkeypatch)
        determined = []
        real = invariants.goeritz_determinant

        def counting(diagram):
            determined.append(diagram)
            return real(diagram)

        monkeypatch.setattr(identify, "goeritz_determinant", counting)
        monkeypatch.setattr(invariants, "goeritz_determinant", counting)
        assert identify_link(d).two_bridge.p == 7
        assert len(fingerprinted) == 1 + 4  # the query and one reference per Schubert class
        # one Goeritz determinant per diagram: the query's is passed on to its fingerprint
        assert len(determined) == len({id(x) for x in determined}) == 1 + 4

    def test_recover_past_the_bound_computes_no_bracket(self, monkeypatch):
        fingerprinted = self._count_fingerprints(monkeypatch)
        with pytest.raises(TangleError) as err:
            recover_fraction(rational_tangle_diagram(reduce(13, 5)))
        assert str(err.value) == "tangle does not match any p/q with |p|,|q| <= 8"
        assert fingerprinted == []

    def test_budget_checked_before_the_determinant(self, monkeypatch):
        d = _read_fixture("torus14")
        monkeypatch.setenv("TANGLEKIT_BUDGET", "13")
        monkeypatch.setattr(identify, "goeritz_determinant", None)  # never reached
        with pytest.raises(BudgetExceeded, match="14 crossings exceeds the bracket budget 13"):
            identify_link(d)


class TestFractionDiagramConsistency:
    def test_grid(self):
        """Diagram-level N-closure identification equals the arithmetic
        2-bridge canonical form for all reduced |p|,|q| <= 5."""
        fps = {}

        def class_fp(tb):
            return fps.setdefault(tb, [])

        for q in range(0, 6):
            for p in range(-5, 6):
                if (p, q) == (0, 0) or (q == 0 and p != 1):
                    continue
                if q > 0 and p != 0 and gcd(abs(p), q) != 1:
                    continue
                if p == 0 and q != 1:
                    continue
                fr = TangleFraction(p, q)
                fp = fingerprint(close_numerator(rational_tangle_diagram(fr)))
                class_fp(numerator_closure(fr)).append(fp)
        for tb, group in fps.items():
            assert len(set(group)) == 1, f"class {tb} split into several fingerprints"
        all_fps = {group[0] for group in fps.values()}
        assert len(all_fps) == len(fps), "distinct classes share a fingerprint"


    def test_rational_tangles_pinned(self):
        with open("tests/fixtures/rational_tangles.txt", encoding="utf-8") as fh:
            records = fh.read().split("## ")[1:]
        pinned = dict(record.split("\n", 1) for record in records)
        fracs = [TangleFraction(1, 0), TangleFraction(0, 1)]
        fracs += [
            TangleFraction(p, q)
            for q in range(1, 9)
            for p in range(-8, 9)
            if p and gcd(abs(p), q) == 1
        ]
        assert {str(fr): emit_pd(rational_tangle_diagram(fr)) for fr in fracs} == pinned


def _oracle_sign(d, c, flipped=frozenset()):
    """Sign of crossing c with the components in `flipped` reversed, one
    crossing at a time, as the sign rule was first written; kept as an
    oracle for `invariants._signed_pairs`."""
    orient = d.orientation
    comp = d.component_of_dart

    def entry_slot(s0, s1):
        d0 = 4 * c + s0
        incoming = not orient[d0]
        if comp[d0] in flipped:
            incoming = not incoming
        return s0 if incoming else s1

    return 1 if (entry_slot(0, 2) - entry_slot(1, 3)) % 4 == 1 else -1


def _oracle_linking_matrix(d):
    comp = d.component_of_dart
    out = {}
    for la, lb in combinations(sorted(c.label for c in d.components), 2):
        pair = {d.components.index(d.component_by_label(lab)) for lab in (la, lb)}
        total = sum(
            _oracle_sign(d, c) for c in range(d.n) if {comp[4 * c], comp[4 * c + 1]} == pair
        )
        assert total % 2 == 0
        out[(la, lb)] = total // 2
    return out


def _both_brackets(d):
    """<D> from the state sum, insisting that the contraction agrees."""
    br = bracket_state_sum(d)
    assert bracket_skein(d) == br
    return br


def _oracle_fingerprint(d):
    """The normalized bracket over every orientation choice, each writhe
    summed crossing by crossing, from both bracket implementations."""
    br = _both_brackets(d)
    others = range(1, len(d.components))
    polys = set()
    for r in range(len(others) + 1):
        for flipped in combinations(others, r):
            w = sum(_oracle_sign(d, c, set(flipped)) for c in range(d.n))
            norm = monomial(-3 * w, -1 if w % 2 else 1)  # (-A^3)^{-w}
            polys.add((LaurentPoly(br) * norm).key())
    return (len(d.components), tuple(sorted(polys)))


def _check_strand_facts(d):
    """`crossing_strands` and the string ends against lookups on the darts."""
    owner = {}
    for i, comp in enumerate(d.components):
        for x in comp.out_darts:
            owner[x] = owner[d.alpha[x]] = i
    assert d.crossing_strands == tuple((owner[4 * c], owner[4 * c + 1]) for c in range(d.n))
    for comp in d.components:
        if comp.closed:
            assert comp.start_ep is None and comp.end_ep is None
        else:
            assert comp.out_darts[0] == d.ep_dart(comp.start_ep)
            assert d.alpha[comp.out_darts[-1]] == d.ep_dart(comp.end_ep)


class TestStrandFacts:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 10),
        st.sampled_from(["numerator", "denominator", "x_arcs"]),
        st.integers(0, 3),
        st.integers(0, 2),
    )
    def test_sign_rule_matches_per_crossing_oracle(self, seed, n, closure, moves, free):
        d = _random_closed_diagram(seed, n, closure, moves, free)
        _check_strand_facts(d)
        assert writhe(d) == sum(_oracle_sign(d, c) for c in range(d.n))
        assert linking_matrix(d) == _oracle_linking_matrix(d)
        assert fingerprint(d) == _oracle_fingerprint(d)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 8),
        st.sampled_from([2, 4, 6]),
        st.integers(0, 2),
    )
    def test_string_ends_match_darts(self, seed, n, k, kinks):
        rng = random.Random(seed)
        d = random_diagram(rng, n, k=k)
        for _ in range(kinks):
            d = apply_r1_add(d, rng.randrange(d.num_darts), rng.randrange(4))
        _check_strand_facts(d)
        ends = sorted(e for c in d.components for e in (c.start_ep, c.end_ep))
        assert ends == list(range(d.k))


def _strand_facts_match_old_walk(d):
    """The strand facts of `d` against the walk they replaced: equal, or
    both refused with one message."""
    try:
        want = oracles.strand_facts(d)
    except TangleError as exc:
        with pytest.raises(TangleError) as got:
            d.components
        assert str(got.value) == str(exc)
        return False
    facts = (d.components, d.component_of_dart, d.orientation, d.crossing_strands, d.face_of_dart)
    assert facts == want
    return True


class TestStrandWalk:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.sampled_from([2, 4, 6]))
    def test_random_tangles_match_old_walk(self, seed, n, k):
        assert _strand_facts_match_old_walk(random_diagram(random.Random(seed), n, k=k))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 8),
        st.sampled_from(["numerator", "denominator", "x_arcs"]),
        st.integers(0, 3),
        st.integers(0, 2),
    )
    def test_closures_with_loops_match_old_walk(self, seed, n, closure, moves, free):
        d = _random_closed_diagram(seed, n, closure, moves, free)
        assert _strand_facts_match_old_walk(d)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(3) for k in (2, 4, 6) if 4 * n + k <= 12]
    )
    def test_every_small_matching_matches_old_walk(self, n, k):
        """Every matching of n <= 2 crossings and k endpoints, declared
        with the strings the census gives it: a matching with a closed
        loop is refused for the darts the strings leave uncovered.  With
        six endpoints, the census's shadow test refuses the same
        matchings and otherwise agrees with `_has_weak_string`."""
        refused = 0
        for alpha in oracles.all_matchings(4 * n + k):
            owner = strand_walk(alpha, 4 * n, range(4 * n, 4 * n + k))[0]
            assert (None if -1 in owner else owner) == oracles.strand_map(alpha, n, k)
            d = TangleDiagram(n, k, alpha, _strings_of(alpha, n, k))
            matched = _strand_facts_match_old_walk(d)
            refused += not matched
            if k == 6 and matched:
                assert _shadow_split(alpha, n) == _has_weak_string(d)
            elif k == 6:
                with pytest.raises(TangleError, match="^shadow has a closed loop$"):
                    _shadow_split(alpha, n)
        assert refused > 0 or n == 0

    @pytest.mark.parametrize("dup", [1, 0])
    def test_a_string_declared_twice_is_refused(self, dup):
        """A start on a strand walked before it names no new component, so
        the diagram is refused instead of counting that strand twice: at
        the far end of string s12, or at its own first endpoint."""
        strings = (("s12", 0), ("s23", 2), ("s31", 4), ("dup", dup))
        d = TangleDiagram(0, 6, (1, 0, 3, 2, 5, 4), strings)
        with pytest.raises(TangleError, match="^string 'dup' runs along a strand declared before"):
            d.validate()

    @pytest.mark.parametrize("anchor", [0, 5])
    def test_a_loop_declared_twice_is_refused(self, anchor):
        """A second anchor on loop u, either way round, is refused too."""
        d = close_with(rational_tangle_diagram(TangleFraction(2, 1)), TangleFraction(0, 1))
        assert d.loops == (("u", 0), ("w", 6)) and d.alpha[0] == 5
        twice = TangleDiagram(d.n, d.k, d.alpha, d.strings, d.loops + (("again", anchor),))
        with pytest.raises(TangleError, match="^loop 'again' runs along a strand declared before"):
            twice.validate()


class TestRecoverFraction:
    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 2), (-1, 4), (7, 3), (-5, 3)])
    def test_round_trip(self, p, q):
        fr = TangleFraction(p, q)
        assert recover_fraction(rational_tangle_diagram(fr)) == fr

    def test_twist_oracle_for_add_integral(self):
        d = horizontal_twists(rational_tangle_diagram(reduce(1, 3)), 2)
        assert recover_fraction(d) == reduce(7, 3)

    def test_twist_oracle_for_add_vertical(self):
        d = vertical_twists(rational_tangle_diagram(reduce(-1, 2)), -1)
        assert recover_fraction(d) == reduce(-1, 3)


_PROBE_FILLERS = (TangleFraction(0, 1), TangleFraction(1, 0), TangleFraction(1, 1))


def _grid_probes(d):
    return tuple(fingerprint(close_with(d, f)) for f in _PROBE_FILLERS)


_GRID = [(1, 0), (0, 1)] + [
    (p, q) for q in range(1, 9) for p in range(-8, 9) if p != 0 and gcd(abs(p), q) == 1
]
_GRID_REFERENCES = {}


def _grid_recover(d):
    """`recover_fraction` as it was: the closure probes compared against the
    reference of every reduced |p|,|q| <= 8."""
    if d.k != 4:
        raise TangleError("fraction recovery needs a 2-string tangle")
    probes = _grid_probes(simplify(d, "rel_boundary"))
    if not _GRID_REFERENCES:
        for p, q in _GRID:
            _GRID_REFERENCES[p, q] = _grid_probes(rational_tangle_diagram(TangleFraction(p, q)))
    matches = [TangleFraction(p, q) for p, q in _GRID if _GRID_REFERENCES[p, q] == probes]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise TangleError("tangle does not match any p/q with |p|,|q| <= 8")
    raise TangleError(f"ambiguous fraction recovery: {matches}")


def _outcome(recover, d):
    try:
        return recover(d)
    except TangleError as e:
        return type(e), str(e)


class TestRecoverFractionOracle:
    """`recover_fraction` names its one candidate by closure determinants;
    the grid scan it replaced is the oracle."""

    def _agree(self, d):
        want = _outcome(_grid_recover, d)
        assert _outcome(recover_fraction, d) == want
        return want

    def test_grid_closure_determinants(self):
        triples = set()
        for p, q in _GRID:
            d = rational_tangle_diagram(TangleFraction(p, q))
            triple = tuple(determinant(fp) for fp in _grid_probes(d))
            assert triple == (abs(p), q, abs(p + q))
            triples.add(triple)
        assert len(_GRID) == len(triples) == 88

    def test_grid_plain_and_inflated(self):
        rng = random.Random(13)
        for p, q in _GRID:
            fr = TangleFraction(p, q)
            d = rational_tangle_diagram(fr)
            assert self._agree(d) == fr
            assert self._agree(_inflate(rng, d, 3, 12)) == fr

    def test_past_the_grid_same_refusal(self):
        refused = 0
        for q in range(1, 14):
            for p in range(-13, 14):
                if max(abs(p), q) > 8 and gcd(abs(p), q) == 1:
                    assert isinstance(self._agree(rational_tangle_diagram(reduce(p, q))), tuple)
                    refused += 1
        assert refused == 144

    def test_caps_and_removals_of_standard_tangles(self):
        for n1, n2, n3 in product(range(-3, 4), repeat=3):
            t = build_standard(n1, n2, n3)
            for i, label in zip((1, 2, 3), ("s12", "s23", "s31")):
                self._agree(cap(t, i))
                self._agree(remove_string(t, label))

    def test_random_two_string_tangles(self):
        rng = random.Random(2026)
        for _ in range(300):
            self._agree(random_diagram(rng, rng.randint(0, 8), k=4))


def _closure_brackets(f, g):
    """<N(T + F)> for F = 0/1, 1/0, 1/1 from T's bracket pair, by the skein
    relations `closure_determinants` states: delta f + g, f + delta g, and
    A times the first plus A^-1 times the second; their terms."""
    f, g = LaurentPoly(f), LaurentPoly(g)
    zero_closure = LOOP_FACTOR * f + g
    inf_closure = f + LOOP_FACTOR * g
    one_closure = monomial(1) * zero_closure + monomial(-1) * inf_closure
    return zero_closure.key(), inf_closure.key(), one_closure.key()


_GRID_CERTIFICATES = {}


def _grid_certificate_match(d, dets):
    """The (p, q) of the grid reference whose pair certificate d has, or None."""
    if not _GRID_CERTIFICATES:
        for p, q in _GRID:
            _GRID_CERTIFICATES[identify._closure_fingerprints(p, q)] = (p, q)
    return _GRID_CERTIFICATES.get(identify._certificate(d, dets))


class TestBracketPair:
    """The tangle's bracket pair against the closures it replaces: their
    brackets by both implementations, and their fingerprints."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10))
    @example(1, 10)
    def test_pair_matches_closures(self, seed, n):
        t = random_diagram(random.Random(seed), n, k=4)
        f, g = bracket_pair(t)
        closures = [close_with(t, filler) for filler in _PROBE_FILLERS]
        brackets = _closure_brackets(f, g)
        assert brackets == tuple(bracket_skein(c) for c in closures)
        if n <= 8:
            assert brackets == tuple(bracket_state_sum(c) for c in closures)
        dets = tuple(goeritz_determinant(c) for c in closures)
        assert closure_determinants(f, g) == dets
        match = _grid_certificate_match(t, dets)
        if match is not None:
            reference = rational_tangle_diagram(TangleFraction(*match))
            assert _grid_probes(t) == _grid_probes(reference)

    def test_crossing_free_tangles(self):
        f, g = bracket_pair(zero_tangle())
        assert (f, g) == (one().key(), zero().key())
        f, g = bracket_pair(infinity_tangle())
        assert (f, g) == (zero().key(), one().key())

    def test_free_loop_is_a_factor_delta(self):
        d = rational_tangle_diagram(reduce(3, 2))
        looped = TangleDiagram(d.n, d.k, d.alpha, d.strings, d.loops, ("o",))
        assert bracket_pair(looped) == tuple(
            (LOOP_FACTOR * LaurentPoly(x)).key() for x in bracket_pair(d)
        )

    def test_pair_needs_a_two_string_tangle(self):
        with pytest.raises(TangleError, match="2-string tangle"):
            bracket_pair(trivial_tangle())
        with pytest.raises(TangleError, match="2-string tangle"):
            bracket_pair(close_numerator(zero_tangle()))

    def test_pair_refuses_strings_joining_opposite_endpoints(self):
        # crossing-free strings 0-2 and 1-3, built without validate: no
        # planar map joins them so, and neither [0] nor [inf] fits
        d = TangleDiagram(0, 4, (2, 3, 0, 1), (("a", 0), ("b", 1)))
        with pytest.raises(TangleError, match="not planar"):
            bracket_pair(d)

    def test_pair_budget(self, monkeypatch):
        monkeypatch.setenv("TANGLEKIT_BUDGET", "4")
        with pytest.raises(BudgetExceeded):
            bracket_pair(rational_tangle_diagram(reduce(5, 1)))

    def test_recover_contracts_one_pair_and_no_closure(self, monkeypatch):
        identify._closure_fingerprints.cache_clear()
        pairs = []
        real = identify.bracket_pair

        def counting(d):
            pairs.append(d)
            return real(d)

        monkeypatch.setattr(identify, "bracket_pair", counting)
        monkeypatch.setattr(identify, "fingerprint", None)  # never reached
        monkeypatch.setattr(invariants, "bracket_skein", None)
        d = _inflate(random.Random(3), rational_tangle_diagram(reduce(-7, 3)), 3, 12)
        assert recover_fraction(d) == reduce(-7, 3)
        assert len(pairs) == 2  # the query and, once, its reference
        assert recover_fraction(d) == reduce(-7, 3)
        assert len(pairs) == 3
        with pytest.raises(TangleError):
            recover_fraction(rational_tangle_diagram(reduce(13, 5)))
        assert len(pairs) == 3

    @pytest.mark.parametrize("part", [0, 1])
    def test_corrupt_pair_refused(self, monkeypatch, part):
        """Negating one term of f or of g moves a closure determinant off
        the Goeritz determinant, and recovery refuses the pair."""
        real = identify.bracket_pair

        def corrupted(d):
            pair = list(real(d))
            pair[part] = _corrupt_top_term(LaurentPoly(pair[part]), lambda e, c: (e, -c)).key()
            return tuple(pair)

        identify._closure_fingerprints.cache_clear()
        monkeypatch.setattr(identify, "bracket_pair", corrupted)
        with pytest.raises(TangleError, match="differs from the Goeritz determinant"):
            recover_fraction(rational_tangle_diagram(reduce(7, 3)))
        identify._closure_fingerprints.cache_clear()


# One closed component L, linked through s12 only.
LOOP_TANGLE_PD = """tangle k=3 n=2
X 1 5 2 4
X 4 2 5 3
B 1 3 6 6 7 7
S s12: 1,2,3
S L: 4,5
S s23: 6
S s31: 7
"""

# (out dart, kind) of the R1 kinks inflating it: on L, on s12, on s23
LOOP_KINKS = ((), ((3, 0),), ((6, 1),), ((8, 2),), ((10, 3),), ((3, 1), (12, 2)))


def loop_tangles():
    """The loop tangle and its R1-inflated copies, keyed by their kinks."""
    base = parse_pd(LOOP_TANGLE_PD)
    out = {}
    for kinks in LOOP_KINKS:
        d = base
        for dart, kind in kinks:
            d = apply_r1_add(d, dart, kind)
        out[str(list(kinks))] = d
    return out


def loop_surgery_outputs() -> dict[str, str]:
    """emit_pd of every surgery and simplify on the loop tangles.

    Removing s12, which frees L or takes its anchor crossing, is tested
    on its own.
    """
    out = {}
    for key, d in loop_tangles().items():
        ops = {"xarcs": lambda d=d: close_with_x_arcs(d)}
        for mode in ("rel_boundary", "free"):
            ops[f"simplify {mode}"] = lambda d=d, m=mode: simplify(d, m)
        for lab in ("s23", "s31"):
            ops[f"remove {lab}"] = lambda d=d, lab=lab: remove_string(d, lab)
        for i in (1, 2, 3):
            ops[f"twists {i}"] = lambda d=d, i=i: add_boundary_twists(d, i, (1, -2, 3)[i - 1])
            ops[f"cap {i}"] = lambda d=d, i=i: cap(d, i)
            ops[f"cap {i} close 1/1"] = lambda d=d, i=i: close_with(cap(d, i), TangleFraction(1, 1))
        for name, op in ops.items():
            out[f"{key} {name}"] = emit_pd(op())
    return out


# Every noncrossing matching of 4 and of 6 boundary endpoints.
CROSSING_FREE_MATCHINGS = (
    ((0, 1), (2, 3)),
    ((0, 3), (1, 2)),
    ((0, 1), (2, 3), (4, 5)),
    ((0, 1), (2, 5), (3, 4)),
    ((0, 3), (1, 2), (4, 5)),
    ((0, 5), (1, 2), (3, 4)),
    ((0, 5), (1, 4), (2, 3)),
)

CLOSURE_FILLERS = tuple(
    reduce(p, q) for p, q in ((0, 1), (1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3))
)


def closure_sample() -> dict:
    """Seeded tangles to close, keyed by how each was drawn.

    Every crossing-free 2- and 3-string tangle, random 2- and 3-string
    tangles with 1 to 6 crossings, the loop tangle (a closed component),
    and the loop tangle without s12 (a free loop).
    """
    rng = random.Random(19)
    out = {}
    for matching in CROSSING_FREE_MATCHINGS:
        labels = ("s12", "s23", "s31")[: len(matching)]
        out[f"trivial {matching}"] = trivial_tangle(matching, labels)
    for k in (4, 6):
        for n in range(1, 7):
            out[f"k{k} n{n}"] = random_diagram(rng, n, k)
    out["loop tangle"] = parse_pd(LOOP_TANGLE_PD)
    out["loop tangle remove s12"] = remove_string(out["loop tangle"], "s12")
    return out


def closure_inputs():
    """(key, 2-string tangle) of every closed 2-string tangle: the sample's
    own and the three caps of each of its 3-string tangles."""
    for key, d in closure_sample().items():
        if d.k == 4:
            yield key, d
        else:
            for i in (1, 2, 3):
                yield f"{key} cap {i}", cap(d, i)


def closure_outputs() -> dict[str, str]:
    """emit_pd of every closure on `closure_sample()`.

    The x-arc closure of each 3-string tangle, and every filler of
    `CLOSURE_FILLERS` on each of `closure_inputs()`.
    """
    out = {}
    for key, d in closure_sample().items():
        if d.k == 6:
            out[f"{key} xarcs"] = emit_pd(close_with_x_arcs(d))
    for key, d in closure_inputs():
        for f in CLOSURE_FILLERS:
            out[f"{key} close {f}"] = emit_pd(close_with(d, f))
    return out


class TestSurgery:
    def test_cap_trivial(self):
        capped = cap(trivial_tangle(), 1)
        assert capped.k == 4
        assert len([c for c in capped.components if not c.closed]) == 2

    def test_cap_wrong_k(self):
        with pytest.raises(TangleError):
            cap(zero_tangle(), 1)

    def test_remove_string_trivial(self):
        d = remove_string(trivial_tangle(), "s23")
        assert d.k == 4 and d.n == 0

    def test_remove_string_unknown_label(self):
        with pytest.raises(TangleError):
            remove_string(trivial_tangle(), "nope")

    def test_close_with_trivial_unlink(self):
        d = close_with(zero_tangle(), TangleFraction(0, 1))
        assert len(d.components) == 2 and d.n == 0

    def test_boundary_twist_identity(self):
        d = trivial_tangle()
        assert add_boundary_twists(d, 1, 0) is d

    def test_boundary_twists_cancel(self):
        d = trivial_tangle()
        t = add_boundary_twists(add_boundary_twists(d, 1, 3), 1, -3)
        assert simplify(t, "rel_boundary").n == 0

    @pytest.mark.parametrize("m", [1, -1, 2, -3])
    def test_boundary_twist_fraction(self, m):
        t = add_boundary_twists(trivial_tangle(), 1, m)
        assert recover_fraction(cap(t, 2)) == reduce(1, m)

    def test_capped_trivial_is_infinity(self):
        assert recover_fraction(cap(trivial_tangle(), 3)) == TangleFraction(1, 0)

    def test_remove_string_frees_loop_once(self):
        d = remove_string(parse_pd(LOOP_TANGLE_PD), "s12")
        assert d.free_loops == ("L",)
        text = emit_pd(d)
        assert emit_pd(parse_pd(text)) == text
        assert str(identify_link(close_with(d, TangleFraction(0, 1)))) == "unlink(2)"

    def test_remove_string_reanchors_loop(self):
        # L's kink survives the removal of its anchor crossing with s12
        d = remove_string(loop_tangles()["[(3, 0)]"], "s12")
        assert (d.n, d.loops, d.free_loops) == (1, (("L", 0),), ())
        assert str(identify_link(close_with(d, TangleFraction(0, 1)))) == "unlink(2)"

    def test_loop_tangle_outputs_pinned(self):
        with open("tests/fixtures/loop_tangle_surgery.txt", encoding="utf-8") as fh:
            records = fh.read().split("## ")[1:]
        pinned = dict(record.split("\n", 1) for record in records)
        assert loop_surgery_outputs() == pinned

    def test_closure_outputs_pinned(self):
        with open("tests/fixtures/closure_outputs.txt", encoding="utf-8") as fh:
            records = fh.read().split("## ")[1:]
        pinned = dict(record.split("\n", 1) for record in records)
        assert closure_outputs() == pinned

    @pytest.mark.parametrize(
        "pd, surgery, labels",
        [
            # the twisted loop's o0 beside the free loop o0
            (
                "tangle k=2 n=0\nB 1 1 2 2\nS u: 1\nS w: 2\nS o0: 3\n",
                lambda d: close_with(d, reduce(1, 1)),
                ["o0'", "o0"],
            ),
            # the freed circle u+w beside the free loop u+w
            (
                "tangle k=2 n=0\nB 1 1 2 2\nS u: 1\nS w: 2\nS u+w: 3\n",
                lambda d: close_with(d, reduce(1, 0)),
                ["u+w'", "u+w"],
            ),
            # the closed loop u+w beside the free loop u+w
            (
                "tangle k=2 n=2\nX 1 4 2 5\nX 5 2 6 3\nB 1 4 6 3\n"
                "S u: 1,2,3\nS w: 4,5,6\nS u+w: 7\n",
                lambda d: close_with(d, reduce(0, 1)),
                ["u+w'", "u+w"],
            ),
            # the joined string shat1 beside the free loop shat1, on pjh.pd
            (
                "tangle k=3 n=6\nX 12 3 13 2\nX 1 12 2 11\nX 3 7 4 8\nX 6 4 7 5\n"
                "X 8 14 9 13\nX 14 10 15 9\nB 1 5 6 10 15 11\nS s12: 1,2,3,4,5\n"
                "S s23: 6,7,8,9,10\nS s31: 11,12,13,14,15\nS shat1: 20\n",
                lambda d: cap(d, 1),
                ["s23", "shat1'", "shat1"],
            ),
            # the capped loop shat2 beside the string shat2
            (
                "tangle k=3 n=1\nX 2 3 3 4\nB 1 2 4 1 5 5\nS a: 1\nS b: 2,3,4\nS shat2: 5\n",
                lambda d: cap(d, 2),
                ["a", "shat2", "shat2'"],
            ),
        ],
        ids=["o-name", "freed-join", "loop-join", "shat-string", "shat-loop"],
    )
    def test_new_names_skip_labels_in_use(self, pd, surgery, labels):
        out = surgery(parse_pd(pd))
        assert [c.label for c in out.components] == labels
        text = emit_pd(out)
        assert emit_pd(parse_pd(text)) == text

    @pytest.mark.parametrize(
        "pd, loops, free",
        [
            ("tests/fixtures/loops_tangle.pd", ["L", "N", "M"], ["F"]),
            ("tangle k=2 n=0\nB 1 1 2 2\nS u: 1\nS w: 2\nS F: 3\n", [], ["F"]),
        ],
        ids=["capped-loops-tangle", "free-loop"],
    )
    @pytest.mark.parametrize("twists", [horizontal_twists, vertical_twists])
    @pytest.mark.parametrize("m", [1, -2, 3])
    def test_two_string_twists_keep_loops(self, pd, loops, free, twists, m):
        if pd.endswith(".pd"):
            with open(pd, encoding="utf-8") as fh:
                d = cap(parse_pd(fh.read()), 1)
        else:
            d = parse_pd(pd)
        out = twists(d, m)
        assert out.validate() is out and out.n == d.n + abs(m)
        assert [lab for lab, _ in out.loops] == loops
        assert list(out.free_loops) == free
        assert [lab for lab, _ in out.strings] == ["u", "w"]
        text = emit_pd(out)
        assert emit_pd(parse_pd(text)) == text

    def test_compact_refuses_an_unpaired_fresh_dart(self):
        d = zero_tangle()
        alpha = pairing(d, 1)
        connect(alpha, 4, 6)  # one transit of the fresh crossing paired
        with pytest.raises(TangleError, match="left unpaired"):
            compact(d, alpha, range(4), d.strings, ())

    def test_freeze_refuses_a_duplicate_label(self):
        d = zero_tangle()
        with pytest.raises(TangleError, match="two components labelled"):
            compact(d, list(d.alpha), range(d.k), d.strings, (d.strings[0][0],))

    def test_closure_sample_covers_the_order_and_swap_cases(self):
        # a closure that frees a circle beside a free loop it inherits pins
        # the order of free loops; a 1/v filler on two different strands at
        # endpoints 0 and 1 pins the swap an odd twist count makes
        inputs = dict(closure_inputs())
        frees_another = [
            key
            for key, d in inputs.items()
            if d.free_loops
            and len(close_numerator(d).free_loops) > len(d.free_loops)
        ]
        assert len(frees_another) >= 3
        ends = [
            {c.start_ep: c.label for c in d.components if not c.closed}
            | {c.end_ep: c.label for c in d.components if not c.closed}
            for d in inputs.values()
        ]
        assert sum(e[0] != e[1] for e in ends) >= 10
        assert {f.q % 2 for f in CLOSURE_FILLERS if abs(f.p) == 1 and f.q} == {0, 1}


class TestLinking:
    def test_unlink_zero(self):
        d = close_with(zero_tangle(), TangleFraction(0, 1))
        a, b = [c.label for c in d.components]
        assert linking_number(d, a, b) == 0

    def test_same_label_rejected(self):
        d = close_with(zero_tangle(), TangleFraction(0, 1))
        a = d.components[0].label
        with pytest.raises(TangleError):
            linking_number(d, a, a)

    def test_open_rejected(self):
        with pytest.raises(TangleError):
            linking_number(zero_tangle(), "u", "w")

    def test_x_closure_orientations(self):
        d = close_with_x_arcs(trivial_tangle())
        labels = [c.label for c in d.components]
        assert sorted(labels) == ["s12", "s23", "s31"]
        assert linking_number(d, "s12", "s23") == 0
