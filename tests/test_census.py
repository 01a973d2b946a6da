"""Diagram enumeration and the small-crossing classification."""

import hashlib
import random
from collections import Counter
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draws import _Gluing, random_diagram
from oracles import _parallel_on_reduced as label_parallel_on_reduced
from oracles import classify as oracle_classify
from oracles import all_matchings, has_parallel_strands, naive_generate, trace_from
from oracles import strand_map as _strand_map
from tanglekit import census
from tanglekit.census import (
    SHARD_DEPTH,
    _has_weak_string,
    _over_under_variants,
    _shadow_search,
    _shadow_split,
    _strings_of,
    classify,
    classify_level,
    generate_diagrams,
    verify_theorem_4_4,
)
from tanglekit.diagram import TangleDiagram, parse_pd, simplify
from tanglekit.diagram.rewrite import apply_r2_add
from tanglekit.errors import BudgetExceeded, TangleError
from tanglekit.experiments import build_standard


def _noncrossing_matchings(k):
    """Independent count of noncrossing chord matchings of k points."""
    pts = list(range(k))

    def rec(points):
        if not points:
            return 1
        first = points[0]
        total = 0
        for j in points[1:]:
            inside = [p for p in points if first < p < j]
            outside = [p for p in points if p > j]
            if len(inside) % 2 == 0:
                total += rec(inside) * rec(outside)
        return total

    return rec(pts)


def _recursive_shadow_search(n, k=6, shard=None):
    """The shadow search as first written, one generator frame per level;
    kept as an oracle for the explicit-stack search."""
    jobs, worker = shard or (1, 0)
    state = _Gluing(n, k)
    at_depth = count()

    def rec(depth):
        if depth == SHARD_DEPTH and next(at_depth) % jobs != worker:
            return
        d0 = state.pivot()
        if d0 is None:
            if depth >= SHARD_DEPTH or worker == 0:
                yield tuple(state.alpha)
            return
        for b in state.candidates(d0):
            undo = state.glue(d0, b)
            if undo is None:
                continue
            yield from rec(depth + 1)
            state.unglue(undo)

    yield from rec(0)


def _probe_strings_of(alpha, n, k):
    """`_strings_of` as first written, tracing through a probe diagram."""
    probe = TangleDiagram(n, k, alpha)
    strings = []
    seen = set()
    for j in range(k):
        if j in seen:
            continue
        darts, closed = trace_from(probe, probe.ep_dart(j))
        if closed:
            return ()
        seen.update((j, alpha[darts[-1]] - 4 * n))
        strings.append(("abcdef"[len(strings)], j))
    return tuple(strings)


def _list_random_diagram(rng, n, k=6, walk_tries=400):
    """`random_diagram` as it was when `finish` listed all 2^n variants to
    pick one: the oracle for drawing the variant's bits directly."""

    def finish(alpha):
        variants = list(_over_under_variants(alpha, n, k))
        variant = variants[rng.randrange(len(variants))]
        strings = _strings_of(variant, n, k)
        if strings:
            return TangleDiagram(n, k, variant, strings)
        return None

    for _ in range(walk_tries):
        state = _Gluing(n, k)
        stuck = False
        while not stuck:
            d0 = state.pivot()
            if d0 is None:
                break
            cands = state.candidates(d0, all_fresh=True)
            rng.shuffle(cands)
            stuck = True
            for b in cands:
                if state.glue(d0, b) is not None:
                    stuck = False
                    break
        if not stuck:
            out = finish(tuple(state.alpha))
            if out is not None:
                return out

    state = _Gluing(n, k)

    def rec():
        d0 = state.pivot()
        if d0 is None:
            yield tuple(state.alpha)
            return
        cands = state.candidates(d0)
        rng.shuffle(cands)
        for b in cands:
            undo = state.glue(d0, b)
            if undo is None:
                continue
            yield from rec()
            state.unglue(undo)

    for alpha in rec():
        out = finish(alpha)
        if out is not None:
            return out
    raise RuntimeError("random diagram generation failed")


class TestGenerator:
    def test_zero_crossings_count(self):
        diagrams = list(generate_diagrams(0))
        assert len(diagrams) == 5
        assert _noncrossing_matchings(6) == 5

    def test_all_emitted_planar(self):
        for n in (0, 1, 2):
            for d in generate_diagrams(n):
                d.validate()
                assert d.n == n
                assert len([c for c in d.components if not c.closed]) == 3

    def test_matches_naive_oracle(self):
        for n in (0, 1, 2):
            fancy = {d.canonical_code() for d in generate_diagrams(n)}
            naive = {d.canonical_code() for d in naive_generate(n)}
            assert fancy == naive

    def test_no_duplicates(self):
        # the open-tangle canonical code separates every diagram at n <= 3
        seen = set()
        for n in range(4):
            for d in generate_diagrams(n):
                code = d.canonical_code()
                assert code not in seen
                seen.add(code)
        assert len(seen) == 16217

    def test_canonical_code_fixed_point(self):
        for d in list(generate_diagrams(1))[:20]:
            code = d.canonical_code()
            # re-encoding the same structure is stable
            assert d.canonical_code() == code

    def test_hard_cap(self):
        with pytest.raises(BudgetExceeded):
            next(generate_diagrams(8, extended=True))

    def test_gate_guard(self):
        with pytest.raises(BudgetExceeded):
            next(generate_diagrams(6))

    def test_shadow_codes_pairwise_distinct(self):
        # the search's symmetry breaking stands in for a dedup set
        for n in range(5):
            codes = {
                TangleDiagram(n, 6, alpha).canonical_code(shadow=True)
                for alpha in _shadow_search(n)
            }
            assert len(codes) == sum(1 for _ in _shadow_search(n))

    def test_shard_partition(self):
        for n in range(4):
            full = classify_level(n)
            for jobs in (2, 3):
                merged = classify_level(n, shard=(jobs, 0))
                for w in range(1, jobs):
                    merged = merged.merge(classify_level(n, shard=(jobs, w)))
                assert merged.as_dict() == full.as_dict()

    def test_search_matches_recursive_oracle(self):
        # same leaves in the same order, serial and in every shard
        for n in range(5):
            for shard in (None, (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
                assert list(_shadow_search(n, shard=shard)) == list(
                    _recursive_shadow_search(n, shard=shard)
                )

    @pytest.mark.parametrize(
        "n, shard, leaves, sha256",
        [
            (5, None, 119298, "38057d3c14448fc6503dde29485be9ec50c0d9a991dee951bb6f7888a2f3092b"),
            (5, (2, 0), 60538, "75c1a752bee149d7fb47c37e50158b8d458e2aaebaba46783adab2f1579549bb"),
            (5, (2, 1), 58760, "9981e3d0bca140c76dc4fa6c76381539acd49ae802981fcbb7fe7042c1fdb553"),
            (6, (64, 0), 20008, "861ce8aa52480acd2bf2a682a558f67732ffd06db17b30e53af0c685c3f68edc"),
            (6, (64, 37), 11210, "e6f0472e1b307a7a8a0484553a54e795a7cc5e57126c8a834c261436c01d173d"),
        ],
    )
    def test_search_leaves_pinned(self, n, shard, leaves, sha256):
        # (count, sha256 over the repr of each leaf, one per line) as the
        # search on `_Gluing` yields them, at sizes past the reach of the
        # recursive oracle
        digest = hashlib.sha256()
        found = 0
        for alpha in _shadow_search(n, shard=shard):
            digest.update(repr(alpha).encode() + b"\n")
            found += 1
        assert (found, digest.hexdigest()) == (leaves, sha256)

    def test_strings_of_matches_probe_oracle(self):
        # every matching, including those that close a loop or leave
        # endpoints paired with each other
        looped = 0
        for n in range(3):
            for alpha in all_matchings(4 * n + 6):
                assert _strings_of(alpha, n, 6) == _probe_strings_of(alpha, n, 6)
                looped += _strand_map(alpha, n, 6) is None
        assert looped > 0

    def test_shards_partition_the_shadows(self):
        for n in range(4):
            full = list(_shadow_search(n))
            for jobs in (2, 3):
                shares = [list(_shadow_search(n, shard=(jobs, w))) for w in range(jobs)]
                assert sorted(sum(shares, [])) == sorted(full)
                if n >= 2:
                    assert all(shares)

    @pytest.mark.parametrize("k", (4, 6))
    def test_random_diagram_matches_listed_variants(self, k):
        """Drawing the variant's bits directly consumes the same randomness
        and returns the same diagram as listing all 2^n variants."""
        for seed in range(50):
            for n in range(9):
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                d = random_diagram(rng, n, k=k)
                want = _list_random_diagram(oracle_rng, n, k=k)
                assert (d.alpha, d.strings) == (want.alpha, want.strings)
                assert rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize("seed,n,k", [(1, 11, 4), (2, 12, 6)])
    def test_random_diagram_past_the_walks(self, seed, n, k):
        """Draws whose 400 walks all fail, so the restarted backtracking
        fallback has to finish them."""
        d = random_diagram(random.Random(seed), n, k=k)
        assert d.validate() is d
        assert (d.n, d.k, len(d.strings)) == (n, k, k // 2)
        assert not d.loops and not d.free_loops

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 3), (-1, 4)])
    def test_random_diagram_refuses_a_bad_shape(self, n, k):
        """A closed or odd-k draw, or a negative n, is refused up front."""
        with pytest.raises(TangleError, match="^random_diagram needs [^\n]*$"):
            random_diagram(random.Random(0), n, k=k)

    def test_random_diagram_labels_up_to_six_strings(self):
        """k = 12 draws six strings, labelled "a" to "f"; k = 14 would need
        a seventh label and is refused with the other bad shapes."""
        d = random_diagram(random.Random(0), 1, k=12)
        assert [label for label, _ in d.strings] == list("abcdef")
        refusal = "^random_diagram needs an even k of 2 to 12 endpoints, got 14$"
        with pytest.raises(TangleError, match=refusal):
            random_diagram(random.Random(0), 1, k=14)

    def test_random_diagram_fallback_alone(self):
        rng = random.Random(7)
        for n in range(11):
            d = random_diagram(rng, n, k=rng.choice((2, 4, 6)), walk_tries=0)
            assert d.validate() is d and d.n == n and not d.loops


class TestDetectors:
    def test_trivial_split_and_parallel(self):
        from tanglekit.diagram import trivial_tangle

        d = trivial_tangle()
        assert classify(d) == "split"
        assert has_parallel_strands(d)

    def test_reference_tangle_freely_trivial(self):
        pjh = build_standard(-2, -2, -2)
        # rational tangles are split and have parallel strands
        assert classify(pjh) == "split"
        assert has_parallel_strands(pjh)

    def test_two_region_standard_parallel(self):
        d = build_standard(-1, -2, 0)
        assert has_parallel_strands(d)

    def test_classify_order_split_first(self):
        from tanglekit.diagram import trivial_tangle

        assert classify(trivial_tangle()) == "split"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.sampled_from((4, 6)))
    def test_parallel_test_matches_label_oracle(self, seed, n, k):
        """The parallel test on component indices agrees with the one on
        labels it replaced, on draws and on their free reductions."""
        d = random_diagram(random.Random(seed), n, k=k)
        for small in (d, simplify(d, "free")):
            assert census._parallel_on_reduced(small) == label_parallel_on_reduced(small)

    def test_parallel_test_matches_label_oracle_up_to_two_crossings(self):
        verdicts = Counter()
        for n in range(3):
            for d in generate_diagrams(n):
                for small in (d, simplify(d, "free")):
                    verdict = census._parallel_on_reduced(small)
                    assert verdict == label_parallel_on_reduced(small)
                    verdicts[verdict] += 1
        assert verdicts == {True: 1750, False: 444}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.sampled_from((4, 6)))
    def test_classify_matches_oracle(self, seed, n, k):
        """classify, which tests weak strings after reduction only, agrees
        with the classify that tested them before reduction too."""
        d = random_diagram(random.Random(seed), n, k=k)
        assert classify(d) == oracle_classify(d)

    def test_classify_matches_oracle_up_to_two_crossings(self):
        # every variant, so weak shadows too, which classify_level skips
        verdicts = Counter()
        for n in range(3):
            for d in generate_diagrams(n):
                verdict = classify(d)
                assert verdict == oracle_classify(d)
                verdicts[verdict] += 1
        assert verdicts == {"split": 1097}

    @pytest.mark.parametrize("name", ["candidate_8x", "candidate_9x", "loops_tangle", "pjh", "trivial3"])
    def test_parallel_test_matches_label_oracle_on_fixtures(self, name):
        # loops_tangle has a closed component, which no draw has
        with open(f"tests/fixtures/{name}.pd", encoding="utf-8") as fh:
            d = parse_pd(fh.read())
        for small in (d, simplify(d, "free")):
            assert census._parallel_on_reduced(small) == label_parallel_on_reduced(small)


class TestShadowVerdict:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_weak_string_constant_across_variants(self, seed, n):
        shadow = random_diagram(random.Random(seed), n)
        verdicts = {
            _has_weak_string(TangleDiagram(n, 6, alpha, shadow.strings))
            for alpha in _over_under_variants(shadow.alpha, n, 6)
        }
        assert len(verdicts) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_strand_map_verdict_matches_weak_string(self, seed, n):
        d = random_diagram(random.Random(seed), n)
        assert _shadow_split(d.alpha, n) == _has_weak_string(d)
        owner = _strand_map(d.alpha, n, 6)
        for i, comp in enumerate(d.components):
            assert {owner[x] for x in comp.out_darts} == {i}

    def test_closed_loop_shadow_rejected(self):
        # crossing 0's under-strand closes on itself: darts 0 and 2 mated
        alpha = (2, 4, 0, 5, 1, 3, 7, 6, 9, 8)
        assert _strand_map(alpha, 1, 6) is None
        with pytest.raises(TangleError):
            _shadow_split(alpha, 1)

    def test_string_meeting_the_others_once_is_weak(self):
        # one of the 12 three-crossing shadows where a string meets the
        # others exactly once and each other string meets the rest at least
        # twice, so only the bound's "exactly once" case settles it
        alpha = (12, 13, 14, 9, 15, 16, 11, 10, 17, 3, 7, 6, 0, 1, 2, 4, 5, 8)
        assert alpha in set(_shadow_search(3, 6, None))
        shadow = census._shadow(alpha, 3)
        meets = Counter(
            i for under, over in shadow.crossing_strands if under != over for i in (under, over)
        )
        assert sorted(meets.values()) == [1, 2, 3]
        assert _shadow_split(alpha, 3)
        assert _has_weak_string(shadow)

    def test_level_matches_per_variant_tally(self):
        # oracle: the full classify on every diagram, no per-shadow shortcut
        for n in range(4):
            tally = Counter(classify(d) for d in generate_diagrams(n))
            report = classify_level(n)
            assert report.total == sum(tally.values())
            assert report.split == tally["split"]
            assert report.parallel == tally["parallel"]
            assert report.reducible == tally["reducible"]
            assert len(report.unresolved) == tally["unresolved"]


class TestTheorem:
    def test_levels_zero_to_three(self):
        reports = verify_theorem_4_4(3)
        totals = [r.total for r in reports]
        assert totals == [5, 72, 1020, 15120]
        assert all(r.holds for r in reports)
        for r in reports:
            assert r.total == r.split + r.parallel + r.reducible + len(r.unresolved)

    @pytest.mark.parametrize("n_max, extended", [(6, False), (8, True), (-1, False)])
    def test_gates_checked_before_any_level(self, monkeypatch, n_max, extended):
        def refuse(*args, **kwargs):
            raise AssertionError("a level was classified past a gate")

        monkeypatch.setattr(census, "classify_level", refuse)
        with pytest.raises(BudgetExceeded) as up_front:
            verify_theorem_4_4(n_max, extended)
        with pytest.raises(BudgetExceeded) as at_level:
            next(census._level_alphas(n_max, extended, None))
        assert str(up_front.value) == str(at_level.value)

    def test_report_merge_guard(self):
        a = classify_level(0)
        b = classify_level(1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_classification_stable_under_r2(self):
        rng = random.Random(42)
        checked = 0
        while checked < 30:
            d = random_diagram(rng, rng.randint(0, 4), k=6)
            verdict = classify(d)
            faces = [
                [x for x in f if x < d.num_darts]
                for f in d.faces
            ]
            faces = [f for f in faces if len(f) >= 2]
            if not faces:
                continue
            f = faces[rng.randrange(len(faces))]
            d1, d2 = rng.sample(f, 2)
            if d1 == d2 or d.alpha[d1] == d2:
                continue
            pushed = apply_r2_add(d, d1, d2, over_first=rng.random() < 0.5)
            assert pushed.validate() is pushed
            assert pushed.n == d.n + 2
            assert classify(pushed) == verdict
            checked += 1

    def test_split_parallel_monotone_under_reduction(self):
        rng = random.Random(43)
        for _ in range(30):
            d = random_diagram(rng, rng.randint(0, 5), k=6)
            verdict = classify(d)
            if verdict in ("split", "parallel"):
                red = simplify(d, "free")
                assert classify(red) in ("split", "parallel")
