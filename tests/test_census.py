"""Diagram enumeration and the small-crossing classification."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.census import (
    _has_weak_string,
    _over_under_variants,
    _shadow_search,
    classify,
    classify_level,
    generate_diagrams,
    has_parallel_strands,
    is_split,
    naive_generate,
    random_diagram,
    verify_theorem_4_4,
)
from tanglekit.diagram import TangleDiagram, simplify
from tanglekit.diagram.rewrite import apply_r2_add
from tanglekit.errors import BudgetExceeded
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
        seen = set()
        for d in generate_diagrams(2):
            code = d.canonical_code()
            assert code not in seen
            seen.add(code)

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

    def test_shards_partition_the_shadows(self):
        for n in range(4):
            full = list(_shadow_search(n))
            for jobs in (2, 3):
                shares = [list(_shadow_search(n, shard=(jobs, w))) for w in range(jobs)]
                assert sorted(sum(shares, [])) == sorted(full)
                if n >= 2:
                    assert all(shares)


class TestDetectors:
    def test_trivial_split_and_parallel(self):
        from tanglekit.diagram import trivial_tangle

        d = trivial_tangle()
        assert is_split(d)
        assert has_parallel_strands(d)

    def test_reference_tangle_freely_trivial(self):
        pjh = build_standard(-2, -2, -2)
        # rational tangles are split and have parallel strands
        assert is_split(pjh)
        assert has_parallel_strands(pjh)

    def test_two_region_standard_parallel(self):
        d = build_standard(-1, -2, 0)
        assert has_parallel_strands(d)

    def test_classify_order_split_first(self):
        from tanglekit.diagram import trivial_tangle

        assert classify(trivial_tangle()) == "split"


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
