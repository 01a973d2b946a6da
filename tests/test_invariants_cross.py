"""Cross-module invariants tying the fraction calculus to the diagrams."""

from math import gcd

from draws import random_diagram
from tanglekit.diagram import (
    close_numerator,
    fingerprint,
    horizontal_twists,
    identify_link,
    rational_tangle_diagram,
    simplify,
)
from tanglekit.diagram.identify import LinkId
from tanglekit.rational import (
    TangleFraction,
    add_integral,
    canonical_two_bridge,
    numerator_closure,
    reduce,
)


def _reduced_fracs(bound):
    out = []
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if p and gcd(abs(p), q) == 1:
                out.append(TangleFraction(p, q))
    return out


class TestIntegralTwistClosure:
    def test_arithmetic_identity_bound_six(self):
        """numerator_closure(p/q + n) is canonical b(|p + n q|, .) exactly."""
        for fr in _reduced_fracs(6):
            for n in range(-6, 7):
                got = numerator_closure(add_integral(fr, n))
                p2 = fr.p + n * fr.q
                if p2 == 0:
                    assert got.is_unlink
                elif abs(p2) == 1:
                    assert got.is_unknot
                else:
                    assert got.p == abs(p2)

    def test_diagram_agreement_within_table(self):
        """Where identification is in-table, the twist-diagram closure
        identifies as the arithmetic answer."""
        checked = 0
        for fr in _reduced_fracs(3):
            for n in range(-3, 4):
                shifted = add_integral(fr, n)
                if abs(shifted.p) > 10 or abs(shifted.p) + shifted.q > 12:
                    continue
                want = LinkId.from_two_bridge(numerator_closure(shifted))
                diag = close_numerator(horizontal_twists(rational_tangle_diagram(fr), n))
                assert identify_link(diag) == want
                checked += 1
        assert checked >= 90


class TestSolutionTangleProjectionBound:
    def test_pairwise_crossings_at_least_two(self):
        """Every verified solution tangle the engine builds keeps each
        string pair crossing at least twice in its reduced projection.

        The standard twist solver pairs with the trivially framed carrier
        only at f = (0,0,0); the other verified diagrams are the inflated
        shipped candidates."""
        from tanglekit.diagram import parse_pd
        from tanglekit.experiments import (
            build_standard,
            solve_graph_twists,
            verify_solution_tangle,
        )

        candidates = [build_standard(*solve_graph_twists(0, 0, 0))]
        for name in ("candidate_8x.pd", "candidate_9x.pd"):
            with open(f"tests/fixtures/{name}", encoding="utf-8") as fh:
                candidates.append(parse_pd(fh.read()))
        for d in candidates:
            assert verify_solution_tangle(d).passed
            red = simplify(d, "rel_boundary")
            for la, lb in (("s12", "s23"), ("s23", "s31"), ("s31", "s12")):
                assert red.crossings_between(la, lb) >= 2


class TestShippedCandidates:
    """Best-effort reduction evidence on the shipped <= 9-crossing
    solution-tangle candidates: each reduces below eight crossings under
    free isotopy, which is the small-crossing route to the reference
    tangle."""

    def test_candidates_reduce_below_eight(self):
        from tanglekit.diagram import parse_pd
        from tanglekit.experiments import verify_solution_tangle

        for name in ("candidate_8x.pd", "candidate_9x.pd"):
            with open(f"tests/fixtures/{name}", encoding="utf-8") as fh:
                d = parse_pd(fh.read())
            assert d.n in (8, 9)
            red = simplify(d, "free")
            assert red.n <= 7
            assert verify_solution_tangle(d).passed

    def test_reduce_cli_on_candidates(self, capsys):
        from tanglekit.cli import main

        for name in ("candidate_8x.pd", "candidate_9x.pd"):
            code = main(
                ["reduce", "--pd", f"tests/fixtures/{name}", "--free", "--target", "7"]
            )
            capsys.readouterr()
            assert code == 0
