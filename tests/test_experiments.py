"""Experiment system solvers and diagram-level verification."""

import pytest

from tanglekit.diagram import (
    cap,
    close_with,
    close_with_x_arcs,
    identify_link,
    linking_number,
    recover_fraction,
    remove_string,
)
from tanglekit.errors import NoSolution, ParityViolation, UsageError
from tanglekit.experiments import (
    ExperimentSystem,
    _solve_capped,
    build_standard,
    framing_convert,
    pjh_tangle,
    solve_graph_twists,
    solve_system,
    verify_solution_tangle,
)
from tanglekit.rational import TangleFraction, closure_with_filler, reduce, torus_two_bridge


class TestSolveSystem:
    def test_table_defaults(self):
        report = solve_system(ExperimentSystem())
        assert report.O1 == report.O2 == report.O3 == reduce(-1, 4)
        assert report.T_minus_s23 == reduce(-1, 2)
        assert (report.v1, report.v2, report.v3) == (1, -1, 1)
        assert report.d_t_set == frozenset({0, 4})
        assert report.v_t == -1

    def test_generalized_products(self):
        report = solve_system(ExperimentSystem(L1=6, L2=6, L3=6, Lt=2))
        assert report.O1 == reduce(-1, 6)

    def test_unknot_products_rejected(self):
        with pytest.raises(NoSolution) as err:
            solve_system(ExperimentSystem(L1=1, L2=4, L3=4))
        assert "deletion equation 1" in str(err.value)

    def test_nonnormal_framing_shifts(self):
        report = solve_system(ExperimentSystem(d1=-1, d2=0, d3=-1))
        # with d1 = -1 the capped tangle absorbs the extra twist
        assert report.O1 == reduce(-1, 3)
        assert report.O2 == reduce(-1, 4)

    def test_config_round_trip(self):
        sys = ExperimentSystem()
        assert ExperimentSystem.from_dict(sys.as_dict()) == sys

    def test_config_missing_keys_keep_defaults(self):
        got = ExperimentSystem.from_dict({"deletion": {"attR": 6}, "framing": {}})
        assert got == ExperimentSystem(L2=6)
        assert ExperimentSystem.from_dict({}) == ExperimentSystem()

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"deletion": {"e": 4, "atR": 6}}, "experiment config has no key 'deletion.atR'"),
            ({"framng": {"d1": 2}}, "experiment config has no section 'framng'"),
            ({"framng": 1}, "experiment config has no section 'framng'"),
            # a wrong value is named before an unknown key
            (
                {"deletion": {"atR": 6, "e": 4.5}},
                "experiment config deletion.e must be an integer, got 4.5",
            ),
        ],
    )
    def test_config_refuses_unknown_names(self, data, message):
        with pytest.raises(UsageError) as err:
            ExperimentSystem.from_dict(data)
        assert str(err.value) == message


def _capped_by_search(L, d):
    """The four-candidate search the closed form replaced: X = p/q with
    |p| = 1 for the unknot equation, q = -p(s + d) with s = +-L, each
    checked exactly against both closures; the first hit, or None."""
    filler = reduce(1, d)
    target = torus_two_bridge(L)
    for p in (-1, 1):
        for s in (L, -L):
            fr = reduce(p, -p * (s + d))
            if (
                closure_with_filler(fr, filler) == target
                and closure_with_filler(fr, TangleFraction(0, 1)).is_unknot
            ):
                return fr
    return None


class TestCappedClosedForm:
    def test_matches_search(self):
        for L in [x for x in range(-40, 41) if abs(x) >= 2]:
            for d in range(-40, 41):
                assert _solve_capped(L, d) == _capped_by_search(L, d), (L, d)

    @pytest.mark.parametrize("L", [-1, 0, 1])
    def test_trivial_products_refused(self, L):
        for d in (-3, 0, 2):
            with pytest.raises(NoSolution) as err:
                _solve_capped(L, d)
            assert str(err.value) == f"(2,{L}) is not a torus link product"


class TestTwistSolvers:
    def test_framing_identity(self):
        assert framing_convert(0, 0, 0) == (0, 0, 0)

    def test_framing_reference_values(self):
        assert framing_convert(-1, 0, -1) == (0, -1, 0)

    def test_framing_even_sum(self):
        assert framing_convert(2, 2, 2) == (1, 1, 1)

    def test_framing_parity(self):
        with pytest.raises(ParityViolation):
            framing_convert(1, 0, 0)

    def test_graph_twists_symmetric(self):
        assert solve_graph_twists(0, 0, 0) == (-2, -2, -2)

    def test_graph_twists_oracle(self):
        # n2+n3 = -6, n3+n1 = -4, n1+n2 = -4 solved by hand
        assert solve_graph_twists(2, 0, 0) == (-1, -3, -3)

    def test_graph_twists_parity(self):
        with pytest.raises(ParityViolation):
            solve_graph_twists(1, 0, 0)

    def test_linear_system_exact(self):
        for f in [(0, 2, 4), (-2, 0, 2), (6, -2, 0)]:
            n = solve_graph_twists(*f)
            assert n[0] + n[1] + f[2] == -4
            assert n[1] + n[2] + f[0] == -4
            assert n[2] + n[0] + f[1] == -4


class TestStandardTangle:
    def test_crossing_counts(self):
        assert build_standard(0, 0, 0).n == 0
        assert build_standard(-2, -2, -2).n == 6

    def test_capped_fractions(self):
        pjh = pjh_tangle()
        for i in (1, 2, 3):
            assert recover_fraction(cap(pjh, i)) == reduce(-1, 4)

    def test_capped_general(self):
        d = build_standard(-1, -2, -3)
        assert recover_fraction(cap(d, 1)) == reduce(1, -5)
        assert recover_fraction(cap(d, 2)) == reduce(1, -4)
        assert recover_fraction(cap(d, 3)) == reduce(1, -3)

    def test_products(self):
        pjh = pjh_tangle()
        capped = cap(pjh, 1)
        assert identify_link(close_with(capped, TangleFraction(0, 1))).kind == "unknot"
        lid = identify_link(close_with(capped, TangleFraction(1, 0)))
        assert lid.kind == "torus2" and lid.torus == 4

    def test_removed_enhancer(self):
        assert recover_fraction(remove_string(pjh_tangle(), "s23")) == reduce(-1, 2)


class TestLinkingContract:
    def test_capped_linking(self):
        pjh = pjh_tangle()
        for i in (1, 2, 3):
            link = close_with(cap(pjh, i), TangleFraction(1, 0))
            a, b = [c.label for c in link.components]
            assert linking_number(link, a, b) == -2

    def test_pairwise_linking(self):
        link = close_with_x_arcs(pjh_tangle())
        assert linking_number(link, "s12", "s23") == -1
        assert linking_number(link, "s23", "s31") == -1
        assert linking_number(link, "s31", "s12") == -1


class TestVerification:
    def test_reference_passes(self):
        report = verify_solution_tangle(pjh_tangle(), in_trans=True)
        assert report.passed and not report.inconclusive
        assert len(report.checks) == 8

    def test_trivial_fails(self):
        report = verify_solution_tangle(build_standard(0, 0, 0))
        assert not report.passed

    def test_wrong_twists_fail(self):
        report = verify_solution_tangle(build_standard(-2, -2, 0))
        assert not report.passed

    def test_solution_graph_construction(self):
        """Twist counts from the graph solver always verify."""
        n = solve_graph_twists(0, 0, 0)
        report = verify_solution_tangle(build_standard(*n), in_trans=True)
        assert report.passed

    def test_other_framings_of_solution_graphs(self):
        # f = (2, 0, 0) corresponds to boundary twists on the trivial graph
        base = build_standard(*solve_graph_twists(0, 0, 0))
        assert verify_solution_tangle(base).passed

    def test_pairwise_crossing_lower_bound(self):
        """Verified solution tangles keep every string pair crossing twice."""
        from tanglekit.diagram import simplify

        d = simplify(pjh_tangle(), "rel_boundary")
        for la, lb in (("s12", "s23"), ("s23", "s31"), ("s31", "s12")):
            assert d.crossings_between(la, lb) >= 2

    def test_mixed_standard_reduces_freely(self):
        from tanglekit.diagram import simplify

        assert simplify(build_standard(1, -1, 0), "free").n == 0

    def test_framing_round_trip(self):
        from tanglekit.diagram import add_boundary_twists, simplify

        pjh = pjh_tangle()
        n = framing_convert(-2, 0, -2)
        shifted = pjh
        for i, twists in enumerate(n, start=1):
            shifted = add_boundary_twists(shifted, i, twists)
        for i, twists in enumerate(n, start=1):
            shifted = add_boundary_twists(shifted, i, -twists)
        back = simplify(shifted, "rel_boundary")
        assert back.n == pjh.n
        assert verify_solution_tangle(back).passed
