"""Exact fraction arithmetic, 2-bridge canonical forms, and the solvers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import deletion_uniqueness_certificate, invert
from tanglekit.errors import NoSolution, ParityViolation, UnsupportedCase
from tanglekit.experiments import _solve_capped
from tanglekit.rational import (
    TangleFraction,
    add_integral,
    add_vertical,
    canonical_two_bridge,
    closure_with_filler,
    numerator_closure,
    reduce,
    solve_in_trans,
    solve_inversion_v,
    torus_two_bridge,
)

nonzero = st.integers(-40, 40).filter(lambda x: x != 0)


class TestReduce:
    def test_gcd_and_sign(self):
        assert reduce(2, -8) == TangleFraction(-1, 4)

    def test_infinity(self):
        assert reduce(1, 0) == TangleFraction(1, 0)

    def test_all_k_over_zero_collapse(self):
        assert reduce(-3, 0) == TangleFraction(1, 0)
        assert reduce(7, 0) == TangleFraction(1, 0)

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ValueError):
            reduce(0, 0)

    @given(p=nonzero, q=nonzero)
    def test_canonical(self, p, q):
        f = reduce(p, q)
        from math import gcd

        assert f.q > 0
        assert gcd(abs(f.p), f.q) == 1


class TestTwistArithmetic:
    def test_add_integral_identity(self):
        assert add_integral(reduce(-1, 4), 0) == reduce(-1, 4)

    def test_add_integral(self):
        assert add_integral(reduce(1, 3), 2) == reduce(7, 3)

    def test_add_integral_infinity_absorbs(self):
        assert add_integral(TangleFraction(1, 0), 5) == TangleFraction(1, 0)

    def test_add_vertical_identity(self):
        assert add_vertical(reduce(-1, 4), 0) == reduce(-1, 4)

    def test_add_vertical(self):
        assert add_vertical(reduce(-1, 2), -1) == reduce(-1, 3)
        assert add_vertical(reduce(1, 2), 1) == reduce(1, 3)

    @given(p=nonzero, q=st.integers(1, 40), n=st.integers(-6, 6))
    def test_duality(self, p, q, n):
        t = reduce(p, q)
        assert invert(add_integral(invert(t), n)) == add_vertical(t, n)

    @given(p=nonzero, q=st.integers(0, 40), n=st.integers(-6, 6))
    @settings(max_examples=100)
    def test_twists_invert(self, p, q, n):
        if p == 0 and q == 0:
            return
        t = reduce(p, q)
        assert add_integral(add_integral(t, n), -n) == t
        assert add_vertical(add_vertical(t, n), -n) == t


class TestTwoBridge:
    def test_unknot_and_unlink(self):
        assert numerator_closure(TangleFraction(1, 0)).is_unknot
        assert numerator_closure(TangleFraction(0, 1)).is_unlink
        assert numerator_closure(reduce(-1, 4)).is_unknot

    def test_components(self):
        assert numerator_closure(reduce(4, 1)).components == 2
        assert numerator_closure(reduce(5, 2)).components == 1
        assert numerator_closure(TangleFraction(1, 0)).components == 1  # the unknot
        assert numerator_closure(TangleFraction(0, 1)).components == 2  # the unlink

    def test_torus_reporting(self):
        assert numerator_closure(reduce(4, 1)).torus_parameter() == 4
        assert numerator_closure(reduce(-4, 1)).torus_parameter() == -4
        assert numerator_closure(reduce(5, 2)).torus_parameter() is None

    def test_hopf_amphichiral(self):
        assert numerator_closure(reduce(2, 1)) == numerator_closure(reduce(-2, 1))

    def test_figure_eight_amphichiral(self):
        assert numerator_closure(reduce(5, 2)) == numerator_closure(reduce(-5, 2))

    def test_trefoil_chiral(self):
        assert numerator_closure(reduce(3, 1)) != numerator_closure(reduce(-3, 1))

    def test_spec_residue(self):
        tb = numerator_closure(reduce(5, 2))
        assert (tb.p, tb.q) == (5, 2)

    @given(p=st.integers(2, 40), q=st.integers(1, 200))
    @settings(max_examples=200)
    def test_schubert_relation(self, p, q):
        from math import gcd

        if gcd(p, q % p if q % p else p) != 1 or q % p == 0:
            return
        qinv = pow(q % p, -1, p)
        assert canonical_two_bridge(p, q) == canonical_two_bridge(p, qinv)
        assert canonical_two_bridge(p, q) == canonical_two_bridge(p, q + p)

    @given(p=st.integers(2, 40), q=st.integers(1, 40))
    @settings(max_examples=200)
    def test_canonicalization_idempotent(self, p, q):
        from math import gcd

        if gcd(p, q) != 1:
            return
        tb = canonical_two_bridge(p, q)
        rep = tb.qc if tb.mirror > 0 else -tb.qc
        assert canonical_two_bridge(tb.p, rep) == tb
        assert tb.mirrored().mirrored() == tb

    def test_mirror_is_negated_residue(self):
        """b(p, q) mirrors to b(p, -q), for every coprime q in -p..2p-1 and p <= 60."""
        from math import gcd

        pairs = 0
        for p in range(61):
            for q in range(-p, 2 * p):
                if gcd(q, p) == 1:
                    assert canonical_two_bridge(p, q).mirrored() == canonical_two_bridge(p, -q)
                    pairs += 1
        assert pairs == 3306


class TestDeletionPair:
    def test_paper_value(self):
        assert _solve_capped(4, 0) == reduce(-1, 4)

    def test_hopf_case(self):
        assert _solve_capped(2, 0) == reduce(-1, 2)

    def test_generalized(self):
        assert _solve_capped(6, 0) == reduce(-1, 6)
        assert _solve_capped(5, 0) == reduce(-1, 5)

    def test_mirror_products(self):
        assert _solve_capped(-4, 0) == reduce(1, 4)

    def test_rejects_trivial_products(self):
        with pytest.raises(NoSolution):
            _solve_capped(1, 0)

    @pytest.mark.parametrize("L", range(3, 9))
    def test_uniqueness_certificate(self, L):
        cert = deletion_uniqueness_certificate(L, bound=50)
        assert cert.unique
        assert cert.solutions == (reduce(-1, L),)

    def test_certificate_checks_both_equations(self):
        cert = deletion_uniqueness_certificate(4, bound=10)
        assert cert.candidates_checked > 50


class TestInversion:
    def test_trefoil(self):
        assert solve_inversion_v(reduce(-1, 4), 3) == 1

    def test_five_torus(self):
        assert solve_inversion_v(reduce(-1, 4), 5) == -1

    def test_wrong_handed_five_torus_needs_nine(self):
        assert solve_inversion_v(reduce(-1, 4), -5) == 9

    def test_in_trans_inversion(self):
        assert solve_inversion_v(reduce(-1, 2), 3) == -1

    def test_even_product_rejected(self):
        with pytest.raises(NoSolution):
            solve_inversion_v(reduce(-1, 4), 4)

    def test_realizable_from_general_tangle(self):
        # N(2/5 + 1/-1) closes to the fraction -3/2, the right trefoil
        assert solve_inversion_v(reduce(2, 5), 3) == -1

    def test_unrealizable(self):
        # both determinant candidates close to b(9,2), never a torus link
        with pytest.raises(NoSolution):
            solve_inversion_v(reduce(2, 5), 9)


class TestInTrans:
    def test_paper_case(self):
        frac, dts = solve_in_trans(4, 4, 4, 2)
        assert frac == reduce(-1, 2)
        assert dts == frozenset({0, 4})

    def test_general_case_single_dt(self):
        frac, dts = solve_in_trans(6, 4, 4, 3)
        assert frac == reduce(1, -1)
        assert dts == frozenset({(-6 + 4 + 4 - 2 * 3) // 2})

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            solve_in_trans(4, 4, 3, 2)

    def test_absolute_two_rejected(self):
        with pytest.raises(UnsupportedCase):
            solve_in_trans(2, 4, 4, 2)


class TestClosureWithFiller:
    def test_zero_filler_is_numerator(self):
        t = reduce(5, 2)
        assert closure_with_filler(t, TangleFraction(0, 1)) == numerator_closure(t)

    def test_infinity_filler_is_denominator(self):
        t = reduce(-1, 4)
        assert closure_with_filler(t, TangleFraction(1, 0)) == torus_two_bridge(4)

    def test_inversion_products(self):
        t = reduce(-1, 4)
        assert closure_with_filler(t, reduce(1, 1)) == torus_two_bridge(3)
        assert closure_with_filler(t, reduce(1, -1)) == torus_two_bridge(5)

    def test_bad_filler_rejected(self):
        with pytest.raises(ValueError):
            closure_with_filler(reduce(1, 2), reduce(2, 3))
