"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every tolerance and time budget is pinned here; nothing is deferred to
later calibration.  Exact rational arithmetic means equality, not
closeness.
"""

import json
import random
import time
from itertools import combinations
from math import gcd

import pytest

from draws import random_diagram
from oracles import deletion_uniqueness_certificate
from poly_helpers import LaurentPoly, monomial
from tanglekit.census import verify_theorem_4_4
from tanglekit.diagram import (
    bracket_skein,
    bracket_state_sum,
    cap,
    close_numerator,
    close_with,
    close_with_x_arcs,
    fingerprint,
    identify_link,
    linking_number,
    rational_tangle_diagram,
)
from tanglekit.diagram.rewrite import apply_r1_add, apply_r2_add, apply_r3, r3_triangles
from tanglekit.errors import ParityViolation, TangleError
from tanglekit.experiments import (
    ExperimentSystem,
    framing_convert,
    pjh_tangle,
    solve_graph_twists,
    solve_system,
)
from tanglekit.graphdeduce import PLANAR, FactBase, deduce
from tanglekit.rational import (
    TangleFraction,
    numerator_closure,
    reduce,
)


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {verdict}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} exceeded time budget"


def test_criterion_1_equation_system():
    t0 = time.time()
    report = solve_system(ExperimentSystem())
    ok = (
        report.O1 == report.O2 == report.O3 == reduce(-1, 4)
        and report.T_minus_s23 == reduce(-1, 2)
        and (report.v1, report.v2, report.v3) == (1, -1, 1)
        and report.d_t_set == frozenset({0, 4})
        and report.v_t == -1
    )
    _report(1, "table-default system solves exactly", ok, time.time() - t0, 1.0)


def test_criterion_2_uniqueness_oracle():
    t0 = time.time()
    ok = True
    for L in range(3, 9):
        cert = deletion_uniqueness_certificate(L, bound=50)
        ok = ok and cert.unique and cert.solutions == (reduce(-1, L),)
    _report(2, "brute-force deletion-pair uniqueness for L in 3..8", ok, time.time() - t0, 10.0)


def test_criterion_3_reference_diagram_products():
    t0 = time.time()
    pjh = pjh_tangle()
    ok = True
    for i in (1, 2, 3):
        capped = cap(pjh, i)
        unk = close_with(capped, TangleFraction(0, 1))
        tor = close_with(capped, TangleFraction(1, 0))
        # the two bracket implementations must agree on both closures
        for link in (unk, tor):
            assert bracket_state_sum(link) == bracket_skein(link)
        lid_u = identify_link(unk)
        lid_t = identify_link(tor)
        ok = ok and lid_u.kind == "unknot" and lid_t.kind == "torus2" and lid_t.torus == 4
    _report(3, "capped closures identify as unknot and right (2,4)", ok, time.time() - t0, 30.0)


def test_criterion_4_linking_numbers():
    t0 = time.time()
    pjh = pjh_tangle()
    ok = True
    for i in (1, 2, 3):
        link = close_with(cap(pjh, i), TangleFraction(1, 0))
        a, b = [c.label for c in link.components]
        ok = ok and linking_number(link, a, b) == -2
    x3 = close_with_x_arcs(pjh)
    for a, b in combinations(("s12", "s23", "s31"), 2):
        ok = ok and linking_number(x3, a, b) == -1
    _report(4, "capped linking -2 and pairwise -1, exact", ok, time.time() - t0, 1.0)


def test_criterion_5_twist_solvers():
    t0 = time.time()
    ok = solve_graph_twists(0, 0, 0) == (-2, -2, -2)
    ok = ok and framing_convert(-1, 0, -1) == (0, -1, 0)
    for bad in ((1, 0, 0), (0, 1, 0)):
        try:
            solve_graph_twists(*bad)
            ok = False
        except ParityViolation:
            pass
        try:
            framing_convert(*bad)
            ok = False
        except ParityViolation:
            pass
    _report(5, "twist solvers exact with parity rejection", ok, time.time() - t0, 1.0)


def test_criterion_6_small_crossing_theorem():
    t0 = time.time()
    reports = verify_theorem_4_4(5)
    ok = all(r.holds for r in reports)
    # every diagram with <= 5 crossings is split
    ok = ok and [r.total for r in reports] == [5, 72, 1020, 15120, 235248, 3817536]
    for r in reports:
        ok = ok and r.split == r.total
        ok = ok and (r.total == r.split + r.parallel + r.reducible + len(r.unresolved))
        print(
            f"    n={r.n}: total={r.total} split={r.split} parallel={r.parallel} "
            f"reducible={r.reducible} unresolved={len(r.unresolved)}"
        )
    _report(6, "every projection with <= 5 crossings classified", ok, time.time() - t0, 600.0)


def test_criterion_7_property_suite():
    t0 = time.time()
    rng = random.Random(20260809)
    r1_up = monomial(3, -1)
    r1_dn = monomial(-3, -1)
    bracket_checks = 0
    r3_checks = 0
    while bracket_checks < 500:
        n = rng.randint(0, 8)
        link = close_numerator(random_diagram(rng, n, k=4))
        br = bracket_state_sum(link)
        move = rng.random()
        if move < 0.45 and link.num_darts:
            kinked = apply_r1_add(link, rng.randrange(link.num_darts), rng.randrange(4))
            kinked_br = LaurentPoly(bracket_state_sum(kinked))
            assert kinked_br in (r1_up * LaurentPoly(br), r1_dn * LaurentPoly(br))
            bracket_checks += 1
        elif move < 0.9:
            faces = [
                [x for x in f if x < link.num_darts] for f in link.faces
            ]
            faces = [f for f in faces if len(f) >= 2]
            if not faces:
                continue
            f = faces[rng.randrange(len(faces))]
            d1, d2 = rng.sample(f, 2)
            if d1 == d2 or link.alpha[d1] == d2:
                continue
            pushed = apply_r2_add(link, d1, d2, over_first=rng.random() < 0.5)
            assert bracket_state_sum(pushed) == br
            bracket_checks += 1
        else:
            tris = list(r3_triangles(link))
            if not tris:
                continue
            try:
                slid = apply_r3(link, tris[0])
            except TangleError:
                continue
            assert bracket_state_sum(slid) == br
            bracket_checks += 1
            r3_checks += 1
    # guaranteed clean triangles from mixed-sign standard tangles
    from itertools import product as iproduct

    from tanglekit.experiments import build_standard

    for signs in iproduct((1, -1), repeat=3):
        link = close_with_x_arcs(build_standard(*signs))
        for tri in r3_triangles(link):
            slid = apply_r3(link, tri)
            assert bracket_state_sum(slid) == bracket_state_sum(link)
            bracket_checks += 1
            r3_checks += 1
    # linking-number invariance on multi-component closures
    lk_checks = 0
    while lk_checks < 120:
        link = close_with_x_arcs(random_diagram(rng, rng.randint(0, 6), k=6))
        from tanglekit.diagram import linking_matrix

        base = linking_matrix(link)
        if link.num_darts:
            kinked = apply_r1_add(link, rng.randrange(link.num_darts), rng.randrange(4))
            assert linking_matrix(kinked) == base
        faces = [[x for x in f if x < link.num_darts] for f in link.faces]
        faces = [f for f in faces if len(f) >= 2]
        if faces:
            f = faces[rng.randrange(len(faces))]
            d1, d2 = rng.sample(f, 2)
            if d1 != d2 and link.alpha[d1] != d2:
                pushed = apply_r2_add(link, d1, d2, over_first=rng.random() < 0.5)
                assert linking_matrix(pushed) == base
        lk_checks += 1
    ok = bracket_checks >= 500 and r3_checks >= 10 and lk_checks >= 120
    _report(
        7,
        f"bracket/linking move invariance ({bracket_checks} bracket, "
        f"{r3_checks} R3, {lk_checks} linking checks)",
        ok,
        time.time() - t0,
        300.0,
    )


def _facts(path: str) -> FactBase:
    with open(path, encoding="utf-8") as fh:
        return FactBase.from_atoms(json.load(fh)["facts"])


def test_criterion_8_deduction_engine():
    t0 = time.time()
    corollary = _facts("bench/data/facts_opposite.json")
    closed, trace = deduce(corollary)
    ok = PLANAR in closed
    known = set(corollary.facts)
    for step in trace.steps:
        ok = ok and all(p in known for p in step.premises)
        known.add(step.derived)
    for path in (
        "tests/fixtures/facts_three_trans.json",
        "tests/fixtures/facts_no_common_vertex.json",
        "bench/data/facts_incompressible.json",
    ):
        closed_c, _ = deduce(_facts(path))
        ok = ok and PLANAR not in closed_c and closed_c.consistent
    _report(8, "corollary derives Planar; counterexamples never do", ok, time.time() - t0, 1.0)


def test_criterion_9_fraction_diagram_consistency():
    t0 = time.time()
    classes: dict = {}
    for q in range(0, 6):
        for p in range(-5, 6):
            if (p, q) == (0, 0) or (q == 0 and p != 1) or (p == 0 and q != 1):
                continue
            if q > 0 and p != 0 and gcd(abs(p), q) != 1:
                continue
            fr = TangleFraction(p, q)
            fp = fingerprint(close_numerator(rational_tangle_diagram(fr)))
            classes.setdefault(numerator_closure(fr), set()).add(fp)
    ok = all(len(v) == 1 for v in classes.values())
    reps = [next(iter(v)) for v in classes.values()]
    ok = ok and len(set(reps)) == len(reps)
    _report(9, "diagram closures match 2-bridge canonical forms, |p|,|q| <= 5", ok, time.time() - t0, 60.0)
