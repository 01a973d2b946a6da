"""The difference-topology experiment model.

Binds the exact tangle calculus to the experiment products: the deletion /
inversion equation system, normal-form framing conversion, standard-tangle
construction, and the verification of candidate solution tangles at the
diagram level.

Experiment-to-index convention: the capped equation for index i models the
recombination sites flanking the corresponding tangle string, so index 1
is the enhancer-site experiment (sites on c2, c3), index 2 the attR-site
experiment and index 3 the attL-site experiment.  Each product is a plain
signed int k naming the (2,k) torus link, positive for right-handed.  The
defaults, `ExperimentSystem()`, encode three right-handed (2,4) in cis
deletion products, trefoil / 5-torus-knot inversion products, a (2,2) in
trans deletion and a trefoil in trans inversion.

Each in cis deletion pair with framing d is solved in closed form,
O_i = -1/(L_i + d_i) (`_solve_capped` carries the proof); the framing and
graph-twist conversions return plain (n1, n2, n3) tuples.

The equation system is solved in exact fraction arithmetic alone, so the
diagram imports sit inside the functions that build or verify diagrams:
`solve` then loads `rational` and none of the diagram engine, whose
compilation would otherwise dominate a cold `tanglekit solve`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._record import Record
from .errors import NoSolution, ParityViolation, TangleError, UsageError
from .rational import (
    TangleFraction,
    reduce,
    solve_in_trans,
    solve_inversion_v,
    torus_two_bridge,
)

if TYPE_CHECKING:
    from .diagram.core import TangleDiagram
    from .diagram.identify import LinkId


class ExperimentSystem(Record):
    """Products and framing of the full experiment set (signed = handed)."""

    __slots__ = _fields = (
        "L1", "L2", "L3", "inv1", "inv2", "inv3", "Lt", "inv_t", "d1", "d2", "d3"
    )

    def __init__(
        self,
        L1: int = 4,
        L2: int = 4,
        L3: int = 4,
        inv1: int = 3,
        inv2: int = 5,
        inv3: int = 3,
        Lt: int = 2,
        inv_t: int = 3,
        d1: int = 0,
        d2: int = 0,
        d3: int = 0,
    ):
        self.L1, self.L2, self.L3 = L1, L2, L3
        self.inv1, self.inv2, self.inv3 = inv1, inv2, inv3
        self.Lt, self.inv_t = Lt, inv_t
        self.d1, self.d2, self.d3 = d1, d2, d3

    @classmethod
    def from_dict(cls, data) -> "ExperimentSystem":
        """Read an `as_dict`-shaped config; a wrong shape is a UsageError."""
        if not isinstance(data, dict):
            raise UsageError("experiment config must be a JSON object")
        sections = []
        for name in ("deletion", "inversion", "in_trans", "framing"):
            sections.append(data.get(name, {}))
            if not isinstance(sections[-1], dict):
                raise UsageError(f"experiment config {name!r} must be a JSON object")
        deletion, inversion, trans, framing = sections

        def value(section: dict, name: str, key: str, default: int) -> int:
            got = section.get(key, default)
            if type(got) is not int:  # bool is an int subclass; floats truncate
                raise UsageError(
                    f"experiment config {name}.{key} must be an integer, got {got!r}"
                )
            return got

        return cls(
            L1=value(deletion, "deletion", "e", 4),
            L2=value(deletion, "deletion", "attR", 4),
            L3=value(deletion, "deletion", "attL", 4),
            inv1=value(inversion, "inversion", "e", 3),
            inv2=value(inversion, "inversion", "attR", 5),
            inv3=value(inversion, "inversion", "attL", 3),
            Lt=value(trans, "in_trans", "deletion", 2),
            inv_t=value(trans, "in_trans", "inversion", 3),
            d1=value(framing, "framing", "d1", 0),
            d2=value(framing, "framing", "d2", 0),
            d3=value(framing, "framing", "d3", 0),
        )

    def as_dict(self) -> dict:
        return {
            "deletion": {"e": self.L1, "attR": self.L2, "attL": self.L3},
            "inversion": {"e": self.inv1, "attR": self.inv2, "attL": self.inv3},
            "in_trans": {"deletion": self.Lt, "inversion": self.inv_t},
            "framing": {"d1": self.d1, "d2": self.d2, "d3": self.d3},
        }


class SolutionReport(Record):
    """Solved unknowns of the equation system."""

    __slots__ = _fields = ("O1", "O2", "O3", "T_minus_s23", "v1", "v2", "v3", "d_t_set", "v_t")

    def __init__(
        self,
        O1: TangleFraction,
        O2: TangleFraction,
        O3: TangleFraction,
        T_minus_s23: TangleFraction,
        v1: int,
        v2: int,
        v3: int,
        d_t_set: frozenset[int],
        v_t: int,
    ):
        self.O1, self.O2, self.O3 = O1, O2, O3
        self.T_minus_s23 = T_minus_s23
        self.v1, self.v2, self.v3 = v1, v2, v3
        self.d_t_set = d_t_set
        self.v_t = v_t

    def as_dict(self) -> dict:
        return {
            "O1": str(self.O1),
            "O2": str(self.O2),
            "O3": str(self.O3),
            "T_minus_s23": str(self.T_minus_s23),
            "v": [self.v1, self.v2, self.v3],
            "d_t": sorted(self.d_t_set),
            "v_t": self.v_t,
        }


def _solve_capped(L: int, d: int) -> TangleFraction:
    """X with N(X + 1/d) = right-handed (2,L) and N(X + 0/1) = unknot.

    The answer is X = -1/(L + d); at d = 0 it is the in cis deletion lemma
    X = -1/L.  Proof that it solves both equations: write X = p/q in
    canonical form.  Here |p| = 1, so N(X + 0/1) = N(X) is the unknot
    (b(1, q), or N(1/0) when q = 0).  Against the filler 1/d the closure
    is N(-(q + d*p)/p), and the right-handed (2,L) is N(L/1).  If
    L + d > 0, then p = -1 and q = L + d, so -(q + d*p)/p = L/1.  If
    L + d < 0, then p = 1 and q = -(L + d), so -(q + d*p)/p =
    -(-(L + d) + d) = L.  If L + d = 0, then X = 1/0 (p = 1, q = 0) and
    -(0 + d) = -d = L.
    """
    if abs(L) < 2:
        raise NoSolution(f"(2,{L}) is not a torus link product")
    return reduce(-1, L + d)


def solve_system(sys: ExperimentSystem) -> SolutionReport:
    """Solve the full equation system; names the failing equation on error."""
    os_ = []
    for i, (L, d) in enumerate(
        ((sys.L1, sys.d1), (sys.L2, sys.d2), (sys.L3, sys.d3)), start=1
    ):
        try:
            os_.append(_solve_capped(L, d))
        except NoSolution as e:
            raise NoSolution(f"in cis deletion equation {i}: {e}") from e
    vs = []
    for i, (O, inv) in enumerate(
        zip(os_, (sys.inv1, sys.inv2, sys.inv3)), start=1
    ):
        try:
            vs.append(solve_inversion_v(O, inv))
        except NoSolution as e:
            raise NoSolution(f"in cis inversion equation {i}: {e}") from e
    frac, dts = solve_in_trans(sys.L1, sys.L2, sys.L3, sys.Lt)
    try:
        v_t = solve_inversion_v(frac, sys.inv_t)
    except NoSolution as e:
        raise NoSolution(f"in trans inversion equation: {e}") from e
    return SolutionReport(
        os_[0], os_[1], os_[2], frac, vs[0], vs[1], vs[2], frozenset(dts), v_t
    )


def framing_convert(d1: int, d2: int, d3: int) -> tuple[int, int, int]:
    """Unique integers with n_i + n_j = d_k for {i,j,k} = {1,2,3}."""
    if (d1 + d2 + d3) % 2 != 0:
        raise ParityViolation("d1 + d2 + d3 must be even")
    half = (d1 + d2 + d3) // 2
    return (half - d1, half - d2, half - d3)


def solve_graph_twists(f1: int, f2: int, f3: int) -> tuple[int, int, int]:
    """Unique integers with n_i + n_j + f_k = -4 for {i,j,k} = {1,2,3}."""
    if (f1 + f2 + f3) % 2 != 0:
        raise ParityViolation("f1 + f2 + f3 must be even")
    return framing_convert(-4 - f1, -4 - f2, -4 - f3)


def build_standard(n1: int, n2: int, n3: int) -> TangleDiagram:
    """Standard tangle: three boundary twist regions on the trivial tangle.

    Capping at c_i yields the vertical tangle 1/(n_j + n_k); the reference
    solution tangle is build_standard(-2, -2, -2).
    """
    from .diagram.build import trivial_tangle
    from .diagram.surgery import add_boundary_twists

    d = trivial_tangle()
    for i, n in ((1, n1), (2, n2), (3, n3)):
        d = add_boundary_twists(d, i, n)
    return d


def pjh_tangle() -> TangleDiagram:
    return build_standard(-2, -2, -2)


class EquationCheck(Record):
    """One closure equation of a verification, with what was identified."""

    __slots__ = _fields = ("name", "expected", "observed", "passed", "inconclusive")
    __hash__ = None

    def __init__(
        self, name: str, expected: str, observed: str, passed: bool, inconclusive: bool = False
    ):
        self.name = name
        self.expected = expected
        self.observed = observed
        self.passed = passed
        self.inconclusive = inconclusive

    def as_dict(self) -> dict:
        return {
            "equation": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
        }


class VerificationReport(Record):
    """The equation checks of one verification, in the order they ran."""

    __slots__ = _fields = ("checks",)
    __hash__ = None

    def __init__(self, checks: list[EquationCheck] | None = None):
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def inconclusive(self) -> bool:
        return any(c.inconclusive for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "checks": [c.as_dict() for c in self.checks],
        }


def _check_closure(
    name: str, diagram: TangleDiagram, filler: TangleFraction, expect: LinkId
) -> EquationCheck:
    from .diagram.identify import identify_link
    from .diagram.surgery import close_with

    observed = identify_link(close_with(diagram, filler))
    if observed.kind == "unknown":
        return EquationCheck(name, str(expect), str(observed), False, inconclusive=True)
    return EquationCheck(name, str(expect), str(observed), observed == expect)


def verify_solution_tangle(
    d: TangleDiagram, in_trans: bool = False, L: int = 4, Lt: int = 2
) -> VerificationReport:
    """Check the normal-form equations on a 3-string tangle diagram.

    For each i the capped tangle must close to the unknot against 0/1 and
    to the right-handed (2,L) torus link against 1/0.  With in_trans also
    checks that removing the enhancer strand s23 leaves the -1/(Lt) pair.
    Identification failures (fingerprint out of table) are reported as
    inconclusive, not as refutations.  |L| < 2 or |Lt| < 2 is a
    UsageError: (2,0) is the unlink and (2,+-1) the unknot, not a torus
    link product, as `_solve_capped` rules.
    """
    from .diagram.identify import LinkId
    from .diagram.surgery import cap, remove_string

    for name, value in (("L", L), ("Lt", Lt)):
        if abs(value) < 2:
            raise UsageError(
                f"|{name}| must be at least 2: (2,{value}) is not a genuine torus link product"
            )
    if d.k != 6:
        raise TangleError("verify_solution_tangle needs a 3-string tangle")
    report = VerificationReport()
    unknot = LinkId("unknot")
    torus = LinkId.from_two_bridge(torus_two_bridge(L))
    for i in (1, 2, 3):
        capped = cap(d, i)
        report.checks.append(
            _check_closure(f"N(O{i} + 0/1) = unknot", capped, TangleFraction(0, 1), unknot)
        )
        report.checks.append(
            _check_closure(
                f"N(O{i} + 1/0) = (2,{L}) torus", capped, TangleFraction(1, 0), torus
            )
        )
    if in_trans:
        tprime = remove_string(d, "s23")
        hopf = LinkId.from_two_bridge(torus_two_bridge(Lt))
        report.checks.append(
            _check_closure(
                "N((T - s23) + 0/1) = unknot", tprime, TangleFraction(0, 1), unknot
            )
        )
        report.checks.append(
            _check_closure(
                f"N((T - s23) + 1/0) = (2,{Lt}) torus",
                tprime,
                TangleFraction(1, 0),
                hopf,
            )
        )
    return report
