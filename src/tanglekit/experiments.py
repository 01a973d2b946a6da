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


# The config's JSON layout: section -> JSON key -> ExperimentSystem field.
_LAYOUT = {
    "deletion": {"e": "L1", "attR": "L2", "attL": "L3"},
    "inversion": {"e": "inv1", "attR": "inv2", "attL": "inv3"},
    "in_trans": {"deletion": "Lt", "inversion": "inv_t"},
    "framing": {"d1": "d1", "d2": "d2", "d3": "d3"},
}


class ExperimentSystem(Record):
    """Products and framing of the full experiment set (signed = handed)."""

    __slots__ = _fields = tuple(f for keys in _LAYOUT.values() for f in keys.values())

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
        """Read an `as_dict`-shaped config; a missing key keeps its default.

        A wrong shape, a non-integer value, or a section or key that
        `_LAYOUT` does not name is a UsageError, checked in that order.
        """
        if not isinstance(data, dict):
            raise UsageError("experiment config must be a JSON object")
        for name in _LAYOUT:
            if not isinstance(data.get(name, {}), dict):
                raise UsageError(f"experiment config {name!r} must be a JSON object")
        values = {}
        for name, keys in _LAYOUT.items():
            given = data.get(name, {})
            for key, field in keys.items():
                if key not in given:
                    continue
                got = values[field] = given[key]
                if type(got) is not int:  # bool is an int subclass; floats truncate
                    raise UsageError(
                        f"experiment config {name}.{key} must be an integer, got {got!r}"
                    )
        for name, given in data.items():
            if name not in _LAYOUT:
                raise UsageError(f"experiment config has no section {name!r}")
            for key in given:
                if key not in _LAYOUT[name]:
                    raise UsageError(f"experiment config has no key {f'{name}.{key}'!r}")
        return cls(**values)

    def as_dict(self) -> dict:
        return {
            name: {key: getattr(self, field) for key, field in keys.items()}
            for name, keys in _LAYOUT.items()
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


def _named(equation: str, solve, *args):
    """solve(*args), with a NoSolution's message led by the equation's name."""
    try:
        return solve(*args)
    except NoSolution as e:
        raise NoSolution(f"{equation}: {e}") from e


def solve_system(sys: ExperimentSystem) -> SolutionReport:
    """Solve the full equation system; names the failing equation on error."""
    os_ = [
        _named(f"in cis deletion equation {i}", _solve_capped, L, d)
        for i, (L, d) in enumerate(((sys.L1, sys.d1), (sys.L2, sys.d2), (sys.L3, sys.d3)), 1)
    ]
    vs = [
        _named(f"in cis inversion equation {i}", solve_inversion_v, O, inv)
        for i, (O, inv) in enumerate(zip(os_, (sys.inv1, sys.inv2, sys.inv3)), 1)
    ]
    frac, dts = solve_in_trans(sys.L1, sys.L2, sys.L3, sys.Lt)
    v_t = _named("in trans inversion equation", solve_inversion_v, frac, sys.inv_t)
    return SolutionReport(*os_, frac, *vs, frozenset(dts), v_t)


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


def verify_solution_tangle(
    d: TangleDiagram, in_trans: bool = False, L: int = 4, Lt: int = 2
) -> VerificationReport:
    """Check the normal-form equations on a 3-string tangle diagram.

    For each i the capped tangle must close to the unknot against 0/1 and
    to the right-handed (2,L) torus link against 1/0.  With in_trans also
    checks that removing the enhancer strand s23 leaves the -1/(Lt) pair.
    Each tangle is cut out of d just before its two closures are
    identified.  Identification failures (fingerprint out of table) are
    reported as inconclusive, not as refutations.  |L| < 2 or |Lt| < 2 is
    a UsageError: (2,0) is the unlink and (2,+-1) the unknot, not a torus
    link product, as `_solve_capped` rules.
    """
    from .diagram.identify import LinkId, identify_link
    from .diagram.surgery import cap, close_with, remove_string

    for name, value in (("L", L), ("Lt", Lt)):
        if abs(value) < 2:
            raise UsageError(
                f"|{name}| must be at least 2: (2,{value}) is not a genuine torus link product"
            )
    if d.k != 6:
        raise TangleError("verify_solution_tangle needs a 3-string tangle")
    # (name, cut, where, product): the tangle cut(d, where) must close to
    # the unknot against 0/1 and to the (2,product) torus link against 1/0
    equations = [(f"O{i}", cap, i, L) for i in (1, 2, 3)]
    if in_trans:
        equations.append(("(T - s23)", remove_string, "s23", Lt))
    report = VerificationReport()
    for name, cut, where, product in equations:
        tangle = cut(d, where)
        torus = LinkId.from_two_bridge(torus_two_bridge(product))
        for filler, expect, what in (
            (TangleFraction(0, 1), LinkId("unknot"), "unknot"),
            (TangleFraction(1, 0), torus, f"(2,{product}) torus"),
        ):
            observed = identify_link(close_with(tangle, filler))
            report.checks.append(
                EquationCheck(
                    f"N({name} + {filler}) = {what}",
                    str(expect),
                    str(observed),
                    observed == expect,
                    inconclusive=observed.kind == "unknown",
                )
            )
    return report
