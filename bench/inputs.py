"""Seeded inputs for the identify and cli_session workloads, with oracles.

Every input is built from ``--seed`` with ``random.Random(seed)`` and every
expected answer comes from exact arithmetic in ``tanglekit.rational`` (the
2-bridge classification of rational tangle closures), not from the
diagram code that the workload times.  Where no arithmetic oracle exists
(``solve`` reports, ``deduce`` closures, the fixture candidates) the
expected stdout is a golden entry in ``bench/data/golden.json``, recorded at
the seed commit and checked by hand.

The pools are stratified -- the same number of queries of each crossing
count, table membership and inflation depth for every seed -- so that a
seed changes which links are asked about but not how much work they are.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import gcd

from tanglekit.diagram.build import continued_fraction, rational_tangle_diagram
from tanglekit.diagram.identify import MAX_TABLE_P, LinkId
from tanglekit.diagram.pdcode import emit_pd
from tanglekit.diagram.rewrite import apply_r1_add, apply_r2_add
from tanglekit.diagram.surgery import close_numerator, close_with_x_arcs
from tanglekit.errors import TangleError
from tanglekit.experiments import build_standard
from tanglekit.rational import (
    TangleFraction,
    closure_with_filler,
    numerator_closure,
    reduce,
    torus_two_bridge,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
BUDGET = 14  # the default bracket budget; TANGLEKIT_BUDGET must be unset
MAX_P = 40
MAX_BASE_CROSSINGS = 10
MAX_INFLATION = 4
RECOVER_BOUND = 8  # recover_fraction's default search bound


def _crossings(fr: TangleFraction) -> int:
    return sum(abs(t) for t in continued_fraction(fr))


def _closed_pool() -> dict[tuple[int, bool], list[TangleFraction]]:
    """(base crossings, in table?) -> fractions whose closure is 2-bridge."""
    pool: dict[tuple[int, bool], list[TangleFraction]] = {}
    for P in range(2, MAX_P + 1):
        for q in range(1, P):
            if gcd(P, q) != 1:
                continue
            for sign in (1, -1):
                fr = reduce(sign * P, q)
                n = _crossings(fr)
                if n <= MAX_BASE_CROSSINGS:
                    pool.setdefault((n, P <= MAX_TABLE_P), []).append(fr)
    return pool


def inflate(rng: random.Random, d, moves: int):
    """Add `moves` seeded R1 kinks / R2 pushes, staying within the budget."""
    done = 0
    while done < moves:
        room = BUDGET - d.n
        if room < 1:
            break
        if room >= 2 and rng.random() < 0.5:
            faces = [[x for x in f if x < d.num_darts] for f in d.faces]
            faces = [f for f in faces if len(f) >= 2]
            if faces:
                d1, d2 = rng.sample(rng.choice(faces), 2)
                if d.alpha[d1] != d2:
                    try:
                        d = apply_r2_add(d, d1, d2, over_first=rng.random() < 0.5)
                    except TangleError:
                        continue
                    done += 1
                    continue
        if d.num_darts:
            d = apply_r1_add(d, rng.randrange(d.num_darts), rng.randrange(4))
        else:
            break
        done += 1
    return d


def link_answer(lid: LinkId) -> dict:
    """What the identify CLI prints for a LinkId, minus formatting."""
    out = {"link": str(lid), "kind": lid.kind}
    if lid.torus is not None:
        out["torus_p"] = lid.torus
    if lid.two_bridge is not None:
        out["p"] = lid.two_bridge.p
        out["q"] = lid.two_bridge.q
        out["mirror"] = lid.two_bridge.mirror
    if lid.components is not None:
        out["components"] = lid.components
    return out


def closure_oracle(fr: TangleFraction) -> dict:
    """Expected identification of N(fr): in the table iff |p| <= MAX_TABLE_P."""
    tb = numerator_closure(fr)
    if abs(fr.p) <= MAX_TABLE_P:
        return link_answer(LinkId.from_two_bridge(tb))
    return link_answer(LinkId("unknown", components=tb.components))


# -- identify -------------------------------------------------------------------

IN_TABLE_CROSSINGS = range(3, MAX_BASE_CROSSINGS + 1)  # 8 strata
OFF_TABLE_CROSSINGS = range(6, MAX_BASE_CROSSINGS + 1)  # 5 strata; p > 10 needs n >= 6
RECOVER_CROSSINGS = range(3, 9)  # 6 strata of fractions with |p|,|q| <= 8
CLOSED_PER_STRATUM = 4
RECOVER_PER_STRATUM = 3


def identify_queries(seed: int) -> list[dict]:
    """70 queries: 32 in-table closures, 20 off-table closures, 18 recoveries.

    Every seed gets the same number of queries per (kind, base crossing
    count) stratum and the same inflation depth per slot.
    """
    rng = random.Random(seed)
    pool = _closed_pool()
    slots = [(n, True) for n in IN_TABLE_CROSSINGS for _ in range(CLOSED_PER_STRATUM)]
    slots += [(n, False) for n in OFF_TABLE_CROSSINGS for _ in range(CLOSED_PER_STRATUM)]
    queries = []
    for i, (n, in_table) in enumerate(slots):
        fr = rng.choice(pool[(n, in_table)])
        d = inflate(rng, close_numerator(rational_tangle_diagram(fr)), i % (MAX_INFLATION + 1))
        queries.append(
            {"kind": "closed", "fraction": str(fr), "pd": emit_pd(d), "expect": closure_oracle(fr)}
        )
    recover_pool: dict[int, list[TangleFraction]] = {}
    for q in range(1, RECOVER_BOUND + 1):
        for p in range(-RECOVER_BOUND, RECOVER_BOUND + 1):
            if p and gcd(abs(p), q) == 1:
                fr = TangleFraction(p, q)
                recover_pool.setdefault(_crossings(fr), []).append(fr)
    slots = [n for n in RECOVER_CROSSINGS for _ in range(RECOVER_PER_STRATUM)]
    for i, n in enumerate(slots):
        fr = rng.choice(recover_pool[n])
        d = inflate(rng, rational_tangle_diagram(fr), i % (MAX_INFLATION + 1))
        queries.append({"kind": "recover", "fraction": str(fr), "pd": emit_pd(d), "expect": str(fr)})
    rng.shuffle(queries)
    return queries


# -- cli_session ------------------------------------------------------------------

STANDARD_TWISTS = range(-4, 5)  # |n_j + n_k| <= 8 keeps every closure in the table
SOLVE_CONFIGS = ("table15", "framed", "long_deletions", "odd_inversions")
FACT_FILES = ("facts_empty", "facts_rational_solution", "facts_opposite", "facts_incompressible")
CANDIDATES = ("candidate_8x", "candidate_9x")


def load_golden() -> dict:
    with open(os.path.join(DATA, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def verify_oracle(ns: tuple[int, int, int], L: int = 4) -> list[bool]:
    """Per-check outcome of `verify` on build_standard(*ns), by arithmetic.

    Capping string i leaves the vertical tangle 1/(n_j + n_k); the checks
    ask N(. + 0/1) = unknot and N(. + 1/0) = right-handed (2, L).
    """
    torus = LinkId.from_two_bridge(torus_two_bridge(L))
    out = []
    for i in range(3):
        m = sum(ns) - ns[i]
        capped = reduce(1, m) if m else TangleFraction(1, 0)
        out.append(closure_with_filler(capped, TangleFraction(0, 1)).is_unknot)
        out.append(LinkId.from_two_bridge(closure_with_filler(capped, TangleFraction(1, 0))) == torus)
    return out


def session_inputs(seed: int) -> dict:
    """One cycle of nine CLI commands; four of them build the fingerprint table.

    Returns ``{"commands": [...], "files": {name: text}}``.  Each command:
    name, argv (after ``tanglekit``), optional ``pipe_from`` argv whose
    stdout feeds this command, the expected exit code and the check applied
    to the output.  Paths in argv read ``{work}/NAME`` for a generated file
    in ``files`` and ``{data}/NAME`` for a fixture; ``materialise`` fills
    them in.  The result depends on the seed only, so it can be pinned.
    """
    rng = random.Random(seed)
    golden = load_golden()
    pool = _closed_pool()
    files: dict[str, str] = {}

    def write(name: str, text: str) -> str:
        files[name] = text
        return "{work}/" + name

    def standard() -> dict:
        ns = tuple(rng.choice(STANDARD_TWISTS) for _ in range(3))
        expect = verify_oracle(ns)
        path = write("standard.pd", emit_pd(build_standard(*ns)))
        return {
            "name": "verify", "argv": ["verify", "--pd", path],
            "exit": 0 if all(expect) else 1, "check": {"verify": expect},
        }

    def identify(n: int, in_table: bool) -> dict:
        fr = rng.choice(pool[(n, in_table)])
        d = inflate(rng, close_numerator(rational_tangle_diagram(fr)), 2)
        path = write("link.pd", emit_pd(d))
        return {"name": "identify", "argv": ["identify", "--pd", path], "exit": 0,
                "check": {"json": closure_oracle(fr)}}

    def from_golden(name: str, key: str, argv: list[str]) -> dict:
        return {"name": name, "argv": argv, "exit": golden[key]["exit"],
                "check": {"stdout": golden[key]["stdout"]}}

    config = rng.choice(SOLVE_CONFIGS)
    facts = rng.choice(FACT_FILES)
    candidate = rng.choice(CANDIDATES)
    # lk(s_ab, s_bc) = n_b / 2 for build_standard: twist region b joins them
    halves = [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
    xarc = write("xarc.pd", emit_pd(close_with_x_arcs(build_standard(*(2 * h for h in halves)))))
    reducible = inflate(
        rng, build_standard(*(rng.choice(STANDARD_TWISTS) for _ in range(3))), rng.randint(1, 3)
    )
    reduce_path = write("reduce.pd", emit_pd(reducible))
    commands = [
        from_golden("solve", "solve_default", ["solve"]),
        {"name": "verify", "argv": ["verify", "--in-trans"], "pipe_from": ["pjh"], "exit": 0,
         "check": {"verify": [True] * 8}},
        standard(),
        identify(rng.choice(range(3, 9)), True),
        from_golden("solve", f"solve_{config}", ["solve", "--config", f"{{data}}/{config}.json"]),
        {"name": "lk", "argv": ["lk", "--pd", xarc], "exit": 0,
         "check": {"json": {"s12|s23": halves[1], "s12|s31": halves[0], "s23|s31": halves[2]}}},
        {"name": "reduce", "argv": ["reduce", "--free", "--pd", reduce_path], "exit": 0,
         "check": {"reduce": {"before": reducible.n, "after": 0, "mode": "free", "target": None}}},
        from_golden("deduce", f"deduce_{facts}", ["deduce", "--facts", f"{{data}}/{facts}.json"]),
        from_golden("verify", f"verify_{candidate}", ["verify", "--pd", f"{{data}}/{candidate}.pd"]),
    ]
    return {"commands": commands, "files": files}


def materialise(session: dict, workdir: str) -> list[dict]:
    """Write the session's files into workdir; return its runnable commands."""
    for name, text in session["files"].items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    out = []
    for cmd in session["commands"]:
        cmd = dict(cmd)
        cmd["argv"] = [a.format(work=workdir, data=DATA) for a in cmd["argv"]]
        out.append(cmd)
    return out


# -- pinning ----------------------------------------------------------------------

PINNED = os.path.join(DATA, "input_hashes.json")
PINNED_SEEDS = range(100)


def digest(inputs) -> str:
    """sha256 of a workload's generated inputs, as canonical JSON."""
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


GENERATORS = {"identify": identify_queries, "cli_session": session_inputs}


def pinned_digest(workload: str, seed: int) -> str | None:
    """The committed digest of a seed's inputs, or None for an unpinned seed."""
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)[workload].get(str(seed))


if __name__ == "__main__":
    # python3 bench/inputs.py  -- re-pin the inputs of seeds 0-99 (from the repo root,
    # with src/ on PYTHONPATH); only ever needed when the workloads are redefined
    pins = {name: {str(s): digest(gen(s)) for s in PINNED_SEEDS} for name, gen in GENERATORS.items()}
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
