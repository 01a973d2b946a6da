"""Command-line surface: solve, pjh, verify, identify, lk, enumerate,
deduce, reduce.

Every run writes a machine-readable report (JSON with sorted keys, so
identical inputs yield byte-identical output).  Exit codes: 0 success,
1 verification failure, 2 usage error (including a missing or unreadable
input file, malformed or non-planar PD text, malformed or wrongly shaped
JSON, a config value that is not a JSON integer, an unknown fact atom, a
negative --max-crossings, a --jobs below 1, a negative reduce --target,
a verify --L or --Lt below 2 in absolute value and a bad
TANGLEKIT_BUDGET), 3 budget exceeded.

Each subcommand imports the modules it runs inside its handler.  A cold
process without bytecode caches (PYTHONDONTWRITEBYTECODE, a read-only
install) compiles every module it imports, and compiling all of them took
longer than most commands' own work.  The package's records share one
base class, `_record.Record`, which generates no code, so no command
loads the standard library's record-class generator, nor the `inspect`,
`ast` and `dis` it pulls in.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    BudgetExceeded,
    NoSolution,
    ParityViolation,
    TangleError,
    UnsupportedCase,
    UsageError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(data, out: str | None) -> None:
    _write(json.dumps(data, sort_keys=True, indent=2) + "\n", out)


def _load_json(path: str):
    """The JSON value in a file; whatever `json` refuses is a usage error,
    including an integer past the int-string limit and nesting past the
    recursion limit."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:
            raise UsageError(str(e)) from e


def _read_pd(path: str | None):
    from .diagram.pdcode import parse_pd

    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        return parse_pd(text)
    except TangleError as e:
        raise UsageError(str(e)) from e


def _cmd_solve(args) -> int:
    from .experiments import ExperimentSystem, solve_system

    if args.config:
        system = ExperimentSystem.from_dict(_load_json(args.config))
    else:
        system = ExperimentSystem()
    try:
        report = solve_system(system)
    except (NoSolution, ParityViolation, UnsupportedCase) as e:
        _emit({"error": str(e), "system": system.as_dict()}, args.out)
        return EXIT_FAIL
    _emit({"system": system.as_dict(), "solution": report.as_dict()}, args.out)
    return EXIT_OK


def _cmd_pjh(args) -> int:
    from .diagram.pdcode import emit_pd
    from .experiments import pjh_tangle

    _write(emit_pd(pjh_tangle()), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .experiments import verify_solution_tangle

    d = _read_pd(args.pd)
    report = verify_solution_tangle(d, in_trans=args.in_trans, L=args.L, Lt=args.Lt)
    _emit(report.as_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_identify(args) -> int:
    from .diagram.identify import identify_link

    d = _read_pd(args.pd)
    lid = identify_link(d)
    data = {"link": str(lid), "kind": lid.kind}
    if lid.torus is not None:
        data["torus_p"] = lid.torus
    if lid.two_bridge is not None:
        data["p"] = lid.two_bridge.p
        data["q"] = lid.two_bridge.q
        data["mirror"] = lid.two_bridge.mirror
    if lid.components is not None:
        data["components"] = lid.components
    _emit(data, args.out)
    return EXIT_OK


def _cmd_lk(args) -> int:
    from .diagram.invariants import linking_matrix

    d = _read_pd(args.pd)
    matrix = linking_matrix(d)
    data = {f"{a}|{b}": v for (a, b), v in sorted(matrix.items())}
    _emit(data, args.out)
    return EXIT_OK


def _level_worker(payload):
    from . import census

    n, extended, jobs, worker = payload
    rep = census.classify_level(n, extended=extended, shard=(jobs, worker))
    return rep.as_dict()


def _cmd_enumerate(args) -> int:
    from . import census

    if args.max_crossings < 0:
        raise UsageError(
            f"--max-crossings must be a non-negative integer, got {args.max_crossings}"
        )
    if args.jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, got {args.jobs}")
    extended = args.extended
    census.check_level_gate(args.max_crossings, extended)
    levels = range(args.max_crossings + 1)
    if args.jobs > 1:
        import multiprocessing as mp

        reports = []
        with mp.Pool(args.jobs) as pool:
            for n in levels:
                parts = pool.map(
                    _level_worker,
                    [(n, extended, args.jobs, w) for w in range(args.jobs)],
                )
                merged = census.EnumerationReport(n)
                for part in parts:
                    part.pop("holds")
                    merged = merged.merge(census.EnumerationReport(**part))
                reports.append(merged)
    else:
        reports = [census.classify_level(n, extended=extended) for n in levels]
    if args.unresolved_dir:
        os.makedirs(args.unresolved_dir, exist_ok=True)
        for rep in reports:
            for idx, code in enumerate(rep.unresolved):
                path = os.path.join(args.unresolved_dir, f"n{rep.n}_{idx:04d}.pd")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(code)
    _emit({"levels": [r.as_dict() for r in reports]}, args.out)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAIL


def _cmd_deduce(args) -> int:
    from .graphdeduce import FactBase, deduce

    data = _load_json(args.facts)
    facts = data.get("facts", []) if isinstance(data, dict) else None
    if not isinstance(facts, list) or data.keys() - {"facts"}:
        raise UsageError('fact file must be a JSON object {"facts": [...]}')
    fb = FactBase.from_atoms(facts)
    closed, trace = deduce(fb)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace.as_lines()) + "\n")
    _emit(
        {
            "facts": sorted(closed.facts),
            "consistent": closed.consistent,
            "planar": "Planar" in closed.facts,
            "steps": [s.as_dict() for s in trace.steps],
        },
        args.out,
    )
    return EXIT_OK if closed.consistent else EXIT_FAIL


def _cmd_reduce(args) -> int:
    from .diagram.pdcode import emit_pd
    from .diagram.rewrite import simplify

    if args.target is not None and args.target < 0:
        raise UsageError(f"--target must be a non-negative integer, got {args.target}")
    d = _read_pd(args.pd)
    mode = "free" if args.free else "rel_boundary"
    small = simplify(d, mode)
    _write(emit_pd(small), args.out)
    sys.stderr.write(
        json.dumps(
            {"before": d.n, "after": small.n, "mode": mode, "target": args.target},
            sort_keys=True,
        )
        + "\n"
    )
    if args.target is not None and small.n > args.target:
        return EXIT_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tanglekit",
        description="Exact 2/3-string tangle analysis of difference topology experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the experiment equation system")
    p.add_argument("--config", help="experiment JSON (defaults to the table values)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pjh", help="emit the reference solution tangle as PD")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pjh)

    p = sub.add_parser("verify", help="verify a tangle against the normal-form equations")
    p.add_argument("--pd", help="PD file (default stdin)")
    p.add_argument("--in-trans", action="store_true", dest="in_trans")
    p.add_argument("--L", type=int, default=4, help="in cis torus parameter")
    p.add_argument("--Lt", type=int, default=2, help="in trans torus parameter")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("identify", help="identify a closed link diagram")
    p.add_argument("--pd", help="PD file (default stdin)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("lk", help="pairwise linking numbers of a closed diagram")
    p.add_argument("--pd", help="PD file (default stdin)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lk)

    p = sub.add_parser("enumerate", help="classify all small tangle projections")
    p.add_argument("--max-crossings", type=int, required=True, dest="max_crossings")
    p.add_argument("--out")
    p.add_argument("--unresolved-dir", dest="unresolved_dir")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("deduce", help="close a planarity fact base under the rules")
    p.add_argument("--facts", required=True, help="JSON file {\"facts\": [...]}")
    p.add_argument("--trace", help="write a human-readable trace here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_deduce)

    p = sub.add_parser("reduce", help="crossing-reduction rewriting of a PD diagram")
    p.add_argument("--pd", help="PD file (default stdin)")
    p.add_argument("--free", action="store_true", help="allow free-isotopy moves")
    p.add_argument("--target", type=int, help="fail unless reduced to this size")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return EXIT_BUDGET
    except (UsageError, OSError, UnicodeDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except TangleError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
