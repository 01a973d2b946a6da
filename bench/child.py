"""In-process workload bodies, each run in a fresh interpreter by run.py.

A fresh interpreter per body matters: ``enumerate`` switches
``rewrite._VALIDATE`` off for the rest of its process, and the fingerprint
table and closure probes are ``lru_cache``d, so either would leak from one
workload into the next.  Prints one JSON object on stdout.

    python3 bench/child.py identify --inputs FILE --until T --ref-fds W,R [--setup-only] [--passes N] [--trace]
    python3 bench/child.py census [--jobs 2] --expected FILE --out FILE [--trace]
    python3 bench/child.py session --schedule FILE [--trace]
    python3 bench/child.py inputs --workload NAME --seed N --out FILE --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import tanglekit  # noqa: E402
import tanglekit.cli  # noqa: E402,F401

from hostspeed import Reference, connect, mark  # noqa: E402
from run import CENSUS_MAX_CROSSINGS, check_command  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402

IDENTIFY_CHUNK = 14  # queries between two reference samples (~0.5 s)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def identify_body(args, tracer: Tracer | None) -> dict:
    # calls go through module attributes, which is where tracing hooks in
    from tanglekit.diagram import build, identify, pdcode
    from tanglekit.rational import reduce

    from inputs import link_answer

    with open(args.inputs, encoding="utf-8") as fh:
        queries = json.load(fh)
    # set-up as spans between reference samples: the imports above (from the
    # parent's spawn), then the one-time caches, paid once per process: the
    # table and the probes
    take = connect(args.ref_fds)  # the parent's reference helper
    marks = [mark(take)]
    identify._fingerprint_table()
    marks.append(mark(take))
    identify.recover_fraction(build.rational_tangle_diagram(reduce(2, 5)))
    marks.append(mark(take))
    out = {"setup_marks": marks}
    if args.setup_only:
        return out

    ref = Reference(take)
    spans, ok, failed = [], 0, 0  # (start, end, wall, cpu, latencies) of each pass
    start = last = perf_counter()

    def more() -> bool:
        if args.passes:
            return len(spans) < args.passes
        return not spans or perf_counter() + (perf_counter() - last) / 2 < args.until

    # whole passes over the pool, so every run asks the same mix; a
    # reference sample after every IDENTIFY_CHUNK queries
    while more():
        last = perf_counter()
        wall = cpu = 0.0
        pass_lat = []
        for c in range(0, len(queries), IDENTIFY_CHUNK):
            chunk, chunk_cpu = perf_counter(), _cpu_s()
            for q in queries[c:c + IDENTIFY_CHUNK]:
                t0 = perf_counter()
                try:
                    d = pdcode.parse_pd(q["pd"])
                    if q["kind"] == "closed":
                        got = link_answer(identify.identify_link(d))
                    else:
                        got = str(identify.recover_fraction(d))
                except Exception as e:  # an exception is a failed op, not a crash
                    got = f"{type(e).__name__}: {e}"
                pass_lat.append(perf_counter() - t0)
                if got == q["expect"]:
                    ok += 1
                else:
                    failed += 1
                    sys.stderr.write(f"identify mismatch on {q['fraction']}: {got!r} != {q['expect']!r}\n")
            wall, cpu = wall + perf_counter() - chunk, cpu + _cpu_s() - chunk_cpu
            ref.sample()
        spans.append((last, perf_counter(), wall, cpu, pass_lat))
    latencies, passes = [], []
    for t0, t1, wall, cpu, pass_lat in spans:
        f = ref.factor(t0, t1)
        latencies += [x * f for x in pass_lat]
        passes.append((wall * f, cpu * f))
    out["reference_samples"] = ref.samples
    out.update(
        wall_s=perf_counter() - start,
        passes=passes,
        raw_pass_walls=[wall for _, _, wall, _, _ in spans],
        latencies=latencies,
        ok=ok,
        failed=failed,
        peak_rss_mb=_peak_rss_mb(),
    )
    return out


def census_body(args, tracer: Tracer | None) -> dict:
    from tanglekit import census, cli

    levels: dict[int, dict] = {}
    counts = tracer.counts if tracer else None

    def snapshot() -> tuple:
        if counts is None:
            return (0, 0)
        return (counts["census.search.shadows"], tracer.calls["census.strings"])

    start = perf_counter()
    if args.jobs == 1:
        classify_level = census.classify_level

        def per_level(n, *a, **k):
            before = snapshot()
            rep = classify_level(n, *a, **k)
            after = snapshot()
            levels[n] = {"total": rep.total, "shadows": after[0] - before[0],
                         "kept": after[1] - before[1]}
            return rep

        census.classify_level = per_level
        code = cli.main(["enumerate", "--max-crossings", str(CENSUS_MAX_CROSSINGS), "--out", args.out])
    else:
        # `enumerate --jobs J` with its pool workers run one after another
        # in this process, so the tracer sees every worker's search
        reports = []
        for n in range(CENSUS_MAX_CROSSINGS + 1):
            merged = census.EnumerationReport(n)
            for w in range(args.jobs):
                before = snapshot()
                part = cli._level_worker((n, False, args.jobs, w))
                after = snapshot()
                lv = levels.setdefault(n, {"total": 0, "shadows": 0, "kept": 0})
                lv["total"] += part["total"]
                lv["shadows"] += after[0] - before[0]
                lv["kept"] += after[1] - before[1]
                part.pop("holds")
                merged = merged.merge(census.EnumerationReport(**part))
            reports.append(merged)
        cli._emit({"levels": [r.as_dict() for r in reports]}, args.out)
        code = 0 if all(r.holds for r in reports) else 1
    wall = perf_counter() - start
    with open(args.out, "rb") as fh, open(args.expected, "rb") as exp:
        identical = fh.read() == exp.read()
    return {"wall_s": wall, "exit": code, "identical": identical, "levels": levels,
            "peak_rss_mb": _peak_rss_mb()}


def session_body(args, tracer: Tracer | None) -> dict:
    """The cli_session schedule through cli.main, each command cold.

    Clearing the caches and the validation switch before every command
    gives each one the state a fresh ``tanglekit`` process starts in.
    """
    from tanglekit import cli
    from tanglekit.diagram import identify, rewrite


    with open(args.schedule, encoding="utf-8") as fh:
        schedule = json.load(fh)

    def call(argv: list[str], stdin: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    ok = failed = rebuilt = 0
    start = perf_counter()
    for cmd in schedule:
        identify._fingerprint_table.cache_clear()
        identify._closure_fingerprints.cache_clear()
        rewrite._VALIDATE = True
        builds = tracer.counts["identify.table.builds"] if tracer else 0
        stdin = ""
        if cmd.get("pipe_from"):
            _, stdin, _ = call(cmd["pipe_from"], "")
        code, out, err = call(cmd["argv"], stdin)
        if tracer and tracer.counts["identify.table.builds"] > builds:
            rebuilt += 1
        if check_command(cmd, code, out, err):
            ok += 1
        else:
            failed += 1
            sys.stderr.write(f"session mismatch on {cmd['argv']}: exit {code}\n")
    return {"wall_s": perf_counter() - start, "ok": ok, "failed": failed,
            "table_build_share": rebuilt / len(schedule)}


def inputs_body(args, tracer: Tracer | None) -> dict:
    """Write a seed's identify queries, or its cli_session schedule and
    files, after checking them against the pins."""
    from inputs import GENERATORS, PINNED, digest, materialise, pinned_digest

    data = GENERATORS[args.workload](args.seed)
    want = pinned_digest(args.workload, args.seed)
    if want is not None and digest(data) != want:
        sys.stderr.write(f"{args.workload} inputs of seed {args.seed} differ from those pinned"
                         f" in {PINNED}; the code that builds them changed\n")
        raise SystemExit(2)
    if args.workload == "cli_session":
        data = materialise(data, args.workdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return {"pinned": want is not None}


BODIES = {"identify": identify_body, "census": census_body, "session": session_body,
          "inputs": inputs_body}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("body", choices=sorted(BODIES))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the spans here (with --trace)")
    ap.add_argument("--inputs")
    ap.add_argument("--ref-fds", dest="ref_fds", help="pipes to the reference helper (identify)")
    ap.add_argument("--until", type=float, default=0.0, help="perf_counter() to stop passes by")
    ap.add_argument("--passes", type=int, default=0, help="exact passes instead of --seconds")
    ap.add_argument("--setup-only", action="store_true", dest="setup_only")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--expected")
    ap.add_argument("--out")
    ap.add_argument("--schedule")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workdir")
    args = ap.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    result = BODIES[args.body](args, tracer)
    result["tanglekit_file"] = tanglekit.__file__
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["spans"] = len(tracer.span_name)
        if args.spans:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
