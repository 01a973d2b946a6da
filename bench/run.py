"""tanglekit benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/`` goes first on the path of
every interpreter it starts (the package need not be installed).  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  The line
before it holds the context record and per-run detail.  Exit status is 0
only when every op matched its oracle.  Every time is scaled toward the
speed of a fixed reference sampled around the measured spans (see
bench/hostspeed.py); the raw times are in the detail line.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from hostspeed import REF_S, Helper, Reference, scaled_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "data")
OUT = os.path.join(ROOT, ".bench_out")
# The traced census runs the full `enumerate --max-crossings 4`.  The timed
# census repeats `enumerate --max-crossings 3` (~0.85 s): a command of ~13 s
# outlasts the host's speed phases, and the reference samples around it
# cannot tell what speed it ran at.
CENSUS_EXPECTED = os.path.join(DATA, "census_n4.json")
CENSUS_MAX_CROSSINGS = 4
CENSUS_DIAGRAMS = 251_465  # 5 + 72 + 1,020 + 15,120 + 235,248
CENSUS_UNIT_EXPECTED = os.path.join(DATA, "census_n3.json")
CENSUS_UNIT_CROSSINGS = 3
CENSUS_UNIT_DIAGRAMS = 16_217  # 5 + 72 + 1,020 + 15,120
SHARD_JOBS = 2  # the traced shard path: `enumerate --jobs 2`'s workers in turn
IDENTIFY_SETUP_REPEATS = 2  # fresh identify interpreters per run (~5 s each)
TRACE_PASSES = 3  # identify passes per traced run; layer metrics need no more
SESSION_CYCLE_S = 11  # a cli_session cycle with its no-op and reference samples, 2-core Xeon VM
PROC_TIMEOUT_S = 170
PYTHON = sys.executable

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "ops/s",
    "cpu_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
CLI_COMMANDS = ("solve", "pjh", "verify", "identify", "lk", "reduce", "deduce")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


# -- processes --------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for proc with os.wait4 so its rusage (children included) is kept."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return end, ru


class Run:
    """One finished process (or pipeline): times, rusage and output."""

    def __init__(self, start, ends, rusages, code, stdout, stderr):
        self.start = start
        self.ends = ends  # one per process, in pipeline order
        self.wall_s = max(ends) - start
        self.cpu_s = sum(ru.ru_utime + ru.ru_stime for ru in rusages)
        self.peak_rss_mb = max(ru.ru_maxrss for ru in rusages) / 1024
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def run_procs(argvs: list[list[str]], workdir: str, pass_fds: tuple[int, ...] = ()) -> Run:
    """Run argvs as a pipeline (stdout of each feeds the next), stdin empty;
    pass_fds stay open in the last process."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    procs = []
    with open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
        start = perf_counter()
        prev = subprocess.DEVNULL
        for i, argv in enumerate(argvs):
            last = i == len(argvs) - 1
            p = subprocess.Popen(
                argv, stdin=prev, stdout=fout if last else subprocess.PIPE, stderr=ferr,
                env=_env(), cwd=ROOT, pass_fds=pass_fds if last else (),
            )
            if prev is not subprocess.DEVNULL:
                prev.close()
            prev = p.stdout
            procs.append(p)
        try:
            reaped = [_reap(p, PROC_TIMEOUT_S) for p in procs]
        finally:
            for p in procs:
                if p.returncode is None:  # interrupted: leave nothing running
                    p.kill()
                    os.waitpid(p.pid, 0)
                    p.returncode = -signal.SIGKILL
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    code = next((p.returncode for p in procs if p.returncode), 0)
    return Run(start, [e for e, _ in reaped], [ru for _, ru in reaped], code, stdout, stderr)


def cli_argv(args: list[str]) -> list[str]:
    return [PYTHON, "-m", "tanglekit.cli", *args]


def child(body: str, args: list[str], workdir: str, helper: Helper | None = None) -> tuple[Run, dict]:
    """Run a body of child.py; with a helper, the child may ask it for
    reference samples."""
    fds: tuple[int, ...] = ()
    if helper:
        args = [*args, "--ref-fds", helper.fds()]
        fds = tuple(int(fd) for fd in helper.fds().split(","))
    run = run_procs([[PYTHON, os.path.join(HERE, "child.py"), body, *args]], workdir, fds)
    sys.stderr.write(run.stderr)
    if run.code != 0:
        raise BenchError(f"child {body} exited {run.code}: {run.stderr[-2000:]}")
    return run, json.loads(run.stdout.strip().splitlines()[-1])


def timed(argvs: list[list[str]], workdir: str, ref: Reference) -> Run:
    """Run argvs, then take a reference sample."""
    run = run_procs(argvs, workdir)
    ref.sample()
    return run


def noop_setup(workdir: str) -> float:
    """Raw wall time of a cold start of the CLI module, the floor every
    command pays."""
    run = run_procs([[PYTHON, "-c", "import tanglekit.cli"]], workdir)
    if run.code != 0:
        raise BenchError(f"cannot import tanglekit.cli: {run.stderr[-2000:]}")
    return run.wall_s


# -- statistics -------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest whole percentile
    with at least ten samples beyond it.  With fewer than 20 samples no
    percentile above the median qualifies, and the median stands in (the
    maximum of a handful of samples would only measure the noise)."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 50, -1):
        idx = -(-pct * n // 100) - 1  # nearest rank
        beyond = n - idx - 1
        if beyond >= 10:
            return xs[idx], pct, beyond
    return statistics.median(xs), 50, n // 2


def upper_quartile(samples: list[float]) -> tuple[float, int, int]:
    """(value, 75, samples beyond it) at nearest rank."""
    xs = sorted(samples)
    idx = -(-75 * len(xs) // 100) - 1
    return xs[idx], 75, len(xs) - idx - 1


def end_to_end(setups, units, done, latencies, rss, by_name=None) -> tuple[dict, dict]:
    """All times scaled by the reference.  setups: set-up samples; units:
    (wall, cpu) of each whole unit of work -- an enumerate command, a pass
    over the identify pool, or a cli_session cycle; done: correct ops in all
    units.  by_name (cli_session): the latencies' median per command name;
    then p50 is their median and the tail the upper quartile of all the
    latencies (see session_workload)."""
    value, pct, beyond = tail(latencies)
    p50 = None
    if by_name:
        p50 = statistics.median(by_name.values())
        value, pct, beyond = upper_quartile(latencies)
    walls = [w for w, _ in units]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "throughput_per_s": done / len(units) / statistics.median(walls),
        "cpu_s": statistics.median(c for _, c in units),
        "latency_p50_ms": (statistics.median(latencies) if p50 is None else p50) * 1000,
        "latency_tail_ms": value * 1000,
        "peak_rss_mb": rss,
    }
    detail = {"latency_tail_percentile": pct, "latency_tail_beyond": beyond,
              "latency_samples": len(latencies), "units": len(units),
              "setup_samples_s": setups}
    return metrics, detail


def raw_detail(ref: list[float], setups: list[float], walls: list[float]) -> dict:
    """The unscaled figures, and the reference samples that scaled them."""
    return {"reference_ms": {"median": statistics.median(ref) * 1000, "min": min(ref) * 1000,
                             "max": max(ref) * 1000, "samples": len(ref), "nominal": REF_S * 1000},
            "raw_setup_s": statistics.median(setups), "raw_wall_s": statistics.median(walls)}


# -- workloads --------------------------------------------------------------------


def another_op(start: float, last_s: float, seconds: float) -> bool:
    """Start another op (or cycle) when it should end by seconds + half an op."""
    return perf_counter() - start + last_s / 2 < seconds


def census_workload(args, workdir: str) -> tuple[dict, int, int, dict]:
    if args.trace:
        return census_trace(args, workdir)
    with open(CENSUS_UNIT_EXPECTED, encoding="utf-8") as fh:
        expected = fh.read()
    out_path = os.path.join(workdir, "report.json")
    argv = ["enumerate", "--max-crossings", str(CENSUS_UNIT_CROSSINGS), "--out", out_path]
    spans, rss, ok, failed = [], 0.0, 0, 0  # (start, end, no-op, enumerate)
    start = last = perf_counter()
    ref = Reference(args.helper.take)
    while not spans or another_op(start, perf_counter() - last, args.seconds):
        last = perf_counter()
        if os.path.exists(out_path):
            os.remove(out_path)
        raw = noop_setup(workdir)
        run = timed([cli_argv(argv)], workdir, ref)
        spans.append((last, perf_counter(), raw, run))
        rss = max(rss, run.peak_rss_mb)
        identical = False
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                identical = fh.read() == expected
        if run.code == 0 and identical:
            ok += CENSUS_UNIT_DIAGRAMS
        else:
            failed += CENSUS_UNIT_DIAGRAMS
            sys.stderr.write(f"census report differs from {CENSUS_UNIT_EXPECTED} (exit {run.code})\n")
    fs = [ref.factor(t0, t1) for t0, t1, _, _ in spans]
    units = [(run.wall_s * f, run.cpu_s * f) for f, (_, _, _, run) in zip(fs, spans)]
    setups = [raw * f for f, (_, _, raw, _) in zip(fs, spans)]
    metrics, detail = end_to_end(setups, units, ok, [w for w, _ in units], rss)
    detail.update(raw_detail(ref.samples, [raw for _, _, raw, _ in spans],
                             [run.wall_s for _, _, _, run in spans]))
    return metrics, ok + failed, failed, detail


def census_trace(args, workdir: str):
    """Serial census untraced and traced, then the shard path traced."""
    out_path = os.path.join(workdir, "report.json")
    common = ["--expected", CENSUS_EXPECTED, "--out", out_path]
    _, plain = child("census", common, workdir)
    _, traced = child("census", common + ["--trace", "--spans", spans_path(args)], workdir)
    _, sharded = child(
        "census", common + ["--jobs", str(SHARD_JOBS), "--trace",
                            "--spans", spans_path(args, "-shard")], workdir,
    )
    runs = (plain, traced, sharded)
    failed = sum(CENSUS_DIAGRAMS for r in runs if not (r["identical"] and r["exit"] == 0))
    layers = traced["layers"]
    searched = sum(lv["shadows"] for lv in sharded["levels"].values())
    kept = sum(lv["kept"] for lv in sharded["levels"].values())
    layers["census.shard.searched_shadows"] = searched
    layers["census.shard.kept_shadows"] = kept
    layers["census.shard.kept_ratio"] = kept / searched
    layers.update(overhead(traced["wall_s"], plain["wall_s"]))
    detail = {
        "levels": traced["levels"],
        "shard_levels": sharded["levels"],
        "shard_dedup_rejected": sharded["layers"]["census.dedup.rejected"],
        "shard_verdict_split": sharded["layers"]["census.verdict.split"],
        "spans": traced["spans"],
    }
    return layers, len(runs) * CENSUS_DIAGRAMS, failed, detail


def overhead(traced: float, plain: float) -> dict:
    return {"trace.wall_s": traced, "trace.untraced_wall_s": plain,
            "trace.overhead_s": traced - plain}


def spans_path(args, suffix: str = "") -> str:
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, f"spans-{args.workload}{suffix}.bin")


def generated_inputs(args, workdir: str) -> tuple[str, bool]:
    """Write the seed's inputs (and the cli_session files) from a child,
    so that this process, whose image every command it forks starts
    from, stays small; (the inputs' path, whether a pin checked them).  A
    child refuses inputs that differ from the pinned ones, so that a change
    to the code that builds them cannot change the workload."""
    path = os.path.join(workdir, "inputs.json")
    _, res = child("inputs", ["--workload", args.workload, "--seed", str(args.seed),
                              "--out", path, "--workdir", workdir], workdir)
    return path, res["pinned"]


def check_command(cmd: dict, code: int, stdout: str, stderr: str) -> bool:
    """True when a command's exit code and output match its oracle."""
    if code != cmd["exit"]:
        return False
    (kind, want), = cmd["check"].items()
    try:
        if kind == "stdout":
            return stdout == want
        if kind == "json":
            return json.loads(stdout) == want
        if kind == "verify":
            report = json.loads(stdout)
            return (
                [c["passed"] for c in report["checks"]] == want
                and not report["inconclusive"]
                and report["passed"] == all(want)
            )
        if kind == "reduce":
            return (
                stdout.startswith("tangle k=3 n=0\n")
                and json.loads(stderr.strip().splitlines()[-1]) == want
            )
    except (ValueError, KeyError, IndexError, TypeError):
        return False
    raise ValueError(f"unknown check {kind!r}")


def identify_workload(args, workdir: str):
    inputs, pinned = generated_inputs(args, workdir)
    until = perf_counter() + args.seconds  # the run, set-ups included
    base = ["--inputs", inputs, "--until", repr(until)]
    if args.trace:
        fixed = base + ["--passes", str(TRACE_PASSES)]
        _, plain = child("identify", fixed, workdir, args.helper)
        _, traced = child("identify", fixed + ["--trace", "--spans", spans_path(args)], workdir,
                          args.helper)
        layers = traced["layers"]
        layers.update(overhead(traced["wall_s"], plain["wall_s"]))
        attempted = len(plain["latencies"]) + len(traced["latencies"])
        detail = {"spans": traced["spans"], "inputs_pinned": pinned}
        return layers, attempted, plain["failed"] + traced["failed"], detail
    # fresh interpreters: set-up only, then one that also runs the passes
    setups, raw_setups, refs = [], [], []
    for i in range(IDENTIFY_SETUP_REPEATS):
        setup_only = ["--setup-only"] if i < IDENTIFY_SETUP_REPEATS - 1 else []
        before = args.helper.take()
        run, res = child("identify", base + setup_only, workdir, args.helper)
        setup, raw = scaled_spans(run.start, before, res["setup_marks"])
        setups.append(setup)
        raw_setups.append(raw)
        refs += [before] + [r for _, r in res["setup_marks"]] + res.get("reference_samples", [])
    metrics, detail = end_to_end(setups, res["passes"], res["ok"], res["latencies"], res["peak_rss_mb"])
    detail.update(raw_detail(refs, raw_setups, res["raw_pass_walls"]))
    detail["inputs_pinned"] = pinned
    return metrics, len(res["latencies"]), res["failed"], detail


def session_workload(args, workdir: str):
    sched_path, pinned = generated_inputs(args, workdir)
    with open(sched_path, encoding="utf-8") as fh:
        schedule = json.load(fh)
    setups, raw_setups, latencies, raw_walls, cycles, spans = [], [], [], [], [], []
    rss, ok, failed = 0.0, 0, 0
    by_command: dict[str, list[float]] = {name: [] for name in CLI_COMMANDS}
    # A fixed number of whole cycles, so that every run has the same command
    # mix and its latency statistics are the same order statistics; a traced
    # run needs one cycle for the per-command latencies.
    n_cycles = 1 if args.trace else max(1, round(args.seconds / SESSION_CYCLE_S))
    ref = Reference(args.helper.take)
    while len(spans) < n_cycles:
        cycle_setups, cycle_runs, cycle_start = [], [], perf_counter()
        for cmd in schedule:
            cycle_setups.append(noop_setup(workdir))
            argvs = [cli_argv(cmd["argv"])]
            if cmd.get("pipe_from"):
                argvs.insert(0, cli_argv(cmd["pipe_from"]))
            run = timed(argvs, workdir, ref)
            cycle_runs.append((argvs, run))
            rss = max(rss, run.peak_rss_mb)
            if check_command(cmd, run.code, run.stdout, run.stderr):
                ok += 1
            else:
                failed += 1
                sys.stderr.write(f"cli_session: {' '.join(cmd['argv'])} failed its check"
                                 f" (exit {run.code}): {run.stderr[-500:]}\n")
        spans.append((cycle_start, perf_counter(), cycle_setups, cycle_runs))
    for t0, t1, cycle_setups, cycle_runs in spans:
        f = ref.factor(t0, t1)
        setups += [x * f for x in cycle_setups]
        raw_setups += cycle_setups
        for argvs, run in cycle_runs:
            for argv, end in zip(argvs, run.ends):
                by_command[argv[3]].append((end - run.start) * f)
            latencies.append(run.wall_s * f)
        wall = sum(run.wall_s for _, run in cycle_runs)
        cpu = sum(run.cpu_s for _, run in cycle_runs)
        cycles.append((wall * f, cpu * f))
        raw_walls.append(wall)
    command_p50 = {name: statistics.median(xs) for name, xs in by_command.items()}
    if args.trace:
        _, plain = child("session", ["--schedule", sched_path], workdir)
        _, traced = child("session", ["--schedule", sched_path, "--trace",
                                      "--spans", spans_path(args)], workdir)
        layers = traced["layers"]
        layers["cli.startup_s"] = statistics.median(setups)
        for name, p50 in command_p50.items():
            layers[f"cli.{name}.latency_ms"] = p50 * 1000
        layers["cli.table_build.share"] = traced["table_build_share"]
        layers.update(overhead(traced["wall_s"], plain["wall_s"]))
        failed += plain["failed"] + traced["failed"]
        detail = {"spans": traced["spans"], "inputs_pinned": pinned}
        return layers, len(latencies) + 2 * len(schedule), failed, detail
    # p50 is the median of the per-command medians, which lies among the
    # cheap commands; the median of all commands would sit on the edge
    # between the cheap and the table-building ones, and jump from one to
    # the other.  The tail is percentile 75, the median of the 12 table-
    # building commands of 27; the rule of tail() would give percentile 62,
    # the second-fastest of them, again an edge.
    metrics, detail = end_to_end(setups, cycles, ok, latencies, rss, by_name=command_p50)
    detail.update(raw_detail(ref.samples, raw_setups, raw_walls))
    detail.update(commands=len(latencies), inputs_pinned=pinned,
                  command_p50_ms={name: p50 * 1000 for name, p50 in command_p50.items()})
    return metrics, len(latencies), failed, detail


WORKLOADS = {
    "census": census_workload,
    "identify": identify_workload,
    "cli_session": session_workload,
}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# -- context ----------------------------------------------------------------------


def _cpuinfo(key: str) -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _llc() -> str:
    """Largest cache level from sysfs, else /proc/cpuinfo's "cache size"."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "")
    try:
        for idx in os.listdir(base):
            with open(os.path.join(base, idx, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(base, idx, "size"), encoding="utf-8") as fh:
                best = max(best, (level, f"L{level} {fh.read().strip()}"))
    except (OSError, ValueError):
        pass
    return best[1] or _cpuinfo("cache size")


def runner_peak_rss_mb() -> float:
    """This process's own peak RSS (VmHWM), which a forked command's
    ru_maxrss starts from.  ru_maxrss of this process would also hold the
    image of whatever started it."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def context(args) -> dict:
    probe = subprocess.run(
        [PYTHON, "-c", "import tanglekit; print(tanglekit.__file__)"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=PROC_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import tanglekit from {SRC}: {probe.stderr[-2000:]}")
    tk_file = probe.stdout.strip()
    if not os.path.realpath(tk_file).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"tanglekit resolved to {tk_file}, not the checkout's src/")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpuinfo("model name"),
        "llc": _llc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "TANGLEKIT_BUDGET": os.environ.get("TANGLEKIT_BUDGET"),
        "tanglekit_file": tk_file,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tanglekit", "cli.py")):
        sys.stderr.write(f"bench: no tanglekit sources under {SRC}\n")
        return 2
    if "TANGLEKIT_BUDGET" in os.environ:
        sys.stderr.write("bench: TANGLEKIT_BUDGET is set; unset it so the default budget applies\n")
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    args.helper = Helper()
    try:
        ctx = context(args)
        values, attempted, failed, detail = WORKLOADS[args.workload](args, workdir)
    except BenchError as e:
        sys.stderr.write(f"bench: {e}\n")
        return 2
    finally:
        args.helper.close()
        shutil.rmtree(workdir, ignore_errors=True)
    ctx["loadavg_end"] = os.getloadavg()
    ctx["runner_peak_rss_mb"] = runner_peak_rss_mb()
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
        unknown = sorted(set(values) - set(units))
        if unknown:
            sys.stderr.write(f"bench: traced values missing from BENCHMARK.json: {unknown}\n")
            return 2
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail["fail_ratio"] = failed / attempted
    print(json.dumps({"context": ctx, "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
