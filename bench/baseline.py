"""Run every workload on several seeds and record medians and quartiles.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json [--trace-seed 1]

For each workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the inter-quartile distance as a share of the median.  The spread is what
the metric's ``bound`` in BENCHMARK.json is compared against.  With
``--trace-seed`` it also records one traced run's per-layer values.  Every
run's result line is kept under ``runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace-seed", type=int, dest="trace_seed")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    out = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
           "python": platform.python_version(), "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            started = time.time()
            info, result = run(name, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "elapsed_s": time.time() - started,
                         "loadavg": [info["context"]["loadavg_start"], info["context"]["loadavg_end"]],
                         "reference_ms": info["detail"]["reference_ms"],
                         "raw_wall_s": info["detail"]["raw_wall_s"],
                         "raw_setup_s": info["detail"]["raw_setup_s"],
                         "result": result})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr, flush=True)
        summary = {}
        for metric, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
        context = dict(info["context"])
        context["tanglekit_file"] = os.path.relpath(context["tanglekit_file"], ROOT)
        entry = {"end_to_end": summary, "runs": runs, "context": context}
        if args.trace_seed is not None:
            info, result = run(name, args.trace_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["trace_detail"] = info["detail"]
        out["workloads"][name] = entry
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
