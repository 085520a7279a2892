"""The lambdamu benchmark: one workload per call, or all of them, or a self-check.

    python3 perfbench/run.py --workload suite-11 --seed 1 --seconds 7 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-check

Each workload runs in fresh single-threaded processes started one after
another (worker.py), from the root of a checkout with the package under
``src``.  Set-up -- process start, import and input generation -- is
done SETUP_RUNS times and reported as the median.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of a traced run with ``--trace 1``.  ``correct`` is false when
any output or pinned fact was wrong; the exit code is then still 0, and
it is 1 only when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
TIME_LIMIT_S = 170


def run_worker(workload, seed, seconds, trace, setup_only, deadline) -> dict:
    """Run worker.py once and return the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - launched))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    setups = [] if trace else [
        run_worker(workload, seed, seconds, trace, True, deadline)
        for _ in range(SETUP_RUNS - 1)]
    r = run_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(r)
    correct = r["failed"] == 0 and r.get("facts_ok", True)
    if trace:
        metrics = r["layers"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": r["wall_s"],
            "items_per_s": r["items_per_pass"] / r["wall_s"],
            "item_p50_ms": r["item_p50_ms"],
            "item_p99_ms": r["item_p99_ms"],
            "peak_rss_mb": r["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in spec.END_TO_END}
    error_rate = r["failed"] / r["attempted"]
    print(f"{workload}: seed {seed}, {r['passes']} timed pass(es), "
          f"{r['items']} item latencies (each the median over the "
          f"passes), outputs digest {r['digest']}")
    for name, m in metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
        print(f"{workload}  raw seconds: setup {raw_setup:.6g} s, "
              f"wall {r['wall_raw_s']:.6g} s")
    print(f"{workload}  error_rate = {error_rate:.6g} "
          f"({r['failed']} of {r['attempted']} wrong)")
    return {"correct": correct, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics, "digest": r["digest"]}


def self_check(deadline) -> bool:
    """Seeds 1 and 2 give the same verdicts and work counts on every
    workload, and BENCHMARK.json names the metrics this code prints."""
    ok = True
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "workloads": [(w["name"], w["why"]) for w in bench["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"], m["bound"])
                       for m in bench["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"])
                      for m in bench["per_layer"]],
    }
    expected = {
        "workloads": list(spec.WORKLOADS.items()),
        "end_to_end": spec.END_TO_END,
        "per_layer": [m[:3] for m in spec.PER_LAYER],
    }
    for key in expected:
        if [tuple(x) for x in declared[key]] != [tuple(x) for x in expected[key]]:
            print(f"self-check: BENCHMARK.json {key} differ from spec.py")
            ok = False
    counts = [name for name, unit, _, _ in spec.PER_LAYER
              if unit == "count" and not name.startswith("python.")]
    for workload in spec.WORKLOADS:
        runs = [run_workload(workload, seed, 0, 1, deadline)
                for seed in (1, 2)]
        for r in runs:
            ok = ok and r["correct"]
        if runs[0]["digest"] != runs[1]["digest"]:
            print(f"self-check: {workload}: verdicts differ between seeds")
            ok = False
        for name in counts:
            a, b = (r["metrics"][name]["value"] for r in runs)
            if a != b:
                print(f"self-check: {workload}: {name} is {a} with seed 1 "
                      f"and {b} with seed 2")
                ok = False
    print(f"self-check: {'passed' if ok else 'FAILED'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*spec.WORKLOADS, "all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=7,
                    help="timed work per run; at least one pass is made")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="compare two seeds and BENCHMARK.json against spec.py")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lambdamu").is_dir():
        print(f"no lambdamu package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        if args.self_check:
            return 0 if self_check(time.monotonic() + 3600) else 1
        deadline = time.monotonic() + TIME_LIMIT_S
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, deadline)
            result.pop("digest")
        else:
            deadline += TIME_LIMIT_S * (len(spec.WORKLOADS) - 1)
            results = {w: run_workload(w, args.seed, args.seconds, args.trace,
                                       deadline) for w in spec.WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
