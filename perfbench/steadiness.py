"""Steadiness report: repeat each workload and compare spreads to bounds.

    python3 perfbench/steadiness.py --seeds 10
    python3 perfbench/steadiness.py --workloads serve-misses --seeds 5 --sets 2

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``, each run with another seed, and
prints for every end-to-end metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread — the quartile
distance as a share of the median — next to the metric's bound.  A
spread under a third of the bound is reported as ``steady``.  With
``--sets 2`` the whole series is run twice and the second median is
compared with the first, as a regression check of the same code would.
Exits 1 when any run fails or any spread or drift exceeds its bound
(the spread of ``setup_s`` is reported but not held to its bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        medians: List[Dict[str, float]] = []
        for set_index in range(args.sets):
            values: Dict[str, List[float]] = {name: [] for name in bounds}
            for k in range(args.seeds):
                seed = args.first_seed + set_index * args.seeds + k
                start = time.perf_counter()
                result = run_once(workload, seed, bench["run_seconds"])
                took = time.perf_counter() - start
                ok = ok and result["correct"] and result["failed"] == 0
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {set_index + 1} seed {seed}: "
                      f"{took:.1f}s attempted={result['attempted']} "
                      f"failed={result['failed']} " + " ".join(
                          f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds),
                      flush=True)
            print(f"\n{workload} set {set_index + 1} ({args.seeds} seeds)")
            print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>8s} {'bound':>6s}  verdict")
            set_medians = {}
            for name, meta in bounds.items():
                s = spread(values[name])
                set_medians[name] = s["median"]
                bound = meta["bound"]
                if s["spread"] < bound / 3:
                    verdict = "steady"
                elif s["spread"] <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    ok = ok and name == "setup_s"
                print(f"  {name:18s} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['spread']:8.4f} {bound:6.2f}  {verdict}")
            medians.append(set_medians)
        if len(medians) == 2:
            print(f"\n{workload}: second set against first")
            for name, meta in bounds.items():
                first, second = medians[0][name], medians[1][name]
                worse = (second - first) / first if meta["better"] == "lower" \
                    else (first - second) / first
                verdict = "ok" if worse <= meta["bound"] else "REGRESSION"
                ok = ok and verdict == "ok"
                print(f"  {name:18s} {first:12.6g} -> {second:12.6g} "
                      f"worse by {worse:+.4f} (bound {meta['bound']:.2f})  {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
