"""A/A steadiness check: the same commit, run repeatedly in fresh processes.

    python3 perfbench/aa.py --workloads lib-roundtrip svc-small --runs 10 --sets 2

Each run is ``perfbench/run.py`` with its own seed (``--seed0`` + run
index, the same seeds in every set), workloads interleaved so that slow
drift of the machine spreads over all of them.  For each workload and
end-to-end metric it prints the median, the quartiles, the spread
(quartile distance over the median, as ``statistics.quantiles(n=4)``
gives them) against the metric's bound, and, with two sets, how far the
second set's median moved in the worse direction.  Use it to set bounds:
a bound should be at least three times the spread seen here.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in args.workloads:
                r = _one(w, args.seed0 + i, args.seconds)
                results[w][s].append(r)
                print(f"set {s + 1} run {i + 1} {w}: failed {r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)

    for w in args.workloads:
        sets = results[w]
        shares = sorted({r["failed"] / r["attempted"] for runs in sets for r in runs})
        print(f"\n{w}: {args.runs} runs x {args.sets} set(s), failed share {shares}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'spr/bnd':>7s}")
        for name, (bound, better) in bounds.items():
            line = ""
            meds = []
            for k, runs in enumerate(sets):
                q1, med, q3 = _stats([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                spread = (q3 - q1) / med
                if k == 0:
                    line = (f"  {name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
                            f"{bound:6.2f} {spread / bound:7.2f}")
                else:
                    line += f" | set2 spread {spread:6.3f}"
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if better == "higher":
                    worse = -worse
                line += f"  drift {worse:+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
