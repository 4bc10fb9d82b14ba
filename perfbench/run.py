"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lib-roundtrip --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src`` of
the same tree.  Steps, each in a fresh interpreter:

1. compile the bytecode of ``src`` and ``perfbench`` (not timed);
2. make the seeded inputs into a scratch directory (not timed);
3. start ``SETUP_PROBES - 1`` interpreters that only set up, then the
   measured one; ``setup_s`` is the median of all their set-up times,
   each divided by the host's slowdown measured right after it
   (``calib.py``);
4. the measured interpreter runs the workload's fixed operation list and
   checks every output.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer ones; the traced run also writes its spans
and per-layer summary to ``perfbench/_out/``.  The last line of standard
output is the result object.  Exits non-zero, printing no result, when a
step fails or the program is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lib-roundtrip", "svc-small", "stream-large")
SETUP_PROBES = 5
#: every run must end within 180 s; leave room for clean-up
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode: str, workload: str, work: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
            "--work", str(work), *extra]


class Runner:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = _env()

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def call(self, cmd: list[str]) -> tuple[float, str]:
        """Run ``cmd`` to its end; (start time, its standard output).

        The child leads its own process group, so that on a time-out the
        gateway's pool workers are stopped along with it."""
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=self._left())
        except (subprocess.TimeoutExpired, BenchError) as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
        return start, out

    def timed(self, cmd: list[str]) -> tuple[float, str]:
        """Run ``cmd``; (set-up seconds from start to READY in reference-box
        seconds, last output line)."""
        start, out = self.call(cmd)
        lines = out.strip().splitlines()
        ready = [float(ln.split()[1]) for ln in lines if ln.startswith("READY ")]
        slowdown = [float(ln.split()[1]) for ln in lines if ln.startswith("SLOWDOWN ")]
        if not ready or not slowdown:
            raise BenchError(f"no READY or SLOWDOWN line from {' '.join(cmd)}")
        return (ready[0] - start) / slowdown[0], lines[-1]


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no src/repro under {ROOT}")
    units = _units()
    runner = Runner(time.monotonic() + DEADLINE_S)
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner.call([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)])
        runner.call(_worker("inputs", workload, work, "--seed", str(seed)))
        setups = [runner.timed(_worker("setup", workload, work))[0] for _ in range(SETUP_PROBES - 1)]
        extra = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            extra += ["--trace-out", str(HERE / "_out" / f"{workload}-seed{seed}-trace.json")]
        setup_s, line = runner.timed(_worker("run", workload, work, *extra))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = json.loads(line)
    metrics = report["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups + [setup_s])
    missing = set(metrics) - set(units)
    if missing:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {sorted(missing)}")
    if report["reasons"]:
        print("problems (first few): " + "; ".join(report["reasons"]), file=sys.stderr)
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
