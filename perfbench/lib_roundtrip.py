"""lib-roundtrip: serial in-process compress -> decompress.

The six 3-D synthetic datasets at their default dims (s3d in float64)
through sz3, qoz, hpez and mgard, each with QP off and on, at a bound of
1e-3 of the field's value range.  One untimed warm-up pass, then a fixed
number of timed passes over the same operation list.  The compute layers
(predict, quantize, QP, Huffman, lossless) do nearly all the work.  Each
pass's times are divided by the host's slowdown during it (``calib.py``).
"""
from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from calib import Calibrator
from common import MB, Tally, median, quantile
from layertrace import alternate, operation

DATASETS = ("miranda", "hurricane", "segsalt", "scale", "s3d", "cesm")
COMPRESSORS = ("sz3", "qoz", "hpez", "mgard")
REL_BOUND = 1e-3
#: nominal seconds of one timed pass on the reference box; sets the pass
#: count from ``--seconds`` so that a run's work depends on its arguments only
PASS_SECONDS = 7.0


def units_for(seconds: float) -> int:
    """Timed passes for a run of ``seconds``."""
    return max(2, round(seconds / PASS_SECONDS))


def make_inputs(seed: int, work: Path, datasets=DATASETS) -> None:
    from repro.datasets import generate

    for ds in datasets:
        np.save(work / f"{ds}.npy", generate(ds, seed=seed))


class Session:
    """Set-up: load the fields and build one compressor per operation."""

    def __init__(self, work: Path, datasets=DATASETS, compressors=COMPRESSORS) -> None:
        from repro.compressors import get_compressor
        from repro.core import QPConfig

        self.ops = []
        for ds in datasets:
            arr = np.load(work / f"{ds}.npy")
            value_range = float(arr.max()) - float(arr.min())
            eb = REL_BOUND * value_range
            for name in compressors:
                for qp in (False, True):
                    comp = get_compressor(name, eb, qp=QPConfig() if qp else None)
                    self.ops.append((f"{ds}/{name}/{'qp' if qp else 'base'}", arr, eb, comp))

    def close(self) -> None:
        self.ops = []

    def _pass(self, tally: Tally | None, first_op: int, cal: Calibrator | None = None) -> list:
        """One pass over the operation list.  Per operation ``None`` when
        it raised or failed a check, else (compress s, decompress s,
        compressed bytes, PSNR).  ``cal`` samples the host's speed before
        each operation, outside the timed part."""
        rows: list = []
        base_out = None
        for i, (op, arr, eb, comp) in enumerate(self.ops):
            error = None
            if cal is not None:
                cal.sample()
            with operation(first_op + i):
                try:
                    t0 = perf_counter()
                    blob = comp.compress(arr)
                    t1 = perf_counter()
                    out = comp.decompress(blob)
                    t2 = perf_counter()
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    error = f"{type(exc).__name__}: {exc}"
            if tally is None:
                continue
            is_qp = op.endswith("/qp")
            if error is not None:
                tally.record(op, None, error)
                rows.append(None)
                if not is_qp:
                    base_out = None
                continue
            problem = checks.within_bound(arr, out, eb)
            if is_qp:
                # QP re-codes quantization indices losslessly: the output
                # must be bit-identical to the same compressor without QP
                if problem is None and base_out is not None:
                    problem = checks.bit_identical(base_out, out)
            else:
                base_out = out if problem is None else None
            if tally.record(op, problem):
                rows.append((t1 - t0, t2 - t1, len(blob), checks.psnr(arr, out)))
            else:
                rows.append(None)
        return rows

    def run(self, passes: int, seed: int, recorder=None) -> dict:
        from repro.codecs.huffman import decode_table_cache_info

        self._pass(None, -1)  # warm-up: caches fill, lazy set-up finishes
        cal = Calibrator()
        cache0 = decode_table_cache_info()
        tally = Tally()
        results, traced, slowdowns, traced_slowdowns = [], [], [], []
        for p, is_traced in alternate(passes, recorder):
            rows = self._pass(tally, p * len(self.ops), cal)
            slowdown = cal.take()
            if is_traced:
                traced.append(rows)
                traced_slowdowns.append(slowdown)
            else:
                results.append(rows)
                slowdowns.append(slowdown)
        cache1 = decode_table_cache_info()
        sizes = [None if row is None else row[2] for row in results[0]]
        # the same operations on the same inputs must give the same bytes,
        # traced or not
        repeat = None
        for rows in results[1:] + traced:
            repeat = repeat or checks.same_sizes(sizes, [None if r is None else r[2] for r in rows])
        # operations that passed in every pass; the metrics are taken over them
        ok = [i for i in range(len(self.ops)) if all(rows[i] is not None for rows in results + traced)]
        hits = cache1["hits"] - cache0["hits"]
        misses = cache1["misses"] - cache0["misses"]
        layers = {"huffman.table_cache_hit_ratio": hits / max(1, hits + misses)}

        def ref_wall(done: list, done_slowdowns: list) -> float:
            """Summed time of the passing operations, in reference-box s."""
            return sum(
                (rows[i][0] + rows[i][1]) / s for rows, s in zip(done, done_slowdowns) for i in ok
            )

        out = {
            "wall_s": ref_wall(results, slowdowns),
            "traced_wall_s": ref_wall(traced, traced_slowdowns),
            "tally": tally,
            "repeat": repeat,
            "metrics": {},
            "layers": layers,
            "detail": {"host_slowdown": slowdowns},
        }
        if not ok:
            return out
        nbytes = sum(self.ops[i][1].nbytes for i in ok)
        # times in reference-box seconds: each pass's over its slowdown
        ref = [
            [(rows[i][0] / s, rows[i][1] / s) for i in ok] for rows, s in zip(results, slowdowns)
        ]
        # each distinct call's time is its median over the passes, so that
        # one slow moment in one pass does not become the tail
        per_call = [
            float(np.median([times[j][k] for times in ref])) for j in range(len(ok)) for k in (0, 1)
        ]
        out["metrics"] = {
            "compress_mbs": median([nbytes / sum(c for c, _ in times) / MB for times in ref]),
            "decompress_mbs": median([nbytes / sum(d for _, d in times) / MB for times in ref]),
            "ratio": nbytes / sum(sizes[i] for i in ok),
            "psnr_db": float(np.mean([rows[i][3] for rows in results for i in ok])),
            "latency_p50_ms": quantile(per_call, 0.50) * 1e3,
            "latency_p99_ms": quantile(per_call, 0.99) * 1e3,
            "goodput_rps": 2 * len(ok) * len(ref) / out["wall_s"],
        }
        # operations come in pairs, QP off then on, for one field and compressor
        pairs = [i for i in range(0, len(self.ops), 2) if i in ok and i + 1 in ok]
        gains = {self.ops[i][0].rsplit("/", 1)[0]: sizes[i] / sizes[i + 1] for i in pairs}
        if gains:
            layers["qp.size_gain"] = sum(sizes[i] for i in pairs) / sum(sizes[i + 1] for i in pairs)
            layers["qp.size_gain_min"] = min(gains.values())
        out["detail"]["qp_size_gain"] = gains
        return out
