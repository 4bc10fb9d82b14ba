"""stream-large: out-of-core ``compress_stream`` -> ``stream_decompress``.

A seeded float32 volume of 768x384x384 (453 MB, 432 MiB) is written to a
``.npy`` file before set-up and memory-mapped by it; that is more than 4x
the 105 MiB last-level cache of the reference box and many times the
12 MiB slab budget.  sz3 with QP compresses it to a file sink and
``stream_decompress`` reads it back.  The slab pipeline, the single
entropy thread, container I/O and the memory bound dominate.
"""
from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from common import MB, Tally, median, quantile
from layertrace import alternate

SHAPE = (768, 384, 384)
REL_BOUND = 1e-3
#: rows per checked slab (about 14 MB of float32)
CHECK_ROWS = 24
#: nominal seconds of one compress + decompress pass on the reference box
PASS_SECONDS = 40.0
#: separable unit-amplitude sine waves summed into the volume, plus white
#: noise with this standard deviation relative to the waves' value range
WAVES = 6
NOISE = 0.005


def units_for(seconds: float) -> int:
    """Passes for a run of ``seconds``."""
    return max(1, round(seconds / PASS_SECONDS))


def _waves(waves: list, axes: list, rows: slice) -> np.ndarray:
    """Sum of ``waves`` (frequency, phase triples) on ``rows`` of the grid."""
    out = 0.0
    for f, p in waves:
        out = out + np.sin(f[0] * axes[0][rows] + p[0]) * np.sin(f[1] * axes[1] + p[1]) * np.sin(f[2] * axes[2] + p[2])
    return out


def make_inputs(seed: int, work: Path) -> None:
    """Write the seeded volume and its value range.

    The noise is scaled to the waves' range (estimated on every 4th point
    first), so that the compression ratio depends little on the seed."""
    rng = np.random.default_rng(seed)
    axes = [
        np.arange(n, dtype=np.float32).reshape([-1 if d == k else 1 for d in range(3)])
        for k, n in enumerate(SHAPE)
    ]
    waves = [
        (rng.uniform(0.01, 0.04, 3).astype(np.float32), rng.uniform(0.0, 2 * np.pi, 3).astype(np.float32))
        for _ in range(WAVES)
    ]
    coarse = _waves(waves, [a[(slice(None, None, 4),) * 3] for a in axes], slice(None))
    sigma = np.float32(NOISE * float(coarse.max() - coarse.min()))
    vol = np.lib.format.open_memmap(work / "volume.npy", mode="w+", dtype=np.float32, shape=SHAPE)
    lo, hi = np.inf, -np.inf
    step = 32
    for a in range(0, SHAPE[0], step):
        acc = _waves(waves, axes, slice(a, a + step))
        acc += sigma * rng.standard_normal(acc.shape, dtype=np.float32)
        vol[a:a + step] = acc
        lo, hi = min(lo, float(acc.min())), max(hi, float(acc.max()))
    vol.flush()
    del vol
    (work / "volume.json").write_text(json.dumps({"range": hi - lo}))


def check_slabs(data: np.ndarray, out: np.ndarray, eb: float, tally: Tally) -> float:
    """Compare ``out`` with the memory-mapped input, one operation per slab
    of ``CHECK_ROWS`` rows; returns the squared error of the slabs that pass."""
    sse = 0.0
    geometry = checks.same_geometry(data, out)
    for a in range(0, data.shape[0], CHECK_ROWS):
        src = np.asarray(data[a:a + CHECK_ROWS])
        got = out[a:a + CHECK_ROWS]
        if tally.record(f"slab{a}", geometry or checks.within_bound(src, got, eb)):
            sse += checks.squared_error(src, got)
    return sse


class Session:
    """Set-up: build sz3+QP and memory-map the input volume."""

    def __init__(self, work: Path) -> None:
        from repro.compressors import get_compressor
        from repro.core import QPConfig

        value_range = json.loads((work / "volume.json").read_text())["range"]
        self.eb = REL_BOUND * value_range
        self.range = value_range
        self.comp = get_compressor("sz3", self.eb, qp=QPConfig())
        self.data = np.load(work / "volume.npy", mmap_mode="r")
        self.sink = work / "volume.rstr"

    def close(self) -> None:
        self.data = None
        self.sink.unlink(missing_ok=True)

    def run(self, passes: int, seed: int, recorder=None) -> dict:
        import repro

        data = self.data
        tally = Tally()
        tc, td, psnrs, sizes = [], [], [], []
        traced_wall = backpressure = 0.0
        hits = misses = segments = 0
        for _p, is_traced in alternate(passes, recorder):
            try:
                t0 = perf_counter()
                with open(self.sink, "wb") as f:
                    res = self.comp.compress_stream(data, f)
                t1 = perf_counter()
                out = repro.stream_decompress(str(self.sink))
                t2 = perf_counter()
            except Exception as exc:  # noqa: BLE001 - counted as failed operations
                # every slab of the pass is an operation that did not come back
                for a in range(0, data.shape[0], CHECK_ROWS):
                    tally.record(f"slab{a}", None, f"{type(exc).__name__}: {exc}")
                continue
            sizes.append(self.sink.stat().st_size)
            if is_traced:
                traced_wall += t2 - t0
                backpressure += res.backpressure_wait_s
                hits += res.buffer_reuse["hits"]
                misses += res.buffer_reuse["misses"]
                segments = res.segments
            else:
                tc.append(t1 - t0)
                td.append(t2 - t1)
            sse = check_slabs(data, out, self.eb, tally)
            psnrs.append(checks.psnr_from(sse, data.size, self.range))
            del out
        calls = tc + td
        nbytes = data.nbytes
        metrics = {}
        if tc:
            metrics = {
                "compress_mbs": median([nbytes / t / MB for t in tc]),
                "decompress_mbs": median([nbytes / t / MB for t in td]),
                "ratio": nbytes / sizes[0],
                "psnr_db": float(np.mean(psnrs)),
                "latency_p50_ms": quantile(calls, 0.50) * 1e3,
                "latency_p99_ms": quantile(calls, 0.99) * 1e3,
                "goodput_rps": (len(calls) if tally.failed == 0 else 0) / sum(calls),
            }
        layers = {
            "streaming.backpressure_s": backpressure,
            "streaming.buffer_reuse_ratio": hits / max(1, hits + misses),
            "streaming.segments": segments,
        }
        return {
            "wall_s": sum(calls),
            "traced_wall_s": traced_wall,
            "tally": tally,
            "repeat": checks.same_sizes(sizes[:1] * len(sizes), sizes),
            "metrics": metrics,
            "layers": layers,
            "detail": {"input_bytes": nbytes, "container_bytes": sizes[0] if sizes else None},
        }
