"""One workload in a fresh interpreter: make inputs, set up, or run.

    python3 perfbench/worker.py inputs --workload W --work DIR --seed N
    python3 perfbench/worker.py setup  --workload W --work DIR
    python3 perfbench/worker.py run    --workload W --work DIR --seed N \\
        --seconds S --trace 0|1 [--trace-out FILE]

``setup`` and ``run`` print ``READY <time.monotonic()>`` as soon as set-up
is done, then ``SLOWDOWN <x>``, the host's slowdown measured right after
(see ``calib.py``); ``run.py`` takes the set-up time from the moment it
started the interpreter to that stamp, divided by the slowdown.  ``run`` prints one JSON object as its last
line.  ``run.py`` puts ``src`` on ``PYTHONPATH``.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import checks
from calib import slowdown_now
import lib_roundtrip
import stream_large
import svc_small
from common import median, peak_rss_mb
from layertrace import CHECK_OP, Recorder, summarize

WORKLOADS = {
    "lib-roundtrip": lib_roundtrip,
    "svc-small": svc_small,
    "stream-large": stream_large,
}

#: per-layer metric -> (layer, field) read from the span summary
SPAN_METRICS = {
    "compressors.compress_self_s": ("compressors.compress", "self_s"),
    "compressors.decompress_self_s": ("compressors.decompress", "self_s"),
    "predictors.predict_s": ("predictors.predict", "busy_s"),
    "quantize.quantize_s": ("quantize.quantize", "busy_s"),
    "quantize.dequantize_s": ("quantize.dequantize", "busy_s"),
    "qp.forward_s": ("qp.forward", "busy_s"),
    "qp.inverse_s": ("qp.inverse", "busy_s"),
    "huffman.lengths_s": ("huffman.lengths", "busy_s"),
    "huffman.encode_s": ("huffman.encode", "busy_s"),
    "huffman.decode_s": ("huffman.decode", "busy_s"),
    "huffman.bytes_out": ("huffman.encode", "bytes"),
    "lossless.compress_s": ("lossless.compress", "busy_s"),
    "lossless.decompress_s": ("lossless.decompress", "busy_s"),
    "lossless.bytes_out": ("lossless.compress", "bytes"),
    "wire.encode_s": ("wire.encode", "busy_s"),
    "wire.decode_s": ("wire.decode", "busy_s"),
    "admission.admit_s": ("admission.admit", "busy_s"),
    "archive.append_s": ("archive.append", "busy_s"),
    "archive.read_s": ("archive.read", "busy_s"),
    "progressive.prefix_decode_s": ("progressive.prefix_decode", "busy_s"),
    "container.append_s": ("container.append", "busy_s"),
    "container.segment_read_s": ("container.segment_read", "busy_s"),
}

#: per-layer metrics the workloads report themselves; 0 where a workload
#: does not exercise the layer
WORKLOAD_METRICS = (
    "qp.size_gain",
    "qp.size_gain_min",
    "huffman.table_cache_hit_ratio",
    "admission.rejected",
    "gateway.batch_size",
    "gateway.worker_s",
    "gateway.spans_held",
    "progressive.prefix_ratio",
    "streaming.backpressure_s",
    "streaming.buffer_reuse_ratio",
    "streaming.segments",
)


def layer_metrics(spans, traced: dict, untraced: dict) -> tuple[dict, dict]:
    """(per-layer metrics, per-layer summary) of one traced phase."""
    kept = [s for s in spans if s.op != CHECK_OP or s.name == "progressive.prefix_decode"]
    summary = summarize(kept)

    def get(layer: str, key: str) -> float:
        return summary.get(layer, {}).get(key, 0)

    out = {name: get(layer, key) for name, (layer, key) in SPAN_METRICS.items()}
    decode_s = get("huffman.decode", "busy_s")
    out["huffman.decode_msym_s"] = get("huffman.decode", "items") / decode_s / 1e6 if decode_s else 0.0
    out["wire.bytes"] = get("wire.encode", "bytes") + get("wire.decode", "bytes")
    submits = [s.end - s.start for s in kept if s.name == "gateway.submit"]
    out["gateway.submit_p50_ms"] = median(submits) * 1e3 if submits else 0.0
    for name in WORKLOAD_METRICS:
        out[name] = traced["layers"].get(name, 0)
    out["trace.overhead_pct"] = (traced["traced_wall_s"] / untraced["wall_s"] - 1.0) * 100.0
    return out, summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("inputs", "setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)
    mod = WORKLOADS[args.workload]

    if args.mode == "inputs":
        mod.make_inputs(args.seed, args.work)
        return 0

    session = mod.Session(args.work)
    print(f"READY {time.monotonic()!r}", flush=True)
    # the host's speed just after set-up, to put setup_s in reference-box s
    print(f"SLOWDOWN {slowdown_now()!r}", flush=True)
    if args.mode == "setup":
        session.close()
        return 0

    units = mod.units_for(args.seconds)
    if not args.trace:
        result = session.run(units, args.seed)
        session.close()
        phases = [result]
        metrics = dict(result["metrics"])
        metrics["peak_rss_mb"] = peak_rss_mb()
    else:
        recorder = Recorder()
        if mod is svc_small:
            # pool workers must fork with the wrappers in place, so the
            # traced half runs on a second gateway started after installing
            result = session.run(units, args.seed)
            session.close()
            with recorder:
                session = mod.Session(args.work)
                traced = session.run(units, args.seed, recorder)
                session.close()
            traced["traced_wall_s"] = traced["wall_s"]
            # the same seeded operations must give the same bytes, traced or not
            traced["repeat"] = checks.same_sizes(result["sizes"], traced["sizes"])
            phases = [result, traced]
        else:
            # each unit runs untraced and then traced, back to back
            result = traced = session.run(units, args.seed, recorder)
            session.close()
            phases = [result]
        spans = recorder.finished() + traced.get("extra_spans", [])
        metrics, summary = layer_metrics(spans, traced, result)
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "units": units,
                "untraced_wall_s": result["wall_s"],
                "traced_wall_s": traced["traced_wall_s"],
                "metrics": metrics,
                "layers": summary,
                "detail": traced.get("detail", {}),
                "spans": [s.to_dict() for s in spans],
            }))
    tallies = [p["tally"] for p in phases]
    repeats = [p["repeat"] for p in phases if p["repeat"] is not None]
    report = {
        "correct": all(t.wrong == 0 for t in tallies) and not repeats,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
        "reasons": (repeats + [r for t in tallies for r in t.reasons])[:5],
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
