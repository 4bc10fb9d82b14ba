"""Sensitivity self-test: Huffman decode made to take twice as long must
show as grown ``huffman.decode`` busy time in the traced report and must
worsen the end-to-end metrics the README maps that layer to
(``decompress_mbs`` on lib-roundtrip; ``goodput_rps`` and
``latency_p99_ms`` on svc-small).  Both sides of each comparison are
traced runs of the same short workload."""
import time

import pytest

import lib_roundtrip
import svc_small
from layertrace import CHECK_OP, Recorder, summarize

SEED = 5


def _doubled(fn):
    """``fn`` followed by a busy wait as long as the call itself."""

    def slow(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        until = 2 * time.perf_counter() - t0
        while time.perf_counter() < until:
            pass
        return out

    return slow


def _slow_down_decode(monkeypatch):
    from repro.codecs.huffman import HuffmanCodec

    monkeypatch.setattr(HuffmanCodec, "decode", _doubled(HuffmanCodec.decode))
    monkeypatch.setattr(HuffmanCodec, "decode_many", _doubled(HuffmanCodec.decode_many))


def _decode_busy(spans) -> float:
    kept = [s for s in spans if s.op != CHECK_OP]
    return summarize(kept)["huffman.decode"]["busy_s"]


def test_lib_roundtrip_sees_slower_huffman_decode(tmp_path, monkeypatch):
    datasets, compressors = ("hurricane", "scale"), ("sz3", "qoz")
    lib_roundtrip.make_inputs(SEED, tmp_path, datasets=datasets)

    def traced_run():
        rec = Recorder()
        session = lib_roundtrip.Session(tmp_path, datasets=datasets, compressors=compressors)
        result = session.run(2, SEED, rec)
        session.close()
        return result, _decode_busy(rec.finished())

    base, base_busy = traced_run()
    _slow_down_decode(monkeypatch)
    slow, slow_busy = traced_run()
    assert base["tally"].failed == slow["tally"].failed == 0
    assert slow_busy > 1.5 * base_busy
    assert slow["metrics"]["decompress_mbs"] < 0.85 * base["metrics"]["decompress_mbs"]


def test_svc_small_sees_slower_huffman_decode(tmp_path, monkeypatch):
    rounds = 5

    def traced_run():
        # the pool forks inside Session, after the wrappers are in place
        with Recorder() as rec:
            session = svc_small.Session(tmp_path)
            result = session.run(rounds, SEED, rec)
            session.close()
        return result, _decode_busy(rec.finished() + result["extra_spans"])

    base, base_busy = traced_run()
    _slow_down_decode(monkeypatch)
    slow, slow_busy = traced_run()
    assert slow["tally"].wrong == base["tally"].wrong == 0
    assert slow_busy > 1.5 * base_busy
    assert slow["metrics"]["goodput_rps"] < 0.85 * base["metrics"]["goodput_rps"]
    assert slow["metrics"]["latency_p99_ms"] > base["metrics"]["latency_p99_ms"]
