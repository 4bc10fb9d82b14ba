"""Span bookkeeping and wrapper installation of the traced mode."""
import pytest

import layertrace
from layertrace import Recorder, SpanRecord, summarize


def test_self_time_excludes_children_and_busy_counts_outermost_only():
    spans = [
        SpanRecord(0, "outer", 0.0, 10.0, -1, 0),
        SpanRecord(1, "inner", 1.0, 4.0, 0, 0, items=10),
        SpanRecord(2, "inner", 3.0, 6.0, 0, 0, items=5),  # overlaps the first child
        SpanRecord(3, "inner", 3.5, 3.8, 2, 0, items=99),  # same layer, nested
    ]
    s = summarize(spans)
    assert s["outer"]["self_s"] == pytest.approx(10.0 - 5.0)
    assert s["inner"]["busy_s"] == pytest.approx(3.0 + 3.0)
    assert s["inner"]["items"] == 15
    assert s["inner"]["calls"] == 3
    assert s["inner"]["self_s"] == pytest.approx(3.0 + (3.0 - 0.3) + 0.3)


def test_wrappers_reach_callers_that_imported_by_name_and_uninstall_cleanly():
    import repro.core.qp as qp
    import repro.pipeline.stages as stages

    original = qp.qp_forward
    assert stages.qp_forward is original
    rec = Recorder(targets=(("qp.forward", "repro.core.qp", "qp_forward", None),))
    with rec:
        assert qp.qp_forward is not original
        assert stages.qp_forward is qp.qp_forward
    assert qp.qp_forward is original and stages.qp_forward is original


def test_spans_carry_parent_and_operation():
    import numpy as np

    from repro.codecs.huffman import HuffmanCodec

    targets = tuple(t for t in layertrace.TARGETS if t[0].startswith("huffman."))
    symbols = np.arange(200) % 7
    with Recorder(targets=targets) as rec:
        with layertrace.operation(42):
            blob = HuffmanCodec().encode(symbols)
            HuffmanCodec().decode(blob)
    spans = rec.finished()
    names = [s.name for s in spans]
    assert names.count("huffman.encode") == 1 and names.count("huffman.decode") == 1
    lengths = [s for s in spans if s.name == "huffman.lengths"]
    encode = next(s for s in spans if s.name == "huffman.encode")
    assert lengths and all(s.parent == encode.index for s in lengths)
    assert all(s.op == 42 for s in spans)
    assert summarize(spans)["huffman.decode"]["items"] == symbols.size
