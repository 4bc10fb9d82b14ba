"""An operation that raises in the program is counted as failed and the
run still reports its result; it does not make the output incorrect."""
import json

import numpy as np

import lib_roundtrip
import stream_large

SEED = 2


class _Raises:
    def compress(self, arr):
        raise RuntimeError("injected")

    def decompress(self, blob):
        raise AssertionError("not reached")


def test_lib_roundtrip_counts_a_raising_compressor_as_one_failure(tmp_path):
    datasets = ("hurricane",)
    lib_roundtrip.make_inputs(SEED, tmp_path, datasets=datasets)
    session = lib_roundtrip.Session(tmp_path, datasets=datasets, compressors=("sz3",))
    op, arr, eb, _comp = session.ops[0]
    session.ops[0] = (op, arr, eb, _Raises())
    result = session.run(1, SEED)
    session.close()
    tally = result["tally"]
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    assert "RuntimeError: injected" in tally.reasons[0]
    assert result["repeat"] is None
    # the QP operation whose base failed is still timed and checked on its own
    assert result["metrics"]["ratio"] > 1
    assert result["metrics"]["compress_mbs"] > 0


def test_stream_large_counts_a_raising_pass_as_failed_slabs(tmp_path, monkeypatch):
    rows = 2 * stream_large.CHECK_ROWS
    np.save(tmp_path / "volume.npy", np.zeros((rows, 8, 8), dtype=np.float32))
    (tmp_path / "volume.json").write_text(json.dumps({"range": 1.0}))
    session = stream_large.Session(tmp_path)

    def boom(data, sink):
        raise OSError("injected")

    monkeypatch.setattr(session.comp, "compress_stream", boom)
    result = session.run(1, SEED)
    session.close()
    tally = result["tally"]
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 0)
    assert result["metrics"] == {}
