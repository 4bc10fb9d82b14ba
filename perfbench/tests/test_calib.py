"""The host-speed calibration: its slowdown is the kernel's mean call time
over the nominal one, and lib-roundtrip divides each pass's times by it."""
import pytest

import calib
import lib_roundtrip

SEED = 3


def test_take_is_mean_call_time_over_nominal_and_starts_a_new_window():
    cal = calib.Calibrator()
    assert cal.take() == 1.0
    cal._times = [calib.NOMINAL_S, 3 * calib.NOMINAL_S]
    assert cal.take() == pytest.approx(2.0)
    assert cal.take() == 1.0
    cal.sample(2)
    assert len(cal._times) == 2 and cal.take() > 0


class _Fixed(calib.Calibrator):
    """A calibrator that reports the same slowdown whatever it measures."""

    slowdown = 1.0

    def take(self) -> float:
        super().take()
        return self.slowdown


def test_lib_roundtrip_rates_scale_with_the_slowdown(tmp_path, monkeypatch):
    datasets, compressors = ("hurricane",), ("sz3",)
    lib_roundtrip.make_inputs(SEED, tmp_path, datasets=datasets)
    monkeypatch.setattr(lib_roundtrip, "Calibrator", _Fixed)
    session = lib_roundtrip.Session(tmp_path, datasets=datasets, compressors=compressors)
    results = {}
    for slowdown in (1.0, 4.0):
        _Fixed.slowdown = slowdown
        results[slowdown] = session.run(2, SEED)
    session.close()
    one, four = results[1.0], results[4.0]
    assert four["detail"]["host_slowdown"] == [4.0, 4.0]
    # told that the host is four times slower, the run reads its times as
    # four times shorter; the raw times of the two runs differ by noise
    # only, far less than 2x either way
    for name in ("compress_mbs", "decompress_mbs", "goodput_rps"):
        assert 2.0 < four["metrics"][name] / one["metrics"][name] < 8.0
    assert 2.0 < one["metrics"]["latency_p50_ms"] / four["metrics"]["latency_p50_ms"] < 8.0
    assert four["metrics"]["ratio"] == one["metrics"]["ratio"]
