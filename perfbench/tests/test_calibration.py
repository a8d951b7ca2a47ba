"""Calibration arithmetic: sampling time left out, stretches weighted by time."""

import pytest

import calibration


def test_measure_leaves_out_sampling_and_weights_stretches():
    samples = [[0.0, 1.0, 2.0], [5.0, 6.0, 4.0]]  # [start, end, loop_s]
    # program time: 1..5 (4 s at the mean 3.0) and 6..8 (2 s at 4.0)
    program_s, loop_s = calibration.measure(samples, 0.0, 8.0)
    assert program_s == pytest.approx(6.0)
    assert loop_s == pytest.approx((4 * 3.0 + 2 * 4.0) / 6)


def test_measure_clips_to_the_window_and_extends_the_edge_samples():
    samples = [[2.0, 3.0, 1.0], [7.0, 8.0, 5.0]]
    # 0..2 before the first sample runs at its 1.0; 3..4 at the mean 3.0
    program_s, loop_s = calibration.measure(samples, 0.0, 4.0)
    assert program_s == pytest.approx(3.0)
    assert loop_s == pytest.approx((2 * 1.0 + 1 * 3.0) / 3)
    program_s, loop_s = calibration.measure(samples, 9.0, 10.0)
    assert (program_s, loop_s) == pytest.approx((1.0, 5.0))


def test_sampler_samples_only_when_due():
    now = [0.0]
    sampler = calibration.Sampler(lambda: now[0])
    sampler.sample()
    sampler.sample_if_due()
    assert len(sampler.samples) == 1
    now[0] = calibration.MIN_GAP_S
    sampler.sample_if_due()
    assert len(sampler.samples) == 2 and sampler.samples[1][2] > 0
