"""Times at the reference speed: stretches between speed samples are
scaled by the speed the samples around them measured."""

import time

import pytest

import speed

R = speed.REFERENCE_S


def meter(samples):
    got = speed.Speedometer()
    got.samples = samples
    return got


def test_full_speed_leaves_wall_time_unchanged():
    got = meter([(0.0, R), (1.0, R), (2.0, R)])
    assert got.reference_s(0.0, 3.0) == pytest.approx(3.0 - 3 * R)


def test_slow_stretches_count_at_reference_speed():
    # the machine runs at half speed from the second sample on; a stretch
    # takes the mean speed of the samples at its two ends
    got = meter([(0.0, R), (1.0, 2 * R), (2.0, 2 * R)])
    first = (1.0 - R) / 1.5
    second = (1.0 - 2 * R) / 2
    tail = (1.0 - 2 * R) / 2
    assert got.reference_s(0.0, 3.0) == pytest.approx(first + second + tail)


def test_interval_inside_one_stretch_and_before_the_first_sample():
    got = meter([(1.0, 2 * R), (2.0, 2 * R)])
    assert got.reference_s(0.0, 0.5) == pytest.approx(0.25)
    assert got.reference_s(1.25, 1.75) == pytest.approx(0.25)


def test_live_samples_cover_a_busy_second():
    got = speed.Speedometer()
    got.start()
    t0 = time.monotonic()
    while time.monotonic() - t0 < 0.5:
        sum(range(1000))
    t1 = time.monotonic()
    got.stop()
    assert len(got.samples) >= 5
    # within the speed swings of a shared machine
    assert 0.1 < got.reference_s(t0, t1) / (t1 - t0) < 2
