"""Measurement post-processing on synthetic data."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MeasureError
from repro.spice import measure


def single_pole(freqs, a0=100.0, fp=1e6):
    return a0 / (1 + 1j * freqs / fp)


@pytest.fixture(scope="module")
def freqs():
    return np.logspace(3, 11, 400)


def test_low_frequency_gain(freqs):
    h = single_pole(freqs)
    assert measure.low_frequency_gain(h) == pytest.approx(100.0, rel=1e-3)
    assert measure.low_frequency_gain_db(h) == pytest.approx(40.0, abs=0.01)


def test_unity_gain_frequency_single_pole(freqs):
    h = single_pole(freqs)
    # UGF of a single pole: a0 * fp (for a0 >> 1).
    assert measure.unity_gain_frequency(freqs, h) == pytest.approx(1e8, rel=0.02)


def test_bandwidth_3db(freqs):
    h = single_pole(freqs)
    assert measure.bandwidth_3db(freqs, h) == pytest.approx(1e6, rel=0.02)


def test_phase_margin_single_pole(freqs):
    h = single_pole(freqs)
    pm = measure.phase_margin(freqs, h)
    assert pm == pytest.approx(90.6, abs=2.0)  # a single pole leaves ~90 deg


def test_phase_margin_two_pole(freqs):
    h = single_pole(freqs) / (1 + 1j * freqs / 1e8)
    pm = measure.phase_margin(freqs, h)
    assert 40.0 < pm < 60.0  # second pole at UGF costs ~45 deg


def test_no_unity_crossing_raises(freqs):
    h = 0.5 * single_pole(freqs) / 100.0  # gain < 1 everywhere
    with pytest.raises(MeasureError):
        measure.unity_gain_frequency(freqs, h)


def test_crossing_times_directions():
    t = np.linspace(0, 1, 1001)
    wave = np.sin(2 * np.pi * 3 * t)
    # sin starts ON the level, so the t=0 up-crossing is not counted:
    # interior rises at 1/3 and 2/3, falls at 1/6, 1/2 and 5/6.
    rises = measure.crossing_times(t, wave, 0.0, "rise")
    falls = measure.crossing_times(t, wave, 0.0, "fall")
    both = measure.crossing_times(t, wave, 0.0, "both")
    assert len(rises) == 2
    assert len(falls) == 3
    assert len(both) == 5


def test_crossing_interpolation_accuracy():
    t = np.array([0.0, 1.0])
    wave = np.array([0.0, 2.0])
    times = measure.crossing_times(t, wave, 1.0, "rise")
    assert times[0] == pytest.approx(0.5)


def test_delay_between():
    t = np.linspace(0, 10e-9, 1001)
    a = (t > 2e-9).astype(float)
    b = (t > 5e-9).astype(float)
    d = measure.delay_between(t, a, b, 0.5, 0.5)
    assert d == pytest.approx(3e-9, abs=0.05e-9)


def test_delay_between_no_crossing_raises():
    t = np.linspace(0, 1e-9, 100)
    a = (t > 0.5e-9).astype(float)
    flat = np.zeros_like(t)
    with pytest.raises(MeasureError):
        measure.delay_between(t, a, flat, 0.5, 0.5)


def test_oscillation_frequency_pure_tone():
    t = np.linspace(0, 10e-9, 4001)
    wave = 0.4 + 0.3 * np.sin(2 * np.pi * 2e9 * t)
    f = measure.oscillation_frequency(t, wave)
    assert f == pytest.approx(2e9, rel=0.01)


def test_oscillation_frequency_flat_raises():
    t = np.linspace(0, 1e-9, 100)
    with pytest.raises(MeasureError):
        measure.oscillation_frequency(t, np.full_like(t, 0.4))


def test_oscillation_frequency_too_few_cycles_raises():
    t = np.linspace(0, 1e-9, 500)
    wave = np.sin(2 * np.pi * 1e9 * t)  # one cycle
    with pytest.raises(MeasureError):
        measure.oscillation_frequency(t, wave, settle_fraction=0.0)


@given(st.floats(min_value=1e8, max_value=5e9))
def test_oscillation_frequency_property(f0):
    t = np.linspace(0, 20 / f0, 3000)
    wave = np.sin(2 * np.pi * f0 * t)
    f = measure.oscillation_frequency(t, wave, settle_fraction=0.2)
    assert f == pytest.approx(f0, rel=0.02)


def test_average_power_sign_convention():
    t = np.linspace(0, 1e-9, 101)
    i_source = np.full_like(t, -1e-3)  # sourcing 1mA
    p = measure.average_power(t, i_source, vdd=0.8)
    assert p == pytest.approx(0.8e-3)


def test_peak_to_peak():
    assert measure.peak_to_peak(np.array([-1.0, 0.3, 2.0])) == 3.0


def test_find_dc_zero_linear():
    root = measure.find_dc_zero(lambda x: 2 * x - 0.5, -1.0, 1.0)
    assert root == pytest.approx(0.25, abs=1e-6)


def test_find_dc_zero_no_sign_change():
    with pytest.raises(MeasureError):
        measure.find_dc_zero(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_dc_zero_endpoint_roots():
    assert measure.find_dc_zero(lambda x: x, 0.0, 1.0) == 0.0
    assert measure.find_dc_zero(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_magnitude_and_phase_helpers():
    h = np.array([1.0 + 0j, 0.1 + 0j])
    db = measure.magnitude_db(h)
    assert db[0] == pytest.approx(0.0, abs=1e-9)
    assert db[1] == pytest.approx(-20.0, abs=1e-6)
    ph = measure.phase_deg(np.array([1j, -1.0 + 0j]))
    assert ph[0] == pytest.approx(90.0)


@given(
    st.floats(min_value=20.0, max_value=1e4),
    st.floats(min_value=1e4, max_value=1e8),
)
def test_single_pole_identities_property(a0, fp):
    """UGF = fp*sqrt(a0^2-1) and f3db = fp for a single-pole response."""
    freqs = np.logspace(2, 13, 600)
    h = a0 / (1 + 1j * freqs / fp)
    assert measure.bandwidth_3db(freqs, h) == pytest.approx(fp, rel=0.03)
    assert measure.unity_gain_frequency(freqs, h) == pytest.approx(
        fp * np.sqrt(a0**2 - 1.0), rel=0.05
    )


@given(st.floats(min_value=-0.9, max_value=0.9))
def test_crossing_count_even_for_periodic(level):
    t = np.linspace(0, 1, 4001)
    wave = np.sin(2 * np.pi * 5 * t + 0.3)
    rises = measure.crossing_times(t, wave, level, "rise")
    falls = measure.crossing_times(t, wave, level, "fall")
    # Periodic signal: rising and falling counts differ by at most one.
    assert abs(len(rises) - len(falls)) <= 1
    assert len(rises) >= 4


def two_pole_bandpass(freqs, fz=1e4, p1=1e6, p2=1e8):
    """Band-pass-ish two-pole: |h| starts below 1, peaks, falls back."""
    return (1j * freqs / fz) / ((1 + 1j * freqs / p1) * (1 + 1j * freqs / p2))


def test_crossing_when_response_starts_below_target(freqs):
    # Regression: _log_interp_crossing used to fail (or pick the wrong
    # bracket) when the first sweep point sat below the target — it must
    # skip to the first at-or-above point and report the *downward*
    # crossing past the peak.
    h = two_pole_bandpass(freqs)
    assert abs(h[0]) < 1.0
    fu = measure.unity_gain_frequency(freqs, h)
    f_peak = freqs[np.argmax(np.abs(h))]
    assert fu > f_peak
    # The reported frequency really is a unity point of the response.
    assert abs(two_pole_bandpass(np.array([fu]))[0]) == pytest.approx(1.0, rel=0.05)


def test_crossing_in_first_interval_uses_first_bracket():
    # Downward crossing between the first two sweep points must
    # interpolate inside [f0, f1], not a later bracket.
    freqs = np.array([1e3, 1e4, 1e5, 1e6])
    values = np.array([2.0, 0.5, 0.4, 0.3])
    fx = measure._log_interp_crossing(freqs, values, 1.0)
    assert 1e3 < fx < 1e4


def test_crossing_never_reaches_target_raises():
    freqs = np.array([1e3, 1e4, 1e5])
    with pytest.raises(MeasureError, match="never reaches"):
        measure._log_interp_crossing(freqs, np.array([0.2, 0.8, 0.5]), 1.0)


def test_crossing_never_descends_raises():
    freqs = np.array([1e3, 1e4, 1e5])
    with pytest.raises(MeasureError, match="never crosses"):
        measure._log_interp_crossing(freqs, np.array([0.5, 1.5, 2.5]), 1.0)


def test_phase_margin_wrap_at_crossing_raises():
    # Under-resolved sweep: the raw phase jumps across the ±180° branch
    # cut inside the interval bracketing the unity-gain crossing, so the
    # unwrap correction there is guesswork — phase_margin must refuse
    # rather than interpolate a plausible wrong number.
    freqs = np.array([1e5, 1e6, 1e7, 1e8])
    mags = np.array([8.0, 3.0, 1.5, 0.5])
    raw_deg = np.array([-20.0, -90.0, -170.0, 170.0])
    h = mags * np.exp(1j * np.deg2rad(raw_deg))
    with pytest.raises(MeasureError, match="phase wraps"):
        measure.phase_margin(freqs, h)


def test_phase_margin_fine_two_pole_unaffected_by_guard(freqs):
    # The same two-pole shape on a fine sweep stays below a half-turn
    # per interval everywhere and must keep measuring normally.
    h = single_pole(freqs) / (1 + 1j * freqs / 1e8)
    pm = measure.phase_margin(freqs, h)
    assert 40.0 < pm < 60.0
