"""Measurement post-processing (the library's ``.measure`` statements).

All functions operate on :class:`~repro.spice.ac.AcResult` /
:class:`~repro.spice.tran.TranResult` data (or raw arrays) and raise
:class:`~repro.errors.MeasureError` when the requested feature does not
exist in the data (no crossing, no unity-gain point, ...).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MeasureError


def _finite(value: float, what: str) -> float:
    """Guard a scalar measurement against NaN/inf.

    A non-finite measurement would otherwise flow silently into
    :class:`~repro.core.cost.CostBreakdown` and poison per-bin ordering
    (NaN compares false against everything, so ``min`` keeps whichever
    option it saw first).  Raising :class:`~repro.errors.MeasureError`
    (failure code ``BAD-METRIC``) lets the evaluation runtime absorb the
    option instead.
    """
    if not math.isfinite(value):
        raise MeasureError(f"{what} is not finite ({value!r})")
    return float(value)


# --- AC measures -----------------------------------------------------------


def magnitude_db(h: np.ndarray) -> np.ndarray:
    """Magnitude of a complex transfer function in dB."""
    return 20.0 * np.log10(np.abs(h) + 1e-300)


def phase_deg(h: np.ndarray) -> np.ndarray:
    """Unwrapped phase of a complex transfer function in degrees."""
    return np.rad2deg(np.unwrap(np.angle(h)))


def low_frequency_gain(h: np.ndarray) -> float:
    """Gain magnitude at the first (lowest) sweep point."""
    return _finite(float(np.abs(h[0])), "low-frequency gain")


def low_frequency_gain_db(h: np.ndarray) -> float:
    """Gain in dB at the first (lowest) sweep point."""
    return 20.0 * math.log10(low_frequency_gain(h) + 1e-300)


def _log_interp_crossing(
    freqs: np.ndarray, values: np.ndarray, target: float
) -> float:
    """Frequency where ``values`` first crosses down through ``target``
    (log-f interpolation).

    The search starts at the first point at-or-above the target, so a
    response that *starts below* the target (a coarse sweep catching the
    rising edge of a band-pass shape, or a gain curve whose first point
    sits a hair under unity) still reports its downward crossing instead
    of failing on the first sample.  A response that never reaches the
    target at all is a measurement error, as is one that reaches it but
    never comes back down.
    """
    above = values >= target
    above_idx = np.flatnonzero(above)
    if not len(above_idx):
        raise MeasureError("response never reaches the target level")
    start = int(above_idx[0])
    for k in range(start + 1, len(freqs)):
        if not above[k]:
            f0, f1 = freqs[k - 1], freqs[k]
            v0, v1 = values[k - 1], values[k]
            if v0 == v1:
                return float(f0)
            frac = (v0 - target) / (v0 - v1)
            return _finite(
                float(10 ** (np.log10(f0) + frac * (np.log10(f1) - np.log10(f0)))),
                "crossing frequency",
            )
    raise MeasureError("response never crosses the target level in the sweep")


def unity_gain_frequency(freqs: np.ndarray, h: np.ndarray) -> float:
    """Frequency where ``|h|`` crosses 1 (requires |h(f_min)| > 1)."""
    return _log_interp_crossing(np.asarray(freqs), np.abs(h), 1.0)


def bandwidth_3db(freqs: np.ndarray, h: np.ndarray) -> float:
    """-3dB bandwidth relative to the low-frequency gain."""
    mag = np.abs(h)
    return _log_interp_crossing(np.asarray(freqs), mag, mag[0] / math.sqrt(2.0))


def phase_margin(freqs: np.ndarray, h: np.ndarray) -> float:
    """Phase margin in degrees: ``180 + phase`` at the unity-gain frequency.

    The phase is unwrapped before interpolation, but unwrapping assumes
    less than a half-turn between adjacent sweep points; when the *raw*
    phase gap between the two samples bracketing the unity-gain crossing
    exceeds 180°, the unwrap correction applied right where the margin
    is read is guesswork (the true trajectory could have gone around
    either way), so the interpolated value is an artifact of sweep
    resolution, not a measurement — that case raises instead of
    returning a plausible wrong number.
    """
    freqs = np.asarray(freqs)
    fu = unity_gain_frequency(freqs, h)
    phase = phase_deg(h)
    logf = np.log10(freqs)
    k = int(np.searchsorted(logf, np.log10(fu)))
    k = min(max(k, 1), len(phase) - 1)
    raw = np.rad2deg(np.angle(h))
    if abs(float(raw[k] - raw[k - 1])) > 180.0:
        raise MeasureError(
            "phase wraps between the sweep points bracketing the "
            "unity-gain crossing; increase points_per_decade"
        )
    ph_u = float(np.interp(np.log10(fu), logf, phase))
    return _finite(180.0 + ph_u, "phase margin")


# --- transient measures ------------------------------------------------------


def crossing_times(
    t: np.ndarray,
    wave: np.ndarray,
    level: float,
    direction: str = "rise",
) -> np.ndarray:
    """All times where ``wave`` crosses ``level`` in the given direction.

    ``direction`` is ``"rise"``, ``"fall"`` or ``"both"``.  Crossing times
    are linearly interpolated between samples.
    """
    t = np.asarray(t)
    wave = np.asarray(wave)
    above = wave >= level
    changes = np.nonzero(above[1:] != above[:-1])[0]
    times = []
    for k in changes:
        rising = not above[k]
        if direction == "rise" and not rising:
            continue
        if direction == "fall" and rising:
            continue
        v0, v1 = wave[k], wave[k + 1]
        frac = (level - v0) / (v1 - v0)
        times.append(t[k] + frac * (t[k + 1] - t[k]))
    return np.asarray(times)


def delay_between(
    t: np.ndarray,
    wave_from: np.ndarray,
    wave_to: np.ndarray,
    level_from: float,
    level_to: float,
    direction_from: str = "rise",
    direction_to: str = "rise",
    occurrence: int = 0,
) -> float:
    """Delay from a crossing of one waveform to the next crossing of another."""
    from_times = crossing_times(t, wave_from, level_from, direction_from)
    if len(from_times) <= occurrence:
        raise MeasureError("reference waveform has no such crossing")
    t_ref = from_times[occurrence]
    to_times = crossing_times(t, wave_to, level_to, direction_to)
    later = to_times[to_times > t_ref]
    if len(later) == 0:
        raise MeasureError("target waveform never crosses after the reference")
    return _finite(float(later[0] - t_ref), "delay")


def oscillation_frequency(
    t: np.ndarray,
    wave: np.ndarray,
    settle_fraction: float = 0.5,
    min_cycles: int = 3,
) -> float:
    """Oscillation frequency from rising zero crossings of ``wave - mean``.

    Only the trailing ``1 - settle_fraction`` of the record is used, so
    start-up transients are excluded.  Raises
    :class:`~repro.errors.MeasureError` if fewer than ``min_cycles``
    periods are observed (i.e. the circuit is not oscillating).
    """
    t = np.asarray(t)
    wave = np.asarray(wave)
    start = int(len(t) * settle_fraction)
    tt, ww = t[start:], wave[start:]
    if len(tt) < 4:
        raise MeasureError("record too short for frequency measurement")
    swing = float(np.max(ww) - np.min(ww))
    if swing < 1e-6:
        raise MeasureError("waveform is flat; no oscillation")
    level = float(np.mean(ww))
    rises = crossing_times(tt, ww, level, "rise")
    if len(rises) < min_cycles + 1:
        raise MeasureError(
            f"only {max(0, len(rises) - 1)} full periods observed "
            f"(need {min_cycles})"
        )
    periods = np.diff(rises)
    return _finite(float(1.0 / np.mean(periods)), "oscillation frequency")


def average_power(
    t: np.ndarray, supply_current: np.ndarray, vdd: float, settle_fraction: float = 0.0
) -> float:
    """Average power drawn from a supply: ``vdd * mean(-i_source)``.

    By SPICE convention the current of a supply *source* flows from its
    positive terminal through the source, so a sourcing supply has a
    negative branch current; the sign flip makes the result positive.
    """
    t = np.asarray(t)
    i = np.asarray(supply_current)
    start = int(len(t) * settle_fraction)
    if len(t[start:]) < 2:
        raise MeasureError("record too short for power measurement")
    avg_current = float(np.trapezoid(i[start:], t[start:]) / (t[-1] - t[start]))
    return _finite(-avg_current * vdd, "average power")


def peak_to_peak(wave: np.ndarray) -> float:
    """Peak-to-peak amplitude of a waveform."""
    wave = np.asarray(wave)
    return _finite(float(np.max(wave) - np.min(wave)), "peak-to-peak amplitude")


def find_dc_zero(
    evaluate,
    lo: float,
    hi: float,
    tolerance: float = 1e-7,
    max_iterations: int = 60,
) -> float:
    """Bisection root finder: :func:`find_dc_zero_many` on one member.

    ``evaluate`` maps a scalar input (e.g. a gate bias) to a scalar
    response (e.g. a device current error); the root of the response in
    ``[lo, hi]`` is returned.  An exception ``evaluate`` raises
    propagates as is.

    Raises:
        MeasureError: When the bracket holds no sign change.
    """
    (root,) = find_dc_zero_many(
        lambda indices, xs: [evaluate(xs[0])], 1, lo, hi, tolerance, max_iterations
    )
    if isinstance(root, Exception):
        raise root
    return root


def find_dc_zero_many(
    evaluate_many,
    count: int,
    lo: float,
    hi: float,
    tolerance: float = 1e-7,
    max_iterations: int = 60,
) -> list:
    """Lock-step bisection across many members, the root finder of
    offset and bias measurements.

    ``evaluate_many(indices, xs)`` evaluates member ``indices[j]`` at
    input ``xs[j]`` for all entries at once — the hook where the batched
    solver stack earns its keep — and returns, per entry, the float
    response or a captured exception.  Every member evaluates both
    bracket ends, then halves its bracket towards the sign change until
    the response is exactly zero or the bracket is narrower than
    ``tolerance``.  Each member's bracket updates depend on its own
    responses only, so its root is the same in any stack.  A member
    whose evaluation raised — or whose bracket holds no sign change
    (:class:`~repro.errors.MeasureError`) — carries the exception in the
    returned list instead of a root.
    """
    results: list = [None] * count
    los = [lo] * count
    his = [hi] * count
    f_los = [0.0] * count

    live = list(range(count))
    for i, fv in zip(live, evaluate_many(live, [lo] * len(live))):
        if isinstance(fv, Exception):
            results[i] = fv
        else:
            f_los[i] = fv
    live = [i for i in live if results[i] is None]
    for i, fv in zip(live, evaluate_many(live, [hi] * len(live))):
        if isinstance(fv, Exception):
            results[i] = fv
        elif f_los[i] == 0.0:
            results[i] = lo
        elif fv == 0.0:
            results[i] = hi
        elif f_los[i] * fv > 0:
            results[i] = MeasureError(
                f"no sign change in [{lo:.4g}, {hi:.4g}] "
                f"(f={f_los[i]:.4g} .. {fv:.4g})"
            )
    live = [i for i in live if results[i] is None]

    for _ in range(max_iterations):
        if not live:
            break
        mids = [0.5 * (los[i] + his[i]) for i in live]
        responses = evaluate_many(live, mids)
        survivors = []
        for i, mid, fv in zip(live, mids, responses):
            if isinstance(fv, Exception):
                results[i] = fv
                continue
            if fv == 0.0 or (his[i] - los[i]) < tolerance:
                results[i] = mid
                continue
            if f_los[i] * fv < 0:
                his[i] = mid
            else:
                los[i], f_los[i] = mid, fv
            survivors.append(i)
        live = survivors
    for i in live:
        results[i] = 0.5 * (los[i] + his[i])
    return results
