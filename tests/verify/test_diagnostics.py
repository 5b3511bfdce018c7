"""Violation records and report aggregation."""

import json

import pytest

from repro.errors import VerificationError
from repro.geometry import Point, Rect
from repro.verify import Report, Violation


def test_violation_render_mentions_everything():
    v = Violation(
        rule="DRC-FIN-PITCH",
        severity="error",
        message="bad height",
        layout="cell",
        subject="MA[0]",
        location=Point(10, 20),
    )
    text = v.render()
    assert "ERROR" in text
    assert "DRC-FIN-PITCH" in text
    assert "cell/MA[0]" in text
    assert "@ (10, 20)" in text


def test_violation_rect_location_fallback():
    v = Violation("CONN-SHORT", "error", "m", rect=Rect(1, 2, 3, 4))
    assert "(1, 2)..(3, 4)" in v.render()


def test_violation_rejects_unknown_severity():
    with pytest.raises(VerificationError):
        Violation("DRC-X", "fatal", "nope")


def test_violation_to_dict_omits_empty_fields():
    d = Violation("DRC-X", "warning", "msg").to_dict()
    assert d == {"rule": "DRC-X", "severity": "warning", "message": "msg"}


def test_report_add_stamps_target_as_layout():
    report = Report(target="cell")
    v = report.add("DRC-X", "error", "msg")
    assert v.layout == "cell"
    assert report.violations == [v]


def test_report_partitions_errors_and_warnings():
    report = Report()
    report.add("A", "error", "m")
    report.add("B", "warning", "m")
    report.add("A", "error", "m")
    assert len(report.errors) == 2
    assert len(report.warnings) == 1
    assert not report.ok
    assert report.rules_hit() == ["A", "B"]
    assert report.count("A") == 2
    assert report.counts_by_rule() == {"A": 2, "B": 1}


def test_report_ok_with_only_warnings():
    report = Report()
    report.add("B", "warning", "m")
    assert report.ok


def test_report_merge_accumulates():
    a = Report(target="a", checked_shapes=3)
    a.add("X", "error", "m")
    b = Report(target="b", checked_shapes=4)
    b.add("Y", "warning", "m")
    a.merge(b)
    assert a.checked_shapes == 7
    assert a.rules_hit() == ["X", "Y"]


def test_summary_clean_and_dirty():
    clean = Report(target="t", checked_shapes=9)
    assert "CLEAN" in clean.summary()
    assert "9 shapes" in clean.summary()
    dirty = Report(target="t")
    dirty.add("X", "error", "m")
    assert "1 error(s)" in dirty.summary()


def test_render_text_caps_per_rule():
    report = Report(target="t")
    for _ in range(7):
        report.add("X", "error", "m")
    text = report.render_text(max_per_rule=2)
    assert "X: 7" in text
    assert "... 5 more" in text
    assert text.count("ERROR") == 2


def test_render_json_roundtrips():
    report = Report(target="t", checked_shapes=1)
    report.add("X", "error", "m", rect=Rect(0, 0, 1, 1))
    data = json.loads(report.render_json())
    assert data["target"] == "t"
    assert data["ok"] is False
    assert data["counts"] == {"X": 1}
    assert data["violations"][0]["rect"] == [0, 0, 1, 1]


def test_raise_if_errors_carries_report():
    report = Report(target="t")
    report.add("X", "error", "m")
    with pytest.raises(VerificationError) as excinfo:
        report.raise_if_errors()
    assert excinfo.value.report is report
    assert "X" in str(excinfo.value)


def test_raise_if_errors_noop_when_clean():
    report = Report(target="t")
    report.add("X", "warning", "m")
    report.raise_if_errors()


def test_merge_dedups_identical_violations():
    a = Report(target="t")
    a.add("X", "error", "m", subject="s")
    b = Report(target="t")
    b.add("X", "error", "m", subject="s")       # duplicate
    b.add("X", "error", "m", subject="other")   # distinct subject survives
    a.merge(b)
    assert len(a.violations) == 2
    # Re-merging the same report adds nothing.
    c = Report(target="t")
    c.add("X", "error", "m", subject="s")
    a.merge(c)
    assert len(a.violations) == 2


def test_merge_dedups_violations_with_equal_geometry():
    # Shapes are mutable records; equal but distinct Point/Rect objects
    # must still hash alike so merge collapses the duplicate.
    a = Report(target="t")
    a.add("X", "error", "m", location=Point(3, 4), rect=Rect(0, 0, 6, 8))
    b = Report(target="t")
    b.add("X", "error", "m", location=Point(3, 4), rect=Rect(0, 0, 6, 8))
    b.add("X", "error", "m", location=Point(3, 5), rect=Rect(0, 0, 6, 8))
    assert a.violations[0].location is not b.violations[0].location
    a.merge(b)
    assert len(a.violations) == 2


def test_points_and_rects_hash_by_value():
    assert hash(Point(1, 2)) == hash(Point(1, 2))
    assert hash(Rect(0, 1, 2, 3)) == hash(Rect(0, 1, 2, 3))
    assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
    assert len({Rect(0, 1, 2, 3), Rect(0, 1, 2, 3), Rect(0, 0, 2, 3)}) == 2


def test_merge_sorts_violations_stably():
    a = Report(target="zzz")
    a.add("DRC-X", "error", "m", location=Point(5, 0))
    b = Report(target="aaa")
    b.add("CONN-Y", "error", "m", location=Point(1, 0))
    b.add("CONN-Y", "error", "m", location=Point(0, 0))
    a.merge(b)
    keys = [v.sort_key() for v in a.violations]
    assert keys == sorted(keys)
    assert a.violations[0].layout == "aaa"


def test_waived_violations_excluded_from_errors():
    from dataclasses import replace

    report = Report(target="t")
    v = report.add("X", "error", "m")
    report.violations[0] = replace(v, waived=True, waive_reason="known")
    assert report.ok
    assert not report.errors
    assert len(report.waived_violations) == 1
    assert "waived" in report.violations[0].render()
    d = report.violations[0].to_dict()
    assert d["waived"] is True
    assert d["waive_reason"] == "known"
    assert "1 waived" in report.summary()


def test_fails_thresholds():
    report = Report(target="t")
    report.add("X", "warning", "m")
    assert not report.fails("error")
    assert report.fails("warning")
    report.add("Y", "error", "m")
    assert report.fails("error")
    with pytest.raises(VerificationError):
        report.fails("fatal")
