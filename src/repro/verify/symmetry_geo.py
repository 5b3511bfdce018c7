"""Geometric constraint-realization audit (mirror symmetry in metal).

:mod:`repro.verify.constraints` checks the *declared* analog intent —
unit counts, centroids, mesh shape counts.  This module closes the
remaining gap: does the **emitted geometry** actually realize the
mirror the pattern promises?  It re-detects the mirror axis from the
placed units of each matched pair and audits placement, orientation and
the symmetric nets' metal against it:

* ``SYMG-PLACE`` — a unit's reflection about its row's detected axis
  does not coincide with its mirror partner,
* ``SYMG-AXIS`` — the per-row mirror axes of the matched stack do not
  agree on one cell-wide axis (rows staggered against each other pass
  the per-row CONST check but break the global mirror),
* ``SYMG-ORIENT`` — mirrored pairs realize inconsistent orientation
  relations (one pair flips across the axis, another does not),
* ``SYMG-WIRE-LEN`` — a symmetric net pair's total mesh wire length
  per (layer, role) diverges beyond tolerance,
* ``SYMG-VIA-COUNT`` — a symmetric net pair's via-ladder cut counts
  per layer pair differ.

Like the constraint analyzer, every check is gated on the pattern the
layout *declares* (``layout.metadata["pattern"]``): only the mirror
patterns (:data:`~repro.verify.constraints.MIRROR_PATTERNS`) promise
any of this, so clustered AABB layouts are never punished.

Tolerances: placements reflect exactly in integer nanometres, so the
positional tolerance is the shared :data:`~repro.verify.constraints
.POSITION_TOL`.  The metal comparison covers the *shared trunk* of the
mesh — rails, the jumpers across the rail region, and routes — which
is structurally identical for both nets of a pair.  Row straps and
finger stubs are excluded by construction: a strap's left edge follows
its own net's first stub column, so any interleaved pattern (A's
columns flank B's) skews strap spans legitimately, and stub counts
follow diffusion parity — both asymmetries CONST-SYM-WIRES already
bounds at the count level.  For the same reason via ladders on the
device metal (stub contacts) are excluded from the cut-count
comparison.
"""

from __future__ import annotations

from repro.cellgen.generator import CellSpec
from repro.geometry.layout import ROLES, DevicePlacement, Layout
from repro.tech.pdk import Technology
from repro.verify.constraints import MIRROR_PATTERNS, POSITION_TOL
from repro.verify.diagnostics import Report

__all__ = [
    "run_symmetry_geo",
    "LEN_RTOL",
    "LEN_ATOL_NM",
]

#: Relative tolerance on summed trunk wire length per (layer, role).
#: Trunk shapes differ only by track assignment, never by span, so the
#: bound is tight.
LEN_RTOL = 0.05

#: Absolute slack (nm) under which length differences are ignored — a
#: single routing-track offset must never fire on a small cell.
LEN_ATOL_NM = 200

#: Wire roles compared per symmetric net pair: the shared trunk.  Row
#: straps and finger stubs are excluded (see the module docstring).
_TRUNK_ROLES = ("rail", "route", "strap_jumper")


def run_symmetry_geo(
    layout: Layout, spec: CellSpec, tech: Technology | None = None
) -> Report:
    """Run the geometric symmetry-realization audit on one layout.

    Args:
        layout: A generated (or corrupted) primitive layout; the
            declared pattern is read from ``layout.metadata``.
        spec: The cell spec declaring the matched group and symmetric
            net pairs.
        tech: Optional technology; names the device metal whose via
            ladders (stub contacts) the cut-count comparison skips.
            Defaults to ``"M1"``.

    Returns:
        A report of ``SYMG-*`` findings; empty for layouts that honor
        their declared mirror pattern (or declare none).
    """
    report = Report(target=layout.name)
    pattern = str(layout.metadata.get("pattern", "")).upper()
    if pattern not in MIRROR_PATTERNS:
        return report

    matched = list(spec.matched_group)
    placements: dict[str, list[DevicePlacement]] = {m: [] for m in matched}
    for placement in layout.devices:
        if placement.device in placements:
            placements[placement.device].append(placement)
    report.checked_shapes = sum(len(p) for p in placements.values())

    counts_ok = all(
        len(placements[name]) == spec.device(name).geometry.m
        for name in matched
    )
    if len(matched) == 2 and counts_ok:
        a, b = matched
        if spec.device(a).geometry.m == spec.device(b).geometry.m:
            _check_mirror_realization(
                a, placements[a], b, placements[b], report, layout.name
            )
    device_metal = tech.device_metal if tech is not None else "M1"
    _check_pair_metal(layout, spec, device_metal, report)
    return report


def _check_mirror_realization(
    name_a: str,
    units_a: list[DevicePlacement],
    name_b: str,
    units_b: list[DevicePlacement],
    report: Report,
    layout_name: str,
) -> None:
    """SYMG-PLACE / SYMG-AXIS / SYMG-ORIENT for one mirrored pair."""
    pair = f"{name_a}/{name_b}"
    rows: dict[int, dict[str, list[DevicePlacement]]] = {}
    for name, units in ((name_a, units_a), (name_b, units_b)):
        for unit in units:
            row = rows.setdefault(unit.rect.y0, {name_a: [], name_b: []})
            row[name].append(unit)

    axes: list[tuple[int, float]] = []
    orientations: dict[bool, int] = {}
    for y0 in sorted(rows):
        row = rows[y0]
        in_a = sorted(row[name_a], key=lambda u: u.rect.x0)
        in_b = sorted(row[name_b], key=lambda u: u.rect.x0)
        if len(in_a) != len(in_b) or not in_a:
            continue  # unequal rows are CONST-SYM-AXIS territory
        extent = [u.rect for u in in_a + in_b]
        axis = (min(r.x0 for r in extent) + max(r.x1 for r in extent)) / 2.0
        axes.append((y0, axis))
        # Mirror pairing: the leftmost A unit reflects onto the
        # rightmost B unit, and so on inward.
        for a_unit, b_unit in zip(in_a, reversed(in_b)):
            want = 2.0 * axis - a_unit.rect.center.x
            got = float(b_unit.rect.center.x)
            if abs(want - got) > POSITION_TOL:
                report.flag(
                    "SYMG-PLACE",
                    f"row at y={y0}: {name_b}[{b_unit.unit_index}] sits "
                    f"at x={got:.0f} but the mirror of "
                    f"{name_a}[{a_unit.unit_index}] about the row axis "
                    f"x={axis:.0f} lands at x={want:.0f}",
                    layout=layout_name,
                    subject=pair,
                    location=b_unit.rect.center,
                )
            relation = a_unit.flipped == b_unit.flipped
            orientations[relation] = orientations.get(relation, 0) + 1

    if len(orientations) > 1:
        same = orientations.get(True, 0)
        opposite = orientations.get(False, 0)
        report.flag(
            "SYMG-ORIENT",
            f"mirrored pairs of {pair} realize mixed orientation "
            f"relations: {same} pair(s) share their flip and "
            f"{opposite} pair(s) oppose it; one relation must hold "
            f"cell-wide",
            layout=layout_name,
            subject=pair,
        )

    if len(axes) > 1:
        lo_y, lo_axis = min(axes, key=lambda item: item[1])
        hi_y, hi_axis = max(axes, key=lambda item: item[1])
        if hi_axis - lo_axis > POSITION_TOL:
            report.flag(
                "SYMG-AXIS",
                f"rows of {pair} disagree on the mirror axis: row "
                f"y={lo_y} mirrors about x={lo_axis:.0f} but row "
                f"y={hi_y} about x={hi_axis:.0f}; the pattern promises "
                f"one cell-wide axis",
                layout=layout_name,
                subject=pair,
            )


def _pair_lengths(layout: Layout, net: str) -> dict[tuple[str, str], int]:
    """Summed wire length per (layer, role) for the trunk roles."""
    cols = layout.shape_columns()
    _, layer, x0, y0, x1, y1, role, _ = cols.net_wires(net)
    totals: dict[tuple[str, str], int] = {}
    for lay, r, dx, dy in zip(*(c.tolist() for c in (layer, role, x1 - x0, y1 - y0))):
        if ROLES[r] in _TRUNK_ROLES:
            key = (cols.layers[lay], ROLES[r])
            totals[key] = totals.get(key, 0) + max(dx, dy)
    return totals


def _pair_via_cuts(
    layout: Layout, net: str, device_metal: str
) -> dict[tuple[str, str], int]:
    """Summed via cuts per (lower, upper) layer pair for one net.

    Ladders touching the device metal are stub contacts and follow
    diffusion parity, so they are skipped.
    """
    cols = layout.shape_columns()
    _, pair_id, _, _, cut_count = cols.net_vias(net)
    totals: dict[tuple[str, str], int] = {}
    for pair, cuts in zip(pair_id.tolist(), cut_count.tolist()):
        key = cols.via_layers[pair]
        if device_metal in key:
            continue
        totals[key] = totals.get(key, 0) + cuts
    return totals


def _check_pair_metal(
    layout: Layout, spec: CellSpec, device_metal: str, report: Report
) -> None:
    """SYMG-WIRE-LEN / SYMG-VIA-COUNT per declared symmetric net pair."""
    for net_a, net_b in spec.symmetric_pairs:
        subject = f"{net_a}/{net_b}"
        len_a = _pair_lengths(layout, net_a)
        len_b = _pair_lengths(layout, net_b)
        for key in sorted(set(len_a) | set(len_b)):
            layer, role = key
            a, b = len_a.get(key, 0), len_b.get(key, 0)
            diff = abs(a - b)
            bound = max(LEN_ATOL_NM, LEN_RTOL * max(a, b))
            if diff > bound:
                report.flag(
                    "SYMG-WIRE-LEN",
                    f"{role} metal on {layer} totals {a} nm for "
                    f"{net_a} but {b} nm for {net_b} "
                    f"(|diff| {diff} nm > tolerance {bound:.0f} nm)",
                    layout=layout.name,
                    subject=subject,
                )
        cuts_a = _pair_via_cuts(layout, net_a, device_metal)
        cuts_b = _pair_via_cuts(layout, net_b, device_metal)
        for key in sorted(set(cuts_a) | set(cuts_b)):
            lower, upper = key
            a, b = cuts_a.get(key, 0), cuts_b.get(key, 0)
            if a != b:
                report.flag(
                    "SYMG-VIA-COUNT",
                    f"via ladder {lower}->{upper} has {a} cut(s) on "
                    f"{net_a} but {b} on {net_b}; symmetric nets need "
                    f"identical ladders",
                    layout=layout.name,
                    subject=subject,
                )
