"""Constraint / symmetry static analysis over generated layouts.

The primitives exist to preserve analog *intent*: matched devices, mirror
symmetry, common centroids, equivalent LDE environments, matched wire
meshes and matched routes.  DRC and connectivity cannot see any of that —
a layout can be flawlessly wired and still have its diff pair clustered
on one side of the cell.  This module checks the intent directly,
statically, against the declaring :class:`~repro.cellgen.generator
.CellSpec` and the pattern recorded in ``layout.metadata``.

Pattern gating — which rule applies where:

================  ==========================================
rule              applies when
================  ==========================================
CONST-MATCH-SIZE  always (any matched group)
CONST-SYM-AXIS    pattern in {ABAB, ABBA, CC2D}, exactly two
                  matched devices with equal unit counts
CONST-CENTROID    pattern in {ABBA, CC2D}, every matched
                  device's unit count even, and either all
                  counts equal or exactly two devices (the
                  ratioed-mirror case)
CONST-MATCH-LDE   same gate as CONST-CENTROID, restricted to
                  two-device groups
CONST-SYM-WIRES   pattern in {ABAB, ABBA, CC2D}, per declared
                  symmetric net pair
================  ==========================================

The LDE gate is empirical, not cosmetic: with more than two matched
devices a common-centroid pattern equalizes the (linear) systematic
gradient but *not* the (harmonic) well-proximity effect — a perfect
four-device ABBA carries ~1 mV of benign WPE spread between the inner
and outer columns, while a genuinely swapped unit in a two-device ABBA
shifts Vth by only a few uV.  Only two-device groups give every matched
device identical column occupancy, which is what makes the tight
:data:`LDE_VTH_TOL` discriminating.

``AABB`` is a *legal* clustered pattern (the paper uses it to show what
matching loses), so the mirror/centroid rules deliberately do not fire
on it; :func:`run_constraints` never punishes a layout for a property
its declared pattern does not promise.

:func:`check_route_parallelism` (CONST-ROUTE-PARALLEL) runs at the flow
level on :class:`~repro.pnr.detailed.DetailedRoute` results, where the
reconciled wire budgets and matched-net annotations live.

All checks are total: a corrupted layout yields violations, never an
exception.
"""

from __future__ import annotations

from typing import Mapping

from repro.cellgen.generator import CellSpec
from repro.errors import ExtractionError
from repro.extraction.lde_extract import extract_lde
from repro.geometry.layout import ROLES, DevicePlacement, Layout
from repro.pnr.detailed import DetailedRoute
from repro.tech.pdk import Technology
from repro.verify.diagnostics import Report

__all__ = [
    "run_constraints",
    "check_route_parallelism",
    "MIRROR_PATTERNS",
    "CENTROID_PATTERNS",
    "LDE_VTH_TOL",
    "LDE_MU_TOL",
]

#: Patterns that promise per-row mirror symmetry for a two-device group.
MIRROR_PATTERNS = ("ABAB", "ABBA", "CC2D")

#: Patterns that promise a shared centroid (given even unit counts).
CENTROID_PATTERNS = ("ABBA", "CC2D")

#: Tolerances for LDE-environment equivalence between matched devices.
#: Symmetric patterns cancel the systematic gradient *exactly* and give
#: matched devices identical column occupancy, so the expected residual
#: is float noise; anything above these bounds is a real asymmetry.
LDE_VTH_TOL = 1e-6  # V
LDE_MU_TOL = 1e-6  # mobility factor (dimensionless)

#: Positional tolerance (nm) for mirror/centroid coincidence.  Layout
#: coordinates are integer nanometres and matched units share widths, so
#: symmetric placements reflect exactly; 1 nm absorbs the half-unit
#: rounding of odd-width axes.
POSITION_TOL = 1.0


def run_constraints(
    layout: Layout, spec: CellSpec, tech: Technology
) -> Report:
    """Run every constraint/symmetry check on one primitive layout.

    Args:
        layout: A generated (or corrupted) primitive layout.
        spec: The cell spec declaring the matched group, ports and
            symmetric net pairs.
        tech: Technology node (for LDE extraction).

    Returns:
        A report of ``CONST-*`` findings; empty for layouts that honor
        their declared pattern.
    """
    report = Report(target=layout.name)
    pattern = str(layout.metadata.get("pattern", "")).upper()

    matched = [name for name in spec.matched_group]
    placements: dict[str, list[DevicePlacement]] = {m: [] for m in matched}
    for placement in layout.devices:
        if placement.device in placements:
            placements[placement.device].append(placement)
    report.checked_shapes = sum(len(p) for p in placements.values())

    _check_matched_sizes(spec, placements, report, layout.name)
    counts_ok = all(
        len(placements[name]) == spec.device(name).geometry.m
        for name in matched
    )
    if pattern in MIRROR_PATTERNS and len(matched) == 2 and counts_ok:
        a, b = matched
        if spec.device(a).geometry.m == spec.device(b).geometry.m:
            _check_mirror_symmetry(
                a, placements[a], b, placements[b], report, layout.name
            )
    counts = [spec.device(n).geometry.m for n in matched]
    if (
        pattern in CENTROID_PATTERNS
        and counts_ok
        and matched
        and all(m % 2 == 0 for m in counts)
        and (len(matched) == 2 or len(set(counts)) == 1)
    ):
        _check_common_centroid(placements, report, layout.name)
        if len(matched) == 2:
            _check_lde_matching(layout, spec, tech, report)
    if pattern in MIRROR_PATTERNS:
        # Clustered (AABB) rows put each net in its own device's rows
        # only, so mesh equality is structurally out of reach there —
        # the clustered pattern makes no matching promise to break.
        _check_symmetric_wires(layout, spec, report)
    return report


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_matched_sizes(
    spec: CellSpec,
    placements: Mapping[str, list[DevicePlacement]],
    report: Report,
    layout_name: str,
) -> None:
    """CONST-MATCH-SIZE: one shared unit sizing across the matched group."""
    reference: tuple[int, int, int] | None = None
    ref_device = ""
    for name in spec.matched_group:
        dev = spec.device(name)
        units = placements.get(name, [])
        if len(units) != dev.geometry.m:
            report.flag(
                "CONST-MATCH-SIZE",
                f"device {name} places {len(units)} unit(s) but its "
                f"geometry declares m={dev.geometry.m}",
                layout=layout_name,
                subject=name,
            )
        for unit in units:
            shape = (unit.nfin, unit.nf, unit.dummy_fingers)
            if reference is None:
                reference, ref_device = shape, name
            elif shape != reference:
                report.flag(
                    "CONST-MATCH-SIZE",
                    f"unit {name}[{unit.unit_index}] is (nfin={unit.nfin}, "
                    f"nf={unit.nf}, dummies={unit.dummy_fingers}) but the "
                    f"group's reference {ref_device} is (nfin="
                    f"{reference[0]}, nf={reference[1]}, dummies="
                    f"{reference[2]})",
                    layout=layout_name,
                    subject=name,
                    location=unit.rect.center,
                )


def _check_mirror_symmetry(
    name_a: str,
    units_a: list[DevicePlacement],
    name_b: str,
    units_b: list[DevicePlacement],
    report: Report,
    layout_name: str,
) -> None:
    """CONST-SYM-AXIS: per-row mirror symmetry of a two-device group.

    Each row of the matched stack must hold the same number of A and B
    units, with A's unit centers reflecting onto B's about the row's
    own vertical axis.
    """
    rows: dict[int, dict[str, list[DevicePlacement]]] = {}
    for name, units in ((name_a, units_a), (name_b, units_b)):
        for unit in units:
            row = rows.setdefault(unit.rect.y0, {name_a: [], name_b: []})
            row[name].append(unit)

    for y0 in sorted(rows):
        row = rows[y0]
        in_a, in_b = row[name_a], row[name_b]
        if len(in_a) != len(in_b):
            report.flag(
                "CONST-SYM-AXIS",
                f"row at y={y0} holds {len(in_a)} {name_a} unit(s) and "
                f"{len(in_b)} {name_b} unit(s); mirror rows need equal "
                f"counts",
                layout=layout_name,
                subject=f"{name_a}/{name_b}",
            )
            continue
        extent = [u.rect for u in in_a + in_b]
        axis = (min(r.x0 for r in extent) + max(r.x1 for r in extent)) / 2.0
        reflected = sorted(2.0 * axis - u.rect.center.x for u in in_a)
        actual = sorted(float(u.rect.center.x) for u in in_b)
        for want, got in zip(reflected, actual):
            if abs(want - got) > POSITION_TOL:
                report.flag(
                    "CONST-SYM-AXIS",
                    f"row at y={y0}: {name_b} unit at x={got:.0f} does "
                    f"not mirror {name_a} about the row axis "
                    f"(expected x={want:.0f})",
                    layout=layout_name,
                    subject=f"{name_a}/{name_b}",
                )


def _check_common_centroid(
    placements: Mapping[str, list[DevicePlacement]],
    report: Report,
    layout_name: str,
) -> None:
    """CONST-CENTROID: matched devices share one placement centroid."""
    centroids: dict[str, tuple[float, float]] = {}
    for name, units in placements.items():
        if not units:
            continue
        centroids[name] = (
            sum(u.rect.center.x for u in units) / len(units),
            sum(u.rect.center.y for u in units) / len(units),
        )
    if len(centroids) < 2:
        return
    names = sorted(centroids)
    ref_name = names[0]
    ref = centroids[ref_name]
    for name in names[1:]:
        cx, cy = centroids[name]
        if abs(cx - ref[0]) > POSITION_TOL or abs(cy - ref[1]) > POSITION_TOL:
            report.flag(
                "CONST-CENTROID",
                f"centroid of {name} is ({cx:.1f}, {cy:.1f}) but "
                f"{ref_name}'s is ({ref[0]:.1f}, {ref[1]:.1f}); the "
                f"common-centroid pattern requires coincidence",
                layout=layout_name,
                subject=name,
            )


def _check_lde_matching(
    layout: Layout, spec: CellSpec, tech: Technology, report: Report
) -> None:
    """CONST-MATCH-LDE: equivalent LDE environments for matched devices."""
    contexts = {}
    bbox = layout.bbox()
    for name in spec.matched_group:
        dev = spec.device(name)
        try:
            card = tech.card(dev.polarity)
            contexts[name] = extract_lde(layout, name, card, tech, bbox=bbox)
        except ExtractionError:
            # Missing placements / wells are CONST-MATCH-SIZE or DRC
            # territory; LDE equivalence is undefined for them.
            continue
    if len(contexts) < 2:
        return
    names = sorted(contexts)
    ref_name = names[0]
    ref = contexts[ref_name]
    for name in names[1:]:
        lde = contexts[name]
        dvth = abs(lde.vth_shift - ref.vth_shift)
        dmu = abs(lde.mobility_factor - ref.mobility_factor)
        if dvth > LDE_VTH_TOL or dmu > LDE_MU_TOL:
            report.flag(
                "CONST-MATCH-LDE",
                f"LDE environment of {name} deviates from {ref_name}'s: "
                f"|dVth|={dvth:.3e} V (tol {LDE_VTH_TOL:.0e}), "
                f"|dmu|={dmu:.3e} (tol {LDE_MU_TOL:.0e})",
                layout=layout.name,
                subject=name,
            )


def _check_symmetric_wires(
    layout: Layout, spec: CellSpec, report: Report
) -> None:
    """CONST-SYM-WIRES: symmetric net pairs carry identical wire meshes."""
    for net_a, net_b in spec.symmetric_pairs:
        profile_a = _mesh_profile(layout, net_a)
        profile_b = _mesh_profile(layout, net_b)
        if not profile_a and not profile_b:
            continue  # neither net is wired (e.g. bulk-only nets)
        if profile_a != profile_b:
            diffs = sorted(
                key
                for key in set(profile_a) | set(profile_b)
                if profile_a.get(key, 0) != profile_b.get(key, 0)
            )
            detail = ", ".join(
                f"{layer}/{role}: {profile_a.get((layer, role), 0)} vs "
                f"{profile_b.get((layer, role), 0)}"
                for layer, role in diffs
            )
            report.flag(
                "CONST-SYM-WIRES",
                f"wire meshes of symmetric pair ({net_a}, {net_b}) "
                f"differ ({detail})",
                layout=layout.name,
                subject=f"{net_a}/{net_b}",
            )


#: Wire roles the symmetric-mesh comparison covers.  Finger stubs (and
#: the vias that land on them) follow the diffusion column parity
#: (``S D S ...``), which a symmetric pair spanning one device's drain
#: and source can never equalize; the mesh the tuning lever actually
#: controls — row straps, jumpers and trunk rails — must match exactly.
_MESH_ROLES = ("strap", "strap_jumper", "rail", "route")


def _mesh_profile(layout: Layout, net: str) -> dict[tuple[str, str], int]:
    """Configurable-mesh shape counts per (layer, role) for one net."""
    cols = layout.shape_columns()
    _, layer, _, _, _, _, role, _ = cols.net_wires(net)
    profile: dict[tuple[str, str], int] = {}
    for lay, r in zip(layer.tolist(), role.tolist()):
        if ROLES[r] in _MESH_ROLES:
            key = (cols.layers[lay], ROLES[r])
            profile[key] = profile.get(key, 0) + 1
    return profile


# ---------------------------------------------------------------------------
# flow-level route parallelism
# ---------------------------------------------------------------------------


def check_route_parallelism(
    routes: Mapping[str, DetailedRoute],
    budgets: Mapping[str, int] | None = None,
    target: str = "routes",
) -> Report:
    """CONST-ROUTE-PARALLEL: matched routes realize consistent wire counts.

    Args:
        routes: Detailed routes keyed by net, as produced by
            :func:`repro.pnr.detailed.realize_routes`.
        budgets: Reconciled parallel-wire budgets per net (nets not
            listed budget 1); when given, every route's realized count
            must meet its (matched-pair-shared) budget.
        target: Report target name.

    Returns:
        A report of ``CONST-ROUTE-PARALLEL`` findings.
    """
    report = Report(target=target)
    report.checked_shapes = len(routes)
    for net in sorted(routes):
        route = routes[net]
        partner_name = route.matched_with
        if partner_name is not None:
            partner = routes.get(partner_name)
            if partner is None:
                report.flag(
                    "CONST-ROUTE-PARALLEL",
                    f"route {net} is matched with {partner_name} but "
                    f"{partner_name} has no detailed route",
                    layout=target,
                    subject=net,
                )
            elif partner.n_parallel != route.n_parallel:
                if net < partner_name:  # report each pair once
                    report.flag(
                        "CONST-ROUTE-PARALLEL",
                        f"matched routes ({net}, {partner_name}) realize "
                        f"{route.n_parallel} vs {partner.n_parallel} "
                        f"parallel wires; matched nets must share one "
                        f"count",
                        layout=target,
                        subject=f"{net}/{partner_name}",
                    )
        if budgets is not None:
            expected = max(1, budgets.get(net, 1))
            if partner_name is not None:
                expected = max(expected, budgets.get(partner_name, 1))
            if route.n_parallel < expected:
                report.flag(
                    "CONST-ROUTE-PARALLEL",
                    f"route {net} realizes {route.n_parallel} parallel "
                    f"wire(s) but its reconciled budget is {expected}",
                    layout=target,
                    subject=net,
                )
    return report
