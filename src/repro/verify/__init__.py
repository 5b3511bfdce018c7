"""Static verification: DRC + connectivity + ERC + constraint lint.

The paper's premise is that procedurally generated primitives are
*correct by construction*; this subsystem checks that claim without a
single simulation.  Four engines share one rule registry
(:mod:`repro.verify.rules`) and one :class:`~repro.verify.diagnostics
.Report`:

* :mod:`repro.verify.drc` — gridded-FinFET design rules (pitch grids,
  footprints, wire width/spacing, via stacking, well enclosure, ports),
* :mod:`repro.verify.connectivity` — the LVS-lite net graph (terminal
  wiring vs. the schematic, net contiguity, shorts),
* :mod:`repro.verify.erc` — electrical rules over flat netlists
  (floating gates, undriven nets, rail shorts, bulk polarity),
* :mod:`repro.verify.constraints` — analog-intent constraints (matched
  sizing, mirror symmetry, common centroid, LDE equivalence, symmetric
  wire meshes, route parallelism).

:func:`verify_layout` runs the geometric engines (plus the constraint
analyzer whenever a :class:`~repro.cellgen.generator.CellSpec` is
given); :func:`verify_circuit` runs ERC on a netlist.  The geometric
engines read :class:`~repro.geometry.layout.ShapeColumns`, so verifying
a generated or flattened layout builds no ``Wire``/``Via`` record; a
``Rect`` is made only for a violation.  Known deviations are suppressed
explicitly through a ``.reprolint.toml`` waiver file
(:class:`~repro.verify.rules.WaiverSet`), never by disabling rules.

It is wired in at four call sites: the cell generator verifies every
emitted variant, the optimizer ERC-gates the schematic reference before
spending SPICE budget, the hierarchical flow verifies assembled blocks
and route parallelism after placement, and the ``repro verify`` CLI
checks any library primitive or benchmark circuit and exits nonzero on
unwaived errors.
"""

from __future__ import annotations

from pathlib import Path

from repro.cellgen.generator import CellSpec
from repro.errors import VerificationError
from repro.geometry.layout import Instance, Layout, flatten_instances
from repro.spice.netlist import Circuit
from repro.tech.pdk import Technology
from repro.verify.antenna import run_antenna
from repro.verify.connectivity import NetGraph, run_connectivity
from repro.verify.constraints import check_route_parallelism, run_constraints
from repro.verify.diagnostics import Report, Violation
from repro.verify.drc import check_instance_overlaps, run_drc
from repro.verify.emag import (
    budget_net_currents,
    check_route_currents,
    run_emag,
)
from repro.verify.erc import run_erc
from repro.verify.rules import (
    RuleDef,
    Waiver,
    WaiverSet,
    all_rules,
    register_rule,
    rule,
    rules_in_category,
)
from repro.verify.symmetry_geo import run_symmetry_geo
from repro.verify.tech import AuditTech, LayerAudit

__all__ = [
    "Report",
    "Violation",
    "NetGraph",
    "RuleDef",
    "Waiver",
    "WaiverSet",
    "AuditTech",
    "LayerAudit",
    "VerificationError",
    "all_rules",
    "register_rule",
    "rule",
    "rules_in_category",
    "run_drc",
    "run_connectivity",
    "run_erc",
    "run_constraints",
    "run_emag",
    "run_antenna",
    "run_symmetry_geo",
    "budget_net_currents",
    "check_route_currents",
    "check_route_parallelism",
    "load_waivers",
    "verify_layout",
    "verify_circuit",
    "verify_assembly",
]

#: Conventional waiver-file name looked up by the CLI and Makefile.
DEFAULT_WAIVER_FILE = ".reprolint.toml"


def load_waivers(path: str | Path | None = None) -> WaiverSet | None:
    """Load a waiver baseline, tolerating a missing default file.

    With an explicit ``path`` the file must exist (a typo'd baseline
    silently waiving nothing would be worse than an error).  With
    ``path=None`` the conventional :data:`DEFAULT_WAIVER_FILE` is
    loaded from the current directory when present, else ``None``.
    """
    if path is None:
        default = Path(DEFAULT_WAIVER_FILE)
        if not default.is_file():
            return None
        return WaiverSet.load(default)
    return WaiverSet.load(path)


def verify_layout(
    layout: Layout,
    tech: Technology,
    spec: CellSpec | None = None,
    strict: bool = False,
    absolute_grid: bool = True,
    constraints: bool = True,
    waivers: WaiverSet | None = None,
    emag: bool = True,
    antenna: bool = True,
    symmetry_geo: bool = True,
    audit: AuditTech | None = None,
    currents: dict[str, float] | None = None,
) -> Report:
    """Run DRC + connectivity + the electrical/symmetry audit on a layout.

    Args:
        layout: The layout to verify.
        tech: Technology whose rules apply.
        spec: Optional :class:`~repro.cellgen.generator.CellSpec`; when
            given, terminal wiring is checked against the schematic and
            the constraint/symmetry analyzers run.
        strict: Raise :class:`VerificationError` when unwaived errors
            are found instead of returning the report.
        absolute_grid: Forwarded to :func:`~repro.verify.drc.run_drc`;
            flattened assemblies pass ``False`` (children are translated
            off the absolute poly-grid phase by placement).
        constraints: Run the constraint analyzer (requires ``spec``).
        waivers: Optional baseline; matching violations are marked
            waived before the strict check.
        emag: Run the static EM/IR audit
            (:func:`~repro.verify.emag.run_emag`).
        antenna: Run the antenna-ratio / density-window audit
            (:func:`~repro.verify.antenna.run_antenna`).
        symmetry_geo: Run the geometric symmetry-realization audit
            (:func:`~repro.verify.symmetry_geo.run_symmetry_geo`;
            requires ``spec``).
        audit: Electrical-audit table; defaults to
            :meth:`~repro.verify.tech.AuditTech.for_technology`.
        currents: Explicit worst-case net currents (A) for the EM/IR
            audit; defaults to the declared budget (or pass the result
            of :meth:`~repro.spice.dc.OperatingPoint.net_currents`).

    Returns:
        The merged report (always returned when ``strict`` is false).

    Raises:
        VerificationError: In strict mode, when any unwaived
            error-severity violation is present (warnings never raise).
    """
    report = run_drc(layout, tech, absolute_grid=absolute_grid)
    report.merge(run_connectivity(layout, tech, spec=spec))
    if constraints and spec is not None:
        report.merge(run_constraints(layout, spec, tech))
    if emag or antenna:
        if audit is None:
            audit = AuditTech.for_technology(tech)
        if emag:
            report.merge(
                run_emag(layout, tech, audit=audit, currents=currents)
            )
        if antenna:
            report.merge(run_antenna(layout, tech, audit=audit))
    if symmetry_geo and spec is not None:
        report.merge(run_symmetry_geo(layout, spec, tech))
    report.apply_waivers(waivers)
    if strict:
        report.raise_if_errors()
    return report


def verify_circuit(
    circuit: Circuit,
    strict: bool = False,
    waivers: WaiverSet | None = None,
) -> Report:
    """Run the ERC engine on a flat netlist.

    Args:
        circuit: The circuit to check (schematic reference, extracted
            netlist or testbench).
        strict: Raise :class:`VerificationError` on unwaived errors.
        waivers: Optional baseline applied before the strict check.

    Returns:
        The ERC report.
    """
    report = run_erc(circuit)
    report.apply_waivers(waivers)
    if strict:
        report.raise_if_errors()
    return report


def verify_assembly(
    name: str,
    instances: list[Instance],
    tech: Technology,
    net_map: dict[str, dict[str, str]] | None = None,
    strict: bool = False,
    waivers: WaiverSet | None = None,
) -> Report:
    """Verify an assembled block: placed instances plus their flattening.

    Checks that no two placed instances overlap, then flattens the
    children into parent coordinates (rewriting block-local nets through
    ``net_map`` so same-named child nets cannot alias) and runs the full
    DRC + connectivity pass over the merged geometry.

    Args:
        name: Name for the flattened layout (used in messages).
        instances: Placed child layouts.
        tech: Technology whose rules apply.
        net_map: ``{instance: {child_net: parent_net}}`` rewrite table.
        strict: Raise :class:`VerificationError` on unwaived errors.
        waivers: Optional baseline applied before the strict check.

    Returns:
        The merged report for the placement and the flattened geometry.
    """
    report = Report(target=name)
    check_instance_overlaps(report, instances)
    if instances:
        flat = flatten_instances(name, instances, net_map=net_map)
        report.merge(verify_layout(flat, tech, absolute_grid=False))
    report.apply_waivers(waivers)
    if strict:
        report.raise_if_errors()
    return report
