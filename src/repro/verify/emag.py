"""Static electromigration (EM) and supply IR-drop analysis.

The generator emits real metal: finger stubs, row straps, trunk rails
and routes, all of which must carry the cell's DC currents forever.
This module audits that claim without a transient simulation, walking
:class:`~repro.geometry.layout.Layout` nets against the per-layer
current-density limits tabulated in :class:`~repro.verify.tech
.AuditTech`:

* ``EM-WIRE-DENSITY`` — a wire group's worst-case DC current per
  micrometre of width exceeds its layer's electromigration limit,
* ``EM-VIA-DENSITY`` — a via group's worst-case current per cut exceeds
  the via layer's per-cut limit,
* ``EM-ROUTE-DENSITY`` — a detailed route bundles too few parallel
  wires for its net's current (flow-level,
  :func:`check_route_currents`),
* ``IR-DROP`` — the worst-case resistive drop along a supply net's
  mesh (rail -> strap -> stub, through the via ladders) exceeds
  ``ir_drop_frac x vdd``.

Current model
-------------

Worst-case net currents come from one of three sources, in order of
preference:

1. An explicit ``currents`` mapping (net -> amps) supplied by the
   caller,
2. a solved DC operating point
   (:meth:`repro.spice.dc.OperatingPoint.net_currents` — the drain
   current of every MOSFET, folded per net as ``max(inflow,
   outflow)``),
3. the *declared budget*: every device conducts
   ``AuditTech.current_per_fin_a`` per fin through drain and source
   (:func:`budget_net_currents`), recovered entirely from the layout's
   device placements and finger-stub ownership tags — no netlist
   needed, which is what lets the audit run default-on inside
   ``generate_layout`` and over flattened assemblies.

Within a net the current is assumed to split equally over the parallel
members of each (layer, role) wire group and over the total cuts of
each via ladder — the design intent of the generator's mesh, and the
conservative static reading once the worst-case net current is already
an upper bound.

All checks are total: a corrupted layout yields violations, never an
exception.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np
from numpy.typing import NDArray

from repro.errors import TechnologyError
from repro.geometry.layout import FINGER_STUB, ROLES, Layout, ShapeColumns, Wire
from repro.geometry.search import first_seen
from repro.spice.netlist import is_ground
from repro.tech.pdk import Technology
from repro.verify.diagnostics import Report
from repro.verify.tech import AuditTech

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pnr.detailed import DetailedRoute
    from repro.spice.dc import OperatingPoint

__all__ = [
    "run_emag",
    "budget_net_currents",
    "check_route_currents",
]

#: Series order of mesh roles from the port into the devices, for the
#: IR path model: current enters on the trunk rails, crosses the row
#: straps (and their jumpers across the rail region) and descends the
#: finger stubs.
_IR_PATH_ROLES = ("rail", "route", "strap_jumper", "strap", "finger_stub")

#: Roles whose taps are distributed along the wire (straps tap the rail
#: at every row, stubs tap the strap at every column).  A uniformly
#: loaded feeder fed at one end drops ``I x R / 2`` at its far end, so
#: these stages take half their end-to-end resistance.
_DISTRIBUTED_ROLES = frozenset({"rail", "strap"})


def _amps_to_ma(amps: float) -> float:
    return amps * 1e3


def _density_ma_per_um(amps: float, width_nm: int) -> float:
    """DC current density in mA/um for ``amps`` through ``width_nm``."""
    if width_nm <= 0:
        return float("inf")
    return amps * 1e3 / (width_nm * 1e-3)


def terminal_nets(cols: ShapeColumns) -> dict[tuple[str, str], str]:
    """(device, terminal) -> net, recovered from finger-stub owners."""
    net, *_, role, owner = cols.wires
    dotted = np.array(["." in name for name in cols.owners], dtype=bool)
    stubs = (role == FINGER_STUB) & dotted[owner]
    out: dict[tuple[str, str], str] = {}
    for owner_id, net_id in zip(owner[stubs].tolist(), net[stubs].tolist()):
        device, _, terminal = cols.owners[owner_id].rpartition(".")
        out[(device, terminal)] = cols.nets[net_id]
    return out


def budget_net_currents(
    layout: Layout, audit: AuditTech
) -> dict[str, float]:
    """Declared-budget worst-case current (A) per net, from the layout.

    Every device is assumed to conduct ``current_per_fin_a`` per fin of
    channel (summed over its placed units) through drain and source;
    gates and bulks carry no DC current.  A net's worst-case current is
    ``max(total inflow, total outflow)`` over the device terminals it
    touches — the bound on what its mesh must carry regardless of where
    the current actually leaves (a port, a supply, another device).
    """
    device_amps: dict[str, float] = {}
    for placement in layout.devices:
        device_amps[placement.device] = (
            device_amps.get(placement.device, 0.0)
            + placement.nfin * placement.nf * audit.current_per_fin_a
        )
    inflow: dict[str, float] = {}
    outflow: dict[str, float] = {}
    terminals = terminal_nets(layout.shape_columns())
    for (device, terminal), net in sorted(terminals.items()):
        amps = device_amps.get(device, 0.0)
        if terminal == "s":
            inflow[net] = inflow.get(net, 0.0) + amps
        elif terminal == "d":
            outflow[net] = outflow.get(net, 0.0) + amps
    return {
        net: max(inflow.get(net, 0.0), outflow.get(net, 0.0))
        for net in sorted(set(inflow) | set(outflow))
    }


def _groups(
    keys: NDArray[np.int64], *ties: NDArray[np.int64]
) -> tuple[NDArray[np.int64], NDArray[np.intp], NDArray[np.intp]]:
    """The distinct key columns, each column's group, and each group's
    first column in ``(*ties, index)`` order (its worst member)."""
    # One mixed-radix integer per column makes the grouping a 1-D unique.
    radix = tuple(keys.max(axis=1) + 1) if keys.shape[1] else (1,) * len(keys)
    codes = np.ravel_multi_index(tuple(keys), radix)
    _, first, group = np.unique(codes, return_index=True, return_inverse=True)
    sizes = np.bincount(group, minlength=len(first))
    order = np.lexsort((*reversed(ties), group))
    return keys[:, first], group, order[np.cumsum(sizes) - sizes]


def _check_wire_em(
    layout: Layout,
    currents: Mapping[str, float],
    audit: AuditTech,
    report: Report,
) -> None:
    """EM-WIRE-DENSITY over every (net, layer, role) wire group; its
    worst member is the narrowest, then lowest ``(x0, y0)``, wire."""
    cols = layout.shape_columns()
    net, layer, x0, y0, x1, y1, role, _ = cols.wires
    width = np.minimum(x1 - x0, y1 - y0)
    keys, group, worst = _groups(np.stack([net, layer, role]), width, x0, y0)
    sizes = np.bincount(group)
    for (net_name, layer_name, role_name), k in sorted(
        ((cols.nets[n], cols.layers[lay], ROLES[r]), k)
        for k, (n, lay, r) in enumerate(keys.T.tolist())
    ):
        amps = currents.get(net_name, 0.0)
        if amps <= 0.0:
            continue
        limits = audit.layer(layer_name)
        if limits is None:
            continue
        share = amps / int(sizes[k])
        narrowest = int(width[worst[k]])
        density = _density_ma_per_um(share, narrowest)
        if density > limits.em_limit_ma_um:
            report.flag(
                "EM-WIRE-DENSITY",
                f"{role_name} group on {layer_name} ({sizes[k]} wire(s), "
                f"narrowest {narrowest} nm) carries "
                f"{_amps_to_ma(share):.3f} mA per wire = "
                f"{density:.2f} mA/um; the {layer_name} limit is "
                f"{limits.em_limit_ma_um:.2f} mA/um",
                layout=layout.name,
                subject=net_name,
                rect=cols.wire_rect(worst[k]),
            )


def _via_ladders(cols: ShapeColumns) -> list[tuple[tuple[str, str, str], int, int]]:
    """Via ladders sorted by (net, lower, upper): key, total cuts, and
    worst via (lowest ``(x, y)``, then first in layout order)."""
    net, pair, x, y, cuts = cols.vias
    keys, group, worst = _groups(np.stack([net, pair]), x, y)
    totals = np.zeros(keys.shape[1], dtype=np.int64)
    np.add.at(totals, group, cuts)
    return sorted(
        ((cols.nets[n], *cols.via_layers[p]), total, first)
        for (n, p), total, first in zip(keys.T.tolist(), totals.tolist(), worst.tolist())
    )


def _check_via_em(
    layout: Layout,
    tech: Technology,
    currents: Mapping[str, float],
    audit: AuditTech,
    report: Report,
) -> None:
    """EM-VIA-DENSITY over every (net, layer-pair) via ladder."""
    cols = layout.shape_columns()
    for (net, lower, upper), cuts, worst in _via_ladders(cols):
        amps = currents.get(net, 0.0)
        if amps <= 0.0:
            continue
        try:
            via_layer = tech.stack.via_between(lower, upper)
        except TechnologyError:
            continue  # DRC-VIA-STACK owns non-adjacent via reporting
        limit = audit.via_limit(via_layer.name)
        if limit is None:
            continue
        per_cut_ma = _amps_to_ma(amps / cuts)
        if per_cut_ma > limit:
            report.flag(
                "EM-VIA-DENSITY",
                f"{via_layer.name} ladder {lower}->{upper} ({cuts} "
                f"cut(s)) carries {per_cut_ma:.3f} mA per cut; the "
                f"per-cut limit is {limit:.3f} mA",
                layout=layout.name,
                subject=net,
                location=cols.via_position(worst),
            )


def _group_series_resistance(
    cols: ShapeColumns, wires: NDArray[np.int64], tech: Technology
) -> float:
    """Effective resistance of one parallel wire group (ohm).

    The longest member's end-to-end sheet resistance divided by the
    group size: the equal-split assumption again, taken at the worst
    single span so taper along the wire is absorbed conservatively.
    """
    worst = 0.0
    _, layer, x0, y0, x1, y1, _, _ = wires
    for lay, w, h in zip(layer.tolist(), (x1 - x0).tolist(), (y1 - y0).tolist()):
        metal = tech.stack.metal(cols.layers[lay])
        worst = max(
            worst, metal.wire_resistance(float(max(w, h)), float(min(w, h)))
        )
    return worst / len(layer)


def _check_ir_drop(
    layout: Layout,
    tech: Technology,
    currents: Mapping[str, float],
    audit: AuditTech,
    report: Report,
) -> None:
    """IR-DROP over every supply (power/ground) net."""
    cols = layout.shape_columns()
    nets, *_ = cols.wires
    ladders = _via_ladders(cols)
    budget_v = audit.ir_drop_frac * tech.vdd
    for net_id in sorted(np.unique(nets).tolist(), key=cols.nets.__getitem__):
        net = cols.nets[net_id]
        if not (is_ground(net) or net.endswith("!")):
            continue
        amps = currents.get(net, 0.0)
        if amps <= 0.0:
            continue
        on_net = cols.wires[:, nets == net_id]
        _, layers, _, _, _, _, roles, _ = on_net
        path_ohm = 0.0
        stages: list[str] = []
        for role in _IR_PATH_ROLES:
            rows = np.flatnonzero(roles == ROLES.index(role))
            if not len(rows):
                continue
            # Layer by layer, in order of each layer's first such wire.
            rows = rows[np.lexsort((rows, first_seen(layers[rows])))]
            stage = _group_series_resistance(cols, on_net[:, rows], tech)
            if role in _DISTRIBUTED_ROLES:
                stage *= 0.5
            path_ohm += stage
            stages.append(f"{role}={stage:.1f}")
        for (ladder_net, lower, upper), cuts, _ in ladders:
            if ladder_net != net:
                continue
            try:
                via_layer = tech.stack.via_between(lower, upper)
            except TechnologyError:
                continue
            stage = via_layer.array_resistance(cuts)
            path_ohm += stage
            stages.append(f"{via_layer.name}={stage:.1f}")
        if not stages:
            continue
        drop = amps * path_ohm
        if drop > budget_v:
            report.flag(
                "IR-DROP",
                f"supply mesh drops {drop * 1e3:.2f} mV at "
                f"{_amps_to_ma(amps):.3f} mA (path "
                f"{path_ohm:.1f} ohm: {', '.join(stages)}); the budget "
                f"is {budget_v * 1e3:.1f} mV "
                f"({audit.ir_drop_frac:.0%} of vdd)",
                layout=layout.name,
                subject=net,
            )


def run_emag(
    layout: Layout,
    tech: Technology,
    audit: AuditTech | None = None,
    op: "OperatingPoint | None" = None,
    currents: Mapping[str, float] | None = None,
) -> Report:
    """Run the static EM/IR audit on one layout.

    Args:
        layout: The layout to audit (primitive or flattened assembly).
        tech: Technology the layout was generated for.
        audit: Audit table; defaults to
            :meth:`AuditTech.for_technology`.
        op: Optional solved DC operating point whose device names and
            nets match the layout; its
            :meth:`~repro.spice.dc.OperatingPoint.net_currents` replace
            the declared budget.
        currents: Explicit worst-case net currents (A); overrides both
            ``op`` and the budget.

    Returns:
        A report of ``EM-*`` / ``IR-*`` findings; empty when every
        wire, via and supply mesh is within its limits.
    """
    if audit is None:
        audit = AuditTech.for_technology(tech)
    report = Report(target=layout.name)
    cols = layout.shape_columns()
    report.checked_shapes = cols.wires.shape[1] + cols.vias.shape[1]
    if currents is None:
        if op is not None:
            currents = op.net_currents()
        else:
            currents = budget_net_currents(layout, audit)
    _check_wire_em(layout, currents, audit, report)
    _check_via_em(layout, tech, currents, audit, report)
    _check_ir_drop(layout, tech, currents, audit, report)
    return report


def check_route_currents(
    routes: Mapping[str, "DetailedRoute"],
    currents: Mapping[str, float],
    tech: Technology,
    audit: AuditTech | None = None,
    target: str = "routes",
) -> Report:
    """EM-ROUTE-DENSITY: detailed routes carry their net's current.

    Flow-level companion to :func:`run_emag`: each realized route's
    current splits over its ``n_parallel`` copies, and every bundled
    wire must stay below its layer's EM limit.

    Args:
        routes: Detailed routes keyed by net
            (:func:`repro.pnr.detailed.realize_routes` output).
        currents: Worst-case net currents (A), e.g. from
            :func:`budget_net_currents` over the flattened assembly.
        tech: Technology the routes were realized in.
        audit: Audit table; defaults to
            :meth:`AuditTech.for_technology`.
        target: Report target name.

    Returns:
        A report of ``EM-ROUTE-DENSITY`` findings.
    """
    if audit is None:
        audit = AuditTech.for_technology(tech)
    report = Report(target=target)
    report.checked_shapes = len(routes)
    for net in sorted(routes):
        route = routes[net]
        amps = currents.get(net, 0.0)
        if amps <= 0.0 or not route.wires:
            continue
        limits_map = {
            wire.layer: limits.em_limit_ma_um
            for wire in route.wires
            if (limits := audit.layer(wire.layer)) is not None
        }
        capacity_ma = route.current_capacity_ma(limits_map)
        ma = _amps_to_ma(amps)
        if ma <= capacity_ma:
            continue
        share = amps / max(1, route.n_parallel)
        worst_density = 0.0
        worst_wire: Wire | None = None
        worst_limit = 0.0
        for wire in route.wires:
            limit = limits_map.get(wire.layer)
            if limit is None:
                continue
            density = _density_ma_per_um(share, wire.width)
            if density - limit > worst_density - worst_limit:
                worst_density, worst_limit, worst_wire = (
                    density, limit, wire,
                )
        if worst_wire is not None:
            needed = max(
                route.n_parallel + 1,
                -int(-ma * route.n_parallel // capacity_ma)
                if capacity_ma > 0.0
                else route.n_parallel + 1,
            )
            report.flag(
                "EM-ROUTE-DENSITY",
                f"route bundles {route.n_parallel} wire(s) with "
                f"{capacity_ma:.3f} mA capacity; {worst_wire.layer} "
                f"segment ({worst_wire.width} nm) carries "
                f"{worst_density:.2f} mA/um against a "
                f"{worst_limit:.2f} mA/um limit — needs >= {needed} "
                f"parallel wires",
                layout=target,
                subject=net,
                rect=worst_wire.rect,
            )
    return report
