"""Antenna-ratio and metal-density-window checks.

Two manufacturability audits that neither DRC nor connectivity covers:

* ``ANT-RATIO`` — *antenna* (plasma-induced gate damage) check.  During
  fabrication each metal layer is patterned while the layers above it
  do not exist yet, so all metal of a net on one layer collects plasma
  charge that discharges through whatever gates the net already
  contacts.  The classic static bound is the **antenna ratio**: the
  net's metal area on the layer divided by its connected gate area,
  which must stay below ``AuditTech.antenna_max_ratio``.  Nets
  contacting no gate (supply rails, source/drain-only nets) cannot
  damage anything and are skipped.

* ``DEN-WINDOW-MAX`` / ``DEN-WINDOW-MIN`` — metal density.  CMP
  planarity needs each ``density_window_nm`` x ``density_window_nm``
  window of a used routing layer to stay below the layer's
  ``max_density`` ceiling (dishing risk the mesh must fix — an error),
  and the layer's density over the whole cell to stay above
  ``min_density`` (erosion risk).  The floor is checked cell-wide
  rather than per window — primitive cells legitimately concentrate
  each layer near the rows or the rail region, so empty windows are
  the norm, not a defect — and it fires as a warning: dummy fill is a
  tapeout step outside this generator's scope, so the audit points at
  the gap without failing the cell.

Gate area is estimated from the placed units: ``nfin x nf`` fins per
unit, each contributing ``fin_pitch x gate_length_nm`` of effective
gate oxide — the same first-order footprint the LDE extractor uses.
Overlapping same-net shapes (stub/strap crossings) are double-counted;
that overestimates both metal area and window density slightly, which
keeps the audit conservative and the implementation total.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.geometry.layout import W_LAYER, Layout
from repro.geometry.shapes import Rect
from repro.tech.pdk import Technology
from repro.verify.diagnostics import Report
from repro.verify.emag import terminal_nets
from repro.verify.tech import AuditTech

__all__ = ["run_antenna", "gate_areas"]


def gate_areas(layout: Layout, tech: Technology, audit: AuditTech) -> dict[str, float]:
    """Connected gate area (nm^2) per net, from placements + stub owners.

    The gate net of each device is recovered from its ``"<dev>.g"``
    finger-stub owner tags (the last such stub wins), so the estimate
    works on any layout the generator (or a flattening of it) produced,
    without a netlist.
    """
    terminals = terminal_nets(layout.shape_columns())
    gate_net = {dev: net for (dev, term), net in terminals.items() if term == "g"}
    per_fin = float(tech.rules.fin_pitch * audit.gate_length_nm)
    areas: dict[str, float] = {}
    for placement in layout.devices:
        net = gate_net.get(placement.device)
        if net is None:
            continue
        areas[net] = areas.get(net, 0.0) + placement.nfin * placement.nf * per_fin
    return areas


def _check_antenna(
    layout: Layout,
    tech: Technology,
    audit: AuditTech,
    report: Report,
) -> None:
    """ANT-RATIO per (net with gates, metal layer)."""
    gates = gate_areas(layout, tech, audit)
    cols = layout.shape_columns()
    net, layer, x0, y0, x1, y1, _, _ = cols.wires
    # Integer areas summing below 2**53: the float sums are exact.  A
    # zero total can never exceed the ratio, so it is left out.
    n_layers = len(cols.layers)
    sums = np.bincount(net * n_layers + layer, weights=(x1 - x0) * (y1 - y0))
    metal = {
        (cols.nets[key // n_layers], cols.layers[key % n_layers]): area
        for key, area in enumerate(sums.tolist()) if area
    }
    for (net_name, layer_name), area_nm2 in sorted(metal.items()):
        gate = gates.get(net_name, 0.0)
        if gate <= 0.0:
            continue
        ratio = area_nm2 / gate
        if ratio > audit.antenna_max_ratio:
            report.flag(
                "ANT-RATIO",
                f"{layer_name} metal of the net collects "
                f"{area_nm2 / 1e6:.3f} um^2 against {gate / 1e6:.4f} um^2 "
                f"of gate (ratio {ratio:.0f}); the limit is "
                f"{audit.antenna_max_ratio:.0f}",
                layout=layout.name,
                subject=net_name,
            )


def _window_overlaps(
    lo: NDArray[np.int64], hi: NDArray[np.int64], edges: NDArray[np.int64]
) -> NDArray[np.int64]:
    """``(n, windows)`` overlap lengths of spans with consecutive windows."""
    overlap = np.minimum(hi[:, None], edges[1:]) - np.maximum(lo[:, None], edges[:-1])
    return np.asarray(np.maximum(overlap, 0), dtype=np.int64)


def _check_density(
    layout: Layout,
    audit: AuditTech,
    report: Report,
) -> None:
    """DEN-WINDOW-MAX per window / DEN-WINDOW-MIN per layer.

    A wire covers ``y-overlap x x-overlap`` of a window, so one integer
    matrix product gives every window's covered area of a layer, exactly.
    """
    cols = layout.shape_columns()
    if not cols.wires.shape[1]:
        return
    box = layout.bbox()
    if box.width <= 0 or box.height <= 0:
        return
    window = audit.density_window_nm
    nx = max(1, -(-box.width // window))
    ny = max(1, -(-box.height // window))
    x_edges = np.minimum(box.x0 + window * np.arange(nx + 1), box.x1)
    y_edges = np.minimum(box.y0 + window * np.arange(ny + 1), box.y1)
    win_area = np.diff(y_edges)[:, None] * np.diff(x_edges)[None, :]
    layers = cols.wires[W_LAYER]
    for layer in sorted(np.unique(layers).tolist(), key=cols.layers.__getitem__):
        name = cols.layers[layer]
        limits = audit.layer(name)
        if limits is None:
            continue
        _, _, x0, y0, x1, y1, _, _ = cols.wires[:, layers == layer]
        covered = (
            _window_overlaps(y0, y1, y_edges).T @ _window_overlaps(x0, x1, x_edges)
        )
        density = covered / win_area
        for iy, ix in np.argwhere(density > limits.max_density).tolist():
            report.flag(
                "DEN-WINDOW-MAX",
                f"{name} window ({ix}, {iy}) is {float(density[iy, ix]):.1%} "
                f"dense; the ceiling is {limits.max_density:.0%}",
                layout=layout.name,
                subject=name,
                rect=Rect(
                    int(x_edges[ix]), int(y_edges[iy]),
                    int(x_edges[ix + 1]), int(y_edges[iy + 1]),
                ),
            )
        cell_density = int(covered.sum()) / box.area
        if cell_density < limits.min_density:
            report.flag(
                "DEN-WINDOW-MIN",
                f"{name} covers {cell_density:.2%} of the cell; the "
                f"fill floor is {limits.min_density:.1%} — dummy fill "
                f"is needed at tapeout",
                layout=layout.name,
                subject=name,
            )


def run_antenna(
    layout: Layout,
    tech: Technology,
    audit: AuditTech | None = None,
) -> Report:
    """Run the antenna-ratio and density-window audit on one layout.

    Args:
        layout: The layout to audit (primitive or flattened assembly).
        tech: Technology the layout was generated for.
        audit: Audit table; defaults to
            :meth:`AuditTech.for_technology`.

    Returns:
        A report of ``ANT-*`` / ``DEN-*`` findings.
    """
    if audit is None:
        audit = AuditTech.for_technology(tech)
    report = Report(target=layout.name)
    report.checked_shapes = layout.shape_columns().wires.shape[1] + len(layout.devices)
    _check_antenna(layout, tech, audit, report)
    _check_density(layout, audit, report)
    return report
