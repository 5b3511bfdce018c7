"""Primitive port constraints — Algorithm 2, step 1.

After placement and global routing, each primitive knows the distance,
layer and via usage of the global route at each of its ports.  The
primitive attaches the route's RC (scaled by the number of parallel
routes) to its extracted netlist, re-runs its metric testbenches over a
range of parallel-route counts, and derives the interval
``[w_min, w_max]``: ``w_min`` is the point of maximum curvature of the
cost curve and ``w_max`` the point where cost starts increasing (or
unbounded if it never does).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

from repro.core.cost import layout_cost
from repro.core.tuning import SweepPoint
from repro.errors import OptimizationError
from repro.runtime import BatchSpec, BatchTask, EvalRuntime
from repro.spice.netlist import Circuit
from repro.tech.pdk import Technology


@dataclass(frozen=True)
class GlobalRouteInfo:
    """Global-route parasitics at one primitive port.

    Attributes:
        net: The net name at the primitive port.
        layer: Metal layer of the global route (e.g. ``"M3"``).
        length_nm: Route length in nm.
        via_cuts: Via cuts per parallel route (stack from the port layer).
        via_resistance: Resistance of one via stack (ohm).
        symmetric_with: Port nets that receive an identical route copy
            (the detailed router keeps matched nets symmetric, so a DP's
            two drain routes are always sized and loaded together).
    """

    net: str
    layer: str
    length_nm: float
    via_cuts: int = 1
    via_resistance: float = 0.0
    symmetric_with: tuple[str, ...] = ()


def route_rc(
    route: GlobalRouteInfo, tech: Technology, n_wires: int
) -> tuple[float, float]:
    """(R, C) of ``n_wires`` parallel copies of the global route.

    Global routes use double-width wires (analog routers widen long
    inter-block nets; the *number* of parallel copies stays the tuning
    variable, per the paper's gridded-rule argument).
    """
    if n_wires < 1:
        raise OptimizationError("n_wires must be >= 1")
    layer = tech.stack.metal(route.layer)
    width = 2 * layer.min_width
    r_single = layer.wire_resistance(route.length_nm, width) + (
        route.via_resistance / max(1, route.via_cuts)
    )
    c_single = layer.wire_capacitance(route.length_nm, width)
    return r_single / n_wires, c_single * n_wires


def attach_route(
    dut: Circuit,
    route: GlobalRouteInfo,
    tech: Technology,
    n_wires: int,
) -> Circuit:
    """Wrap a DUT netlist with the external route RC on one port.

    The DUT's port net (and any symmetric partners) is renamed
    internally; the wrapped circuit exposes the same port names, so every
    metric testbench applies unchanged.
    """
    nets = (route.net,) + route.symmetric_with
    for net in nets:
        if net not in dut.ports:
            raise OptimizationError(f"net {net!r} is not a port of {dut.name!r}")
    r, c = route_rc(route, tech, n_wires)
    wrapped = Circuit(f"{dut.name}_route_{route.net}_{n_wires}")
    wrapped.ports = list(dut.ports)
    port_map = {
        p: (f"{p}__cell" if p in nets else p) for p in dut.ports
    }
    wrapped.instantiate(dut, "cell", port_map)
    for net in nets:
        inner = f"{net}__cell"
        wrapped.add_resistor(f"r_route_{net}", net, inner, max(r, 1e-3))
        # Route capacitance split between the two ends (pi model).
        if c > 0:
            wrapped.add_capacitor(f"c_route_{net}_a", net, "0", c / 2.0)
            wrapped.add_capacitor(f"c_route_{net}_b", inner, "0", c / 2.0)
    return wrapped


@dataclass
class PortConstraint:
    """The wire-count interval a primitive derives for one net.

    Attributes:
        primitive_name: Owning primitive.
        net: Net name (top-level).
        w_min: Lower bound (point of maximum curvature).
        w_max: Upper bound (cost starts increasing), or None if unbounded
            over the explored range.
        sweep: Cost at each explored wire count.
    """

    primitive_name: str
    net: str
    w_min: int
    w_max: int | None
    sweep: list[SweepPoint] = field(default_factory=list)

    def cost_at(self, wires: int) -> float:
        """Cost at a wire count (must be inside the explored sweep)."""
        for point in self.sweep:
            if point.wires == wires:
                return point.cost
        raise OptimizationError(
            f"{self.primitive_name}/{self.net}: wire count {wires} not explored"
        )


def _point_from_payload(payload: dict) -> dict:
    point = {
        "values": {k: float(v) for k, v in payload["values"].items()},
        "cost": float(payload["cost"]),
        "simulations": int(payload.get("simulations", 0)),
    }
    if payload.get("cache_key") is not None:
        point["cache_key"] = payload["cache_key"]
    return point


def _point_error(point: dict) -> str | None:
    finite = all(math.isfinite(v) for v in point["values"].values())
    if finite and math.isfinite(point["cost"]):
        return None
    return "non-finite port-sweep metrics"


def _route_point(
    primitive,
    values: dict,
    simulations: int,
    cache_key: str | None,
    weight_override: dict[str, float] | None,
) -> dict:
    """The payload of one costed (port, wire count) point."""
    breakdown = layout_cost(primitive, values, weight_override=weight_override)
    point = {
        "values": dict(values),
        "cost": breakdown.cost,
        "simulations": simulations,
    }
    if cache_key is not None:
        point["cache_key"] = cache_key
    return point


def route_point_task(
    primitive,
    dut: Circuit,
    route: GlobalRouteInfo,
    n: int,
    weight_override: dict[str, float] | None = None,
    *,
    key_prefix: str = "port",
) -> BatchTask:
    """The :class:`~repro.runtime.BatchTask` costing one (port, wire
    count) point.

    Used by the port sweep (``key_prefix="port"``) and by the flow's
    reconcile gap re-simulations (``key_prefix="recon"``), so both fan
    out identically and share content-cache entries for identical
    wrapped netlists.  Its :class:`~repro.runtime.BatchSpec` wraps the
    DUT with the route (``build``) and assembles the point's payload
    (``finish``).
    """
    return BatchTask(
        key=f"{key_prefix}:{primitive.name}:{route.net}:{n}",
        spec=BatchSpec(
            primitive=primitive,
            build=lambda: (attach_route(dut, route, primitive.tech, n), None),
            finish=lambda _site, values, sims, cache_key: _route_point(
                primitive, values, sims, cache_key, weight_override
            ),
            weight_override=weight_override,
        ),
        validate=_point_error,
        to_payload=lambda point: point,
        from_payload=_point_from_payload,
    )


def derive_port_constraint(
    primitive,
    dut: Circuit,
    route: GlobalRouteInfo,
    max_wires: int = 8,
    weight_override: dict[str, float] | None = None,
    runtime: EvalRuntime | None = None,
) -> tuple[PortConstraint, int]:
    """Sweep parallel routes at one port and derive ``[w_min, w_max]``.

    Returns the constraint and the number of simulations used.

    Failed sweep points are absorbed (recorded on ``runtime.failures``)
    and excluded from the curve; when *every* point fails, the port
    degrades to the unconstrained default ``[1, inf)`` so the flow can
    proceed with a single route.
    """
    runtime = runtime if runtime is not None else EvalRuntime()
    sweep: list[SweepPoint] = []
    simulations = 0

    tasks = [
        route_point_task(primitive, dut, route, n, weight_override)
        for n in range(1, max_wires + 1)
    ]
    batch = runtime.evaluate_batch(tasks, stage="port_constraints")
    for index, n in enumerate(range(1, max_wires + 1)):
        point = batch.consume(index)
        if point is None:
            continue
        simulations += point["simulations"]
        sweep.append(SweepPoint(n, point["cost"], point["values"]))

    if not sweep:
        # Every point failed: degrade to the unconstrained default so the
        # flow can still route the net with one wire.
        return (
            PortConstraint(
                primitive_name=primitive.name,
                net=route.net,
                w_min=1,
                w_max=None,
                sweep=[],
            ),
            simulations,
        )

    costs = [p.cost for p in sweep]
    w_max: int | None = None
    best = min(range(len(costs)), key=lambda i: costs[i])
    if best != len(costs) - 1:
        w_max = sweep[best].wires

    # w_min: point of maximum curvature of the (initially decreasing)
    # curve; fall back to the minimum for short sweeps.
    if len(costs) >= 3:
        curvature = [
            costs[i - 1] - 2.0 * costs[i] + costs[i + 1]
            for i in range(1, len(costs) - 1)
        ]
        k = max(range(len(curvature)), key=lambda i: curvature[i])
        w_min = sweep[k + 1].wires
    else:
        w_min = sweep[best].wires
    if w_max is not None and w_min > w_max:
        w_min = w_max

    return (
        PortConstraint(
            primitive_name=primitive.name,
            net=route.net,
            w_min=w_min,
            w_max=w_max,
            sweep=sweep,
        ),
        simulations,
    )
