"""Modified nodal analysis (MNA) assembly.

:class:`CompiledCircuit` resolves a :class:`~repro.spice.netlist.Circuit`
into index arrays and vectorized parameter arrays so the analyses can
assemble system matrices quickly.  Unknowns are ordered as

``[node voltages (0..N-1), branch currents (N..N+M-1)]``

where branches exist for voltage sources, VCVS elements and inductors.
Ground is mapped to a ghost index equal to ``size`` — vectors are built
one entry larger and the ghost entry is simply ignored — which keeps
every stamp a branch-free vectorized ``np.add.at``.  System matrices are
assembled by :class:`~repro.spice.kernel.SystemTemplate` from the COO
triplets and patterns provided here, which may reference the ghost too.
"""

from __future__ import annotations

import copy
import time
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.devices.mosfet import MosEval, evaluate_mosfets, resolve_params
from repro.errors import NetlistError
from repro.spice import kernel
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Inductor,
    Mosfet,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.spice.netlist import Circuit, is_ground
from repro.spice.waveforms import Dc
from repro.tech.rules import DesignRules


class CompiledCircuit:
    """A circuit compiled to MNA index/parameter arrays.

    Args:
        circuit: The netlist to compile.
        rules: Design rules used to resolve MOSFET geometry into model
            parameters (fin width, gate length).
    """

    def __init__(self, circuit: Circuit, rules: DesignRules):
        self.circuit = circuit
        self.rules = rules

        self.nodes: list[str] = circuit.nodes()
        self.node_index: dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
        self.num_nodes = len(self.nodes)

        self.vsources: list[VoltageSource] = []
        self.vcvs_elements: list[Vcvs] = []
        self.inductors: list[Inductor] = []
        self.isources: list[CurrentSource] = []
        self.resistors: list[Resistor] = []
        self.capacitors: list[Capacitor] = []
        self.vccs_elements: list[Vccs] = []
        self.mos_elements: list[Mosfet] = []

        for elem in circuit:
            if isinstance(elem, Resistor):
                self.resistors.append(elem)
            elif isinstance(elem, Capacitor):
                self.capacitors.append(elem)
            elif isinstance(elem, VoltageSource):
                self.vsources.append(elem)
            elif isinstance(elem, CurrentSource):
                self.isources.append(elem)
            elif isinstance(elem, Vcvs):
                self.vcvs_elements.append(elem)
            elif isinstance(elem, Vccs):
                self.vccs_elements.append(elem)
            elif isinstance(elem, Inductor):
                self.inductors.append(elem)
            elif isinstance(elem, Mosfet):
                self.mos_elements.append(elem)
            else:
                raise NetlistError(f"unsupported element type {type(elem).__name__}")

        self.num_branches = (
            len(self.vsources) + len(self.vcvs_elements) + len(self.inductors)
        )
        self.size = self.num_nodes + self.num_branches
        self.ghost = self.size  # index used for ground stamps

        self.branch_index: dict[str, int] = {}
        offset = self.num_nodes
        for src in self.vsources:
            self.branch_index[src.name] = offset
            offset += 1
        for e in self.vcvs_elements:
            self.branch_index[e.name] = offset
            offset += 1
        for ind in self.inductors:
            self.branch_index[ind.name] = offset
            offset += 1

        self._build_linear_arrays()
        self._build_mos_arrays()

        #: Lazily built solver-kernel templates, keyed per (analysis,
        #: backend) by the analyses (see :meth:`kernel_template`).
        self._kernel_templates: dict = {}

    # -- indexing --------------------------------------------------------

    def index_of(self, node: str) -> int:
        """Matrix index of a node (ground maps to the ghost index)."""
        if is_ground(node):
            return self.ghost
        try:
            return self.node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    # -- precomputation ---------------------------------------------------

    def _build_linear_arrays(self) -> None:
        idx = self.index_of
        self._res_a = np.array([idx(r.a) for r in self.resistors], dtype=int)
        self._res_b = np.array([idx(r.b) for r in self.resistors], dtype=int)
        self._res_g = np.array([1.0 / r.value for r in self.resistors])

        self._cap_a = np.array([idx(c.a) for c in self.capacitors], dtype=int)
        self._cap_b = np.array([idx(c.b) for c in self.capacitors], dtype=int)
        self._cap_c = np.array([c.value for c in self.capacitors])

    def _build_mos_arrays(self) -> None:
        idx = self.index_of
        mos = self.mos_elements
        self._mos_d = np.array([idx(m.d) for m in mos], dtype=int)
        self._mos_g = np.array([idx(m.g) for m in mos], dtype=int)
        self._mos_s = np.array([idx(m.s) for m in mos], dtype=int)
        self._mos_b = np.array([idx(m.b) for m in mos], dtype=int)

        params = [
            resolve_params(
                m.card,
                self.rules,
                m.geometry,
                m.lde,
                m.cdb_override,
                m.csb_override,
            )
            for m in mos
        ]
        self._mos_pol = np.array([p.polarity for p in params], dtype=float)
        self._mos_vth = np.array(
            [p.vth + m.vth_mismatch for p, m in zip(params, mos)]
        )
        self._mos_n = np.array([p.slope_factor for p in params])
        self._mos_ispec = np.array([p.ispec for p in params])
        self._mos_lam = np.array([p.lambda_clm for p in params])
        self._mos_theta = np.array([p.theta for p in params])
        self._mos_coxwl = np.array([p.cox_wl for p in params])
        self._mos_cov = np.array([p.cov for p in params])
        self._mos_cdb = np.array([p.cdb for p in params])
        self._mos_csb = np.array([p.csb for p in params])
        self.mos_params = params

    # -- right-hand sides -------------------------------------------------

    def _empty_vector(self, dtype=float) -> np.ndarray:
        return np.zeros(self.size + 1, dtype=dtype)

    def source_rhs(self, t: float | None = None, scale: float = 1.0) -> np.ndarray:
        """Right-hand side from independent sources.

        ``t=None`` uses DC values; otherwise waveforms are evaluated at
        ``t``.  ``scale`` multiplies all source values (source stepping).
        """
        rhs = self._empty_vector()
        idx = self.index_of
        for src in self.isources:
            value = src.waveform.dc_value if t is None else src.waveform.value(t)
            value *= scale
            rhs[idx(src.a)] -= value
            rhs[idx(src.b)] += value
        for src in self.vsources:
            value = src.waveform.dc_value if t is None else src.waveform.value(t)
            rhs[self.branch_index[src.name]] += value * scale
        return rhs

    def with_dc_sources(self, levels: dict[str, float]) -> "CompiledCircuit":
        """This circuit with the named independent sources set to DC
        ``levels`` (``{source name: level}``).

        A shallow copy that shares every index and parameter array and
        the solver-kernel templates: independent sources stamp only
        topology (±1 entries), so the system matrix of every analysis is
        the copy's too.  Only its ``vsources``/``isources`` lists are
        new, so :meth:`source_rhs` reads the new levels while this
        circuit's stays unchanged; ``circuit`` is still the netlist this
        one was compiled from.  A DC sweep or an offset bisection
        compiles its testbench once and solves one copy per point.
        """
        unknown = set(levels) - {
            src.name for src in self.vsources + self.isources
        }
        if unknown:
            raise NetlistError(
                f"not independent sources of {self.circuit.name!r}: "
                f"{sorted(unknown)}"
            )

        def drive(sources):
            return [
                replace(src, waveform=Dc(float(levels[src.name])))
                if src.name in levels
                else src
                for src in sources
            ]

        twin = copy.copy(self)
        twin.vsources = drive(self.vsources)
        twin.isources = drive(self.isources)
        return twin

    def ac_source_rhs(self) -> np.ndarray:
        """Complex RHS from the AC magnitudes/phases of all sources."""
        rhs = self._empty_vector(dtype=complex)
        idx = self.index_of
        for src in self.isources:
            if src.ac_magnitude:
                phasor = src.ac_magnitude * np.exp(
                    1j * np.deg2rad(src.ac_phase_deg)
                )
                rhs[idx(src.a)] -= phasor
                rhs[idx(src.b)] += phasor
        for src in self.vsources:
            if src.ac_magnitude:
                phasor = src.ac_magnitude * np.exp(
                    1j * np.deg2rad(src.ac_phase_deg)
                )
                rhs[self.branch_index[src.name]] += phasor
        return rhs

    # -- COO triplet providers (solver-kernel assembly) ---------------------

    def kernel_template(self, key, builder: Callable[[], "kernel.SystemTemplate"]):
        """A cached :class:`~repro.spice.kernel.SystemTemplate`.

        Templates hold the symbolic work of an analysis — the static
        matrix part and the sparse pattern — which depends only on the
        circuit topology, so each (analysis, backend) pair is built once
        per compiled circuit and reused across every Newton iteration,
        time step and frequency point.
        """
        template = self._kernel_templates.get(key)
        if template is None:
            template = builder()
            self._kernel_templates[key] = template
        return template

    def static_conductance_triplets(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO triplets of the constant conductance/topology part.

        Resistors, VCCS gains, the topology rows of voltage sources,
        VCVS elements **and inductors** — everything every analysis
        stamps identically (the frequency-/step-dependent inductor
        branch diagonal is a dynamic slot; see
        :meth:`inductor_branch_indices`).  Indices may reference the
        ghost ground index.
        """
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def put(i: int, j: int, g: float) -> None:
            rows.append(i)
            cols.append(j)
            vals.append(g)

        for na, nb, g in zip(self._res_a, self._res_b, self._res_g):
            put(na, na, g)
            put(nb, nb, g)
            put(na, nb, -g)
            put(nb, na, -g)

        idx = self.index_of
        for e in self.vccs_elements:
            na, nb = idx(e.a), idx(e.b)
            cp, cm = idx(e.ctrl_plus), idx(e.ctrl_minus)
            put(na, cp, e.gain)
            put(na, cm, -e.gain)
            put(nb, cp, -e.gain)
            put(nb, cm, e.gain)

        for src in self.vsources:
            br = self.branch_index[src.name]
            p, n = idx(src.plus), idx(src.minus)
            put(p, br, 1.0)
            put(n, br, -1.0)
            put(br, p, 1.0)
            put(br, n, -1.0)

        for e in self.vcvs_elements:
            br = self.branch_index[e.name]
            p, n = idx(e.plus), idx(e.minus)
            cp, cm = idx(e.ctrl_plus), idx(e.ctrl_minus)
            put(p, br, 1.0)
            put(n, br, -1.0)
            put(br, p, 1.0)
            put(br, n, -1.0)
            put(br, cp, -e.gain)
            put(br, cm, e.gain)

        for ind in self.inductors:
            br = self.branch_index[ind.name]
            na, nb = idx(ind.a), idx(ind.b)
            put(na, br, 1.0)
            put(nb, br, -1.0)
            put(br, na, 1.0)
            put(br, nb, -1.0)

        return (
            np.array(rows, dtype=np.intp),
            np.array(cols, dtype=np.intp),
            np.array(vals, dtype=float),
        )

    def node_diag_indices(self) -> np.ndarray:
        """Node-voltage diagonal indices (gmin/force dynamic slots)."""
        return np.arange(self.num_nodes, dtype=np.intp)

    def mos_conductance_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the MOSFET Newton-companion conductances."""
        d, g, s = self._mos_d, self._mos_g, self._mos_s
        return (
            np.concatenate([d, d, d, s, s, s]),
            np.concatenate([d, g, s, d, g, s]),
        )

    def mos_conductance_values(self, ev: MosEval | None) -> np.ndarray:
        """Values matching :meth:`mos_conductance_pattern` at an eval."""
        if ev is None:
            return np.empty(0)
        return np.concatenate(
            [ev.gds, ev.gm, ev.gms, -ev.gds, -ev.gm, -ev.gms]
        )

    def capacitor_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the fixed (element) capacitor stamps."""
        return _two_terminal_pattern(self._cap_a, self._cap_b)

    def capacitor_values(self) -> np.ndarray:
        """Values matching :meth:`capacitor_pattern` (farads)."""
        return _two_terminal_values(self._cap_c)

    def mos_capacitance_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the MOSFET Meyer-capacitance stamps."""
        d, g, s, b = self._mos_d, self._mos_g, self._mos_s, self._mos_b
        rows = []
        cols = []
        for ia, ib in ((g, s), (g, d), (g, b), (d, b), (s, b)):
            pr, pc = _two_terminal_pattern(ia, ib)
            rows.append(pr)
            cols.append(pc)
        return np.concatenate(rows), np.concatenate(cols)

    def mos_capacitance_values(self, ev: MosEval | None) -> np.ndarray:
        """Values matching :meth:`mos_capacitance_pattern` at a bias."""
        if ev is None:
            return np.empty(0)
        return np.concatenate(
            [
                _two_terminal_values(c)
                for c in (ev.cgs, ev.cgd, ev.cgb, ev.cdb, ev.csb)
            ]
        )

    def inductor_branch_indices(self) -> np.ndarray:
        """Branch-diagonal indices of the inductors (dynamic slots: the
        transient ``-L/dt`` / AC ``-jωL`` entries)."""
        return np.array(
            [self.branch_index[e.name] for e in self.inductors], dtype=np.intp
        )

    def inductor_inductances(self) -> np.ndarray:
        """Inductances matching :meth:`inductor_branch_indices` (henry)."""
        return np.array([e.value for e in self.inductors], dtype=float)

    # -- MOSFET evaluation and stamping ------------------------------------

    def eval_mosfets(self, x: np.ndarray) -> MosEval | None:
        """Evaluate all MOSFETs at the solution vector ``x``."""
        if not self.mos_elements:
            return None
        stats = kernel.active()
        if stats is not None:
            t0 = time.perf_counter()
            ev = self._eval_mosfets(x)
            stats.device_eval_s += time.perf_counter() - t0
            return ev
        return self._eval_mosfets(x)

    def _eval_mosfets(self, x: np.ndarray) -> MosEval:
        xg = np.append(x, 0.0)  # ghost ground entry
        vg = xg[self._mos_g]
        vd = xg[self._mos_d]
        vs = xg[self._mos_s]
        return evaluate_mosfets(
            self._mos_pol,
            self._mos_vth,
            self._mos_n,
            self._mos_ispec,
            self._mos_lam,
            self._mos_theta,
            self._mos_coxwl,
            self._mos_cov,
            self._mos_cdb,
            self._mos_csb,
            vg,
            vd,
            vs,
        )

    def stamp_mos_rhs(self, rhs: np.ndarray, ev: MosEval, x: np.ndarray) -> None:
        """Stamp the linearization-equivalent current sources.

        The conductance half of the Newton companion model goes through
        the solver-kernel template (:meth:`mos_conductance_values`); this
        is the right-hand-side half, evaluated at ``x``.
        """
        if ev is None:
            return
        d, g, s = self._mos_d, self._mos_g, self._mos_s
        xg = np.append(x, 0.0)
        ieq = ev.ids - ev.gm * xg[g] - ev.gds * xg[d] - ev.gms * xg[s]
        np.add.at(rhs, d, -ieq)
        np.add.at(rhs, s, ieq)

    def mos_eval_by_name(self, ev: MosEval, name: str) -> dict[str, float]:
        """Per-device operating-point data for the MOSFET called ``name``."""
        for i, m in enumerate(self.mos_elements):
            if m.name == name:
                return {
                    "id": float(ev.ids[i]),
                    "gm": float(ev.gm[i]),
                    "gds": float(ev.gds[i]),
                    "cgs": float(ev.cgs[i]),
                    "cgd": float(ev.cgd[i]),
                    "cgb": float(ev.cgb[i]),
                    "cdb": float(ev.cdb[i]),
                    "csb": float(ev.csb[i]),
                }
        raise NetlistError(f"no MOSFET named {name!r}")


def _two_terminal_pattern(
    ia: np.ndarray, ib: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """COO (rows, cols) of two-terminal stamps; values pair up via
    :func:`_two_terminal_values`."""
    return (
        np.concatenate([ia, ib, ia, ib]),
        np.concatenate([ia, ib, ib, ia]),
    )


def _two_terminal_values(values: np.ndarray) -> np.ndarray:
    """COO values matching :func:`_two_terminal_pattern`."""
    return np.concatenate([values, values, -values, -values])
