"""Small-signal AC analysis.

The circuit is linearized at a DC operating point: MOSFETs contribute
their ``gm``/``gds`` as conductances and their Meyer capacitances to the
susceptance matrix; inductors contribute ``jwL`` branch impedances.  The
complex system ``(G + jwC) x = b`` is solved at each frequency of a
logarithmic sweep.

Both the conductance part ``G`` and the susceptance part (capacitances
plus the ``-L`` inductor branch entries) are frequency independent, so
they are assembled exactly once per sweep; each frequency point only
forms the ``G + jω·S`` combination — a vectorized array expression on
the dense backend, a data-vector combination on the shared CSC pattern
on the sparse one — and solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NetlistError, SimulationError, SingularMatrixError
from repro.spice import kernel
from repro.spice.dc import OperatingPoint
from repro.spice.mna import CompiledCircuit, solve_mna


@dataclass
class AcResult:
    """Result of an AC sweep.

    Attributes:
        compiled: The compiled circuit.
        freqs: Sweep frequencies (Hz).
        solutions: Complex solution matrix, shape (nfreq, size).
    """

    compiled: CompiledCircuit
    freqs: np.ndarray
    solutions: np.ndarray

    def v(self, node: str) -> np.ndarray:
        """Complex node voltage across the sweep (zeros for ground)."""
        idx = self.compiled.index_of(node)
        if idx == self.compiled.ghost:
            return np.zeros(len(self.freqs), dtype=complex)
        return self.solutions[:, idx]

    def i(self, branch_name: str) -> np.ndarray:
        """Complex branch current (voltage source / VCVS / inductor)."""
        try:
            idx = self.compiled.branch_index[branch_name]
        except KeyError:
            raise NetlistError(f"{branch_name!r} is not a branch element") from None
        return self.solutions[:, idx]

    def vdiff(self, plus: str, minus: str) -> np.ndarray:
        """Complex differential voltage ``v(plus) - v(minus)``."""
        return self.v(plus) - self.v(minus)


#: Byte budget of one stacked AC solve in :func:`ac_analysis_many`: the
#: ``(K, F, N, N)`` complex system stack is solved in slices of about
#: this size, so the stacked engine's peak memory does not grow with K.
AC_SLICE_BYTES = 1 << 20


def _ac_template(compiled: CompiledCircuit) -> "kernel.SystemTemplate":
    """The sparse AC system template (cached on the compiled circuit).

    Static part: linear conductances and all branch topology rows.
    Dynamic slots, in order: MOSFET small-signal conductances (fixed per
    sweep, set by the operating point) and the susceptance pattern —
    element capacitors, MOSFET capacitances, and the inductor branch
    diagonal (scaled by ``jω`` per frequency point).
    """

    def build() -> "kernel.SystemTemplate":
        mos_rows, mos_cols = compiled.mos_conductance_pattern()
        cap_rows, cap_cols = compiled.capacitor_pattern()
        mc_rows, mc_cols = compiled.mos_capacitance_pattern()
        ind = compiled.inductor_branch_indices()
        return kernel.SystemTemplate(
            compiled.size,
            compiled.static_conductance_triplets(),
            np.concatenate([mos_rows, cap_rows, mc_rows, ind]),
            np.concatenate([mos_cols, cap_cols, mc_cols, ind]),
            dtype=complex,
            backend=kernel.SPARSE,
        )

    return compiled.kernel_template(("ac", kernel.SPARSE), build)


def _susceptance_values(
    compiled: CompiledCircuit, op: OperatingPoint
) -> np.ndarray:
    """Frequency-independent susceptance values (multiply by ``jω``):
    element capacitances, MOSFET capacitances at the bias point, and the
    ``-L`` inductor branch entries (``a[br, br] -= jωL``)."""
    return np.concatenate(
        [
            compiled.capacitor_values(),
            compiled.mos_capacitance_values(op.mos_eval),
            -compiled.inductor_inductances(),
        ]
    )


def _dense_ac_parts(
    compiled: CompiledCircuit, op: OperatingPoint
) -> tuple[np.ndarray, np.ndarray]:
    """Dense once-per-sweep G/C split: the conductance core and the
    unscaled susceptance core (each frequency forms ``G + jω·S``)."""
    size = compiled.size
    g = compiled.conductance_linear().astype(complex)
    if op.mos_eval is not None:
        compiled.stamp_mosfets_ac(g, op.mos_eval)
    compiled.stamp_inductors_dc(g)  # the constant topology rows

    sus = compiled.capacitance_linear().astype(complex)
    sus += compiled.mos_capacitance(op.mos_eval, dtype=complex)
    ind = compiled.inductor_branch_indices()
    if len(ind):
        sus[ind, ind] -= compiled.inductor_inductances()
    return g[:size, :size], sus[:size, :size]


def ac_analysis(
    compiled: CompiledCircuit,
    op: OperatingPoint,
    f_start: float = 1.0e3,
    f_stop: float = 1.0e11,
    points_per_decade: int = 10,
) -> AcResult:
    """Run a logarithmic AC sweep around the given operating point."""
    if f_start <= 0 or f_stop <= f_start:
        raise SimulationError("need 0 < f_start < f_stop")
    if points_per_decade < 1:
        raise SimulationError("points_per_decade must be >= 1")

    decades = np.log10(f_stop / f_start)
    n_points = max(2, int(np.ceil(decades * points_per_decade)) + 1)
    freqs = np.logspace(np.log10(f_start), np.log10(f_stop), n_points)

    stats = kernel.active()
    if stats is not None:
        stats.count_analysis("ac")
    backend = kernel.backend_for(compiled.size)
    size = compiled.size
    rhs = compiled.ac_source_rhs()
    solutions = np.zeros((len(freqs), size), dtype=complex)

    if backend == kernel.SPARSE:
        template = _ac_template(compiled)
        mos_vals = compiled.mos_conductance_values(op.mos_eval)
        sus_vals = _susceptance_values(compiled, op)
        # Two data vectors on the shared CSC pattern, built once: the
        # full conductance part and the unscaled susceptance part.
        g_data = template.static_data + template.dyn_data(
            np.concatenate([mos_vals, np.zeros(len(sus_vals))])
        )
        sus_data = template.dyn_data(
            np.concatenate([np.zeros(len(mos_vals)), sus_vals])
        )
        for k, freq in enumerate(freqs):
            omega = 2.0 * np.pi * freq
            try:
                solutions[k], _recovered = template.solve_data(
                    g_data + (1j * omega) * sus_data, rhs
                )
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"AC solve failed at {freq:.3g} Hz: {exc}"
                ) from exc
        return AcResult(compiled=compiled, freqs=freqs, solutions=solutions)

    # Dense path: both parts assembled once, sliced to the core.
    g_core, sus_core = _dense_ac_parts(compiled, op)
    for k, freq in enumerate(freqs):
        omega = 2.0 * np.pi * freq
        try:
            solutions[k], _recovered = solve_mna(
                g_core + (1j * omega) * sus_core, rhs[:size]
            )
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"AC solve failed at {freq:.3g} Hz: {exc}"
            ) from exc

    return AcResult(compiled=compiled, freqs=freqs, solutions=solutions)


def ac_analysis_many(
    compileds: list[CompiledCircuit],
    ops: list[OperatingPoint],
    f_start: float = 1.0e3,
    f_stop: float = 1.0e11,
    points_per_decade: int = 10,
) -> list:
    """Batched :func:`ac_analysis` over many (circuit, bias) pairs.

    Dense-backend members of equal size are stacked into
    ``(K, nfreq, N, N)`` systems and solved with batched LAPACK calls,
    in slices of about :data:`AC_SLICE_BYTES` — the once-per-sweep G/C
    split is still assembled per member, only the frequency loop is
    fused — which is bitwise identical to the serial per-frequency
    solves (stacked ``gesv`` solves each matrix on its own).
    Sparse-backend members (and any member whose stacked slice comes
    back singular or non-finite) run through the serial
    :func:`ac_analysis` unchanged.

    Failures are captured per member: the returned list holds an
    :class:`AcResult` or the exception the serial call would have raised
    (:class:`~repro.errors.SingularMatrixError`).
    """
    results: list = [None] * len(compileds)
    if not compileds:
        return results

    def serial(i: int) -> None:
        try:
            results[i] = ac_analysis(
                compileds[i], ops[i], f_start, f_stop, points_per_decade
            )
        except SingularMatrixError as exc:
            results[i] = exc

    groups: dict[int, list[int]] = {}
    for i, compiled in enumerate(compileds):
        if kernel.backend_for(compiled.size) == kernel.SPARSE:
            serial(i)
        else:
            groups.setdefault(compiled.size, []).append(i)

    if f_start <= 0 or f_stop <= f_start:
        raise SimulationError("need 0 < f_start < f_stop")
    if points_per_decade < 1:
        raise SimulationError("points_per_decade must be >= 1")
    decades = np.log10(f_stop / f_start)
    n_points = max(2, int(np.ceil(decades * points_per_decade)) + 1)
    freqs = np.logspace(np.log10(f_start), np.log10(f_stop), n_points)
    omegas = 2.0 * np.pi * freqs
    stats = kernel.active()

    for size in sorted(groups):
        members = groups[size]
        if stats is not None:
            for _ in members:
                stats.count_analysis("ac")
        g, sus = map(
            np.stack,
            zip(*(_dense_ac_parts(compileds[i], ops[i]) for i in members)),
        )
        rhs = np.stack([compileds[i].ac_source_rhs()[:size] for i in members])
        # Slice the (K, F, N, N) stack to about AC_SLICE_BYTES per solve:
        # whole members while they fit, else frequency runs of one member.
        per_slice = max(1, AC_SLICE_BYTES // (size * size * 16))
        chunk = max(1, per_slice // len(freqs))
        slices = range(0, len(freqs), min(len(freqs), per_slice))
        for start in range(0, len(members), chunk):
            part = members[start : start + chunk]
            gk = g[start : start + chunk, None]
            sk = sus[start : start + chunk, None]
            bk = rhs[start : start + chunk, None, :, None]
            if stats is not None:
                t0 = kernel._clock()
            x = np.empty((len(part), len(freqs), size), dtype=complex)
            try:
                for f0 in slices:
                    f1 = f0 + slices.step
                    jw = (1j * omegas[f0:f1])[None, :, None, None]
                    x[:, f0:f1] = np.linalg.solve(gk + jw * sk, bk)[..., 0]
                finite = np.all(np.isfinite(x), axis=(1, 2))
            except np.linalg.LinAlgError:
                finite = np.zeros(len(part), dtype=bool)
            clean = int(np.count_nonzero(finite))
            if stats is not None:
                stats.solve_s += kernel._clock() - t0
                stats.solves += clean * len(freqs)
                stats.backends[kernel.DENSE] = (
                    stats.backends.get(kernel.DENSE, 0) + clean * len(freqs)
                )
                stats.batched_solves += len(slices)
                stats.batch_members += len(part) * len(freqs)
                stats.batch_fallbacks += (len(part) - clean) * len(freqs)
            for j, i in enumerate(part):
                if finite[j]:
                    results[i] = AcResult(
                        compiled=compileds[i], freqs=freqs, solutions=x[j]
                    )
                else:
                    serial(i)
    return results
