"""The solver kernel: backend selection, pattern-reuse assembly, profiling.

Every analysis (DC Newton, transient time stepping, AC sweeps) reduces to
solving ``A x = b`` where ``A`` shares one fixed sparsity pattern across
iterations — only device values change.  This module provides the three
pieces the analyses build on:

* **Backend selection** — dense ``numpy.linalg`` versus sparse
  ``scipy.sparse`` CSC + SuperLU (:func:`backend_for`), chosen by
  system size alone (:data:`SPARSE_MIN_SIZE`).
* **:class:`SystemTemplate`** — an MNA system compiled once per
  (circuit, analysis) into COO index triplets.  The static (topology)
  part is accumulated a single time; each Newton iteration or time step
  only writes device values into a preallocated array.  The sparse
  backend additionally reuses the symbolic CSC pattern (index/indptr
  arrays and the triplet→slot scatter map) across every solve, and
  SuperLU's fill-reducing column order: the first successful
  factorization records ``perm_c`` and every later one factors the
  matrix relabelled into that order with ``permc_spec="NATURAL"``,
  bitwise identical to re-running the ordering (:data:`SPLU_OPTIONS`),
  writing its values into one CSC matrix built with that order.
* **:class:`SolverStats`** — lightweight per-analysis profiling counters
  (stamp/factor/solve/device-eval time, Newton iterations, transient
  steps and retried steps), collected through a context
  variable so the evaluation runtime can attribute kernel time to the
  evaluation that spent it without threading a parameter through every
  call (see :func:`collect`).

The singular-matrix recovery — Tikhonov-regularized normal equations —
lives here in exactly one place (:func:`tikhonov_rescue`) and is shared
by the dense and sparse backends, preserving the ``"tikhonov"`` recovery
tag the failure log reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro.errors import SimulationError, SingularMatrixError

#: Solver backends.
DENSE = "dense"
SPARSE = "sparse"

#: Below this system size the dense backend wins: BLAS on a small dense
#: matrix beats SuperLU's per-factorization setup overhead.  Measured on
#: the library testbenches (tens of unknowns) versus the assembled
#: benchmark circuits (hundreds); see ``docs/performance.md``.  This is
#: the only way a backend is chosen; tests and benches pin one by
#: setting the constant (0: every system sparse, ``sys.maxsize``: every
#: system dense).
SPARSE_MIN_SIZE = 128

#: SuperLU settings of both sparse factorizations, the first one (which
#: orders the columns by minimum degree on the structure of ``A + Aᵀ``)
#: and the reused-order ones: the reuse is bitwise equal to a fresh
#: factorization only while both calls pass the same settings.  MNA
#: patterns are almost symmetric and their supernodes narrow, so this
#: order fills far less than COLAMD's and supernode relaxation and panels
#: only add work (``docs/performance.md``).
SPLU_OPTIONS = {"relax": 1, "panel_size": 1}

#: Relative Tikhonov regularization strength for singular-system recovery.
TIKHONOV_LAMBDA = 1.0e-10

#: Recovery-path tag for solves that needed the regularized fallback.
RECOVERY_TIKHONOV = "tikhonov"


def backend_for(size: int) -> str:
    """Concrete backend (dense/sparse) for a system of ``size`` unknowns."""
    return SPARSE if size >= SPARSE_MIN_SIZE else DENSE


# -- profiling ---------------------------------------------------------------


@dataclass
class SolverStats:
    """Per-analysis solver counters.

    Times are wall-clock seconds accumulated inside the kernel hot
    paths; counts are exact.  All fields add across evaluations, so one
    object can aggregate a whole optimization run.

    Attributes:
        stamp_s: Time assembling matrix values (COO accumulation, data
            scatter, dense stamping).
        factor_s: Time in LU factorizations (SuperLU ``splu`` / dense
            ``lu_factor``).  The dense one-shot path fuses factor+solve
            inside ``numpy.linalg.solve`` and reports under ``solve_s``.
        solve_s: Time in triangular solves / fused dense solves.
        device_eval_s: Time evaluating the MOSFET model.
        newton_iterations: Newton iterations across all solves.
        solves: Linear-system solves.
        factorizations: Explicit LU factorizations (sparse backend).
        tran_steps: Transient output-grid steps (``round(t_stop / dt)``
            summed over the analyses).
        tran_rejected: Transient steps whose Newton iteration failed,
            each retried as two half steps.
        batched_solves: Stacked solve calls issued by a
            :class:`BatchedSystemTemplate` (one per lockstep iteration,
            however many members it covered).  Every DC Newton
            iteration is one, a serial operating point's too: those
            stacks have one member.
        batch_members: Member systems served by those stacked calls.
        batch_fallbacks: Members a stacked call handed to the
            per-member fallback (singular/non-finite slices).
        analyses: Analysis invocation counts keyed ``"dc"``/``"ac"``/
            ``"tran"``.
        backends: Solve counts keyed by backend (``"dense"``/``"sparse"``).
    """

    stamp_s: float = 0.0
    factor_s: float = 0.0
    solve_s: float = 0.0
    device_eval_s: float = 0.0
    newton_iterations: int = 0
    solves: int = 0
    factorizations: int = 0
    tran_steps: int = 0
    tran_rejected: int = 0
    batched_solves: int = 0
    batch_members: int = 0
    batch_fallbacks: int = 0
    analyses: dict[str, int] = field(default_factory=dict)
    backends: dict[str, int] = field(default_factory=dict)

    def count_analysis(self, kind: str) -> None:
        self.analyses[kind] = self.analyses.get(kind, 0) + 1

    def count_backend(self, backend: str) -> None:
        self.backends[backend] = self.backends.get(backend, 0) + 1

    def merge(self, other: "SolverStats") -> None:
        """Add another stats object into this one."""
        self.stamp_s += other.stamp_s
        self.factor_s += other.factor_s
        self.solve_s += other.solve_s
        self.device_eval_s += other.device_eval_s
        self.newton_iterations += other.newton_iterations
        self.solves += other.solves
        self.factorizations += other.factorizations
        self.tran_steps += other.tran_steps
        self.tran_rejected += other.tran_rejected
        self.batched_solves += other.batched_solves
        self.batch_members += other.batch_members
        self.batch_fallbacks += other.batch_fallbacks
        for key, count in other.analyses.items():
            self.analyses[key] = self.analyses.get(key, 0) + count
        for key, count in other.backends.items():
            self.backends[key] = self.backends.get(key, 0) + count

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (times rounded to microseconds)."""
        return {
            "stamp_s": round(self.stamp_s, 6),
            "factor_s": round(self.factor_s, 6),
            "solve_s": round(self.solve_s, 6),
            "device_eval_s": round(self.device_eval_s, 6),
            "newton_iterations": self.newton_iterations,
            "solves": self.solves,
            "factorizations": self.factorizations,
            "tran_steps": self.tran_steps,
            "tran_rejected": self.tran_rejected,
            "batched_solves": self.batched_solves,
            "batch_members": self.batch_members,
            "batch_fallbacks": self.batch_fallbacks,
            "analyses": dict(sorted(self.analyses.items())),
            "backends": dict(sorted(self.backends.items())),
        }

    def __bool__(self) -> bool:
        return bool(self.solves or self.analyses)

    @classmethod
    def from_dict(cls, data: dict) -> "SolverStats":
        """Rebuild a stats object from an :meth:`as_dict` snapshot
        (unknown keys are ignored so old snapshots stay loadable)."""
        stats = cls()
        for name in (
            "stamp_s",
            "factor_s",
            "solve_s",
            "device_eval_s",
            "newton_iterations",
            "solves",
            "factorizations",
            "tran_steps",
            "tran_rejected",
            "batched_solves",
            "batch_members",
            "batch_fallbacks",
        ):
            if name in data:
                setattr(stats, name, data[name])
        stats.analyses = dict(data.get("analyses", {}))
        stats.backends = dict(data.get("backends", {}))
        return stats


_active_stats: ContextVar[SolverStats | None] = ContextVar(
    "repro_solver_stats", default=None
)


def active() -> SolverStats | None:
    """The stats collector of the enclosing :func:`collect` block, if any."""
    return _active_stats.get()


@contextmanager
def collect(stats: SolverStats):
    """Accumulate kernel counters into ``stats`` for the enclosed block."""
    token = _active_stats.set(stats)
    try:
        yield stats
    finally:
        _active_stats.reset(token)


_clock = time.perf_counter


# -- shared singular-system recovery ----------------------------------------


def tikhonov_rescue(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a singular/ill-conditioned system by regularized least squares.

    The one recovery path shared by the dense and sparse backends:
    ``(AᴴA + λI) x = Aᴴ b`` with λ scaled to the matrix magnitude picks
    the minimum-norm least-squares solution.  ``a`` must be dense — the
    sparse backend densifies before rescue, which is fine because the
    rescue is rare and the systems are at most a few hundred unknowns.

    Raises:
        SingularMatrixError: When even the regularized solve yields a
            non-finite solution.
    """
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    lam = TIKHONOV_LAMBDA * (scale if scale > 0.0 else 1.0)
    ah = a.conj().T
    try:
        x = np.linalg.solve(
            ah @ a + lam * np.eye(a.shape[0], dtype=a.dtype), ah @ rhs
        )
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        raise SingularMatrixError(
            "MNA system is singular even after Tikhonov regularization"
        )
    return x


def solve_dense(a: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, str | None]:
    """One dense solve with the shared Tikhonov fallback.

    Returns ``(x, None)`` for a clean direct solve, ``(x, "tikhonov")``
    when the regularized fallback was needed.
    """
    stats = active()
    if stats is not None:
        t0 = _clock()
    try:
        x = np.linalg.solve(a, rhs)
        if np.all(np.isfinite(x)):
            if stats is not None:
                stats.solve_s += _clock() - t0
                stats.solves += 1
                stats.count_backend(DENSE)
            return x, None
    except np.linalg.LinAlgError:
        pass
    x = tikhonov_rescue(a, rhs)
    if stats is not None:
        stats.solve_s += _clock() - t0
        stats.solves += 1
        stats.count_backend(DENSE)
    return x, RECOVERY_TIKHONOV


# -- the assembly template ---------------------------------------------------


class SystemTemplate:
    """An MNA system compiled to COO triplets with a fixed pattern.

    Args:
        size: Number of unknowns (the ghost ground index is ``size``;
            triplets touching it are accepted and discarded).
        static: ``(rows, cols, values)`` of the constant part, stamped
            once at construction.
        dyn_rows / dyn_cols: Index arrays of the *dynamic* slots; every
            :meth:`solve` call supplies a matching values array.
        dtype: ``float`` or ``complex``.
        backend: ``"dense"`` or ``"sparse"``.

    The sparse backend converts the union pattern to CSC **once**
    (symbolic reuse): per solve it copies the prefilled static data
    vector, scatters the dynamic values through a precomputed slot map,
    writes them into the template's one permuted ``csc_matrix``, and
    calls SuperLU, reusing the column order of the first factorization
    (see :meth:`_splu`).  The dense backend keeps a prefilled base
    matrix and scatters dynamic values with ``np.add.at``.
    """

    def __init__(
        self,
        size: int,
        static: tuple[np.ndarray, np.ndarray, np.ndarray],
        dyn_rows: np.ndarray,
        dyn_cols: np.ndarray,
        dtype=float,
        backend: str = DENSE,
    ):
        if backend not in (DENSE, SPARSE):
            raise SimulationError(f"unknown backend {backend!r}")
        self.size = size
        self.ghost = size
        self.dtype = dtype
        self.backend = backend
        s_rows, s_cols, s_vals = static
        s_rows = np.asarray(s_rows, dtype=np.intp)
        s_cols = np.asarray(s_cols, dtype=np.intp)
        s_vals = np.asarray(s_vals, dtype=dtype)
        self._dyn_rows = np.asarray(dyn_rows, dtype=np.intp)
        self._dyn_cols = np.asarray(dyn_cols, dtype=np.intp)

        if backend == DENSE:
            # The static part in the dense data layout: the (N+1)²
            # matrix whose ghost row/column absorbs ground stamps.
            base = np.zeros((size + 1, size + 1), dtype=dtype)
            if len(s_vals):
                np.add.at(base, (s_rows, s_cols), s_vals)
            self._static = base
        else:
            self._build_sparse(s_rows, s_cols, s_vals)

    # -- sparse symbolic setup ------------------------------------------

    def _build_sparse(self, s_rows, s_cols, s_vals) -> None:
        n = self.size
        rows = np.concatenate([s_rows, self._dyn_rows])
        cols = np.concatenate([s_cols, self._dyn_cols])
        # Linearize in CSC order (column-major); ghost entries map to a
        # sentinel that sorts last and lands in a trash slot.
        keep = (rows < n) & (cols < n)
        lin = np.where(keep, cols * n + rows, n * n)
        uniq, slots = np.unique(lin, return_inverse=True)
        has_trash = bool(len(uniq)) and uniq[-1] == n * n
        nnz = len(uniq) - (1 if has_trash else 0)
        entries = uniq[:nnz]
        self._nnz = nnz
        self._indices = (entries % n).astype(np.int32)
        self._indptr = np.searchsorted(entries // n, np.arange(n + 1)).astype(
            np.int32
        )
        # Data vector has one extra trash slot so ghost-touching stamps
        # vectorize without branches.
        n_static = len(s_vals)
        self._static_slots = slots[:n_static]
        self._dyn_slots = slots[n_static:]
        static_data = np.zeros(nnz + 1, dtype=self.dtype)
        if n_static:
            np.add.at(static_data, self._static_slots, s_vals)
        self._static = static_data
        # SuperLU column order, recorded by the first successful
        # factorization (see :meth:`_splu`); ``None`` until then.
        self._perm_c: np.ndarray | None = None

    def _record_order(self, perm_c: np.ndarray) -> None:
        """Precompute the symmetrically permuted CSC pattern for ``perm_c``.

        SuperLU's ``perm_c[j]`` is the position of unknown ``j`` in its
        column order, so position ``k`` holds column ``order[k]`` with
        ``order = argsort(perm_c)``.  Rows are relabelled the same way
        (row ``r`` becomes ``perm_c[r]``) but keep their stored order
        within each column; see :meth:`_splu` for why both matter.  The
        permuted matrix is built here once, flagged canonical, and every
        reused-order factorization only overwrites its values.
        """
        order = np.argsort(perm_c)
        starts = self._indptr[order]
        counts = self._indptr[order + 1] - starts
        self._perm_indptr = np.concatenate(([0], np.cumsum(counts))).astype(
            np.int32
        )
        self._perm_gather = np.repeat(
            starts - self._perm_indptr[:-1], counts
        ) + np.arange(self._nnz)
        self._perm_indices = perm_c[self._indices[self._perm_gather]].astype(
            np.int32
        )
        n = self.size
        mat = scipy.sparse.csc_matrix(
            (
                np.zeros(self._nnz, dtype=self.dtype),
                self._perm_indices,
                self._perm_indptr,
            ),
            shape=(n, n),
        )
        mat.has_canonical_format = True
        self._perm_mat = mat
        self._perm_order = order
        self._perm_c = perm_c

    def _splu(self, data: np.ndarray):
        """SuperLU-factor the assembled matrix; returns a solve function.

        The column order (minimum degree on ``A + Aᵀ`` plus SuperLU's
        elimination-tree postorder) depends only on the sparsity
        pattern, so the first successful factorization records it, and
        every later one hands SuperLU the matrix already in that order
        with ``permc_spec="NATURAL"``, skipping the ordering step.  To
        make SuperLU repeat the fresh elimination bit for bit, both
        calls pass the same :data:`SPLU_OPTIONS`, and two things of the
        original run must survive the permutation:

        * the entry it prefers on a pivot tie — the row whose label
          equals the column's original index — which is why rows are
          relabelled along with the columns;
        * the order in which it visits each column's rows, which fixes
          the order of its floating-point updates — which is why the
          relabelled rows keep their stored order, and why the matrix is
          flagged canonical so that ``splu`` does not re-sort them
          (SuperLU itself does not need sorted row indices).

        The right-hand side is gathered into the new labels and the
        solution gathered back.  Every reused-order factorization writes
        its values into the one matrix built by :meth:`_record_order`:
        SuperLU copies them into its own factors, so a returned solve
        function stays valid after the next factorization overwrites
        them.

        Raises:
            RuntimeError: SuperLU's report of an exactly singular matrix.
        """
        if self._perm_c is None:
            lu = scipy.sparse.linalg.splu(
                self._csc(data), permc_spec="MMD_AT_PLUS_A", **SPLU_OPTIONS
            )
            self._record_order(lu.perm_c)
            return lu.solve
        mat = self._perm_mat
        np.take(data, self._perm_gather, out=mat.data)
        lu = scipy.sparse.linalg.splu(mat, permc_spec="NATURAL", **SPLU_OPTIONS)
        order, perm_c = self._perm_order, self._perm_c
        return lambda rhs: lu.solve(rhs[order])[perm_c]

    # -- assembly -------------------------------------------------------
    #
    # "Data" is the assembled system in the backend's layout: the core
    # ``(N, N)`` slice of the ``(N+1)²`` matrix on the dense backend, the
    # CSC data vector (plus its trash slot) on the sparse one.  Data
    # values add and scale elementwise, so an analysis can combine parts
    # assembled once (the AC sweep's ``G + jω·S``) and solve the result
    # with :meth:`solve_data`.

    def _add_dyn(self, full: np.ndarray, dyn_vals: np.ndarray) -> np.ndarray:
        """Accumulate ``dyn_vals`` into ``full`` (the layout of the
        static part, ghost entries included) in place; returns the data
        the solver reads."""
        dyn_vals = np.asarray(dyn_vals, dtype=self.dtype)
        if self.backend == DENSE:
            if len(self._dyn_rows):
                np.add.at(full, (self._dyn_rows, self._dyn_cols), dyn_vals)
            return full[: self.size, : self.size]
        if len(self._dyn_slots):
            np.add.at(full, self._dyn_slots, dyn_vals)
        return full

    def _assemble(self, dyn_vals: np.ndarray) -> np.ndarray:
        """The data of the static part with ``dyn_vals`` stamped on top."""
        return self._add_dyn(self._static.copy(), dyn_vals)

    def dyn_data(self, dyn_vals: np.ndarray) -> np.ndarray:
        """The data of ``dyn_vals`` alone, without the static part."""
        return self._add_dyn(np.zeros_like(self._static), dyn_vals)

    @property
    def static_data(self) -> np.ndarray:
        """The data of the static part (shared: do not modify)."""
        if self.backend == DENSE:
            return self._static[: self.size, : self.size]
        return self._static

    def _csc(self, data: np.ndarray) -> scipy.sparse.csc_matrix:
        n = self.size
        mat = scipy.sparse.csc_matrix(
            (data[: self._nnz], self._indices, self._indptr), shape=(n, n)
        )
        return mat

    def dense_matrix(self, dyn_vals: np.ndarray) -> np.ndarray:
        """The fully assembled dense core matrix (rescue/debug path)."""
        data = self._assemble(dyn_vals)
        if self.backend == DENSE:
            return data
        return self._csc(data).toarray()

    # -- solving --------------------------------------------------------

    def solve(
        self, dyn_vals: np.ndarray, rhs: np.ndarray
    ) -> tuple[np.ndarray, str | None]:
        """Assemble with ``dyn_vals`` and solve against ``rhs``.

        Returns ``(x, recovery)`` where ``recovery`` is ``None`` for a
        clean solve or ``"tikhonov"`` when the shared singular-system
        fallback was needed.  Raises :class:`SingularMatrixError` only
        when even the rescue fails.
        """
        stats = active()
        if stats is not None:
            t0 = _clock()
        data = self._assemble(dyn_vals)
        if stats is not None:
            stats.stamp_s += _clock() - t0
        return self.solve_data(data, rhs)

    def solve_data(
        self, data: np.ndarray, rhs: np.ndarray
    ) -> tuple[np.ndarray, str | None]:
        """Solve from explicit data (see :meth:`_assemble`/:meth:`dyn_data`)."""
        rhs = np.asarray(rhs[: self.size], dtype=self.dtype)
        if self.backend == DENSE:
            return solve_dense(data, rhs)
        stats = active()
        try:
            if stats is not None:
                t0 = _clock()
            lu_solve = self._splu(data)
            if stats is not None:
                t1 = _clock()
                stats.factor_s += t1 - t0
                stats.factorizations += 1
            x = lu_solve(rhs)
            if stats is not None:
                stats.solve_s += _clock() - t1
                stats.solves += 1
                stats.count_backend(SPARSE)
            if np.all(np.isfinite(x)):
                return x, None
        except RuntimeError:
            # SuperLU reports exact singularity as RuntimeError.
            pass
        x = tikhonov_rescue(self._csc(data).toarray(), rhs)
        if stats is not None:
            stats.solves += 1
            stats.count_backend(SPARSE)
        return x, RECOVERY_TIKHONOV


def templates_compatible(a: SystemTemplate, b: SystemTemplate) -> bool:
    """Whether two templates can share one :class:`BatchedSystemTemplate`.

    Compatible means: same size, backend, dtype and identical symbolic
    structure (dynamic-slot pattern, and on the sparse backend the CSC
    pattern and scatter maps).  Static *values* may differ — each batch
    member keeps its own static data — but the static entry pattern must
    line up so the member scatter maps coincide.
    """
    if (
        a.size != b.size
        or a.backend != b.backend
        or a.dtype != b.dtype
        or not np.array_equal(a._dyn_rows, b._dyn_rows)
        or not np.array_equal(a._dyn_cols, b._dyn_cols)
    ):
        return False
    if a.backend == SPARSE:
        return (
            a._nnz == b._nnz
            and np.array_equal(a._indices, b._indices)
            and np.array_equal(a._indptr, b._indptr)
            and np.array_equal(a._static_slots, b._static_slots)
            and np.array_equal(a._dyn_slots, b._dyn_slots)
        )
    return a._static.shape == b._static.shape


class BatchedSystemTemplate:
    """K same-pattern MNA systems stamped and solved as one stack.

    Built from K pairwise-:func:`templates_compatible`
    :class:`SystemTemplate` objects — same symbolic structure, per-member
    static values (parasitics differ across library variants even when
    the pattern matches).  :meth:`solve` stamps the R members it is
    given into a stacked ``(R, N, N)`` dense array (or an ``(R, nnz+1)``
    data block of the shared CSC pattern, i.e. a block-diagonal sparse
    system) and solves them together.

    Determinism contract: for every member the result is **bitwise
    identical** to solving its own template serially.  The dense path
    relies on LAPACK ``gesv`` applying the same factorization per slice
    of a stacked batch as for a single system (asserted by
    ``tests/spice/test_kernel.py``); the sparse path factors per member
    on the shared symbolic pattern, exactly like the serial
    :meth:`SystemTemplate.solve_data`.  Members whose slice is singular
    or non-finite are re-solved through the serial fallback
    (:func:`solve_dense` / :meth:`SystemTemplate.solve_data`), which
    preserves the ``"tikhonov"`` recovery tag and the failure taxonomy
    (:class:`SingularMatrixError` is *captured per member*, never raised
    for the batch).
    """

    def __init__(self, templates: list[SystemTemplate]):
        if not templates:
            raise SimulationError("batched template needs at least one member")
        first = templates[0]
        for other in templates[1:]:
            if not templates_compatible(first, other):
                raise SimulationError(
                    "batched template members must share one system pattern"
                )
        self.templates = list(templates)
        self.count = len(templates)
        self.size = first.size
        self.dtype = first.dtype
        self.backend = first.backend
        self._dyn_rows = first._dyn_rows
        self._dyn_cols = first._dyn_cols
        self._static = np.array([t._static for t in templates])
        # Member axis of the stacked scatter indices.
        self._members = np.arange(self.count)[:, None]

    def solve(
        self, dyn_vals: np.ndarray, rhs: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, list[str | None], list[SingularMatrixError | None]]:
        """Solve the listed members against their right-hand sides.

        Args:
            dyn_vals: ``(R, D)`` dynamic values, one row per listed member.
            rhs: ``(R, >=size)`` right-hand sides (ghost column allowed).
            rows: ``(R,)`` indices of the listed members in the stack.

        Returns:
            ``(x, recoveries, errors)``, each in ``rows`` order: the
            ``(R, size)`` solutions, a per-member recovery tag (``None``
            or ``"tikhonov"``), and a per-member captured
            :class:`SingularMatrixError` (``None`` on success; that
            member's row of ``x`` is left at zero).
        """
        recoveries: list[str | None] = [None] * len(rows)
        errors: list[SingularMatrixError | None] = [None] * len(rows)
        solve = self._solve_dense if self.backend == DENSE else self._solve_sparse
        x = solve(
            np.asarray(dyn_vals, dtype=self.dtype), rhs, rows, recoveries, errors
        )
        return x, recoveries, errors

    def _solve_dense(self, dyn_vals, rhs, rows, recoveries, errors) -> np.ndarray:
        stats = active()
        if stats is not None:
            t0 = _clock()
        a = self._static[rows]  # fancy indexing copies
        if len(self._dyn_rows):
            np.add.at(
                a,
                (self._members[: len(rows)], self._dyn_rows, self._dyn_cols),
                dyn_vals,
            )
        a = a[:, : self.size, : self.size]
        b = np.asarray(rhs, dtype=self.dtype)[:, : self.size]
        if stats is not None:
            t1 = _clock()
            stats.stamp_s += t1 - t0
        try:
            x = np.linalg.solve(a, b[..., None])[..., 0]
            fallback = (
                []
                if np.isfinite(x).all()
                else np.flatnonzero(~np.isfinite(x).all(axis=1))
            )
        except np.linalg.LinAlgError:
            # One singular slice fails the whole LAPACK batch; redo every
            # member through the serial path so clean members still get
            # their (bitwise identical) direct solutions.
            x = np.zeros((len(rows), self.size), dtype=self.dtype)
            fallback = range(len(rows))
        clean = len(rows) - len(fallback)
        if stats is not None:
            stats.solve_s += _clock() - t1
            stats.solves += clean
            stats.batched_solves += 1
            stats.batch_members += len(rows)
            stats.batch_fallbacks += len(fallback)
            for _ in range(clean):
                stats.count_backend(DENSE)
        for j in fallback:
            try:
                x[j], recoveries[j] = solve_dense(a[j], b[j])
            except SingularMatrixError as exc:
                x[j] = 0.0
                errors[j] = exc
        return x

    def _solve_sparse(self, dyn_vals, rhs, rows, recoveries, errors) -> np.ndarray:
        stats = active()
        if stats is not None:
            t0 = _clock()
        data = self._static[rows]  # fancy indexing copies
        first = self.templates[0]
        if len(first._dyn_slots):
            np.add.at(
                data, (self._members[: len(rows)], first._dyn_slots), dyn_vals
            )
        if stats is not None:
            stats.stamp_s += _clock() - t0
            stats.batched_solves += 1
            stats.batch_members += len(rows)
        x = np.zeros((len(rows), self.size), dtype=self.dtype)
        for j, k in enumerate(rows):
            try:
                x[j], recoveries[j] = self.templates[k].solve_data(data[j], rhs[j])
            except SingularMatrixError as exc:
                errors[j] = exc
                if stats is not None:
                    stats.batch_fallbacks += 1
        return x


def coo_matvec(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    size: int,
) -> np.ndarray:
    """``y = A @ x`` from COO triplets, without materializing ``A``.

    ``x`` has ``size`` entries; triplets may reference the ghost ground
    index ``size`` (reads 0, writes discarded).  Used for the transient
    history term ``C (2/dt x_prev + xdot_prev)``.
    """
    y = np.zeros(size + 1, dtype=np.result_type(vals, x))
    if len(vals):
        xg = np.append(x, 0.0)
        np.add.at(y, rows, vals * xg[cols])
    return y[:size]
