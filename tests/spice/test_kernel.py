"""The solver kernel: backend selection, pattern reuse, recovery, stats.

The sparse and dense backends are interchangeable — same matrices, same
solutions, same Tikhonov recovery tag — and the system size alone picks
between them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.spice import kernel
from repro.spice.kernel import SolverStats, SystemTemplate


# -- backend selection ---------------------------------------------------


def test_backend_auto_selects_by_size():
    assert kernel.backend_for(kernel.SPARSE_MIN_SIZE - 1) == kernel.DENSE
    assert kernel.backend_for(kernel.SPARSE_MIN_SIZE) == kernel.SPARSE


# -- SystemTemplate ------------------------------------------------------


def _random_system(n=7, seed=3, dtype=float):
    """A well-conditioned random MNA-like triplet system.

    Includes duplicate (row, col) entries (stamps accumulate) and ghost
    entries at index ``n`` (the grounded terminal row/column every MNA
    stamp writes and the solve discards).
    """
    rng = np.random.default_rng(seed)
    m = 4 * n
    rows = rng.integers(0, n + 1, size=m)
    cols = rng.integers(0, n + 1, size=m)
    static_vals = rng.normal(size=m)
    if dtype is complex:
        static_vals = static_vals + 1j * rng.normal(size=m)
    # Diagonal dominance so the system is nonsingular.
    diag = np.arange(n)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    static_vals = np.concatenate([static_vals, np.full(n, 10.0, dtype=dtype)])
    dyn_rows = rng.integers(0, n + 1, size=6)
    dyn_cols = rng.integers(0, n + 1, size=6)
    return n, (rows, cols, static_vals), dyn_rows, dyn_cols


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_and_sparse_assemble_identically(dtype):
    n, static, dyn_rows, dyn_cols = _random_system(dtype=dtype)
    dyn_vals = np.linspace(0.5, 1.5, len(dyn_rows)).astype(dtype)
    dense = SystemTemplate(
        n, static, dyn_rows, dyn_cols, dtype=dtype, backend=kernel.DENSE
    )
    sparse = SystemTemplate(
        n, static, dyn_rows, dyn_cols, dtype=dtype, backend=kernel.SPARSE
    )
    a_dense = dense.dense_matrix(dyn_vals)
    a_sparse = sparse.dense_matrix(dyn_vals)
    np.testing.assert_allclose(a_sparse, a_dense, rtol=0, atol=0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_and_sparse_solve_identically(dtype):
    n, static, dyn_rows, dyn_cols = _random_system(dtype=dtype)
    dyn_vals = np.linspace(-1.0, 1.0, len(dyn_rows)).astype(dtype)
    rhs = np.arange(1, n + 1, dtype=dtype)
    results = {}
    for backend in (kernel.DENSE, kernel.SPARSE):
        template = SystemTemplate(
            n, static, dyn_rows, dyn_cols, dtype=dtype, backend=backend
        )
        x, recovered = template.solve(dyn_vals, rhs)
        assert recovered is None
        results[backend] = x
    np.testing.assert_allclose(
        results[kernel.SPARSE], results[kernel.DENSE], rtol=1e-12, atol=1e-14
    )


def test_dynamic_values_overwrite_not_accumulate():
    """Repeated solves on one template must not leak previous values."""
    n, static, dyn_rows, dyn_cols = _random_system()
    rhs = np.ones(n)
    for backend in (kernel.DENSE, kernel.SPARSE):
        template = SystemTemplate(
            n, static, dyn_rows, dyn_cols, backend=backend
        )
        first, _ = template.solve(np.full(len(dyn_rows), 2.0), rhs)
        template.solve(np.full(len(dyn_rows), 99.0), rhs)
        again, _ = template.solve(np.full(len(dyn_rows), 2.0), rhs)
        np.testing.assert_allclose(again, first, rtol=0, atol=0)


@pytest.mark.parametrize("backend", [kernel.DENSE, kernel.SPARSE])
def test_singular_system_recovers_with_tikhonov_tag(backend):
    # A floating node: row/column 2 is all zeros -> structurally singular.
    n = 3
    rows = np.array([0, 1, 0, 1])
    cols = np.array([0, 1, 1, 0])
    vals = np.array([2.0, 3.0, 1.0, 1.0])
    template = SystemTemplate(
        n,
        (rows, cols, vals),
        np.array([], dtype=np.intp),
        np.array([], dtype=np.intp),
        backend=backend,
    )
    x, recovered = template.solve(np.array([]), np.array([1.0, 1.0, 0.0]))
    assert recovered == kernel.RECOVERY_TIKHONOV
    assert np.all(np.isfinite(x))
    # The regularized solution still satisfies the nonsingular rows.
    a = template.dense_matrix(np.array([]))
    np.testing.assert_allclose((a @ x)[:2], [1.0, 1.0], atol=1e-6)


def test_solve_dense_function_tags_recovery():
    good = np.array([[2.0, 0.0], [0.0, 4.0]])
    x, tag = kernel.solve_dense(good, np.array([2.0, 8.0]))
    assert tag is None
    np.testing.assert_allclose(x, [1.0, 2.0])
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    x, tag = kernel.solve_dense(singular, np.array([1.0, 1.0]))
    assert tag == kernel.RECOVERY_TIKHONOV
    assert np.all(np.isfinite(x))


# -- reused SuperLU column order -------------------------------------------


def _mna_chain(n=160, seed=0, dtype=float, scale=1.0):
    """A ``n``-unknown MNA-like system above the sparse crossover.

    A resistor chain over all nodes but the last, two voltage-source
    branch rows (structurally zero diagonal), grounded dynamic
    conductances on every chain node, dynamic transconductances,
    ghost-index stamps, and a last node reachable only through one
    dynamic conductance.  That leaf's column holds ``g`` and ``-g``, an
    exact pivot tie, and all-zero dynamic values leave it floating, i.e.
    singular.
    """
    rng = np.random.default_rng(seed)
    nodes = n - 2
    a = np.arange(nodes - 2)
    g = scale * rng.uniform(0.5, 2.0, len(a))
    rows = [a, a + 1, a, a + 1]
    cols = [a, a + 1, a + 1, a]
    vals = [g, g, -g, -g]
    for k, node in enumerate((0, nodes // 2)):
        branch = nodes + k
        rows.append(np.array([node, branch]))
        cols.append(np.array([branch, node]))
        vals.append(np.ones(2))
    static_vals = np.concatenate(vals).astype(dtype)
    if dtype is complex:
        static_vals[: 2 * len(a)] += 1j * scale * rng.uniform(0.1, 1.0, 2 * len(a))
    static = (np.concatenate(rows), np.concatenate(cols), static_vals)
    idx = np.arange(nodes - 1)
    last, prev = nodes - 1, nodes - 2
    dyn_rows = np.concatenate(
        [idx, (idx + 5) % nodes, [n, 3], [last, prev, last, prev]]
    )
    dyn_cols = np.concatenate(
        [idx, (idx + 11) % nodes, [3, n], [last, prev, prev, last]]
    )
    return n, static, dyn_rows, dyn_cols


def _chain_values(dyn_rows, seed, dtype=float):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(1e-3, 1.0, len(dyn_rows)).astype(dtype)
    g = vals[-4]  # the last node's conductance: a two-terminal stamp
    vals[-4:] = [g, g, -g, -g]
    if dtype is complex:
        vals += 1j * rng.uniform(0.0, 0.5, len(dyn_rows))
    return vals


def _sparse(n, static, dyn_rows, dyn_cols, dtype=float):
    return SystemTemplate(
        n, static, dyn_rows, dyn_cols, dtype=dtype, backend=kernel.SPARSE
    )


@pytest.mark.parametrize("dtype", [float, complex])
def test_reused_column_order_solves_bitwise_like_fresh_splu(dtype):
    n, static, dyn_rows, dyn_cols = _mna_chain(dtype=dtype)
    rhs = np.random.default_rng(1).normal(size=n).astype(dtype)
    warm = _sparse(n, static, dyn_rows, dyn_cols, dtype)
    warm.solve(_chain_values(dyn_rows, 99, dtype), rhs)
    assert warm._perm_c is not None
    assert not np.array_equal(warm._perm_c, np.arange(n))
    for seed in range(4):
        vals = _chain_values(dyn_rows, seed, dtype)
        x, tag = warm.solve(vals, rhs)
        # A new template's first solve is a plain COLAMD splu.
        ref, ref_tag = _sparse(n, static, dyn_rows, dyn_cols, dtype).solve(
            vals, rhs
        )
        assert tag is None and ref_tag is None
        assert np.array_equal(x, ref)


def test_recorded_column_order_is_value_independent():
    n, static, dyn_rows, dyn_cols = _mna_chain()
    rhs = np.ones(n)
    orders = []
    for seed in (0, 7, 21):
        template = _sparse(n, static, dyn_rows, dyn_cols)
        template.solve(_chain_values(dyn_rows, seed), rhs)
        orders.append(template._perm_c)
    assert all(np.array_equal(orders[0], order) for order in orders[1:])


def test_singular_first_factorization_records_no_order():
    n, static, dyn_rows, dyn_cols = _mna_chain()
    rhs = np.ones(n)
    template = _sparse(n, static, dyn_rows, dyn_cols)
    x, tag = template.solve(np.zeros(len(dyn_rows)), rhs)
    assert tag == kernel.RECOVERY_TIKHONOV
    assert np.all(np.isfinite(x))
    assert template._perm_c is None
    _, tag = template.solve(_chain_values(dyn_rows, 3), rhs)
    assert tag is None
    assert template._perm_c is not None
    vals = _chain_values(dyn_rows, 4)
    x, tag = template.solve(vals, rhs)
    ref, _ = _sparse(n, static, dyn_rows, dyn_cols).solve(vals, rhs)
    assert tag is None
    assert np.array_equal(x, ref)
    # A singular matrix on the reused order still takes the rescue.
    _, tag = template.solve(np.zeros(len(dyn_rows)), rhs)
    assert tag == kernel.RECOVERY_TIKHONOV


def test_reused_order_factor_and_batched_match_serial():
    n, static, dyn_rows, dyn_cols = _mna_chain()
    rhs = np.random.default_rng(2).normal(size=n)
    systems = [_mna_chain(scale=s) for s in (1.0, 1.5, 3.0)]
    members = [_sparse(*system) for system in systems]
    members[0].solve(_chain_values(dyn_rows, 50), rhs)  # records its order
    assert members[0]._perm_c is not None
    batch = kernel.BatchedSystemTemplate(members)
    dyn = np.stack([_chain_values(dyn_rows, 10 + k) for k in range(3)])
    rhs_k = np.stack([rhs, 2.0 * rhs, -rhs])
    for _ in range(2):  # first pass records the other members' orders
        x, recoveries, errors = batch.solve(dyn, rhs_k)
        assert recoveries == [None] * 3 and errors == [None] * 3
        for k, system in enumerate(systems):
            serial, _ = _sparse(*system).solve(dyn[k], rhs_k[k])
            assert np.array_equal(x[k], serial)
    assert all(member._perm_c is not None for member in members)


# -- profiling stats -----------------------------------------------------


def test_stats_collects_only_inside_context():
    n, static, dyn_rows, dyn_cols = _random_system()
    template = SystemTemplate(
        n, static, dyn_rows, dyn_cols, backend=kernel.SPARSE
    )
    rhs = np.ones(n)
    dyn = np.zeros(len(dyn_rows))
    template.solve(dyn, rhs)  # outside: not counted anywhere
    stats = SolverStats()
    assert not stats
    with kernel.collect(stats):
        assert kernel.active() is stats
        template.solve(dyn, rhs)
        template.solve(dyn, rhs)
    assert kernel.active() is None
    assert stats.solves == 2
    assert stats.backends == {kernel.SPARSE: 2}
    assert bool(stats)


def test_stats_merge_and_dict_roundtrip():
    a = SolverStats(solves=3, newton_iterations=7, tran_steps=11)
    a.count_analysis("dc")
    a.count_backend("dense")
    b = SolverStats(solves=2, factorizations=5, tran_rejected=1)
    b.count_analysis("dc")
    b.count_analysis("tran")
    b.count_backend("sparse")
    a.merge(b)
    assert a.solves == 5
    assert a.analyses == {"dc": 2, "tran": 1}
    assert a.backends == {"dense": 1, "sparse": 1}
    rebuilt = SolverStats.from_dict(a.as_dict())
    assert rebuilt.as_dict() == a.as_dict()
