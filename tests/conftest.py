"""Shared fixtures.

Expensive artifacts (optimization reports, flow results) are
session-scoped so many tests can assert against one run.
"""

from __future__ import annotations

import sys

import pytest

from repro.devices.mosfet import MosGeometry
from repro.tech import Technology


@pytest.fixture(scope="session")
def tech() -> Technology:
    """The default synthetic FF14 node."""
    return Technology.default()


@pytest.fixture(scope="session")
def tech_no_lde() -> Technology:
    """FF14 with LDEs disabled (ablation)."""
    return Technology.without_lde()


@pytest.fixture(scope="session")
def dp_geometry() -> MosGeometry:
    """The paper's bin-1 differential-pair sizing."""
    return MosGeometry(nfin=8, nf=20, m=6)


@pytest.fixture(scope="session")
def small_dp(tech):
    """A small differential pair (fast to simulate)."""
    from repro.primitives import DifferentialPair

    return DifferentialPair(tech, base_fins=96, name="test_dp")


@pytest.fixture(scope="session")
def paper_dp(tech):
    """The paper's 960-fin differential pair."""
    from repro.primitives import DifferentialPair

    return DifferentialPair(tech, base_fins=960, name="paper_dp")


@pytest.fixture(scope="session")
def small_dp_report(small_dp):
    """Algorithm-1 report for the small DP (shared across tests)."""
    from repro.core import PrimitiveOptimizer

    return PrimitiveOptimizer(n_bins=2, max_wires=4).optimize(small_dp)


@pytest.fixture(params=["dense", "sparse"])
def backend(request, monkeypatch) -> str:
    """Pin every MNA system to one solver backend for the test.

    The size threshold is the only backend rule, so moving it pins the
    backend: 0 makes every system sparse, ``sys.maxsize`` every system
    dense.
    """
    from repro.spice import kernel

    monkeypatch.setattr(
        kernel,
        "SPARSE_MIN_SIZE",
        0 if request.param == kernel.SPARSE else sys.maxsize,
    )
    return request.param
