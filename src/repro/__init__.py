"""repro — Analog layout generation using optimized primitives.

A from-scratch Python reproduction of M. Madhusudan et al., *Analog
Layout Generation using Optimized Primitives* (DATE 2021), including
every substrate the paper relies on: a synthetic FinFET PDK, an
EKV-model circuit simulator, a procedural primitive cell generator,
parasitic/LDE extraction, a primitive library with metric testbenches,
the paper's two optimization algorithms, a placer and global router, and
the paper's four evaluation circuits.

Quickstart::

    from repro import Technology, PrimitiveLibrary, PrimitiveOptimizer

    tech = Technology.default()
    dp = PrimitiveLibrary().create("differential_pair", tech, base_fins=960)
    report = PrimitiveOptimizer(n_bins=3).optimize(dp)
    print(report.best.describe())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.tech import Technology
from repro.primitives import PrimitiveLibrary
from repro.core import PrimitiveOptimizer, GlobalRouteInfo
from repro.flow import FlowResult, HierarchicalFlow
from repro.runtime import (
    EvalFailure,
    EvalRuntime,
    FailureLog,
    FaultInjector,
    FaultSpec,
    SweepJournal,
)
from repro.verify import Report, Violation, verify_layout

__version__ = "1.0.0"

__all__ = [
    "Technology",
    "PrimitiveLibrary",
    "PrimitiveOptimizer",
    "GlobalRouteInfo",
    "HierarchicalFlow",
    "FlowResult",
    "EvalFailure",
    "EvalRuntime",
    "FailureLog",
    "FaultInjector",
    "FaultSpec",
    "SweepJournal",
    "Report",
    "Violation",
    "verify_layout",
    "__version__",
]
