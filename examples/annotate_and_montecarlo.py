#!/usr/bin/env python
"""Automatic annotation and Monte-Carlo offset analysis.

Two supporting capabilities of the flow:

1. **Annotation** — the paper assumes netlists arrive annotated into
   primitives "manually or automatically"; this example runs the
   subgraph recognizer of ``repro ingest`` on the 5T OTA netlist
   ``examples/netlists/ota.sp``.  Every transistor it does not claim
   for a library primitive is reported as uncovered (there is no
   catch-all ``switch`` class).
2. **Monte Carlo** — the DP's offset *spec* is defined as 10% of the
   random offset; this example samples the random offset distribution and
   compares it against the analytic sigma the spec uses.

Run with::

    python examples/annotate_and_montecarlo.py
"""

from pathlib import Path

from repro import Technology
from repro.ingest.pipeline import ingest_file
from repro.primitives import DifferentialPair
from repro.spice import run_monte_carlo

OTA_NETLIST = Path(__file__).parent / "netlists" / "ota.sp"


def main() -> None:
    tech = Technology.default()

    print("=== automatic annotation of the 5T OTA netlist ===")
    ingested = ingest_file(OTA_NETLIST, tech)
    for prim in ingested.primitives:
        devices = ", ".join(device for _, device in prim.match.devices)
        family = prim.binding.family if prim.binding else "no library family"
        print(f"{prim.name:24s} {family:22s} {devices}")
    print(f"coverage {ingested.coverage:.2f}, uncovered: "
          f"{', '.join(ingested.recognition.uncovered) or 'none'}")

    print("\n=== Monte-Carlo random offset of a differential pair ===")
    dp = DifferentialPair(tech, base_fins=192)
    dut = dp.schematic_circuit()

    def offset_of(circuit):
        values, _ = dp.evaluate(circuit)
        return values["offset"]

    result = run_monte_carlo(
        dut, tech.rules, offset_of, n_samples=40, seed=2,
        match_groups=[("MA", "MB")],
    )
    sigma = dp.random_offset_sigma()
    print(f"samples: {len(result)}")
    print(f"mean |offset|      = {result.mean * 1e3:.3f} mV")
    print(f"95th percentile    = {result.percentile(95) * 1e3:.3f} mV")
    print(f"analytic sigma     = {sigma * 1e3:.3f} mV")
    print(f"offset spec (10%)  = {0.1 * sigma * 1e3:.3f} mV")
    print("\nThe offset spec used by the cost function (Eq. 6's zero-"
          "schematic case) sits at 10% of this random-offset sigma; the "
          "AABB pattern's systematic offset exceeds it, symmetric "
          "patterns stay far below.")


if __name__ == "__main__":
    main()
