"""Layout-dependent-effect extraction.

Walks the device unit placements of a layout and computes, per schematic
device:

* **LOD** — each finger's distance to its unit's diffusion edges
  (``SA``/``SB``); dummies extend the diffusion and relax the effect.
  The per-finger ``1/SA + 1/SB`` stress terms are averaged over all
  fingers of all units.
* **WPE** — each unit's distance to the left/right well edges, combined
  harmonically (both edges inject dopants).
* **Systematic gradient** — an across-die linear threshold gradient
  evaluated at the device's unit centroid relative to the cell centre.
  Mirror-symmetric patterns (ABBA, CC2D) cancel it between matched
  devices; clustered patterns (AABB) do not — this is the mechanism
  behind the catastrophic offset entries in the paper's Table III.

The result is one :class:`~repro.devices.lde.LdeContext` per device, plus
diffusion-sharing-aware junction capacitances.
"""

from __future__ import annotations

from repro.devices.lde import LdeContext
from repro.errors import ExtractionError
from repro.geometry.layout import DevicePlacement, Layout
from repro.geometry.shapes import Rect
from repro.tech.finfet import MosModelCard
from repro.tech.pdk import Technology


def _lod_stress(placement: DevicePlacement, poly_pitch: int) -> float:
    """Average ``1/SA + 1/SB`` over the unit's fingers (1/nm)."""
    nf = placement.nf
    dummy_ext = placement.dummy_fingers * poly_pitch
    total = 0.0
    for finger in range(nf):
        sa = (finger + 0.5) * poly_pitch + dummy_ext
        sb = (nf - finger - 0.5) * poly_pitch + dummy_ext
        total += 1.0 / sa + 1.0 / sb
    return total / nf


def _wpe_distance(placement: DevicePlacement, layout: Layout) -> float:
    """Effective distance to the well edges (nm), harmonically combined."""
    well = layout.well_rect
    if well is None:
        raise ExtractionError(f"layout {layout.name!r} has no well rectangle")
    center = placement.rect.center
    d_left = max(1.0, center.x - well.x0)
    d_right = max(1.0, well.x1 - center.x)
    return 2.0 / (1.0 / d_left + 1.0 / d_right)


def extract_lde(
    layout: Layout,
    device: str,
    card: MosModelCard,
    tech: Technology,
    *,
    bbox: Rect | None = None,
) -> LdeContext:
    """Extract the combined LDE context for one schematic device.

    ``bbox`` is ``layout.bbox()``; callers extracting several devices of
    one layout compute it once and pass it in.
    """
    placements = [p for p in layout.devices if p.device == device]
    if not placements:
        raise ExtractionError(
            f"device {device!r} has no placements in layout {layout.name!r}"
        )
    poly_pitch = tech.rules.poly_pitch
    lde = card.lde

    stress = sum(_lod_stress(p, poly_pitch) for p in placements) / len(placements)
    vth_lod = lde.kvth_lod * (stress - 2.0 / lde.sa_ref)
    mu_factor = max(0.5, 1.0 - lde.kmu_lod * (stress - 2.0 / lde.sa_ref))

    sc_values = [_wpe_distance(p, layout) for p in placements]
    sc_mean_inv = sum(1.0 / sc for sc in sc_values) / len(sc_values)
    vth_wpe = lde.kvth_wpe * (sc_mean_inv - 1.0 / lde.sc_ref)

    # Systematic across-die gradient at the unit centroid, relative to the
    # cell centre so that symmetric patterns cancel exactly.
    if bbox is None:
        bbox = layout.bbox()
    cx = sum(p.rect.center.x for p in placements) / len(placements)
    cy = sum(p.rect.center.y for p in placements) / len(placements)
    vth_gradient = tech.vth_gradient_x * (cx - bbox.center.x) + tech.vth_gradient_y * (
        cy - bbox.center.y
    )

    sa_avg = sum(
        (0.5 + p.dummy_fingers) * poly_pitch for p in placements
    ) / len(placements)
    return LdeContext(
        vth_shift=vth_lod + vth_wpe + vth_gradient,
        mobility_factor=mu_factor,
        sa=sa_avg,
        sb=sa_avg,
        sc=min(sc_values),
    )


def junction_capacitances(
    layout: Layout, device: str, card: MosModelCard
) -> tuple[float, float]:
    """Diffusion-sharing-aware (cdb, csb) for one device.

    Within a unit of ``nf`` fingers the diffusions alternate
    ``S D S D ... S`` (even ``nf`` keeps sources on both ends).  Internal
    diffusions are shared between two fingers and carry
    ``cj_shared_factor`` of the unshared capacitance; end diffusions are
    full size unless dummies abut them (then they are shared with the
    dummy).
    """
    placements = [p for p in layout.devices if p.device == device]
    if not placements:
        raise ExtractionError(
            f"device {device!r} has no placements in layout {layout.name!r}"
        )
    cdb = 0.0
    csb = 0.0
    for p in placements:
        per_region = card.cj_per_fin * p.nfin
        n_regions = p.nf + 1
        n_drain = p.nf // 2
        n_source = n_regions - n_drain
        # Drain regions are always internal for even nf.
        cdb += n_drain * per_region * card.cj_shared_factor
        internal_sources = max(0, n_source - 2)
        csb += internal_sources * per_region * card.cj_shared_factor
        end_factor = card.cj_shared_factor if p.dummy_fingers > 0 else 1.0
        csb += 2 * per_region * end_factor
    return cdb, csb
