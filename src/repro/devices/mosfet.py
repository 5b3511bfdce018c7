"""Smooth EKV-style FinFET compact model.

The DC model is the symmetric EKV formulation

``Id = Ispec * (F(uf) - F(ur)) / (1 + theta*vov) * (1 + lambda*vds)``

with ``F(u) = ln(1 + exp(u/2))^2`` interpolating smoothly from weak to
strong inversion, velocity saturation modelled as mobility degradation in
the overdrive, and channel-length modulation as a linear ``vds`` term.
FinFETs are fully depleted, so no body effect is modelled (``gmb = 0``).

The model is evaluated *vectorized over devices*: the MNA engine gathers
terminal voltages for all MOSFETs into arrays and gets currents,
conductances and capacitances back in one call (DC Newton iterations call
``channel_current``, the same arithmetic without the capacitances).
Derivatives are analytic; ``tests/devices/test_mosfet.py`` checks them
against finite differences.

Capacitances follow a Meyer-style smooth partition of the intrinsic gate
capacitance, blended by inversion level and by the triode/saturation ratio
``ir/if``, plus constant overlap and junction terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.lde import LdeContext
from repro.errors import NetlistError
from repro.tech.finfet import MosModelCard
from repro.tech.rules import DesignRules
from repro.units import THERMAL_VOLTAGE, meters


@dataclass(frozen=True)
class MosGeometry:
    """FinFET sizing as drawn: fins per finger, fingers, multiplicity."""

    nfin: int
    nf: int = 1
    m: int = 1

    def __post_init__(self) -> None:
        if self.nfin < 1 or self.nf < 1 or self.m < 1:
            raise NetlistError("nfin, nf and m must all be >= 1")

    @property
    def nfins_total(self) -> int:
        """Total number of fins in the device."""
        return self.nfin * self.nf * self.m

    def scaled(self, factor: int) -> "MosGeometry":
        """Return a geometry with ``m`` multiplied by ``factor``."""
        if factor < 1:
            raise NetlistError("scale factor must be >= 1")
        return MosGeometry(self.nfin, self.nf, self.m * factor)


@dataclass(frozen=True)
class MosParams:
    """Numeric model parameters for one device instance (SI units)."""

    polarity: int
    vth: float
    slope_factor: float
    ispec: float
    lambda_clm: float
    theta: float
    cox_wl: float
    cov: float
    cdb: float
    csb: float
    sigma_vth: float


def resolve_params(
    card: MosModelCard,
    rules: DesignRules,
    geometry: MosGeometry,
    lde: LdeContext | None = None,
    cdb_override: float | None = None,
    csb_override: float | None = None,
) -> MosParams:
    """Combine a model card, geometry and LDE context into numeric params.

    ``cdb_override``/``csb_override`` let extraction substitute junction
    capacitances that account for diffusion sharing; without them the
    unshared (schematic) values are used.
    """
    ctx = lde or LdeContext.ideal()
    nfins = geometry.nfins_total
    w_eff = nfins * meters(rules.fin_width_effective)
    length = meters(rules.gate_length)
    beta = card.kp * ctx.mobility_factor * w_eff / length
    ispec = 2.0 * card.slope_factor * beta * THERMAL_VOLTAGE**2
    cdb = card.cj_per_fin * nfins if cdb_override is None else cdb_override
    csb = card.cj_per_fin * nfins if csb_override is None else csb_override
    return MosParams(
        polarity=card.polarity,
        vth=card.vth0 + ctx.vth_shift,
        slope_factor=card.slope_factor,
        ispec=ispec,
        lambda_clm=card.lambda_clm,
        theta=1.0 / card.vsat_field,
        cox_wl=card.cox_area * w_eff * length,
        cov=card.cov_per_fin * nfins,
        cdb=cdb,
        csb=csb,
        sigma_vth=card.sigma_vth_fin / np.sqrt(nfins),
    )


@dataclass
class MosEval:
    """Vectorized model outputs for a set of devices.

    ``ids`` is the current flowing *into the drain terminal* (out of the
    source); conductances are the partial derivatives of that current.
    ``gms = dId/dVs`` equals ``-(gm + gds)`` because the model has no body
    effect.  Capacitances are in farads.
    """

    ids: np.ndarray
    gm: np.ndarray
    gds: np.ndarray
    cgs: np.ndarray
    cgd: np.ndarray
    cgb: np.ndarray
    cdb: np.ndarray
    csb: np.ndarray

    @property
    def gms(self) -> np.ndarray:
        """Derivative of the drain current w.r.t. the source voltage."""
        return -(self.gm + self.gds)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _f_interp(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EKV interpolation function ``F(u) = ln(1+e^{u/2})^2`` and dF/du."""
    half = np.logaddexp(0.0, 0.5 * u)
    return half * half, half * _sigmoid(0.5 * u)


def channel_current(
    polarity: np.ndarray,
    vth: np.ndarray,
    slope_factor: np.ndarray,
    ispec: np.ndarray,
    lambda_clm: np.ndarray,
    theta: np.ndarray,
    vg: np.ndarray,
    vd: np.ndarray,
    vs: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The drain current and its conductances, without capacitances.

    The first half of :func:`evaluate_mosfets`, and all a DC Newton
    iteration needs.  Returns ``(ids, gm, gds, swap, f_fwd, f_rev)``:
    the :class:`MosEval` fields of those names, then what the
    capacitance partition reads — the drain/source swap mask and the
    interpolation function at the source and drain ends.
    """
    ut = THERMAL_VOLTAGE
    pol = np.asarray(polarity, dtype=float)
    vgs_n = pol * (vg - vs)
    vds_n = pol * (vd - vs)

    swap = vds_n < 0.0
    vds_e = np.abs(vds_n)
    vgs_e = np.where(swap, vgs_n - vds_n, vgs_n)

    n = slope_factor
    nut = n * ut
    vp = (vgs_e - vth) / n
    f_fwd, df_fwd = _f_interp(vp / ut)
    f_rev, df_rev = _f_interp((vp - vds_e) / ut)

    # Velocity saturation: mobility degradation in the (smoothed) overdrive.
    ut2 = 2.0 * nut
    ov = ut2 * np.logaddexp(0.0, (vgs_e - vth) / ut2)
    dov = _sigmoid((vgs_e - vth) / ut2)
    den = 1.0 + theta * ov
    dden = theta * dov

    delta_f = f_fwd - f_rev
    i0 = ispec * delta_f / den
    clm = 1.0 + lambda_clm * vds_e
    id_e = i0 * clm

    dif_dvgs = df_fwd / nut
    dir_dvgs = df_rev / nut
    dir_dvds = -df_rev / ut

    di0_dvgs = ispec * ((dif_dvgs - dir_dvgs) / den - delta_f * dden / den**2)
    di0_dvds = ispec * (-dir_dvds) / den
    gid_gs = di0_dvgs * clm
    gid_ds = di0_dvds * clm + i0 * lambda_clm

    id_n = np.where(swap, -id_e, id_e)
    gm_n = np.where(swap, -gid_gs, gid_gs)
    gds_n = np.where(swap, gid_gs + gid_ds, gid_ds)
    return pol * id_n, gm_n, gds_n, swap, f_fwd, f_rev


def evaluate_mosfets(
    polarity: np.ndarray,
    vth: np.ndarray,
    slope_factor: np.ndarray,
    ispec: np.ndarray,
    lambda_clm: np.ndarray,
    theta: np.ndarray,
    cox_wl: np.ndarray,
    cov: np.ndarray,
    cdb: np.ndarray,
    csb: np.ndarray,
    vg: np.ndarray,
    vd: np.ndarray,
    vs: np.ndarray,
) -> MosEval:
    """Evaluate the model for arrays of devices at given terminal voltages.

    All parameter arrays must have the voltages' shape.  PMOS
    devices (``polarity == -1``) are mapped onto the n-model; drain/source
    are swapped internally when ``vds < 0`` so the model is valid in all
    quadrants and all returned derivatives are smooth.
    """
    ids, gm, gds, swap, f_fwd, f_rev = channel_current(
        polarity, vth, slope_factor, ispec, lambda_clm, theta, vg, vd, vs
    )

    # Meyer-style capacitance partition (in the effective orientation).
    inv = f_fwd / (1.0 + f_fwd)
    ratio = np.sqrt((f_rev + 1e-15) / (f_fwd + 1e-15))
    ratio = np.clip(ratio, 0.0, 1.0)
    cgs_i = cox_wl * inv * (2.0 / 3.0 * (1.0 - ratio) + 0.5 * ratio)
    cgd_i = cox_wl * inv * 0.5 * ratio
    cgb = cox_wl * (1.0 - inv) * 0.3

    cgs = np.where(swap, cgd_i, cgs_i) + cov
    cgd = np.where(swap, cgs_i, cgd_i) + cov

    return MosEval(
        ids=ids,
        gm=gm,
        gds=gds,
        cgs=cgs,
        cgd=cgd,
        cgb=cgb,
        cdb=cdb.copy(),
        csb=csb.copy(),
    )


def mos_small_signal(
    params: MosParams, vg: float, vd: float, vs: float
) -> dict[str, float]:
    """Scalar convenience wrapper: evaluate one device at one bias point.

    Returns a dict with ``id``, ``gm``, ``gds``, ``gms`` and the five
    capacitances — handy in tests, docs and quick calculations.
    """
    arr = lambda x: np.asarray([float(x)])  # noqa: E731 - tiny local adapter
    out = evaluate_mosfets(
        np.asarray([params.polarity]),
        arr(params.vth),
        arr(params.slope_factor),
        arr(params.ispec),
        arr(params.lambda_clm),
        arr(params.theta),
        arr(params.cox_wl),
        arr(params.cov),
        arr(params.cdb),
        arr(params.csb),
        arr(vg),
        arr(vd),
        arr(vs),
    )
    return {
        "id": float(out.ids[0]),
        "gm": float(out.gm[0]),
        "gds": float(out.gds[0]),
        "gms": float(out.gms[0]),
        "cgs": float(out.cgs[0]),
        "cgd": float(out.cgd[0]),
        "cgb": float(out.cgb[0]),
        "cdb": float(out.cdb[0]),
        "csb": float(out.csb[0]),
    }
