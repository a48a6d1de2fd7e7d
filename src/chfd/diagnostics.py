"""Energy functionals and run diagnostics.

The free energy of a field on the discrete grid is

    E(phi) = sum h^2 [ 1/4 (phi^2 - 1)^2 ] + eps^2/2 * |grad4 phi|^2,

which is the quadrature of the double-well density plus the gradient energy
of the fourth-order operator; both pieces are nonnegative.  The gradient
energy is the quadratic form (phi, -lap4 phi), evaluated from the Fourier
spectrum of phi as the sum of Lambda |phi^|^2 (Lambda the symbol of -lap4,
see :mod:`chfd.spectral`).  The time stepper dissipates the modified energy

    E_mod(phi_new, phi_old) = E(phi_new) + 1/(4 dt) |phi_new - phi_old|_{-1}^2
                              + 1/2 |phi_new - phi_old|_2^2

whenever the stabilization constant satisfies A >= 1/16.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Field, _check_same_grid, mean
from .spectral import SpectralPlan, _inner

__all__ = ["EnergyRecord", "energy", "modified_energy", "fit_power_law"]


@dataclass(frozen=True)
class EnergyRecord:
    """One row of the run log (also the energy CSV row layout)."""

    step: int
    t: float
    mass: float
    E: float
    E_mod: float
    psd_iters: int
    residual: float


def energy(phi: Field, eps: float, plan: SpectralPlan) -> float:
    """Free energy; nonnegative by construction."""
    _check_same_grid(plan, phi)
    hd = phi.grid.h**2
    well = 0.25 * hd * float(np.sum((phi.values**2 - 1.0) ** 2))
    spec = phi.spectrum
    return well + 0.5 * eps**2 * _inner(plan, spec, plan.Lambda_long * spec)


def modified_energy(
    phi_new: Field,
    phi_old: Field,
    dt: float,
    plan: SpectralPlan,
    E: float,
) -> float:
    """Dissipated Lyapunov functional of the two-step scheme.

    ``E`` is ``energy(phi_new, eps, plan)``, which every caller already has.
    Requires mean(phi_new) = mean(phi_old) so the increment has a well-defined
    H^{-1} norm.
    """
    _check_same_grid(plan, phi_new)
    _check_same_grid(phi_new, phi_old)
    m_new, m_old = mean(phi_new), mean(phi_old)
    if abs(m_new - m_old) > 1e-9 * (1.0 + abs(m_old)):
        raise ValueError(f"means differ ({m_new!r} vs {m_old!r}); increment is not mean-free")
    spec = phi_new.spectrum - phi_old.spectrum
    hm1_sq = _inner(plan, spec, plan.inv_Lambda * spec)
    l2_sq = _inner(plan, spec, spec)
    return E + hm1_sq / (4.0 * dt) + 0.5 * l2_sq


def fit_power_law(
    records: Sequence[EnergyRecord], t_min: float, t_max: float
) -> tuple[float, float]:
    """Least-squares fit E ~ a * t^(-b) over records with t in [t_min, t_max].

    Returns (a, b); b > 0 means decay.  Fits log E against log t, so all
    energies in the window must be positive; requires at least 10 records.
    """
    ts = np.array([r.t for r in records if t_min <= r.t <= t_max])
    Es = np.array([r.E for r in records if t_min <= r.t <= t_max])
    if ts.size < 10:
        raise ValueError(f"need at least 10 records in [{t_min}, {t_max}], found {ts.size}")
    if np.any(Es <= 0.0) or np.any(ts <= 0.0):
        raise ValueError("power-law fit needs positive times and energies")
    slope, intercept = np.polyfit(np.log(ts), np.log(Es), 1)
    return float(np.exp(intercept)), float(-slope)
