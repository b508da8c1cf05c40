"""Emission observables for a single resonant nucleus driven by a passing
charge: coherent photon yield, spectral line shape and temporal decay
profile.

The coherent yield for one nucleus at transverse distance R from the beam is

    Gamma_j = [3 Z^2 alpha / ((v/c)^2 gamma^2)] [kappa_r^2 / (omega0 kappa)]
              K1^2(omega0 R / (v gamma)),

a dimensionless probability per incident particle.  Note the two distinct
rates: the spectral weight carries kappa_r^2 / kappa (only the coherent
radiative channel emits into the line), while the temporal profile decays
with the full kappa (photons ride the total population decay, whatever the
eventual decay channel of each nucleus).  Conflating the two is an easy
physics bug, hence the explicit split below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import CONSTANTS, bessel_k1
from .nuclide import NuclideRecord, radiative_rate
from .probe import R_PERP, Probe
from .rows import _check_fields

__all__ = [
    "EmissionSpectrum",
    "DecayProfile",
    "bessel_argument",
    "coherent_yield",
    "spectral_profile",
    "decay_profile",
]


def _dimensionless_scale(probe: Probe, rec: NuclideRecord) -> float:
    """Z^2 alpha / ((v/c)^2 gamma^2) * kappa_r^2 / (omega0 kappa)."""
    kr = radiative_rate(rec)
    beta_gamma_sq = (probe.beta * probe.gamma) ** 2
    return (probe.z_charge ** 2 * CONSTANTS.alpha_fs / beta_gamma_sq
            * kr * kr / (rec.omega0_rad_s * rec.kappa_s))


def bessel_argument(probe: Probe, rec: NuclideRecord, r_perp_nm: float) -> float:
    """omega0 r / (v gamma), the evanescent decay argument."""
    return rec.omega0_rad_s * r_perp_nm / (probe.velocity_nm_s * probe.gamma)


def coherent_yield(probe: Probe, rec: NuclideRecord, r_perp_nm: float) -> float:
    """Probability of coherent photon emission from one nucleus.

    Grows as 1/r^2 toward small separations and decays exponentially beyond
    the evanescent range v gamma / omega0.  r_perp_nm is checked by its row,
    probe.R_PERP, as a config's: outside [1e-5, 1e6] nm it raises ValueError.
    """
    _check_fields((R_PERP,), {"r_perp_nm": r_perp_nm})
    k1 = bessel_k1(bessel_argument(probe, rec, r_perp_nm))
    return 3.0 * _dimensionless_scale(probe, rec) * k1 * k1


@dataclass(frozen=True)
class EmissionSpectrum:
    """Unit-normalized Lorentzian line over photon energy (eV)."""

    center_eV: float
    fwhm_eV: float

    def density(self, e_eV):
        """Probability per eV at photon energy e_eV."""
        half = 0.5 * self.fwhm_eV
        de = np.asarray(e_eV, dtype=float) - self.center_eV
        out = (half / math.pi) / (de * de + half * half)
        return float(out) if out.ndim == 0 else out


def spectral_profile(rec: NuclideRecord) -> EmissionSpectrum:
    """Line shape of the emitted photons: FWHM = hbar * kappa about hbar * omega0."""
    return EmissionSpectrum(center_eV=rec.e0_eV, fwhm_eV=CONSTANTS.hbar_eV_s * rec.kappa_s)


@dataclass(frozen=True)
class DecayProfile:
    """Normalized emission-time density kappa e^{-kappa t} for t >= 0."""

    rate_s: float

    def profile(self, t_s):
        """Emission probability per second at time t after excitation."""
        t = np.asarray(t_s, dtype=float)
        # t < 0 is discarded but still evaluated: keep it off exp's overflow
        out = np.where(t < 0.0, 0.0, self.rate_s * np.exp(-np.maximum(self.rate_s * t, 0.0)))
        return float(out) if out.ndim == 0 else out

    def survival(self, t_s):
        """Fraction of excited population remaining at time t."""
        t = np.asarray(t_s, dtype=float)
        out = np.where(t < 0.0, 1.0, np.exp(-np.maximum(self.rate_s * t, 0.0)))
        return float(out) if out.ndim == 0 else out


def decay_profile(rec: NuclideRecord) -> DecayProfile:
    """Temporal profile of the emission, governed by the total rate kappa.

    The total rate, not kappa_r: every decay channel depletes the excited
    population at kappa, and the photons emitted along the way inherit that
    envelope.
    """
    return DecayProfile(rate_s=rec.kappa_s)

