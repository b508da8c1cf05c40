"""Emission observables for a single resonant nucleus driven by a passing
charge: coherent photon yield, spectral line shape, temporal decay profile,
and the incoherent angular distribution summed over a set of nuclei.

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
from typing import Callable, Sequence

import numpy as np

from .numerics import CONSTANTS, bessel_k1
from .nuclide import NuclideRecord, radiative_rate
from .probe import Probe

__all__ = [
    "EmissionSpectrum",
    "DecayProfile",
    "bessel_argument",
    "coherent_yield",
    "spectral_profile",
    "decay_profile",
    "incoherent_angular",
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

    Diverges as 1/r^2 for small separations and decays exponentially beyond
    the evanescent range v gamma / omega0; callers impose the physical
    minimum-distance clamp.
    """
    if not r_perp_nm > 0:
        raise ValueError("r_perp_nm must be positive")
    k1 = bessel_k1(bessel_argument(probe, rec, r_perp_nm))
    return 3.0 * _dimensionless_scale(probe, rec) * k1 * k1


@dataclass(frozen=True)
class EmissionSpectrum:
    """Unit-normalized Lorentzian line over photon energy (eV)."""

    center_eV: float
    fwhm_eV: float
    density: Callable[[np.ndarray | float], np.ndarray | float]


def spectral_profile(rec: NuclideRecord) -> EmissionSpectrum:
    """Line shape of the emitted photons: FWHM = hbar * kappa about hbar * omega0."""
    center = rec.e0_eV
    fwhm = CONSTANTS.hbar_eV_s * rec.kappa_s
    half = 0.5 * fwhm

    def density(e_eV):
        de = np.asarray(e_eV, dtype=float) - center
        out = (half / math.pi) / (de * de + half * half)
        return float(out) if out.ndim == 0 else out

    return EmissionSpectrum(center_eV=center, fwhm_eV=fwhm, density=density)


@dataclass(frozen=True)
class DecayProfile:
    """Normalized emission-time density kappa e^{-kappa t} for t >= 0."""

    rate_s: float
    profile: Callable[[np.ndarray | float], np.ndarray | float]

    def survival(self, t_s):
        """Fraction of excited population remaining at time t."""
        t = np.asarray(t_s, dtype=float)
        out = np.where(t < 0.0, 1.0,
                       np.exp(-np.clip(self.rate_s * t, 0.0, 745.0)))
        return float(out) if out.ndim == 0 else out


def decay_profile(rec: NuclideRecord) -> DecayProfile:
    """Temporal profile of the emission, governed by the total rate kappa.

    The total rate, not kappa_r: every decay channel depletes the excited
    population at kappa, and the photons emitted along the way inherit that
    envelope.
    """
    kappa = rec.kappa_s

    def profile(t_s):
        t = np.asarray(t_s, dtype=float)
        # clip both ways: the t < 0 branch is discarded but still evaluated
        out = np.where(t < 0.0, 0.0,
                       kappa * np.exp(-np.clip(kappa * t, 0.0, 700.0)))
        return float(out) if out.ndim == 0 else out

    return DecayProfile(rate_s=kappa, profile=profile)


def incoherent_angular(probe: Probe, rec: NuclideRecord,
                       nuclei: Sequence[Sequence[float]],
                       r_p: Sequence[float], theta: float, phi: float) -> float:
    """Incoherent emission probability per solid angle from a set of nuclei.

    (3/16 pi) (1/f - 1) sum_j [1 + sin^2(theta) sin^2(phi - phi_jp)] Gamma_j,
    where phi_jp is the azimuth of nucleus j seen from the impact point and f
    is the coherent fraction.  Broad and featureless by construction; its
    solid-angle integral equals (1/f - 1) times the summed coherent yields.
    """
    pts = np.atleast_2d(np.asarray(nuclei, dtype=float))
    rp = np.asarray(r_p, dtype=float)
    d = pts - rp[None, :]
    dist = np.hypot(d[:, 0], d[:, 1])
    if np.any(dist == 0.0):
        raise ValueError("a nucleus coincides with the impact point")
    f = float(rec.coherent_fraction)
    phi_jp = np.arctan2(d[:, 1], d[:, 0])
    k1 = bessel_k1(bessel_argument(probe, rec, dist))
    gamma_j = 3.0 * _dimensionless_scale(probe, rec) * k1 * k1
    ang = 1.0 + math.sin(theta) ** 2 * np.sin(phi - phi_jp) ** 2
    return float(3.0 / (16.0 * math.pi) * (1.0 / f - 1.0) * np.sum(ang * gamma_j))
