"""Probe kinematics: a charge eZ moving with velocity v = beta*c along +z,
and its Lorentz factor gamma = 1/sqrt(1 - beta^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import CONSTANTS
from .rows import Param, _check_fields

__all__ = [
    "Probe",
    "lorentz_gamma",
    "beta_from_kinetic",
    "electron",
    "proton",
]

# Smallest speed a Probe takes: below about 1.2e-77, the beta^4 that the
# bremsstrahlung prefactor divides by leaves the normal-double range, and by
# 1e-85 it underflows to zero.
BETA_MIN = 1e-70

# Largest charge magnitude, the heaviest known nucleus's: brems takes
# Z^4 Z_n^2, and a finite bound keeps every integer far from overflow.
MAX_Z = 118

# Rest-energy range (eV): 1e5 eV is below the lightest charged particle (the
# electron, 511 keV), and keeps the 1/(M^2 beta^4) of the bremsstrahlung
# prefactor below 1e270; 1e15 eV is far above the heaviest nucleus (U-238,
# 2.2e11 eV) and far below 1.3e154 eV, where M^2 overflows.
REST_ENERGY_EV = (1.0e5, 1.0e15)

# A lattice length or a beam-nucleus distance is at least 10 fm, the size of
# a nucleus (9 fm for Fe-57, 15 fm for U-238); K1^2 of the field overflows
# near 1e-160 nm, a^4 of the layer prefactor below 1.5e-81 nm.  It is at most
# 1 mm, as spacing_nm: far above any lattice, and far below the 1e236 nm where
# omega r / v overflows at BETA_MIN.
DISTANCE = (1.0e-5, 1.0e6)

# A Probe's fields with their bounds; scenarios.PROBE takes these rows as they are
BETA = Param("beta", "beta", None, BETA_MIN)
Z_CHARGE = Param("z_charge", "nonzero", None, MAX_Z)
REST_ENERGY = Param("rest_energy_eV", "positive", None, REST_ENERGY_EV)
R_PERP = Param("r_perp_nm", "positive", 0.001, DISTANCE)  # distance of library calls and configs


def lorentz_gamma(beta: float) -> float:
    """Lorentz factor 1/sqrt(1 - beta^2) for 0 <= beta < 1."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must satisfy 0 <= beta < 1")
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def beta_from_kinetic(e_kinetic_eV: float, rest_energy_eV: float) -> float:
    """Speed (v/c) of a particle with the given kinetic and rest energies."""
    if e_kinetic_eV <= 0 or rest_energy_eV <= 0:
        raise ValueError("energies must be positive")
    t, m = e_kinetic_eV, rest_energy_eV
    # beta = sqrt(T (T + 2 m)) / (T + m), stable for T << m
    return math.sqrt(t * (t + 2.0 * m)) / (t + m)


@dataclass(frozen=True)
class Probe:
    """A charged projectile: charge number Z, rest energy, and speed v/c."""

    z_charge: int
    rest_energy_eV: float
    beta: float

    def __post_init__(self):
        _check_fields((BETA, Z_CHARGE, REST_ENERGY), vars(self))

    @property
    def gamma(self) -> float:
        """Lorentz factor, always recomputed from beta."""
        return lorentz_gamma(self.beta)

    @property
    def velocity_nm_s(self) -> float:
        return self.beta * CONSTANTS.c_nm_s


# (charge number Z, rest energy in eV) of each named species
SPECIES = {
    "electron": (-1, CONSTANTS.electron_mass_eV),
    "proton": (+1, CONSTANTS.proton_mass_eV),
}


def electron(beta: float | None = None, kinetic_energy_eV: float | None = None) -> Probe:
    """Electron probe (Z = -1) specified by speed or kinetic energy."""
    return _species(*SPECIES["electron"], beta, kinetic_energy_eV)


def proton(beta: float | None = None, kinetic_energy_eV: float | None = None) -> Probe:
    """Proton probe (Z = +1) specified by speed or kinetic energy."""
    return _species(*SPECIES["proton"], beta, kinetic_energy_eV)


def _species(z: int, rest_eV: float, beta, e_kin) -> Probe:
    if (beta is None) == (e_kin is None):
        raise ValueError("specify exactly one of beta or kinetic_energy_eV")
    if beta is None:
        beta = beta_from_kinetic(e_kin, rest_eV)
    return Probe(z_charge=z, rest_energy_eV=rest_eV, beta=beta)
