"""Nuclear level data and the coherent fraction of an M1 transition.

A target nucleus is modeled as a two-level system with ground and excited
total angular momenta (j_g, j_e), |j_e - j_g| = 1, coupled by a pure magnetic
dipole (M1) transition.  By the Wigner-Eckart theorem the strength of the
sublevel pair (mu_e, mu_g), normalized per excited sublevel, is the squared
Clebsch-Gordan coefficient |<j_g mu_g; 1 q | j_e mu_e>|^2.  The coherent
fraction f is the mean of the nonzero strengths: the m-independent
probability that excitation plus radiative decay returns the nucleus to its
original sublevel.  It has a closed form,

    f = (2 j_e + 1) / (3 (2 min(j_g, j_e) + 1)),

because
  - the downward strengths of each excited sublevel sum to 1
    (orthonormality), so all strengths together sum to 2 j_e + 1;
  - for |j_e - j_g| = 1 every coefficient with |mu_e - mu_g| <= 1 and both
    mu in range is nonzero (each j_2 = 1 entry of Edmonds, Angular Momentum
    in Quantum Mechanics (1957), Table 2, is the square root of a positive
    product), and there are 3 (2 min(j_g, j_e) + 1) of them.

So f = 1/3 for j_e < j_g and (2 j_g + 3) / (3 (2 j_g + 1)) for j_e > j_g:
2/3 for Fe-57 and 4/9 for Dy-161.  The coherent radiative rate is

    kappa_r = kappa * f / (1 + alpha_IC) / branch_divisor.

Spins are stored as doubled integers and f as a Fraction, so it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import CONSTANTS
from .rows import NAME, REQUIRED, Param, _check_fields, parse_record_file

__all__ = [
    "NuclideRecord",
    "coherent_fraction",
    "radiative_rate",
    "builtin_records",
    "registry",
    "parse_nuclide_file",
]

# ---------------------------------------------------------------------------
# coherent fraction, on doubled integers so it stays exact


def coherent_fraction(j_g, j_e) -> Fraction:
    """Mean of the nonzero M1 strengths, (2 j_e + 1) / (3 (2 min(j_g, j_e) + 1)).

    Exact for any half-integer pair with |j_e - j_g| = 1 (see the module
    docstring).  A NuclideRecord calls it once, when it is built.
    """
    jg_d, je_d = 2 * Fraction(j_g), 2 * Fraction(j_e)  # doubled spins
    if not (jg_d > 0 and je_d > 0 and jg_d.denominator == je_d.denominator == 1
            and jg_d % 2 == je_d % 2 == 1):
        raise ValueError("spins must be positive half-integers, got %s and %s" % (j_g, j_e))
    if abs(je_d - jg_d) != 2:
        raise ValueError("only |j_e - j_g| = 1 dipole pairs are supported")
    return Fraction(je_d + 1, 3 * (min(jg_d, je_d) + 1))


# ---------------------------------------------------------------------------
# nuclide records


NUCLIDE = (  # a nuclides.dat block, each bound with its reason
    NAME,
    # 1 eV: below the lowest nuclear level (Th-229m, 8.3 eV); 10 MeV: above
    # the nucleon separation energies, beyond which levels are not sharp
    Param("e0_keV", "positive", REQUIRED, (1.0e-3, 1.0e4)),
    # 1e-18 s: a 660 eV width, broader than any resolved line; 1e7 s: past
    # every isomer's radiative lifetime (Th-229m, about 1e3 s)
    Param("lifetime_s", "positive", REQUIRED, (1.0e-18, 1.0e7)),
    # conversion only removes radiative decays; 1e10 tops Th-229m's ~1e9
    Param("alpha_ic", "number", REQUIRED, (0.0, 1.0e10)),
    # doubled spins: nuclei show 2j below 200, and 9999 fills list-nuclides'
    # four-digit columns; coherent_fraction checks odd values a dipole step apart
    Param("jg2", "int", REQUIRED, (1, 9999)),
    Param("je2", "int", REQUIRED, (1, 9999)),
    # a further cut of the radiative rate, so at least 1; capped as alpha_ic
    Param("branch_divisor", "number", 1.0, (1.0, 1.0e10)),
)


@dataclass(frozen=True)
class NuclideRecord:
    """Level data for one resonant nuclide.

    jg2 and je2 are the doubled total angular momenta (exact half-integer
    bookkeeping); branch_divisor is an extra radiative-rate reduction applied
    on top of the internal-conversion and coherent-fraction factors, stored as
    data because no closed formula fixes it.  coherent_fraction, set from the
    spins when the record is built, takes no part in equality, hash or repr.
    """

    name: str
    e0_keV: float
    lifetime_s: float
    alpha_ic: float
    jg2: int
    je2: int
    branch_divisor: float = 1.0
    coherent_fraction: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fields(NUCLIDE, vars(self))
        try:
            f = coherent_fraction(self.j_g, self.j_e)
        except ValueError as exc:
            raise ValueError("jg2/je2: %s" % exc) from None
        object.__setattr__(self, "coherent_fraction", f)

    @property
    def j_g(self) -> Fraction:
        return Fraction(self.jg2, 2)

    @property
    def j_e(self) -> Fraction:
        return Fraction(self.je2, 2)

    @property
    def e0_eV(self) -> float:
        return self.e0_keV * 1e3

    @property
    def omega0_rad_s(self) -> float:
        return self.e0_eV / CONSTANTS.hbar_eV_s

    @property
    def wavelength_nm(self) -> float:
        return 2.0 * math.pi * CONSTANTS.c_nm_s / self.omega0_rad_s

    @property
    def kappa_s(self) -> float:
        """Total decay rate (1/s)."""
        return 1.0 / self.lifetime_s


def radiative_rate(rec: NuclideRecord) -> float:
    """Coherent radiative rate kappa_r in 1/s."""
    f = float(rec.coherent_fraction)
    return rec.kappa_s * f / (1.0 + rec.alpha_ic) / rec.branch_divisor


def builtin_records() -> tuple[NuclideRecord, ...]:
    """The two nuclides shipped with the package."""
    return (
        NuclideRecord(name="Fe-57", e0_keV=14.4129, lifetime_s=1.42e-7,
                      alpha_ic=8.544, jg2=1, je2=3),
        NuclideRecord(name="Dy-161", e0_keV=43.8201, lifetime_s=1.20e-9,
                      alpha_ic=4.213, jg2=5, je2=7, branch_divisor=2.25),
    )


def registry() -> dict[str, NuclideRecord]:
    """Name -> record mapping of the built-in nuclides.

    A fresh dict is returned on every call, so a caller may overlay data-file
    records on it (cli does) without touching the built-ins.
    """
    return {rec.name: rec for rec in builtin_records()}


def parse_nuclide_file(path) -> dict[str, NuclideRecord]:
    """Read nuclide records from key = value blocks separated by blank lines."""
    return {rec.name: rec for rec in parse_record_file(path, NUCLIDE,
                                                       lambda v: NuclideRecord(**v))}
