"""Nuclear level data and the angular-momentum algebra behind it.

A target nucleus is modeled as a two-level system with ground and excited
total angular momenta (j_g, j_e), |j_e - j_g| = 1, coupled by a pure magnetic
dipole (M1) transition.  By the Wigner-Eckart theorem every sublevel matrix
element of a rank-1 operator T_1 is one reduced element times a
Clebsch-Gordan coefficient,

    <j_e mu_e| T_1q |j_g mu_g> = <j_g mu_g; 1 q | j_e mu_e> <j_e||T_1||j_g>
                                 / sqrt(2 j_e + 1),

so the reduced element cancels from the strengths normalized per excited
sublevel: the strength of (mu_e, mu_g) is |<j_g mu_g; 1 q | j_e mu_e>|^2,
and orthonormality of the coefficients makes the downward strengths from
each excited sublevel sum to 1.  All coefficients come from one exact Racah
sum.  From the strength diagram we obtain the coherent fraction f (the
m-independent average of the downward strengths, i.e. the probability that
excitation plus radiative decay returns the nucleus to its original
sublevel), and the coherent radiative rate

    kappa_r = kappa * f / (1 + alpha_IC) / branch_divisor.

All spin arithmetic is exact: half-integers are stored as doubled integers
and strengths as rationals, so the sum rules hold as identities rather than
to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .numerics import CONSTANTS

__all__ = [
    "NuclideRecord",
    "TransitionDiagram",
    "DataFileError",
    "transition_diagram",
    "coherent_fraction",
    "radiative_rate",
    "builtin_records",
    "registry",
    "parse_nuclide_file",
    "parse_kv_blocks",
    "parse_record_file",
]

# ---------------------------------------------------------------------------
# exact Clebsch-Gordan coefficients, kept as rational squares so strengths
# stay exact


def _doubled(x, name: str) -> int:
    """Convert a (half-)integer given as float/int/Fraction to its doubled int."""
    d = 2 * Fraction(x)
    if d.denominator != 1:
        raise ValueError(f"{name} must be an integer or half-integer, got {x}")
    return int(d)


def _fact_half(nd: int) -> int:
    """Factorial of nd/2 where nd is an even, non-negative doubled integer."""
    if nd < 0 or nd % 2:
        raise ValueError("factorial argument must be a non-negative integer")
    return math.factorial(nd // 2)


def _cg_sq(j1d: int, m1d: int, j2d: int, m2d: int, jd: int, md: int) -> Fraction:
    """Square of the Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> via the
    Racah sum, on doubled-integer arguments, as an exact rational."""
    if md != m1d + m2d:
        return Fraction(0)
    if not (abs(j1d - j2d) <= jd <= j1d + j2d) or (j1d + j2d + jd) % 2:
        return Fraction(0)
    if abs(m1d) > j1d or abs(m2d) > j2d or abs(md) > jd:
        return Fraction(0)

    pref = Fraction(
        (jd + 1)
        * _fact_half(j1d + j2d - jd) * _fact_half(j1d - j2d + jd) * _fact_half(-j1d + j2d + jd)
        * _fact_half(jd + md) * _fact_half(jd - md)
        * _fact_half(j1d - m1d) * _fact_half(j1d + m1d)
        * _fact_half(j2d - m2d) * _fact_half(j2d + m2d),
        _fact_half(j1d + j2d + jd + 2),
    )
    total = Fraction(0)
    kd = 0
    while True:
        args = (kd, j1d + j2d - jd - kd, j1d - m1d - kd, j2d + m2d - kd,
                jd - j2d + m1d + kd, jd - j1d - m2d + kd)
        if args[1] < 0 and args[2] < 0 and args[3] < 0:
            break
        if all(x >= 0 for x in args):
            den = 1
            for x in args:
                den *= _fact_half(x)
            total += Fraction((-1) ** (kd // 2), den)
        kd += 2
    return pref * total * total


@dataclass(frozen=True)
class TransitionDiagram:
    """Sublevel-resolved M1 transition strengths between two nuclear levels.

    strengths maps (mu_e, mu_g) pairs (as Fractions) to exact rational
    weights, normalized so the downward strengths from each excited sublevel
    sum to 1.
    """

    jg2: int
    je2: int
    strengths: Mapping[tuple[Fraction, Fraction], Fraction]

    def downward_sum(self, mu_e) -> Fraction:
        mu = Fraction(mu_e)
        return sum((w for (me, _), w in self.strengths.items() if me == mu), Fraction(0))

    def upward_sum(self, mu_g) -> Fraction:
        mu = Fraction(mu_g)
        return sum((w for (_, mg), w in self.strengths.items() if mg == mu), Fraction(0))


def transition_diagram(j_g, j_e) -> TransitionDiagram:
    """Strength diagram for an M1 pair (j_g, j_e) with |j_e - j_g| = 1.

    Entries are the squared coefficients <j_g mu_g; 1 q | j_e mu_e>^2 over
    |q| <= 1; each excited sublevel's entries sum to 1 by orthonormality.
    """
    jg_d = _doubled(j_g, "j_g")
    je_d = _doubled(j_e, "j_e")
    if jg_d <= 0 or je_d <= 0 or jg_d % 2 == 0 or je_d % 2 == 0:
        raise ValueError("spins must be positive half-integers")
    if abs(je_d - jg_d) != 2:
        raise ValueError("only |j_e - j_g| = 1 dipole pairs are supported")

    strengths: dict[tuple[Fraction, Fraction], Fraction] = {}
    for mue_d in range(-je_d, je_d + 1, 2):
        for mug_d in range(mue_d - 2, mue_d + 3, 2):
            w = _cg_sq(jg_d, mug_d, 2, mue_d - mug_d, je_d, mue_d)
            if w:
                strengths[(Fraction(mue_d, 2), Fraction(mug_d, 2))] = w
    return TransitionDiagram(jg2=jg_d, je2=je_d, strengths=strengths)


@functools.lru_cache(maxsize=64)
def coherent_fraction(j_g, j_e) -> Fraction:
    """Arithmetic mean of the nonzero downward strengths, as an exact rational.

    Cached on (j_g, j_e): the result depends on the two spins alone and is an
    immutable Fraction, so every caller can share it.
    """
    diagram = transition_diagram(j_g, j_e)
    weights = list(diagram.strengths.values())
    return sum(weights, Fraction(0)) / len(weights)


# ---------------------------------------------------------------------------
# nuclide records


@dataclass(frozen=True)
class NuclideRecord:
    """Level data for one resonant nuclide.

    jg2 and je2 are the doubled total angular momenta (exact half-integer
    bookkeeping); branch_divisor is an extra radiative-rate reduction applied
    on top of the internal-conversion and coherent-fraction factors, stored as
    data because no closed formula fixes it.
    """

    name: str
    e0_keV: float
    lifetime_s: float
    alpha_ic: float
    jg2: int
    je2: int
    branch_divisor: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("name must be non-empty")
        for tag in ("e0_keV", "lifetime_s", "alpha_ic", "branch_divisor"):
            if not math.isfinite(getattr(self, tag)):
                raise ValueError(f"{tag} must be finite")
        if not self.e0_keV > 0:
            raise ValueError("e0_keV must be positive")
        if not self.lifetime_s > 0:
            raise ValueError("lifetime_s must be positive")
        if self.alpha_ic < 0:
            raise ValueError("alpha_ic must be non-negative")
        if self.branch_divisor < 1:
            raise ValueError("branch_divisor must be >= 1")
        for tag, jd in (("jg2", self.jg2), ("je2", self.je2)):
            if not isinstance(jd, int) or jd <= 0 or jd % 2 == 0:
                raise ValueError(f"{tag} must be a positive odd integer (doubled half-integer)")
        if abs(self.je2 - self.jg2) != 2:
            raise ValueError("|j_e - j_g| must equal 1 (M1 dipole selection)")

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

    @property
    def coherent_fraction(self) -> Fraction:
        return coherent_fraction(self.j_g, self.j_e)


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


def registry(extra_files: Iterable[str] = ()) -> dict[str, NuclideRecord]:
    """Name -> record mapping: built-in nuclides plus optional data files.

    Later files override earlier entries of the same name.  A fresh dict is
    returned on every call, so the mapping is read-only by construction.
    """
    out = {rec.name: rec for rec in builtin_records()}
    for path in extra_files:
        for rec in parse_nuclide_file(path):
            out[rec.name] = rec
    return out


# ---------------------------------------------------------------------------
# key/value data files


class DataFileError(ValueError):
    """Malformed data file; message carries the path and 1-based line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def parse_kv_blocks(text: str, path: str = "<data>") -> list[tuple[int, dict[str, str]]]:
    """Parse blank-line-separated blocks of "key = value" lines.

    Full-line and trailing '#' comments are stripped.  Returns a list of
    (first_line_number, mapping) pairs; duplicate keys within a block and
    malformed lines raise DataFileError with the offending line number.
    """
    blocks: list[tuple[int, dict[str, str]]] = []
    current: dict[str, str] = {}
    start = 0
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            if current:
                blocks.append((start, current))
                current = {}
            continue
        if "=" not in line:
            raise DataFileError(path, lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise DataFileError(path, lineno, "expected 'key = value'")
        if key in current:
            raise DataFileError(path, lineno, f"duplicate key '{key}' in block")
        if not current:
            start = lineno
        current[key] = value
    if current:
        blocks.append((start, current))
    return blocks


def parse_record_file(path, fields: Mapping[str, Callable[[str], object]],
                      build: Callable[[dict], object], optional: tuple[str, ...] = ()) -> list:
    """Read one record per key/value block of a data file.

    fields maps each allowed key to the converter for its value; every key
    not listed in optional is required.  build turns the converted mapping
    into a record.  Unknown or missing keys, unconvertible values and a
    ValueError from build raise DataFileError at the block's first line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    records = []
    for start, block in parse_kv_blocks(text, str(path)):
        for key in block:
            if key not in fields:
                raise DataFileError(str(path), start, f"unknown key '{key}'")
        for key in fields:
            if key not in block and key not in optional:
                raise DataFileError(str(path), start, f"missing key '{key}'")
        values = {}
        for key, raw in block.items():
            try:
                values[key] = fields[key](raw)
            except ValueError:
                raise DataFileError(str(path), start,
                                    f"bad value for '{key}': {raw!r}") from None
        try:
            records.append(build(values))
        except ValueError as exc:
            raise DataFileError(str(path), start, str(exc)) from None
    return records


_NUCLIDE_FIELDS = {
    "name": str,
    "e0_keV": float,
    "lifetime_s": float,
    "alpha_ic": float,
    "jg2": int,
    "je2": int,
    "branch_divisor": float,
}


def parse_nuclide_file(path: str) -> list[NuclideRecord]:
    """Load nuclide records from a key/value data file."""
    return parse_record_file(path, _NUCLIDE_FIELDS, lambda v: NuclideRecord(**v),
                             optional=("branch_divisor",))
