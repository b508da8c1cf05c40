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

Input from outside is checked here, by one checker: config blocks, data-file
blocks and both record types have a table of Param rows (NUCLIDE for
nuclides.dat), and _validate_block checks each value against its row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .numerics import CONSTANTS
from .probe import BETA_MIN

__all__ = [
    "NuclideRecord",
    "DataFileError",
    "coherent_fraction",
    "radiative_rate",
    "builtin_records",
    "registry",
    "parse_nuclide_file",
    "parse_kv_blocks",
    "parse_record_file",
]

# ---------------------------------------------------------------------------
# coherent fraction, on doubled integers so it stays exact


def _dipole_pair(j_g, j_e) -> tuple[int, int]:
    """Doubled spins of an M1 pair: positive half-integers, |j_e - j_g| = 1."""
    jg_d, je_d = 2 * Fraction(j_g), 2 * Fraction(j_e)
    if not (jg_d > 0 and je_d > 0 and jg_d.denominator == je_d.denominator == 1
            and jg_d % 2 == je_d % 2 == 1):
        raise ValueError("spins must be positive half-integers, got %s and %s" % (j_g, j_e))
    if abs(je_d - jg_d) != 2:
        raise ValueError("only |j_e - j_g| = 1 dipole pairs are supported")
    return int(jg_d), int(je_d)


@functools.lru_cache(maxsize=64)
def coherent_fraction(j_g, j_e) -> Fraction:
    """Mean of the nonzero M1 strengths, (2 j_e + 1) / (3 (2 min(j_g, j_e) + 1)).

    Exact for any half-integer pair with |j_e - j_g| = 1 (see the module
    docstring).  Cached on (j_g, j_e): the result depends on the two spins
    alone and is an immutable Fraction, so every caller can share it.
    """
    jg_d, je_d = _dipole_pair(j_g, j_e)
    return Fraction(je_d + 1, 3 * (min(jg_d, je_d) + 1))


# ---------------------------------------------------------------------------
# checked input: one table of rows per config block, data file and record


class Param(NamedTuple):
    """A default of None lets an explicit null through, REQUIRED makes the key
    mandatory; a callable bound is evaluated as bound(block so far, films)."""

    name: str
    kind: str
    default: Any
    bound: Any = None


REQUIRED = "required"


def _as_number(v) -> float | None:
    """Coerce a YAML scalar or data-file text to float; tolerates '9.4e8'-style
    strings, which YAML 1.1 loads as text because the exponent lacks a sign."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        return None
    try:
        return float(v)
    except ValueError:
        return None
    except OverflowError:  # an integer beyond the double range
        return math.inf if v > 0 else -math.inf


def _coerce(kind, v, bound, at):
    """Check a given, non-null value against its kind and bound; returns it
    normalised, or raises ValueError carrying the message for path `at`."""
    if kind in ("positive", "number"):  # bound: None or inclusive (lo, hi), None for no limit
        num = _as_number(v)
        lo, hi = bound or (None, None)
        if num is None or (kind == "positive" and not num > 0):
            raise ValueError(at + (": must be a number" if num is None
                                   else ": must be positive"))
        if not math.isfinite(num):
            raise ValueError(at + ": must be finite")
        if lo is not None and num < lo:
            raise ValueError("%s: must be at least %g" % (at, lo))
        if hi is not None and num > hi:
            raise ValueError("%s: must be at most %g" % (at, hi))
        return num
    if kind == "beta":
        num = _as_number(v)
        if num is None or not BETA_MIN <= num < 1.0:
            raise ValueError("%s: must be a number in [%g, 1)" % (at, BETA_MIN))
        return num
    if kind == "increasing":  # a non-empty list; bound is its values' (kind, bound)
        if not isinstance(v, list) or not v:
            raise ValueError("%s: must be a non-empty list" % at)
        out = [_coerce(bound[0], x, bound[1], "%s[%d]" % (at, i)) for i, x in enumerate(v)]
        if any(b <= a for a, b in zip(out, out[1:])):
            raise ValueError("%s: values must be strictly increasing" % at)
        return out
    if kind == "bool" and not isinstance(v, bool):
        raise ValueError("%s: must be a boolean" % at)
    if kind in ("int", "nonzero") and (not isinstance(v, int) or isinstance(v, bool)):
        raise ValueError("%s: must be an integer" % at)
    if kind == "int" and v < bound[0]:  # (lo, hi) inclusive
        raise ValueError("%s: must be at least %d" % (at, bound[0]))
    if kind == "int" and v > bound[1]:
        raise ValueError("%s: must be at most %d" % (at, bound[1]))
    if kind == "nonzero" and v == 0:
        raise ValueError("%s: must be non-zero" % at)
    if kind == "nonzero" and abs(v) > bound:
        raise ValueError("%s: must be at most %d in magnitude" % (at, bound))
    if kind == "choice" and v not in bound:
        raise ValueError("%s: must be %s" % (at, " or ".join(bound)))
    if kind == "lattice" and (not isinstance(v, str) or v not in bound):
        raise ValueError("%s: unknown lattice %r (available: %s)"
                         % (at, v, ", ".join(sorted(bound))))
    if kind == "prefix" and (not isinstance(v, str) or not v
                             or not all(c.isalnum() or c in "_-." for c in v)):
        raise ValueError("%s: must use only letters, digits, '_', '-', '.'" % at)
    if kind == "prefix" and v in (bound or ()):  # bound: None or reserved words
        raise ValueError("%s: %r is reserved" % (at, v))
    return v


def _validate_block(path, rows, block, errors, films):
    """Check a block against its table of rows; returns the values by name,
    defaults applied, and appends a message per unknown or failing key, named
    path.key, or key alone for an empty path (a data-file block or record)."""
    p: dict[str, Any] = {}
    if not isinstance(block, (dict, type(None))):
        errors.append("%s: must be a mapping" % path)
        return p
    block = block or {}
    prefix = path + "." if path else ""
    names = {row.name for row in rows}
    errors.extend("%s%s: unknown key" % (prefix, key) for key in block if key not in names)
    for name, kind, default, bound in rows:
        if name not in block or (block[name] is None and default in (None, REQUIRED)):
            if default is REQUIRED:
                errors.append("%s%s: required" % (prefix, name))
            p[name] = default
            continue
        try:
            bound = bound(p, films) if callable(bound) else bound
            p[name] = _coerce(kind, block[name], bound, prefix + name)
        except ValueError as exc:
            errors.append(str(exc))
            p[name] = default
    return p


def _check_fields(rows, fields: dict) -> None:
    """A record's fields against its rows: one ValueError lists every problem."""
    errors: list[str] = []
    _validate_block("", rows, fields, errors, None)
    if errors:
        raise ValueError("; ".join(errors))


# A data-file name has an output prefix's characters, so a CSV cell holds it;
# 'all' selects every nuclide in a nuclide-info config, so no entry takes it.
NAME = Param("name", "prefix", REQUIRED, ("all",))
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
    # four-digit columns; _dipole_pair checks odd values a dipole step apart
    Param("jg2", "int", REQUIRED, (1, 9999)),
    Param("je2", "int", REQUIRED, (1, 9999)),
    # a further cut of the radiative rate, so at least 1; capped as alpha_ic
    Param("branch_divisor", "number", 1.0, (1.0, 1.0e10)),
)


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
        _check_fields(NUCLIDE, vars(self))
        try:  # coherent_fraction's spin rules, uncached, naming the fields
            _dipole_pair(self.j_g, self.j_e)
        except ValueError as exc:
            raise ValueError("jg2/je2: %s" % exc) from None

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


def registry() -> dict[str, NuclideRecord]:
    """Name -> record mapping of the built-in nuclides.

    A fresh dict is returned on every call, so a caller may overlay data-file
    records on it (cli does) without touching the built-ins.
    """
    return {rec.name: rec for rec in builtin_records()}


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
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (key and eq and value):
            raise DataFileError(path, lineno, "expected 'key = value'")
        if key in current:
            raise DataFileError(path, lineno, f"duplicate key '{key}' in block")
        if not current:
            start = lineno
        current[key] = value
    if current:
        blocks.append((start, current))
    return blocks


def _from_text(kind, text: str):
    """Data-file text as a config holds it: int(text) for an int row."""
    try:
        return int(text) if kind == "int" else text
    except ValueError:
        return text


def parse_record_file(path, rows, build: Callable[[dict], object]) -> list:
    """One record per key/value block of a data file, built by build from the
    block's values checked against rows.  Every problem of a block (a failing
    key, a name an earlier block has, a ValueError from build) goes into one
    DataFileError at the block's first line."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    kinds = {row.name: row.kind for row in rows}
    records, first_line = [], {}
    for start, block in parse_kv_blocks(text, str(path)):
        errors: list[str] = []
        values = _validate_block("", rows, {key: _from_text(kinds.get(key), raw)
                                            for key, raw in block.items()}, errors, None)
        name = values["name"]
        if name in first_line:
            errors.append("name: %r repeats the block at line %d" % (name, first_line[name]))
        if not errors:
            try:
                records.append(build(values))
            except ValueError as exc:
                errors.append(str(exc))
        if errors:
            raise DataFileError(str(path), start, "; ".join(errors))
        first_line[name] = start
    return records


def parse_nuclide_file(path) -> dict[str, NuclideRecord]:
    """Read nuclide records from key = value blocks separated by blank lines."""
    return {rec.name: rec for rec in parse_record_file(path, NUCLIDE,
                                                       lambda v: NuclideRecord(**v))}
