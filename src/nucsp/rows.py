"""Input from outside is checked here, by one checker: config blocks,
data-file blocks, the four library records (NuclideRecord, LatticeFilm,
Probe, CutoffPolicy) and the checked arguments of library calls have a table
of Param rows, and _coerce checks each value against its row.  The key/value
data files are read here too.
"""

import math
import numbers
from typing import Any, Callable, NamedTuple

__all__ = ["DataFileError", "parse_kv_blocks", "parse_record_file"]


class Param(NamedTuple):
    """A default of None lets an explicit null through, REQUIRED makes the key
    mandatory, any other is checked as a given value; a callable bound is
    evaluated as bound(block so far, ctx)."""

    name: str
    kind: str
    default: Any
    bound: Any = None


REQUIRED = "required"

# A data-file name has an output prefix's characters, so a CSV cell holds it;
# 'all' selects every nuclide in a nuclide-info config, so no entry takes it.
NAME = Param("name", "prefix", REQUIRED, ("all",))


def _as_number(v) -> float | None:
    """Coerce a YAML scalar or data-file text to float; tolerates '9.4e8'-style
    strings, which YAML 1.1 loads as text because the exponent lacks a sign."""
    if isinstance(v, bool) or not isinstance(v, (numbers.Integral, float, str)):
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
    if kind == "beta":  # bound: the floor; a speed is below 1
        num = _as_number(v)
        if num is None or not bound <= num < 1.0:
            raise ValueError("%s: must be a number in [%g, 1)" % (at, bound))
        return num
    if kind == "increasing":  # a non-empty list; bound is the row its values pass
        if not isinstance(v, list) or not v:
            raise ValueError("%s: must be a non-empty list" % at)
        out = [_coerce(bound.kind, x, bound.bound, "%s[%d]" % (at, i)) for i, x in enumerate(v)]
        if any(b <= a for a, b in zip(out, out[1:])):
            raise ValueError("%s: values must be strictly increasing" % at)
        return out
    if kind == "bool" and not isinstance(v, bool):
        raise ValueError("%s: must be a boolean" % at)
    if kind in ("int", "nonzero") and (not isinstance(v, numbers.Integral) or isinstance(v, bool)):
        raise ValueError("%s: must be an integer" % at)
    if kind == "int" and v < bound[0]:  # (lo, hi) inclusive, hi None for no limit
        raise ValueError("%s: must be at least %d" % (at, bound[0]))
    if kind == "int" and bound[1] is not None and v > bound[1]:
        raise ValueError("%s: must be at most %d" % (at, bound[1]))
    if kind == "nonzero" and v == 0:
        raise ValueError("%s: must be non-zero" % at)
    if kind == "nonzero" and abs(v) > bound:
        raise ValueError("%s: must be at most %d in magnitude" % (at, bound))
    if kind == "choice" and (not isinstance(v, str) or v not in bound):  # bound: the names
        raise ValueError("%s: unknown %r (available: %s)" % (at, v, ", ".join(bound)))
    if kind == "prefix" and (not isinstance(v, str) or not v
                             or not all(c.isalnum() or c in "_-." for c in v)):
        raise ValueError("%s: must use only letters, digits, '_', '-', '.'" % at)
    if kind == "prefix" and v in (bound or ()):  # bound: None or reserved words
        raise ValueError("%s: %r is reserved" % (at, v))
    return v


def _validate_block(path, rows, block, errors, ctx):
    """Check a block against its table of rows; returns the values by name,
    defaults applied, and appends a message per unknown or failing key, named
    path.key, or key alone for an empty path (a data-file block);
    callable bounds read ctx, {"registry": ..., "films": ...} for a config."""
    p: dict[str, Any] = {}
    if not isinstance(block, (dict, type(None))):
        errors.append("%s: must be a mapping" % path)
        return p
    block = block or {}
    prefix = path + "." if path else ""
    names = {row.name for row in rows}
    errors.extend("%s%s: unknown key" % (prefix, key) for key in block if key not in names)
    for name, kind, default, bound in rows:
        if block.get(name) is None and default in (None, REQUIRED):
            if default is REQUIRED:
                errors.append("%s%s: required" % (prefix, name))
            p[name] = default
            continue
        try:
            bound = bound(p, ctx) if callable(bound) else bound
            p[name] = _coerce(kind, block.get(name, default), bound, prefix + name)
        except ValueError as exc:
            errors.append(str(exc))
            p[name] = default
    return p


def _check_fields(rows, fields: dict) -> None:
    """A record's fields against its rows, each required and no number given as
    text, which _validate_block reads for configs: one ValueError lists all."""
    errors: list[str] = []
    for name, kind, _, bound in rows:
        v = fields[name]
        try:
            if v is None or isinstance(v, str) and kind in ("positive", "number", "beta"):
                raise ValueError(name + (": required" if v is None else ": must be a number"))
            _coerce(kind, v, bound, name)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ValueError("; ".join(errors))


class DataFileError(ValueError):
    """Malformed data file; message carries the path and 1-based line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


def parse_kv_blocks(text: str, path: str = "<data>") -> list[tuple[int, dict[str, str]]]:
    """Parse blank-line-separated blocks of "key = value" lines.

    Full-line and trailing '#' comments are stripped.  Returns a list of
    (first_line_number, mapping) pairs; duplicate keys within a block and
    malformed lines raise DataFileError with the offending line number.
    """
    blocks: list[tuple[int, dict[str, str]]] = []
    current: dict[str, str] | None = None  # the block being read, listed at its start
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            current = None
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (key and eq and value):
            raise DataFileError(path, lineno, "expected 'key = value'")
        if current is None:
            current = {}
            blocks.append((lineno, current))
        if key in current:
            raise DataFileError(path, lineno, f"duplicate key '{key}' in block")
        current[key] = value
    return blocks


def _from_text(kind, text: str):
    """Data-file text as a config holds it: int(text) for an int row."""
    try:
        return int(text) if kind == "int" else text
    except ValueError:
        return text


def parse_record_file(path, rows, build: Callable[[dict], object]) -> list:
    """One record per key/value block of a data file, built by build from the
    block's values checked against rows, which include NAME.  Every problem
    of a block (a failing key, a name an earlier block has, a ValueError from
    build) goes into one DataFileError at the block's first line."""
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
