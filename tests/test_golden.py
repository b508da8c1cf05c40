"""Golden outputs: each shipped config reproduces the tables in
tests/data/golden/, recorded from commit ab7a836 with `nucsp run <config>`.

Cells agree to 1e-12 relative, with an absolute slack of 1e-12 times the
column's largest magnitude for cells near a zero of the column; text cells,
headers and the metadata other than the timestamp must match exactly.  A
refactor that keeps these passing keeps the program's outputs.
"""

from pathlib import Path

import pytest

from nucsp.scenarios import parse_result_table, run_scenario, validate_config

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
RTOL = 1e-12
ATOL_SHARE = 1e-12


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(text, golden_text, name):
    meta, columns, rows = parse_result_table(text)
    want_meta, want_columns, want_rows = parse_result_table(golden_text)
    meta.pop("timestamp")
    want_meta.pop("timestamp")
    assert (meta, columns) == (want_meta, want_columns), name
    assert len(rows) == len(want_rows), name
    for j, col in enumerate(zip(*want_rows)):
        scale = max((abs(v) for v in map(_number, col) if v is not None), default=0.0)
        for i, want in enumerate(col):
            got, ref = _number(rows[i][j]), _number(want)
            if ref is None or got is None:
                assert rows[i][j] == want, (name, i, j)
            else:
                assert abs(got - ref) <= RTOL * abs(ref) + ATOL_SHARE * scale, \
                    (name, i, j, got, ref)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_shipped_config_matches_golden(path):
    config, errors = validate_config(path.read_text(encoding="utf-8"))
    assert errors == []
    tables = run_scenario(config)
    names = sorted(p.stem for p in GOLDEN.glob(config.prefix + "*.csv"))
    assert sorted(t.name for t in tables) == names
    for table in tables:
        golden = (GOLDEN / (table.name + ".csv")).read_text(encoding="utf-8")
        _compare(table.to_csv(), golden, table.name)
