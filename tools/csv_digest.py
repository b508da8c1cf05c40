"""Print one SHA-256 per CSV that the shipped configs write, and one over all
of them, so that a change can be checked to keep every table's rows byte for
byte against another tree:

    python3 tools/csv_digest.py

Each config in configs/ is validated and run with the nucsp of this tree's
src/ and the built-in nuclides and lattices, as `nucsp run` runs it without
NUCSP_DATA_DIR; nothing is written.  A table's digest covers the CSV text
that `nucsp run` writes, header and data rows, with the `#` metadata lines
skipped (they hold the timestamp, the version and the config's own hash).
The overall digest covers the lines printed before it, in table-name order.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nucsp.scenarios import run_scenario, validate_config  # noqa: E402


def main() -> None:
    digests = {}
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        config, errors = validate_config(path.read_text(encoding="utf-8"))
        if errors:
            sys.exit("%s: %s" % (path, "; ".join(errors)))
        for table in run_scenario(config):
            rows = [line for line in table.to_csv().splitlines(keepends=True)
                    if not line.startswith("#")]
            digests[table.name + ".csv"] = hashlib.sha256("".join(rows).encode()).hexdigest()
    lines = ["%s  %s\n" % (digests[name], name) for name in sorted(digests)]
    print("".join(lines), end="")
    print("%s  %d tables" % (hashlib.sha256("".join(lines).encode()).hexdigest(), len(lines)))


if __name__ == "__main__":
    main()
