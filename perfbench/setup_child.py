"""One fresh-process set-up, as a CLI run does it before any work.

Usage: python3 setup_child.py CONFIG...

Imports nucsp from the checkout, builds the nuclide registry and the film
presets, validates each config file, and prints the time of each step as
one JSON line. Exits 1 if a config does not validate.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import nucsp  # noqa: E402
from nucsp import scenarios  # noqa: E402

t1 = time.perf_counter()
reg = nucsp.registry()
t2 = time.perf_counter()
films = nucsp.builtin_presets()
t3 = time.perf_counter()
for path in sys.argv[1:]:
    config, errors = scenarios.validate_config(Path(path).read_text(encoding="utf-8"),
                                               reg, films)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        sys.exit(1)
t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "registry_s": t2 - t1,
                  "presets_s": t3 - t2, "validate_s": t4 - t3}))
