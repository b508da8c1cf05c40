"""The output does not depend on the BLAS thread count.

src/ makes two BLAS products: the bremsstrahlung theta sum (brems) and the
Monte-Carlo site sums (finite_array).  OpenBLAS rounds some large products
differently with one thread and with two, so the contract rests on the
shapes and the summation order the library uses; this test guards it.  Two
settings only, 1 and 2, since a test must not start many threads.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Every shipped config's data rows, then the hex means of mc_plane_average
# over a grid of speeds and half extents, and at two more angles with and
# without the control variate
_SCRIPT = """
import sys
from pathlib import Path
from nucsp.finite_array import mc_plane_average
from nucsp.nuclide import registry
from nucsp.probe import electron
from nucsp.scenarios import run_scenario, validate_config

for path in sorted(Path(sys.argv[1]).glob("*.yaml")):
    config, errors = validate_config(path.read_text())
    assert not errors, errors
    for table in run_scenario(config):
        print(path.name, table.name, len(table.rows))
        print(*(l for l in table.to_csv().splitlines() if not l.startswith("#")), sep="\\n")
fe = registry()["Fe-57"]
for beta in (0.5, 0.9, 0.999):
    for h in (0, 2, 8, 20, 60):
        mean = mc_plane_average(electron(beta=beta), fe, 0.2856, h, 1.0, 0.3, 0.001, 1000)
        print("mc", beta, h, mean.hex())
for beta, th, ph, cv in ((0.9, 1.0, 0.3, True), (0.99, 2.2, 5.0, False)):
    mean = mc_plane_average(electron(beta=beta), fe, 0.2856, 20, th, ph, 0.001, 4000,
                            seed=2, control_variate=cv)
    print("mc", beta, th, ph, cv, mean.hex())
"""


def test_output_does_not_depend_on_blas_threads():
    src = str(ROOT / "src")
    procs = []
    for threads in ("1", "2"):  # both at once: they share no state
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        procs.append(subprocess.Popen([sys.executable, "-c", _SCRIPT, str(ROOT / "configs")],
                                      env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True))
    outs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outs.append(out)
    finally:
        for proc in procs:
            proc.kill()  # a no-op once it has exited
    lines = outs[0].splitlines()
    assert sum(line.startswith("mc ") for line in lines) == 17
    assert len(lines) > 17 + 5 * 50  # every config wrote its rows
    assert outs[0] == outs[1]
