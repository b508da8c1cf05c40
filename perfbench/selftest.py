"""Self-test of the benchmark harness.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload for one pass, untraced and traced, and requires: exit
code 0, no failed operation, exactly the metrics BENCHMARK.json lists with
their units, and the layer split the workloads were chosen for. Also
requires that the benchmark refuses to run without the nucsp sources.
Takes about three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s"
                             % (workload, trace, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        (workload, trace, result, proc.stderr)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}, (workload, trace)
    return {k: v["value"] for k, v in result["metrics"].items()}


def traced_self_times(m: dict) -> dict:
    """Self times of the spans recorded in the traced passes."""
    setup_side = ("nuclide.registry.self_s", "scenarios.validate_config.self_s")
    return {k: v for k, v in m.items() if k.endswith(".self_s") and k not in setup_side}


def largest(m: dict) -> str:
    times = traced_self_times(m)
    return max(times, key=times.get)


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    plain = {w: run(w, 0) for w in names}
    traced = {w: run(w, 1) for w in names}
    for w in names:
        print("%-12s %s" % (w, plain[w]))

    assert traced["film"]["numerics.bessel.calls"] == 0
    assert traced["film-smooth"]["numerics.bessel.calls"] == 0
    assert largest(traced["film"]) == "crystal_sp.azimuthal_profile.self_s", traced["film"]
    assert largest(traced["session"]) == "nuclide.coherent_fraction.self_s", traced["session"]
    mc = traced["plane-mc"]
    share = mc["numerics.bessel.self_s"] / sum(traced_self_times(mc).values())
    assert share >= 0.9, share
    assert traced["session"]["crystal_sp.azimuthal_profile.calls"] == 0
    assert traced["plane-mc"]["nuclide.coherent_fraction.calls"] == 0
    assert plain["film-smooth"]["peak_rss_mb"] > plain["film"]["peak_rss_mb"]

    # without the sources next to it the benchmark must fail, not fall back
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(tmp) / SPEC["command"][1]), "--workload", names[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout

    print("selftest passed: bessel share of plane-mc self time %.1f%%" % (100 * share))
    return 0


if __name__ == "__main__":
    sys.exit(main())
