"""nucsp benchmark: seeded workloads driven through the library's public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload film --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

One run measures one workload for ``--seconds`` seconds in this process:

* set-up: a warm-up and then several fresh processes (``setup_child.py``)
  each import nucsp, build the registries and validate the workload's
  configs;
* passes: operations drawn from ``--seed`` are run back to back, and every
  output is checked (``workloads.check``) after its pass is timed.

Times are calibrated for host speed (``calibrate.py``): each operation's and
each set-up process's wall time is rescaled by how slowly a fixed kernel ran
around it. With ``--trace 0`` the result reports the end-to-end metrics:
``wall_s`` (median calibrated pass time), ``setup_s`` (median calibrated
set-up process time) and ``peak_rss_mb`` (peak resident memory of this
process); the raw medians are printed as ``wall_raw_s`` and ``setup_raw_s``.
With ``--trace 1`` each draw runs three times: untraced, traced
(``spans.Tracer``) and with ``threads=2``; the result reports per-layer counts
and self times per pass, the tracing overhead and the two-thread speed-up.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics. Exits 2 without a
result if the nucsp sources are not in ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("film", "film-smooth", "session", "plane-mc")
SETUP_RUNS = 7
# One process with at most two threads: BLAS pools stay single-threaded and
# only the threads=2 comparison starts a second thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _say(name, value, unit, note=""):
    print("  %-42s %14.6g %-6s %s" % (name, value, unit, note))


def measure_setup(ops, work: Path, cal) -> dict:
    """Samples of fresh-process set-up for the given ops.

    ``setup_raw_s`` holds each process's wall time, ``setup_s`` the same
    calibrated with the interpreter kernel run before and after it.
    """
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        if getattr(op, "text", None) is not None:
            path = work / ("%d.yaml" % i)
            path.write_text(op.text, encoding="utf-8")
            paths.append(str(path))
    cmd = [sys.executable, str(HERE / "setup_child.py")] + paths
    samples: dict = {"setup_raw_s": [], "setup_s": []}
    before = cal.measure("python")
    for k in range(SETUP_RUNS + 1):       # the first run only warms caches
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        after = cal.measure("python")
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: %s" % proc.stderr.strip())
        if k > 0:
            samples["setup_raw_s"].append(wall)
            samples["setup_s"].append(cal.calibrated(wall, "python", before, after))
            for key, val in json.loads(proc.stdout.splitlines()[-1]).items():
                samples.setdefault(key, []).append(val)
        before = after
    return samples


class Runner:
    """Runs passes, checks their outputs and counts operations."""

    def __init__(self, wl, cal, ctx, refs, work: Path, kind: str):
        self.wl, self.cal, self.ctx, self.refs = wl, cal, ctx, refs
        self.work, self.kind = work, kind
        self.attempted = 0
        self.failed = 0
        self.kernel_s: list[float] = []

    def _fail(self, op, message):
        self.failed += 1
        print("FAILED %s: %s" % (op.label, message), file=sys.stderr)

    def run_pass(self, ops, tag: str, threads: int = 1, tracer=None):
        """Time one pass.

        Returns (wall seconds, calibrated seconds, per-op results or errors).
        The calibration kernel runs between operations, outside their times.
        """
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        calls = []
        for i, op in enumerate(ops):
            try:
                calls.append((op, self.wl.prepare(op, self.ctx), out / str(i)))
            except self.wl.CheckError as exc:
                calls.append((op, exc, None))

        def one(call):
            op, prepared, out_dir = call
            if isinstance(prepared, Exception):
                return prepared
            try:
                return self.wl.execute(op, prepared, self.ctx, out_dir, threads)
            except Exception:        # reported and counted by check()
                return RuntimeError(traceback.format_exc())

        # Independent Monte-Carlo directions share a two-thread pool, as
        # scenarios map independent rows onto theirs; scenario ops get the
        # thread count themselves.
        mc_pool = threads > 1 and isinstance(ops[0], self.wl.PlaneMcOp)
        groups = [calls] if mc_pool else [[c] for c in calls]
        wall = scaled = 0.0
        results = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            mapper = pool.map if mc_pool else map
            before = self.cal.measure(self.kind)
            self.kernel_s.append(before)
            for group in groups:
                with tracer or contextlib.nullcontext():
                    t0 = time.perf_counter()
                    results.extend(mapper(one, group))
                    dt = time.perf_counter() - t0
                after = self.cal.measure(self.kind)
                self.kernel_s.append(after)
                wall += dt
                scaled += self.cal.calibrated(dt, self.kind, before, after)
                before = after
        return wall, scaled, results

    def check(self, ops, results):
        for op, res in zip(ops, results):
            self.attempted += 1
            if isinstance(res, Exception):
                self._fail(op, res)
                continue
            try:
                self.wl.check(op, res, self.refs, self.ctx)
            except self.wl.CheckError as exc:
                self._fail(op, exc)

    def check_same(self, ops, base, other):
        """Count an error where the threads=2 output differs from threads=1."""
        for op, a, b in zip(ops, base, other):
            if isinstance(a, Exception) or isinstance(b, Exception):
                continue              # already counted by check()
            if isinstance(op, self.wl.PlaneMcOp):
                same = a == b
            else:
                same = self.wl.csv_without_timestamp(a) == self.wl.csv_without_timestamp(b)
            if not same:
                self._fail(op, "output with threads=2 differs from threads=1")


def run_workload(args) -> int:
    import numpy as np

    import calibrate
    import spans
    import workloads as wl

    inputs = wl.passes(args.workload, np.random.default_rng(args.seed))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT))
    cal = calibrate.Calibrator(wl.CALIBRATION[args.workload])
    try:
        ops = next(inputs)
        setup = measure_setup(ops, work / "setup", cal)
        runner = Runner(wl, cal, wl.Context(), wl.load_refs(), work,
                        wl.CALIBRATION[args.workload])
        print("workload %s  seed %d  seconds %g  trace %d"
              % (args.workload, args.seed, args.seconds, args.trace))
        if args.trace:
            metrics = traced_passes(args, runner, inputs, ops, setup, spans)
        else:
            metrics = timed_passes(args, runner, inputs, ops, setup)
    finally:
        cal.close()
        shutil.rmtree(work, ignore_errors=True)
    failed, attempted = runner.failed, runner.attempted
    _say("error_rate", failed / max(attempted, 1), "",
         "%d failed of %d operations" % (failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def timed_passes(args, runner, inputs, ops, setup) -> dict:
    walls, scaled = [], []
    start = time.perf_counter()
    while True:
        wall, calibrated, results = runner.run_pass(ops, "pass")
        runner.check(ops, results)
        walls.append(wall)
        scaled.append(calibrated)
        if (time.perf_counter() - start >= args.seconds
                and len(walls) >= runner.wl.MIN_PASSES.get(args.workload, 1)):
            break
        ops = next(inputs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, values in (("wall_raw_s", walls), ("wall_s", scaled)):
        q1, q3 = _quartiles(values)
        _say(name, statistics.median(values), "s",
             "median of %d passes, q1 %.4g q3 %.4g" % (len(values), q1, q3))
    for name in ("setup_raw_s", "setup_s"):
        q1, q3 = _quartiles(setup[name])
        _say(name, statistics.median(setup[name]), "s",
             "median of %d fresh processes, q1 %.4g q3 %.4g" % (len(setup[name]), q1, q3))
    _say("peak_rss_mb", peak_mb, "MB", "this process, 1 sample")
    _say("calibration kernel (%s)" % runner.kind, statistics.median(runner.kernel_s), "s",
         "median of %d, reference %g s" % (len(runner.kernel_s),
                                           runner.cal.REFERENCE_S[runner.kind]))
    return {"wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}


def traced_passes(args, runner, inputs, ops, setup, spans) -> dict:
    tracer = spans.Tracer()
    plain, traced, two = [], [], []
    start = time.perf_counter()
    while True:
        # ratios use calibrated times, which drift less between passes
        _, w1, r1 = runner.run_pass(ops, "t1")
        runner.check(ops, r1)
        _, wt, rt = runner.run_pass(ops, "traced", tracer=tracer)
        runner.check(ops, rt)
        _, w2, r2 = runner.run_pass(ops, "t2", threads=2)
        runner.check(ops, r2)
        runner.check_same(ops, r1, r2)
        plain.append(w1)
        traced.append(wt)
        two.append(w2)
        if time.perf_counter() - start >= args.seconds:
            break
        ops = next(inputs)
    trace_path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(trace_path)
    print("  spans written to %s" % trace_path.relative_to(ROOT))
    return layer_metrics(tracer, len(traced), setup, plain, traced, two)


def layer_metrics(tracer, n, setup, plain, traced, two) -> dict:
    """Per-layer metrics, per traced pass unless named otherwise."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    n_orders, g_total, g_terms, g_biggest = tracer.g_sums()
    med = statistics.median

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    bessel_points = counts["numerics.bessel.points_lo"] + counts["numerics.bessel.points_hi"]
    mc_samples = counts["finite_array.mc_plane_average.samples"]
    rows = [
        ("numerics.bessel.calls", calls.get("numerics.bessel", 0) / n, "count"),
        ("numerics.bessel.points_lo", counts["numerics.bessel.points_lo"] / n, "count"),
        ("numerics.bessel.points_hi", counts["numerics.bessel.points_hi"] / n, "count"),
        ("numerics.bessel.self_s", self_s.get("numerics.bessel", 0.0) / n, "s"),
        ("numerics.bessel.points_per_s",
         rate(bessel_points, self_s.get("numerics.bessel", 0.0)), "1/s"),
        ("numerics.integrate_periodic.calls",
         calls.get("numerics.integrate_periodic", 0) / n, "count"),
        ("numerics.integrate_periodic.evals",
         counts["numerics.integrate_periodic.evals"] / n, "count"),
        ("numerics.integrate_periodic.self_s",
         self_s.get("numerics.integrate_periodic", 0.0) / n, "s"),
        ("numerics.integrate_adaptive.calls",
         calls.get("numerics.integrate_adaptive", 0) / n, "count"),
        ("numerics.integrate_adaptive.self_s",
         self_s.get("numerics.integrate_adaptive", 0.0) / n, "s"),
        ("nuclide.coherent_fraction.calls",
         calls.get("nuclide.coherent_fraction", 0) / n, "count"),
        ("nuclide.coherent_fraction.self_s",
         self_s.get("nuclide.coherent_fraction", 0.0) / n, "s"),
        ("nuclide.registry.self_s", med(setup["registry_s"]), "s"),
        ("crystal_sp.emission_cones.calls",
         calls.get("crystal_sp.emission_cones", 0) / n, "count"),
        ("crystal_sp.azimuthal_profile.calls",
         calls.get("crystal_sp.azimuthal_profile", 0) / n, "count"),
        ("crystal_sp.azimuthal_profile.self_s",
         self_s.get("crystal_sp.azimuthal_profile", 0.0) / n, "s"),
        ("crystal_sp.g_vectors", g_total / n_orders if n_orders else 0.0, "count"),
        ("crystal_sp.g_terms", g_terms / n, "count"),
        ("crystal_sp.g_terms_per_s",
         rate(g_terms, self_s.get("crystal_sp.azimuthal_profile", 0.0)), "1/s"),
        ("crystal_sp.temp_mb_max", g_biggest * 8 / 1e6, "MB"),
        ("finite_array.far_field_amplitude.calls",
         calls.get("finite_array.far_field_amplitude", 0) / n, "count"),
        ("finite_array.far_field_amplitude.self_s",
         self_s.get("finite_array.far_field_amplitude", 0.0) / n, "s"),
        ("finite_array.angular_density.self_s",
         self_s.get("finite_array.angular_density", 0.0) / n, "s"),
        ("finite_array.mc_plane_average.samples", mc_samples / n, "count"),
        ("finite_array.mc_plane_average.self_s",
         self_s.get("finite_array.mc_plane_average", 0.0) / n, "s"),
        ("finite_array.mc_plane_average.samples_per_s",
         rate(mc_samples, tracer.inclusive("finite_array.mc_plane_average")), "1/s"),
        ("brems.br_spectral_density.calls",
         calls.get("brems.br_spectral_density", 0) / n, "count"),
        ("brems.br_spectral_density.self_s",
         self_s.get("brems.br_spectral_density", 0.0) / n, "s"),
        ("single_nucleus.coherent_yield.calls",
         calls.get("single_nucleus.coherent_yield", 0) / n, "count"),
        ("single_nucleus.coherent_yield.self_s",
         self_s.get("single_nucleus.coherent_yield", 0.0) / n, "s"),
        ("scenarios.validate_config.self_s", med(setup["validate_s"]), "s"),
        ("scenarios.run_scenario.self_s",
         self_s.get("scenarios.run_scenario", 0.0) / n, "s"),
        ("scenarios.write_tables.self_s",
         self_s.get("scenarios.write_tables", 0.0) / n, "s"),
        ("scenarios.write_tables.bytes", counts["scenarios.write_tables.bytes"] / n, "B"),
        ("scenarios.threads2_speedup", med([a / b for a, b in zip(plain, two)]), "ratio"),
        ("setup.import_s", med(setup["import_s"]), "s"),
        ("trace.overhead", med(traced) / med(plain) - 1.0, "ratio"),
    ]
    for name, value, unit in rows:
        _say(name, value, unit)
    print("  (%d traced passes; calibrated medians: untraced %.4g s, traced %.4g s,"
          " threads=2 %.4g s)"
          % (n, med(plain), med(traced), med(two)))
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def run_all(args) -> int:
    """Run every workload in its own process and print one summary table."""
    summary, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print("workload %s produced no result (exit %d)" % (name, proc.returncode))
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        summary.append((name, result))
    print("\nsummary (seed %d, %g s per workload)" % (args.seed, args.seconds))
    for name, result in summary:
        parts = ["%s %.4g %s" % (k, m["value"], m["unit"])
                 for k, m in result["metrics"].items()
                 if not args.trace or k in ("scenarios.threads2_speedup", "trace.overhead")]
        print("  %-12s error_rate %d/%d  %s" % (name, result["failed"], result["attempted"],
                                               "  ".join(parts)))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nucsp" / "__init__.py").is_file():
        print("error: nucsp sources not found under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
