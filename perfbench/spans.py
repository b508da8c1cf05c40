"""Spans around the calls into nucsp's modules, recorded from outside.

``from .numerics import bessel_k1`` binds the name in the importing module
at import time, so a function is wrapped at every module that binds it.
While a ``Tracer`` is active each wrapped call records a span (name, start,
end, parent) in memory; counters are taken outside the span they describe,
so their cost lands in the parent span and in ``trace.overhead``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from nucsp import brems, crystal_sp, finite_array, nuclide, scenarios, single_nucleus
from nucsp.crystal_sp import reciprocal_vectors

# (module, attribute, span name). Every site that binds the function is
# listed, so calls through any import path are seen.
SITES = (
    (finite_array, "bessel_k1", "numerics.bessel"),
    (single_nucleus, "bessel_k1", "numerics.bessel"),
    (brems, "bessel_k01", "numerics.bessel"),
    (crystal_sp, "integrate_periodic", "numerics.integrate_periodic"),
    (finite_array, "integrate_adaptive", "numerics.integrate_adaptive"),
    # NuclideRecord.coherent_fraction looks the module global up per call
    (nuclide, "coherent_fraction", "nuclide.coherent_fraction"),
    (scenarios, "nuclide_registry", "nuclide.registry"),
    (scenarios, "emission_cones", "crystal_sp.emission_cones"),
    (crystal_sp, "azimuthal_profile", "crystal_sp.azimuthal_profile"),
    (scenarios, "angular_density", "finite_array.angular_density"),
    (finite_array, "far_field_amplitude", "finite_array.far_field_amplitude"),
    (finite_array, "mc_plane_average", "finite_array.mc_plane_average"),
    (scenarios, "br_window_yield", "brems.br_window_yield"),
    (scenarios, "br_spectral_density", "brems.br_spectral_density"),
    (brems, "br_spectral_density", "brems.br_spectral_density"),
    (scenarios, "coherent_yield", "single_nucleus.coherent_yield"),
    (scenarios, "run_scenario", "scenarios.run_scenario"),
    (scenarios, "write_tables", "scenarios.write_tables"),
)

_BESSEL_SPLIT = 2.0   # series branch below, continued fraction above


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.profiles: list[tuple] = []   # (film, order, policy, n_phi)
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def __enter__(self):
        for module, attr, name in SITES:
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, name))
            self._installed.append((module, attr, orig))
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._installed):
            setattr(module, attr, orig)
        self._installed.clear()
        return False

    def _wrap(self, fn, name):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- counters, taken outside the span they describe --------------------

    def _before_numerics_bessel(self, args, kwargs):
        x = np.asarray(args[0] if args else kwargs["x"])
        lo = int(np.count_nonzero(x < _BESSEL_SPLIT))
        self.counts["numerics.bessel.points_lo"] += lo
        self.counts["numerics.bessel.points_hi"] += x.size - lo
        return args, kwargs

    def _before_numerics_integrate_periodic(self, args, kwargs):
        f = args[0] if args else kwargs.pop("f")
        counts = self.counts

        def counted(t):
            counts["numerics.integrate_periodic.evals"] += np.size(t)
            return f(t)

        return (counted,) + tuple(args[1:]), kwargs

    def _before_crystal_sp_azimuthal_profile(self, args, kwargs):
        # (probe, rec, film, n, phi, policy)
        self.profiles.append((args[2], args[3], args[5], int(np.size(args[4]))))
        return args, kwargs

    def _before_finite_array_mc_plane_average(self, args, kwargs):
        n = args[7] if len(args) > 7 else kwargs["n_samples"]
        self.counts["finite_array.mc_plane_average.samples"] += n
        return args, kwargs

    def _after_scenarios_write_tables(self, paths):
        self.counts["scenarios.write_tables.bytes"] += sum(
            Path(p).stat().st_size for p in paths)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name.

        Self time is a span's duration minus its children's durations.
        """
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[idx] = end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict = defaultdict(float)
        for idx, (name, *_rest) in enumerate(self.spans):
            self_s[name] += total[idx] - child[idx]
        return dict(calls), dict(self_s)

    def inclusive(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def g_sums(self) -> tuple[int, int, int, int]:
        """(orders profiled, admissible G summed over them, n_phi x n_G
        summed over profile calls, largest n_phi x n_G).

        G counts come from reciprocal_vectors, called here after the run.
        """
        sizes: dict = {}
        orders: set = set()
        terms = biggest = 0
        for film, n, policy, n_phi in self.profiles:
            key = (film, n, policy)
            if key not in sizes:
                sizes[key] = reciprocal_vectors(film, n, policy).shape[0]
            orders.add(key)
            terms += n_phi * sizes[key]
            biggest = max(biggest, n_phi * sizes[key])
        return len(orders), sum(sizes[k] for k in orders), terms, biggest

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}),
                        encoding="utf-8")
