"""Brute-force far-field amplitude and angular emission for finite sets of
nuclei, plus the Monte-Carlo impact-parameter average used to validate the
reciprocal-space path.

The dimensionless far-field amplitude for nuclei at r_j = (R_j, z_j) and a
beam crossing the transverse plane at R_p is

    g(Omega) = sum_j K1(omega0 |R_j - R_p| / (v gamma))
               e^{i omega0 z_j / v} e^{-i k0 . r_j} phi_hat_jp,

with k0 = (omega0/c) r_hat and phi_hat_jp the in-plane unit vector
perpendicular to R_j - R_p (phi_hat_jp = z_hat x unit(R_j - R_p)).  The
angle-resolved coherent emission probability is then

    Gamma_coh(Omega) = [9 Z^2 alpha / (8 pi (v/c)^2 gamma^2)]
                       [kappa_r^2 / (omega0 kappa)] |r_hat x g|^2.

Direct sums are correctly rounded (math.fsum) over reduced phase arguments,
so large arrays stay at full double precision.  Angles may be scalars or
broadcastable arrays: the angle-independent work is done once per call, and
the terms are formed in blocks of _BLOCK_TERMS, so memory is O(N) in nuclei.

The Monte-Carlo average over impact parameters in one z = 0 plane forms g
for a chunk of m samples and n sites at once, with real arithmetic only:
w = K1 / dist on the (m x n) grid, then g_x = (w (-dy)) @ B and
g_y = (w dx) @ B with B = [cos phase_j, -sin phase_j] the (n x 2) site
phases, whose two columns give the real and imaginary parts.  Its control
variate subtracts the nearest site's own term inside a capture disk and adds
back that term's exact mean, from the closed-form integral

    int x K1(x)^2 dx = F(x) = (x^2/2)(K1^2 - K0^2) - x K0 K1,

so no quadrature runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import CONSTANTS, bessel_k01, bessel_k1
from .numerics import integrate_adaptive  # noqa: F401  (traced by perfbench/spans.py)
from .nuclide import NuclideRecord
from .probe import Probe
from .single_nucleus import _dimensionless_scale

__all__ = [
    "NucleusSet",
    "far_field_amplitude",
    "angular_density",
    "square_plane_sites",
    "mc_plane_average",
]

# Bessel arguments beyond this bound contribute below 3e-20 of a unit term
# and are skipped in the Monte-Carlo batch path.
_ARG_CUT = 45.0
_MC_CHUNK = 2000
_BLOCK_TERMS = 1 << 16


@dataclass(frozen=True, eq=False)
class NucleusSet:
    """Finite collection of nucleus positions (N, 3) in nm, pairwise distinct."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError("positions must be a non-empty (N, 3) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if np.unique(pos, axis=0).shape[0] != pos.shape[0]:
            raise ValueError("positions must be pairwise distinct")
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.shape[0]


def _impact_point(r_p) -> np.ndarray:
    rp = np.asarray(r_p, dtype=float)
    if rp.shape != (2,):
        raise ValueError("impact point must have two transverse components")
    return rp


def _direction(theta, phi) -> np.ndarray:
    """Unit vectors r_hat with shape broadcast(theta, phi) + (3,)."""
    sin_t = np.sin(theta)
    return np.stack(np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi),
                                        np.cos(theta)), axis=-1)


def far_field_amplitude(probe: Probe, rec: NuclideRecord, nuclei: NucleusSet,
                        r_p, theta, phi) -> np.ndarray:
    """Dimensionless far-field amplitude g(Omega) in Cartesian components.

    theta and phi broadcast against each other; the result has their shape
    plus a trailing axis of 3, so scalar angles give shape (3,).
    """
    rp = _impact_point(r_p)
    pos = nuclei.positions
    d = pos[:, :2] - rp[None, :]
    dist = np.hypot(d[:, 0], d[:, 1])
    if np.any(dist == 0.0):
        raise ValueError("a nucleus transversely coincides with the impact point")

    vg = probe.velocity_nm_s * probe.gamma
    k1 = bessel_k1(rec.omega0_rad_s * dist / vg)
    k0n = rec.omega0_rad_s / CONSTANTS.c_nm_s
    two_pi = 2.0 * math.pi
    z_phase = np.mod(rec.omega0_rad_s * pos[:, 2] / probe.velocity_nm_s, two_pi)
    ux, uy = -d[:, 1] / dist, d[:, 0] / dist
    rhat = _direction(theta, phi)
    flat = rhat.reshape(-1, 3)
    g = np.zeros(flat.shape, dtype=complex)  # phi_hat_jp is in-plane: g_z = 0
    step = max(1, _BLOCK_TERMS // pos.shape[0])
    for lo in range(0, flat.shape[0], step):
        r = flat[lo:lo + step, :, None]
        # phases from reduced arguments; the two contributions are kept
        # separate so each stays well inside one period's worth of precision
        amp = 1j * (z_phase - np.mod(
            k0n * (pos[:, 0] * r[:, 0] + pos[:, 1] * r[:, 1] + pos[:, 2] * r[:, 2]),
            two_pi))
        np.exp(amp, out=amp)
        amp *= k1
        for i, a in enumerate(amp, lo):
            g[i, :2] = [complex(math.fsum(a.real * u), math.fsum(a.imag * u))
                        for u in (ux, uy)]
    return g.reshape(rhat.shape)


def angular_density(probe: Probe, rec: NuclideRecord, nuclei: NucleusSet,
                    r_p, theta, phi):
    """Coherent emission probability per solid angle for a finite set.

    Scalar angles give a float; arrays give their broadcast shape.
    """
    g = far_field_amplitude(probe, rec, nuclei, r_p, theta, phi)
    rhat = _direction(theta, phi)
    # |r_hat x g|^2 = |g|^2 - |r_hat . g|^2 for complex g, real unit r_hat
    # and g_z = 0
    cross = (np.abs(g[..., 0]) ** 2 + np.abs(g[..., 1]) ** 2
             - np.abs(rhat[..., 0] * g[..., 0] + rhat[..., 1] * g[..., 1]) ** 2)
    pref = 9.0 / (8.0 * math.pi) * _dimensionless_scale(probe, rec)
    out = pref * cross
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Monte-Carlo impact-parameter average over one atomic plane


def square_plane_sites(a_nm: float, half_extent: int) -> np.ndarray:
    """(2h+1)^2 square-lattice sites at z = 0, as an (N, 2) array in nm."""
    idx = np.arange(-half_extent, half_extent + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    return a_nm * np.column_stack([ii.ravel(), jj.ravel()]).astype(float)


def _plane_terms(sites: np.ndarray, rps: np.ndarray, rhat: np.ndarray,
                 delta: float, k0: float):
    """Per-sample |r_hat x g|^2 for a z = 0 plane, plus nearest-site data.

    Returns (x, dn, self_term): the squared transverse amplitude for each
    impact point in rps, the nearest-site distance, and that site's own
    contribution K1^2 (1 - (r_hat . phi_hat)^2) for control-variate use.
    Matches the per-point far_field_amplitude assembly to rounding.
    """
    # site-minus-sample offsets as two (m x n) arrays: an (m x n x 2) array
    # would run every elementwise loop over a length-2 inner axis
    dx = sites[:, 0] - rps[:, 0, None]
    dy = sites[:, 1] - rps[:, 1, None]
    dist = np.hypot(dx, dy)
    arg = delta * dist
    k1 = np.zeros_like(arg)
    small = arg < _ARG_CUT
    k1[small] = bessel_k1(arg[small])
    # g = sum_j (K1_j / dist_j) (-dy_j, dx_j) e^{-i phase_j}: two real
    # (m x n) @ (n x 2) products, whose columns are the real and imaginary
    # parts of g_x and g_y
    w = k1 / dist
    phase = k0 * (rhat[0] * sites[:, 0] + rhat[1] * sites[:, 1])
    basis = np.column_stack([np.cos(phase), -np.sin(phase)])
    gx = (w * -dy) @ basis
    gy = (w * dx) @ basis
    # |r_hat x g|^2 = |g|^2 - |r_hat . g|^2 for g_z = 0, summed over the
    # real and imaginary columns
    rg = rhat[0] * gx + rhat[1] * gy
    x = np.sum(gx * gx + gy * gy - rg * rg, axis=1)

    rows = np.arange(rps.shape[0])
    jmin = np.argmin(dist, axis=1)
    dn = dist[rows, jmin]
    k1n = k1[rows, jmin]
    px = -dy[rows, jmin] / dn
    py = dx[rows, jmin] / dn
    self_term = k1n ** 2 * (1.0 - (rhat[0] * px + rhat[1] * py) ** 2)
    return x, dn, self_term


def _k1_sq_disk_integral(delta: float, r_lo: float, r_hi: float) -> float:
    """int_{r_lo}^{r_hi} K1(delta r)^2 2 pi r dr, in closed form.

    F(x) = (x^2/2)(K1^2 - K0^2) - x K0 K1 has F'(x) = x K1(x)^2 and
    F(inf) = 0: it is the K analogue of the Lommel integral (DLMF 10.22.5),
    int x K1^2 dx = (x^2/2)(K1^2 - K0 K2), with K2 = K0 + 2 K1 / x.  The
    integral is (2 pi / delta^2) [F(delta r_hi) - F(delta r_lo)].
    """
    def antiderivative(x):
        k0, k1 = bessel_k01(x)
        return 0.5 * x * x * (k1 * k1 - k0 * k0) - x * k0 * k1

    return (2.0 * math.pi / (delta * delta)
            * (antiderivative(delta * r_hi) - antiderivative(delta * r_lo)))


def mc_plane_average(probe: Probe, rec: NuclideRecord, a_nm: float,
                     half_extent: int, theta: float, phi: float,
                     r_min_nm: float, n_samples: int, seed: int = 1,
                     control_variate: bool = True) -> float:
    """Monte-Carlo mean of |r_hat x g|^2 over impact parameters in one cell.

    Impact points are drawn uniformly over the central unit cell of a
    (2h+1) x (2h+1) single-plane square lattice; draws closer than r_min to
    any site are rejected and redrawn (the excluded-disk area is ~1e-5 of the
    cell for picometer cutoffs).  Sites whose Bessel argument would exceed 45
    contribute below 3e-20 per term and are skipped.

    The variance of the plain estimator is dominated by rare close
    encounters, so by default the nearest-site contribution inside a capture
    radius is subtracted per sample and restored analytically, from the
    radial integral in closed form (_k1_sq_disk_integral); this brings ~1e5
    samples to sub-percent precision.  r_min_nm must be below a/2, and below
    the capture radius 0.35 a when the control variate is on.

    Draw contract: the draws, and so the mean for a given seed, depend only
    on the arguments.  Samples come from numpy's default_rng(seed), m =
    min(_MC_CHUNK, 4 x the samples still needed) uniform points per chunk; a
    rejected point is dropped, the first n_samples kept points are summed,
    and no result depends on the BLAS thread count.
    """
    if not r_min_nm > 0:
        raise ValueError("r_min_nm must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    # draws lie within a/sqrt(2) of a site, so r_min >= a/sqrt(2) keeps none;
    # below a/2 the excluded disk leaves at least 1 - pi/4 of the cell
    if not r_min_nm < 0.5 * a_nm:
        raise ValueError("r_min_nm must be below a_nm / 2")
    capture = 0.35 * a_nm  # control-variate radius, safely inside the cell
    if control_variate and not r_min_nm < capture:
        raise ValueError("r_min_nm must be below the control-variate capture "
                         "radius 0.35 * a_nm")
    sites = square_plane_sites(a_nm, half_extent)
    delta = rec.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)  # 1/nm
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])
    # drop sites that can never matter for samples inside the central cell
    reach = _ARG_CUT / delta + a_nm
    sites = sites[np.hypot(sites[:, 0], sites[:, 1]) <= reach]
    if sites.shape[0] == 0:
        return 0.0

    rng = np.random.default_rng(seed)
    total = 0.0
    kept = 0
    while kept < n_samples:
        m = min(_MC_CHUNK, 4 * (n_samples - kept))
        rps = rng.uniform(-0.5 * a_nm, 0.5 * a_nm, size=(m, 2))
        x, dn, self_term = _plane_terms(sites, rps, rhat, delta, k0)
        ok = dn >= r_min_nm
        x = x[ok]
        dn = dn[ok]
        self_term = self_term[ok]
        if control_variate:
            x = x - np.where(dn < capture, self_term, 0.0)
        take = min(x.size, n_samples - kept)
        total += float(np.sum(x[:take]))
        kept += take
    mean = total / n_samples

    if control_variate:
        # exact mean of the subtracted term: the capture-disk integral of
        # K1(delta r)^2 over the cell area, times the azimuthal average of
        # 1 - (r_hat . phi_hat)^2
        ang = 1.0 - 0.5 * math.sin(theta) ** 2
        mean += ang * _k1_sq_disk_integral(delta, r_min_nm, capture) / (a_nm * a_nm)
    return mean
