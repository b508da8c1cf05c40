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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import CONSTANTS, bessel_k1, integrate_adaptive
from .nuclide import NuclideRecord
from .probe import Probe, TransverseGeometry
from .single_nucleus import _dimensionless_scale

__all__ = [
    "NucleusSet",
    "AngularGrid",
    "far_field_amplitude",
    "angular_density",
    "linear_array_pattern",
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


@dataclass(frozen=True, eq=False)
class AngularGrid:
    """Sampled per-solid-angle probability densities on a (theta, phi) grid."""

    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        phis = np.asarray(self.phis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(thetas) <= 0) or np.any(np.diff(phis) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if values.shape != (thetas.size, phis.size):
            raise ValueError("values must have shape (n_theta, n_phi)")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("densities must be finite and non-negative")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "values", values)

    @property
    def cos_thetas(self) -> np.ndarray:
        return np.cos(self.thetas)


def _impact_point(r_p) -> np.ndarray:
    if isinstance(r_p, TransverseGeometry):
        return r_p.as_array()
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


def linear_array_pattern(probe: Probe, rec: NuclideRecord, n_nuclei: int,
                         d_nm: float, standoff_nm: float,
                         n_points: int = 801) -> AngularGrid:
    """Angular pattern of a z-aligned linear array, observed in its plane.

    The nuclei sit at (0, 0, j d); the beam passes at (standoff, 0) and the
    pattern is sampled at phi = 0 on a grid uniform in cos(theta), so every
    interference order has the same sampling width.
    """
    if n_nuclei < 2:
        raise ValueError("n_nuclei must be at least 2")
    if not d_nm > 0 or not standoff_nm > 0:
        raise ValueError("d_nm and standoff_nm must be positive")
    z = d_nm * np.arange(n_nuclei)
    nuclei = NucleusSet(np.column_stack([np.zeros_like(z), np.zeros_like(z), z]))
    cos_grid = np.linspace(1.0, -1.0, n_points)  # theta ascending
    thetas = np.array([math.acos(c) for c in cos_grid])
    values = angular_density(probe, rec, nuclei, (standoff_nm, 0.0), thetas, 0.0)
    return AngularGrid(thetas=thetas, phis=np.array([0.0]), values=values[:, None])


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
    d = sites[None, :, :] - rps[:, None, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    arg = delta * dist
    k1 = np.zeros_like(arg)
    small = arg < _ARG_CUT
    k1[small] = bessel_k1(arg[small])
    phase = np.exp(-1j * k0 * (rhat[0] * sites[:, 0] + rhat[1] * sites[:, 1]))[None, :]
    gx = np.sum(k1 * phase * (-d[..., 1]) / dist, axis=1)
    gy = np.sum(k1 * phase * (d[..., 0]) / dist, axis=1)
    x = (np.abs(gx) ** 2 + np.abs(gy) ** 2
         - np.abs(rhat[0] * gx + rhat[1] * gy) ** 2)

    rows = np.arange(rps.shape[0])
    jmin = np.argmin(dist, axis=1)
    dn = dist[rows, jmin]
    k1n = k1[rows, jmin]
    px = -d[rows, jmin, 1] / dn
    py = d[rows, jmin, 0] / dn
    self_term = k1n ** 2 * (1.0 - (rhat[0] * px + rhat[1] * py) ** 2)
    return x, dn, self_term


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
    radius is subtracted per sample and restored analytically from the exact
    radial integral; this brings ~1e5 samples to sub-percent precision.
    r_min_nm must be below a/2, and below the capture radius 0.35 a when the
    control variate is on.
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
        # exact mean of the subtracted term: radial integral over the capture
        # disk times the azimuthal average of 1 - (r_hat . phi_hat)^2
        area = a_nm * a_nm
        ang = 1.0 - 0.5 * math.sin(theta) ** 2
        radial = integrate_adaptive(
            lambda r: bessel_k1(delta * r) ** 2 * 2.0 * math.pi * r / area,
            r_min_nm, capture, tol=1e-10)
        mean += ang * radial
    return mean
